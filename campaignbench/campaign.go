package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/report"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// campaignWorkload is one Procedure 2 campaign shape: a circuit, a scan
// plan, and either one RunProcedure2 or a FirstComplete walk.
type campaignWorkload struct {
	circuit string
	// partial scans every other flip-flop, as examples/partialscan does.
	partial bool
	// la, lb, n set the RunProcedure2 combination; auto walks
	// combinations with FirstComplete instead, at most maxCombos.
	la, lb, n int
	auto      bool
	maxCombos int
	// maxIterations caps Procedure 2's iterations (zero is the program
	// default). At 2, which is also the default no-improvement limit,
	// every combination that does not reach complete coverage runs
	// exactly two iterations: the search length then no longer depends
	// on how lucky the seed is.
	maxIterations int
	// workers is Config.Workers (zero is the program default,
	// GOMAXPROCS).
	workers int
}

func (cw campaignWorkload) plan(c *circuit.Circuit) (scan.Plan, error) {
	if !cw.partial {
		return scan.FullScan(c.NumSV()), nil
	}
	var scanned []int
	for pos := 0; pos < c.NumSV(); pos += 2 {
		scanned = append(scanned, pos)
	}
	return scan.PartialScan(c.NumSV(), scanned)
}

// newRunner is the set-up the benchmark times as setup_s: load the
// circuit, collapse its faults, build the runner.
func (cw campaignWorkload) newRunner() (c *circuit.Circuit, plan scan.Plan, r *core.Runner, times [3]time.Duration, collapsed int, err error) {
	t0 := time.Now()
	c, err = bmark.Load(cw.circuit)
	if err != nil {
		return
	}
	t1 := time.Now()
	reps, _ := fault.Collapse(c, fault.Universe(c))
	t2 := time.Now()
	if plan, err = cw.plan(c); err != nil {
		return
	}
	r, err = core.NewRunnerWithPlan(c, plan)
	t3 := time.Now()
	times = [3]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
	return c, plan, r, times, len(reps), err
}

// execute runs one campaign and returns the results it can be checked
// by: the one RunProcedure2 result, or FirstComplete's chosen and best.
func (cw campaignWorkload) execute(r *core.Runner, seed uint64) ([]*core.Result, error) {
	cfg := core.Config{LA: cw.la, LB: cw.lb, N: cw.n, Seed: seed, Workers: cw.workers, MaxIterations: cw.maxIterations}
	if !cw.auto {
		res, err := r.RunProcedure2(cfg)
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, nil
	}
	cr, err := r.FirstComplete(core.CampaignOptions{Base: cfg, MaxCombos: cw.maxCombos})
	if err != nil {
		return nil, err
	}
	out := []*core.Result{cr.Best}
	if cr.Chosen != nil && cr.Chosen != cr.Best {
		out = append(out, cr.Chosen)
	}
	return out, nil
}

// headline is the result a campaign's coverage and test_cycles come
// from: FirstComplete's chosen result, or its best when none completed.
func headline(results []*core.Result) *core.Result {
	for _, r := range results {
		if r.Complete {
			return r
		}
	}
	return results[0]
}

// setupReps is how many set-ups setup_s takes the median of: one takes
// 1-2 ms and does not repeat within a tenth. A run takes them in bursts
// spread over the run, so one slow stretch of the host does not set the
// median.
const setupReps = 200

// setupSamples collects timed set-ups: bmark.Load, fault collapse and
// runner construction, each and in total.
type setupSamples struct {
	total, load, collapse, runner []float64
	collapsed                     int
}

// sample times n set-ups after one untimed warm-up.
func (cw campaignWorkload) sample(s *setupSamples, rec *trace.Recorder, n int) error {
	for i := -1; i < n; i++ {
		start := rec.Now()
		_, _, _, t, collapsed, err := cw.newRunner()
		if err != nil {
			return err
		}
		if i < 0 {
			continue
		}
		sum := t[0] + t[1] + t[2]
		rec.Track(trackSetup).Add("setup", "setup", start, sum, trace.KV{K: "rep", V: int64(len(s.total))})
		s.collapsed = collapsed
		s.total = append(s.total, sum.Seconds())
		s.load = append(s.load, t[0].Seconds())
		s.collapse = append(s.collapse, t[1].Seconds())
		s.runner = append(s.runner, t[2].Seconds())
	}
	return nil
}

// store records the per-layer set-up metrics and returns the median
// set-up seconds.
func (s *setupSamples) store(o *outcome) float64 {
	o.values["bmark.load_s"] = median(s.load)
	o.values["fault.collapse_s"] = median(s.collapse)
	o.values["core.new_runner_s"] = median(s.runner)
	o.values["fault.collapsed"] = float64(s.collapsed)
	return median(s.total)
}

// campaignRun is one campaign the run executed, kept for the checks.
type campaignRun struct {
	seed    uint64
	results []*core.Result
}

// runCampaigns executes ops campaigns with seeds derived from seed, each
// on a fresh runner, and returns them with their per-campaign wall, CPU
// and allocation samples. When tp is not nil every campaign runs
// behind the timing SessionRunner with the program's own tracer
// attached, and tp collects what it saw. When setup is not nil a burst
// of set-ups is timed before each campaign.
func (cw campaignWorkload) runCampaigns(o *outcome, seed uint64, ops int, tp *tracedPass, setup *setupSamples) (runs []campaignRun, wall, cpu, alloc []float64) {
	for k := 0; k < ops; k++ {
		if setup != nil {
			if err := cw.sample(setup, trace.New(), setupReps/(ops+1)); err != nil {
				o.fail("set-up: %v", err)
			}
		}
		s := deriveSeed(seed, k)
		_, plan, r, _, _, err := cw.newRunner()
		if err != nil {
			o.fail("campaign %d set-up: %v", k, err)
			continue
		}
		var tr *timingRunner
		var start time.Duration
		if tp != nil {
			if tr, err = newTimingRunner(r, plan, tp, int64(k)); err != nil {
				o.fail("campaign %d timing runner: %v", k, err)
				continue
			}
			r.SetSessionRunner(tr)
			r.SetTracer(tp.rec)
		}
		runtime.GC()
		if tp != nil {
			start = tp.rec.Now()
		}
		w := startWindow()
		results, err := cw.execute(r, s)
		if tr != nil {
			tr.finish()
		}
		wl, cp, al := w.stop()
		if tp != nil {
			tp.rec.Track(trackCore).Add("core", "campaign", start, tp.rec.Now()-start,
				trace.KV{K: "job", V: int64(k)}, trace.KV{K: "seed_low", V: int64(s & 0xffffffff)})
		}
		if err != nil {
			o.fail("campaign %d (seed %d): %v", k, s, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "campaign %d seed %d: %.3f s wall, %.3f s cpu\n", k, s, wl, cp)
		runs = append(runs, campaignRun{seed: s, results: results})
		wall, cpu, alloc = append(wall, wl), append(cpu, cp), append(alloc, al)
	}
	return runs, wall, cpu, alloc
}

// checkRuns replays every run's results (outside any timed window).
func (cw campaignWorkload) checkRuns(o *outcome, runs []campaignRun) {
	c, err := bmark.Load(cw.circuit)
	if err != nil {
		o.fail("loading %s for the checks: %v", cw.circuit, err)
		return
	}
	plan, err := cw.plan(c)
	if err != nil {
		o.fail("scan plan for the checks: %v", err)
		return
	}
	for _, run := range runs {
		for _, res := range run.results {
			if err := checkResult(c, plan, res); err != nil {
				o.fail("campaign seed %d, (%d,%d,%d): %v", run.seed, res.Config.LA, res.Config.LB, res.Config.N, err)
			}
		}
	}
}

// runCampaignWorkload is one run of a campaign workload. Untraced, it
// reports the end-to-end metrics over ops campaigns. Traced, it runs
// the same campaigns untraced and then traced, and reports the
// per-layer metrics of the traced pass.
func runCampaignWorkload(cw campaignWorkload, name string, seed uint64, ops int, traced bool, traceDir string) *outcome {
	o := newOutcome()
	o.attempted = ops
	rec := trace.New()
	setup := &setupSamples{}
	runs, wall, cpu, alloc := cw.runCampaigns(o, seed, ops, nil, setup)
	o.values["peak_rss_mb"] = peakRSSMB()
	if err := cw.sample(setup, rec, setupReps-len(setup.total)); err != nil {
		o.fail("set-up: %v", err)
	}
	o.values["setup_s"] = setup.store(o)
	o.noteDistribution("setup_s", setup.total)
	o.values["wall_s"] = mean(wall)
	o.values["cpu_s"] = mean(cpu)
	o.values["alloc_mb"] = mean(alloc)
	o.values["job_p50_s"] = median(wall)
	o.noteDistribution("campaign wall_s", wall)
	o.values["jobs_per_s"] = ratio(float64(len(wall)), sum(wall))
	var cov, cyc []float64
	for _, run := range runs {
		h := headline(run.results)
		cov = append(cov, h.Coverage())
		cyc = append(cyc, float64(h.TotalCycles))
	}
	o.values["coverage"] = mean(cov)
	o.values["test_cycles"] = mean(cyc)
	cw.checkRuns(o, runs)
	if !traced {
		return o
	}

	tp := newTracedPass(rec)
	o.attempted += ops
	tracedRuns, tracedWall, _, _ := cw.runCampaigns(o, seed, ops, tp, nil)
	tp.stats.layerValues(o, ops, secondsDuration(sum(tracedWall)))
	o.values["core.test_cycles"] = o.values["test_cycles"]
	o.values["trace.overhead_ratio"] = ratio(median(tracedWall), median(wall))
	cw.checkRuns(o, tracedRuns)
	sameReports(o, cw.circuit, runs, tracedRuns)

	tp.verifyUntestable(o, cw.circuit, seed)
	writeTrace(o, rec, traceDir, name, seed)
	return o
}

// sameReports fails unless the traced pass reproduced the untraced
// pass's reports byte for byte: tracing must not change results.
func sameReports(o *outcome, circuitName string, a, b []campaignRun) {
	c, err := bmark.Load(circuitName)
	if err != nil {
		o.fail("loading %s: %v", circuitName, err)
		return
	}
	if len(a) != len(b) {
		o.fail("traced pass finished %d campaigns, untraced %d", len(b), len(a))
		return
	}
	for i := range a {
		ra, rb := campaignReport(c, headline(a[i].results)), campaignReport(c, headline(b[i].results))
		if !bytes.Equal(ra, rb) {
			o.fail("campaign seed %d: traced report differs from untraced", a[i].seed)
		}
	}
}

func campaignReport(c *circuit.Circuit, res *core.Result) []byte {
	var buf bytes.Buffer
	_ = report.WriteCampaign(&buf, c, res) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// writeTrace exports the run's spans to dir as Chrome trace-event JSON
// (Perfetto, perf trace).
func writeTrace(o *outcome, rec *trace.Recorder, dir, name string, seed uint64) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		o.fail("trace export: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	f, err := os.Create(path)
	if err != nil {
		o.fail("trace export: %v", err)
		return
	}
	werr := rec.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		o.fail("trace export: %v", werr)
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
