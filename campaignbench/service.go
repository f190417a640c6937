package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/core"
	"limscan/internal/scan"
	"limscan/internal/service"
	"limscan/internal/trace"
)

// serviceWorkload drives an in-process campaign service at the limscand
// defaults with a closed loop of clients over loopback HTTP.
type serviceWorkload struct {
	circuit string
	clients int
	// fsimWorkers is Options.FsimWorkers (zero is the limscand default,
	// GOMAXPROCS).
	fsimWorkers int
}

// serviceJob is one submission of the fixed job list.
type serviceJob struct {
	spec service.Spec
	// hit marks a resubmission of a spec the same client already saw
	// finish, so the service must answer it from its cache.
	hit bool
}

// jobList builds each client's jobs: fresh seeds alternating N=64 and
// N=128, and after every second miss a resubmission of the client's
// earlier miss. misses is the total over all clients.
func (sw serviceWorkload) jobList(seed uint64, misses int) [][]serviceJob {
	lists := make([][]serviceJob, sw.clients)
	for k := 0; k < misses; k++ {
		c := k % sw.clients
		n := 64
		if (k/sw.clients)%2 == 1 {
			n = 128
		}
		sp := service.Spec{Circuit: sw.circuit, LA: 8, LB: 16, N: n, Seed: deriveSeed(seed, k)}
		lists[c] = append(lists[c], serviceJob{spec: sp})
		if own := len(lists[c]); (k/sw.clients)%2 == 1 {
			lists[c] = append(lists[c], serviceJob{spec: lists[c][own-2].spec, hit: true})
		}
	}
	return lists
}

// instance is one running service with its HTTP front end.
type instance struct {
	svc  *service.Service
	srv  *http.Server
	base string
	dir  string
	done chan error
}

// startService is the set-up setup_s times: service.New over a fresh
// state directory, a loopback listener, and a first 200 from /readyz.
func startService(dir string, fsimWorkers int, client *http.Client) (*instance, error) {
	svc, err := service.New(service.Options{StateDir: dir, FsimWorkers: fsimWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	in := &instance{svc: svc, srv: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { in.done <- in.srv.Serve(ln) }()
	resp, err := client.Get(in.base + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// stop shuts the front end and the service down, waits for both, and
// removes the state directory.
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx)
	<-in.done
	_ = in.svc.Shutdown(ctx)
	_ = os.RemoveAll(in.dir)
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	job      serviceJob
	view     service.View
	submit   time.Duration
	fetch    time.Duration
	report   []byte
	rejected bool
	err      error
}

// drive runs the closed loop: each client submits its next job only
// after fetching the previous one's report. Completion is awaited with
// Service.Wait, which returns the moment the job is done, so no polling
// interval adds to any latency.
func (in *instance) drive(client *http.Client, lists [][]serviceJob) [][]jobRecord {
	out := make([][]jobRecord, len(lists))
	var wg sync.WaitGroup
	for c := range lists {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range lists[c] {
				out[c] = append(out[c], in.runJob(client, j))
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (in *instance) runJob(client *http.Client, j serviceJob) jobRecord {
	rec := jobRecord{job: j}
	body, _ := json.Marshal(j.spec) // a Spec always encodes
	t0 := time.Now()
	resp, err := client.Post(in.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submit = time.Since(t0)
	if err != nil {
		rec.err = err
		return rec
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		rec.rejected = true
		rec.err = fmt.Errorf("submission rejected: %s", data)
		return rec
	}
	var sub struct {
		Campaign service.View `json:"campaign"`
	}
	if resp.StatusCode/100 != 2 {
		rec.err = fmt.Errorf("submit answered %s: %s", resp.Status, data)
		return rec
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		rec.err = fmt.Errorf("submit response: %w", err)
		return rec
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if rec.view, err = in.svc.Wait(ctx, sub.Campaign.ID); err != nil {
		rec.err = err
		return rec
	}
	if rec.view.State != service.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.view.ID, rec.view.State, rec.view.Error)
		return rec
	}
	t1 := time.Now()
	resp, err = client.Get(in.base + "/v1/campaigns/" + rec.view.ID + "/report")
	if err != nil {
		rec.err = err
		return rec
	}
	rec.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.fetch = time.Since(t1)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report answered %s", resp.Status)
	}
	rec.err = err
	return rec
}

// serviceSetupReps is how many service set-ups setup_s takes the
// median of, half before the job list and half after it.
const serviceSetupReps = 100

// runService is one service pass: a fresh instance, the job list, and
// the end-to-end metrics of the pass. It returns the instance still
// running so a traced pass can read the job traces before stopping it.
func (sw serviceWorkload) runService(o *outcome, client *http.Client, dir string, lists [][]serviceJob) (*instance, []jobRecord, bool) {
	in, err := startService(dir, sw.fsimWorkers, client)
	if err != nil {
		o.fail("starting the service: %v", err)
		return nil, nil, false
	}
	runtime.GC()
	w := startWindow()
	recs := in.drive(client, lists)
	wall, cpu, alloc := w.stop()
	var flat []jobRecord
	for _, r := range recs {
		flat = append(flat, r...)
	}
	// wall_s spans the first submission to the last completion.
	first, last := time.Time{}, time.Time{}
	done := 0
	for _, r := range flat {
		if r.err != nil {
			o.fail("job %v: %v", r.job.spec, r.err)
			continue
		}
		done++
		if first.IsZero() || r.view.Created.Before(first) {
			first = r.view.Created
		}
		if r.view.Finished.After(last) {
			last = *r.view.Finished
		}
	}
	span := last.Sub(first).Seconds()
	if span <= 0 {
		span = wall
	}
	o.values["wall_s"] = span
	o.values["cpu_s"] = cpu
	o.values["alloc_mb"] = alloc
	o.values["jobs_per_s"] = ratio(float64(done), span)
	o.values["job_p50_s"] = median(missLatencies(flat))
	return in, flat, true
}

// missLatencies returns each finished miss's seconds from submission to
// completion, queue wait included.
func missLatencies(recs []jobRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil && !r.view.CacheHit {
			out = append(out, r.view.Finished.Sub(r.view.Created).Seconds())
		}
	}
	return out
}

// runServiceWorkload is one run of the service workload; traced, it
// repeats the job list on a second fresh service with the benchmark's
// spans on, reads the jobs' checkpoint spans from /trace/{id}, and
// replays the missed specs through core behind the timing SessionRunner
// for the fsim, atpg and core layers.
func runServiceWorkload(sw serviceWorkload, name string, seed uint64, misses int, traced bool, root, traceDir string) *outcome {
	o := newOutcome()
	rec := trace.New()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sw.clients}}
	defer client.CloseIdleConnections()
	if err := os.MkdirAll(root, 0o755); err != nil {
		o.attempted = 1
		o.fail("state root: %v", err)
		return o
	}

	var setup []float64
	sample := func(n int) error {
		for i := -1; i < n; i++ {
			t0 := time.Now()
			in, err := startService(filepath.Join(root, fmt.Sprintf("setup%d", len(setup))), sw.fsimWorkers, client)
			if err != nil {
				return err
			}
			d := time.Since(t0)
			in.stop()
			if i >= 0 {
				setup = append(setup, d.Seconds())
			}
		}
		return nil
	}
	if err := sample(serviceSetupReps / 2); err != nil {
		o.attempted = 1
		o.fail("service set-up: %v", err)
		return o
	}

	lists := sw.jobList(seed, misses)
	for _, l := range lists {
		o.attempted += len(l)
	}
	in, recs, ok := sw.runService(o, client, filepath.Join(root, "state"), lists)
	o.values["peak_rss_mb"] = peakRSSMB()
	if !ok {
		return o
	}
	in.stop()
	o.noteDistribution("miss job latency", missLatencies(recs))
	if err := sample(serviceSetupReps - len(setup)); err != nil {
		o.fail("service set-up: %v", err)
	}
	o.values["setup_s"] = median(setup)
	o.noteDistribution("setup_s", setup)
	untracedWall := o.values["wall_s"]
	sw.checkReports(o, recs, 1)
	sw.coverage(o, recs)
	if !traced {
		return o
	}

	// The traced pass: same job list, fresh service, benchmark spans on.
	o.attempted += len(recs)
	in, tracedRecs, ok := sw.runService(o, client, filepath.Join(root, "traced"), lists)
	if !ok {
		return o
	}
	o.values["trace.overhead_ratio"] = ratio(o.values["wall_s"], untracedWall)
	// Every job loads the circuit, collapses its faults and builds a
	// runner inside the service; time those set-up layers directly.
	layers := &setupSamples{}
	if err := (campaignWorkload{circuit: sw.circuit}).sample(layers, rec, setupReps); err != nil {
		o.fail("set-up layers: %v", err)
	}
	layers.store(o)
	sw.serviceLayers(o, rec, in, client, tracedRecs)
	in.stop()
	o.values["core.test_cycles"] = o.values["test_cycles"]
	sw.checkReports(o, tracedRecs, 0)
	sw.replay(o, rec, seed, tracedRecs)
	writeTrace(o, rec, traceDir, name, seed)
	return o
}

// coverage stores coverage (mean over misses) and test_cycles (summed
// over distinct specs) from the jobs' summaries.
func (sw serviceWorkload) coverage(o *outcome, recs []jobRecord) {
	var cov []float64
	cycles := 0.0
	for _, r := range recs {
		if r.err != nil || r.view.CacheHit || r.view.Summary == nil {
			continue
		}
		cov = append(cov, r.view.Summary.Coverage)
		cycles += float64(r.view.Summary.TotalCycles)
	}
	o.values["coverage"] = mean(cov)
	o.values["test_cycles"] = cycles
}

// checkReports fails unless every cache hit served the bytes of the
// report it was stored from, and unless the first direct misses match
// a direct core run of the same spec (replay checks every miss).
func (sw serviceWorkload) checkReports(o *outcome, recs []jobRecord, direct int) {
	stored := make(map[service.Spec][]byte)
	for _, r := range recs {
		if r.err == nil && !r.view.CacheHit {
			stored[r.job.spec] = r.report
		}
	}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if r.job.hit != r.view.CacheHit {
			o.fail("job %s: cache hit %v, expected %v", r.view.ID, r.view.CacheHit, r.job.hit)
			continue
		}
		if r.view.CacheHit && !bytes.Equal(r.report, stored[r.job.spec]) {
			o.fail("job %s: cache-hit report differs from the report it was stored from", r.view.ID)
		}
	}
	if direct == 0 {
		return
	}
	c, err := bmark.Load(sw.circuit)
	if err != nil {
		o.fail("loading %s: %v", sw.circuit, err)
		return
	}
	checked := 0
	for _, r := range recs {
		if checked == direct || r.err != nil || r.view.CacheHit {
			continue
		}
		checked++
		sp := r.job.spec
		res, err := core.NewRunner(c).RunProcedure2(core.Config{LA: sp.LA, LB: sp.LB, N: sp.N, Seed: sp.Seed})
		if err != nil {
			o.fail("direct run of job %s: %v", r.view.ID, err)
			continue
		}
		if !bytes.Equal(campaignReport(c, res), r.report) {
			o.fail("job %s: service report differs from a direct core run of the same spec", r.view.ID)
		}
	}
	if checked == 0 {
		o.fail("no miss finished, so no report was checked against a direct run")
	}
}

// serviceLayers stores the service and checkpoint per-layer metrics of
// a traced pass, and records one span per job.
func (sw serviceWorkload) serviceLayers(o *outcome, rec *trace.Recorder, in *instance, client *http.Client, recs []jobRecord) {
	var submit, report, wait, run []float64
	hits, rejected, misses, writes := 0, 0, 0, 0
	var writeSec float64
	tk := rec.Track(trackService)
	for i, r := range recs {
		if r.rejected {
			rejected++
		}
		if r.err != nil {
			continue
		}
		submit = append(submit, float64(r.submit)/1e6)
		report = append(report, float64(r.fetch)/1e6)
		start := rec.Rel(r.view.Created)
		tk.Add("service", "job", start, r.view.Finished.Sub(r.view.Created),
			trace.KV{K: "job", V: int64(i)}, trace.KV{K: "cache_hit", V: b2i(r.view.CacheHit)})
		if r.view.CacheHit {
			hits++
			continue
		}
		misses++
		wait = append(wait, r.view.Started.Sub(r.view.Created).Seconds())
		run = append(run, r.view.Finished.Sub(*r.view.Started).Seconds())
		n, sec, err := checkpointSpans(client, in.base+"/trace/"+r.view.ID)
		if err != nil {
			o.fail("job %s trace: %v", r.view.ID, err)
			continue
		}
		writes += n
		writeSec += sec
	}
	v := o.values
	v["service.submit_p50_ms"] = median(submit)
	v["service.report_p50_ms"] = median(report)
	v["service.queue_wait_p50_s"] = median(wait)
	v["service.run_p50_s"] = median(run)
	v["service.cache_hits"] = float64(hits)
	v["service.hit_ratio"] = ratio(float64(hits), float64(len(recs)))
	v["service.rejected"] = float64(rejected)
	v["checkpoint.writes"] = ratio(float64(writes), float64(misses))
	v["checkpoint.write_s"] = ratio(writeSec, float64(misses))
}

// checkpointSpans downloads one job's execution trace and returns its
// checkpoint-write count and seconds. The service's /metrics does not
// carry the checkpoint counters (its campaign runners have no
// observer), but every write is a span in the job's trace.
func checkpointSpans(client *http.Client, url string) (int, float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s answered %s", url, resp.Status)
	}
	m, err := trace.Parse(data)
	if err != nil {
		return 0, 0, err
	}
	n, sec := 0, 0.0
	for _, t := range m.Tracks {
		for i := range t.Spans {
			if t.Spans[i].Name == trace.SpanCheckpoint {
				n++
				sec += t.Spans[i].Dur.Seconds()
			}
		}
	}
	return n, sec, nil
}

// replay reruns every missed spec through core behind the timing
// SessionRunner — the service builds its runners internally, so this
// is where the benchmark can time the fsim and atpg layers of the same
// campaigns — checks each report against the service's, and checks
// the untestable verdicts.
func (sw serviceWorkload) replay(o *outcome, rec *trace.Recorder, seed uint64, recs []jobRecord) {
	c, err := bmark.Load(sw.circuit)
	if err != nil {
		o.fail("loading %s: %v", sw.circuit, err)
		return
	}
	plan := scan.FullScan(c.NumSV())
	tp := newTracedPass(rec)
	var total time.Duration
	ops := 0
	for i, r := range recs {
		if r.err != nil || r.view.CacheHit {
			continue
		}
		sp := r.job.spec
		runner := core.NewRunner(c)
		tr, err := newTimingRunner(runner, plan, tp, int64(i))
		if err != nil {
			o.fail("timing runner: %v", err)
			return
		}
		runner.SetSessionRunner(tr)
		start := rec.Now()
		res, err := runner.RunProcedure2(core.Config{LA: sp.LA, LB: sp.LB, N: sp.N, Seed: sp.Seed})
		tr.finish()
		d := rec.Now() - start
		rec.Track(trackCore).Add("core", "replay", start, d, trace.KV{K: "job", V: int64(i)})
		if err != nil {
			o.fail("replay of job %s: %v", r.view.ID, err)
			continue
		}
		total += d
		ops++
		if !bytes.Equal(campaignReport(c, res), r.report) {
			o.fail("job %s: service report differs from a direct core run of the same spec", r.view.ID)
		}
	}
	if ops == 0 {
		return
	}
	tp.stats.layerValues(o, ops, total)
	tp.verifyUntestable(o, sw.circuit, seed)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
