// Package core implements the paper's contribution: random pattern
// generation for at-speed testing of full-scan circuits with randomly
// inserted limited scan operations.
//
// The flow mirrors Section 3 of the paper:
//
//   - An initial random test set TS0 of 2N tests (N of length L_A, N of
//     length L_B) is generated from a dedicated, fixed-seed random source
//     so it can be regenerated at will (GenerateTS0).
//   - Procedure 1 derives a test set TS(I,D1) from TS0 by inserting
//     limited scan operations at random time units: at each time unit
//     0 < u < L_i a draw r1 mod D1 decides (probability 1/D1) whether to
//     shift, and a second draw r2 mod D2 with D2 = N_SV + 1 picks the
//     shift amount (InsertLimitedScans).
//   - Procedure 2 greedily accumulates pairs (I,D1) whose test sets
//     detect new faults, simulating with fault dropping, until every
//     detectable fault is covered or N_SAME_FC consecutive iterations
//     bring no improvement (RunProcedure2).
package core

import (
	"context"
	"fmt"
	"time"

	"limscan/internal/atpg"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/lfsr"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// Config collects the paper's tunable parameters.
type Config struct {
	// LA, LB and N define TS0: N tests of length LA and N of length LB.
	LA, LB, N int
	// Seed is the campaign base seed. TS0 uses it directly; iteration I
	// of Procedure 1 uses the derived seed(I).
	Seed uint64
	// D1Order is the sequence of D1 values Procedure 2 tries at each
	// iteration. Nil means the paper's default 1,2,...,10; Table 7 uses
	// the descending order 10,9,...,1.
	D1Order []int
	// NSameFC is the number of consecutive iterations without coverage
	// improvement after which Procedure 2 gives up (the paper's
	// N_SAME_FC constant). Zero means 2.
	NSameFC int
	// MaxIterations caps I as a safety net. Zero means 60.
	MaxIterations int
	// ReseedPerTest follows the letter of Procedure 1: the random number
	// generator is re-initialized with seed(I) for every test, so equal-
	// length tests of one TS(I,D1) share a schedule. Disabling it keeps
	// one stream across the whole test set (an ablation knob).
	ReseedPerTest bool
	// UseLFSR draws every random value from a maximal-length LFSR bit
	// stream instead of the software SplitMix generator — the hardware-
	// faithful mode matching the paper's claim that the whole test
	// program regenerates from an LFSR with simple control logic. Both
	// modes are exactly reproducible; they produce different (equally
	// valid) test sets.
	UseLFSR bool
	// LFSRDegree sets the register width for UseLFSR. Zero means 32.
	LFSRDegree int
	// Observer receives campaign metrics, structured progress events and
	// phase spans (see internal/obs). Nil runs uninstrumented at zero
	// overhead.
	Observer *obs.Campaign
	// Workers is the number of goroutines fault simulation shards its
	// batches across (see fsim.Options.Workers). Zero defers to the
	// runner's SetWorkers value, and from there to GOMAXPROCS. Results
	// are byte-identical at any worker count.
	Workers int
}

// newSource builds the configured random source for a given seed. An
// invalid LFSR degree falls back to SplitMix so a campaign in progress
// still completes, but never silently: the fallback bumps the
// rng_lfsr_fallback_total counter and emits a warning event, and
// Validate rejects the configuration up front.
func (c Config) newSource(seed uint64) lfsr.Source {
	if c.UseLFSR {
		deg := c.LFSRDegree
		if deg == 0 {
			deg = 32
		}
		src, err := lfsr.NewSource(deg, seed)
		if err == nil {
			return src
		}
		c.Observer.Counter("rng_lfsr_fallback_total").Inc()
		c.Observer.Emit(obs.Event{
			Kind: obs.KindWarning,
			Msg:  fmt.Sprintf("UseLFSR requested but %v; falling back to SplitMix", err),
		})
	}
	return lfsr.NewSplitMix(seed)
}

func (c Config) withDefaults() Config {
	if c.D1Order == nil {
		c.D1Order = AscendingD1()
	}
	if c.NSameFC == 0 {
		c.NSameFC = 2
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 30
	}
	return c
}

// Validate rejects impossible parameter combinations.
func (c Config) Validate() error {
	if c.LA < 1 || c.LB < 1 || c.N < 1 {
		return fmt.Errorf("core: LA, LB and N must be positive (got %d, %d, %d)", c.LA, c.LB, c.N)
	}
	for _, d := range c.D1Order {
		if d < 1 {
			return fmt.Errorf("core: D1 values must be >= 1 (got %d)", d)
		}
	}
	if c.UseLFSR && c.LFSRDegree != 0 {
		if _, err := lfsr.NewSource(c.LFSRDegree, 1); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0 (got %d; zero means GOMAXPROCS)", c.Workers)
	}
	return nil
}

// AscendingD1 returns the paper's default D1 schedule 1..10.
func AscendingD1() []int {
	out := make([]int, 10)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// DescendingD1 returns the Table 7 schedule 10..1, which favors longer
// at-speed sequences between scan operations.
func DescendingD1() []int {
	out := make([]int, 10)
	for i := range out {
		out[i] = 10 - i
	}
	return out
}

// GenerateTS0 builds the base test set for a full-scan circuit: N random
// tests of length LA followed by N of length LB, all drawn from one
// source seeded with seed, so the set is exactly reproducible (the
// paper's dedicated PRPG).
func GenerateTS0(c *circuit.Circuit, cfg Config) []scan.Test {
	return GenerateTS0WithPlan(c, scan.FullScan(c.NumSV()), cfg)
}

// GenerateTS0WithPlan is GenerateTS0 for an arbitrary scan plan: the
// scan-in vectors cover only the scanned positions.
func GenerateTS0WithPlan(c *circuit.Circuit, plan scan.Plan, cfg Config) []scan.Test {
	src := cfg.newSource(cfg.Seed)
	tests := make([]scan.Test, 0, 2*cfg.N)
	gen := func(length int) scan.Test {
		t := scan.Test{SI: logic.NewVec(plan.Len())}
		for b := 0; b < plan.Len(); b++ {
			t.SI.Set(b, src.Bit())
		}
		for u := 0; u < length; u++ {
			v := logic.NewVec(c.NumPI())
			for b := 0; b < c.NumPI(); b++ {
				v.Set(b, src.Bit())
			}
			t.T = append(t.T, v)
		}
		return t
	}
	for i := 0; i < cfg.N; i++ {
		tests = append(tests, gen(cfg.LA))
	}
	for i := 0; i < cfg.N; i++ {
		tests = append(tests, gen(cfg.LB))
	}
	return tests
}

// InsertLimitedScans is Procedure 1 for a full-scan circuit: it derives
// TS(I,D1) from ts0. Every test keeps its SI and vectors; limited scan
// operations are inserted at time units 0 < u < L_i with probability
// 1/d1, shifting by r2 mod D2 positions where D2 = N_SV + 1, with the
// scanned-in fill bits drawn from the same stream. The schedule is a
// pure function of (cfg.Seed, I, d1).
func InsertLimitedScans(c *circuit.Circuit, ts0 []scan.Test, iteration, d1 int, cfg Config) []scan.Test {
	return InsertLimitedScansWithPlan(c, scan.FullScan(c.NumSV()), ts0, iteration, d1, cfg)
}

// InsertLimitedScansWithPlan is Procedure 1 over an arbitrary scan plan:
// D2 becomes the chain length plus one.
func InsertLimitedScansWithPlan(c *circuit.Circuit, plan scan.Plan, ts0 []scan.Test, iteration, d1 int, cfg Config) []scan.Test {
	cfg = cfg.withDefaults()
	d2 := plan.Len() + 1
	// seed(I) depends on I alone, as in the paper: the stored pair
	// (I, D1) fully determines TS(I,D1), and sets with equal I share a
	// draw stream interpreted through different moduli.
	seedI := lfsr.DeriveSeed(cfg.Seed, iteration)
	src := cfg.newSource(seedI)
	out := make([]scan.Test, len(ts0))
	for i := range ts0 {
		if cfg.ReseedPerTest {
			src = cfg.newSource(seedI)
		}
		t := scan.Test{
			SI:    ts0[i].SI,
			T:     ts0[i].T,
			Shift: make([]int, len(ts0[i].T)),
			Fill:  make([][]uint8, len(ts0[i].T)),
		}
		for u := 1; u < len(t.T); u++ {
			if lfsr.DrawZero(src, d1) {
				sh := lfsr.DrawMod(src, d2)
				t.Shift[u] = sh
				if sh > 0 {
					fill := make([]uint8, sh)
					for k := range fill {
						fill[k] = src.Bit()
					}
					t.Fill[u] = fill
				}
			}
		}
		out[i] = t
	}
	return out
}

// CoveragePoint is one sample of the campaign coverage curve, taken
// when a pair was selected: the cumulative detections and cycle cost
// after TS(I,D1) joined the program.
type CoveragePoint struct {
	I, D1    int
	Detected int
	Cycles   int64
	Coverage float64
}

// PairResult records one selected (I,D1) pair.
type PairResult struct {
	I, D1 int
	// Detected is the number of faults newly detected by TS(I,D1).
	Detected int
	// Cycles is N_cyc(I,D1) = N_cyc0 + N_SH(I,D1).
	Cycles int64
}

// Result is the outcome of Procedure 2 for one parameter combination.
type Result struct {
	Config Config

	// TotalFaults is the size of the collapsed fault universe;
	// Untestable counts ATPG-proven redundancies; Aborted counts faults
	// whose classification was inconclusive.
	TotalFaults int
	Untestable  int
	Aborted     int

	// InitialDetected and InitialCycles describe TS0 (the paper's
	// "initial" columns): faults detected and N_cyc0.
	InitialDetected int
	InitialCycles   int64

	// Pairs lists the selected (I,D1) pairs in selection order (the
	// paper's ID1_PAIRS; "app" is len(Pairs)).
	Pairs []PairResult
	// Curve samples the coverage curve at each selected pair.
	Curve []CoveragePoint
	// Detected is the total number of detected faults after all pairs.
	Detected int
	// TotalCycles is the paper's ~N_cyc: N_cyc0 plus the cost of every
	// selected TS(I,D1). Zero pairs means TS0 alone suffices and the
	// paper reports no "with lim. scan" columns.
	TotalCycles int64
	// AvgLS is the paper's ls statistic over the selected test sets.
	AvgLS float64
	// Complete reports whether every provably-detectable fault was
	// detected: nothing remains Undetected. Faults whose ATPG
	// classification was inconclusive even at the retry limit stay
	// Aborted and are reported in the Aborted field rather than blocking
	// completeness — the standard ATPG test-coverage convention.
	Complete bool
	// Iterations is the number of I values Procedure 2 consumed.
	Iterations int
	// CheckpointDegraded reports that the campaign finished while the
	// checkpoint writer was degraded: the final snapshot write failed
	// even after retries, so the on-disk snapshot (if any) is stale. The
	// result itself is complete and correct — checkpointing never feeds
	// back into Procedure 2 — but the CLIs exit with a distinct code so
	// operators notice.
	CheckpointDegraded bool
}

// Coverage returns detected / (total - untestable).
func (r *Result) Coverage() float64 {
	den := r.TotalFaults - r.Untestable
	if den == 0 {
		return 1
	}
	return float64(r.Detected) / float64(den)
}

// Runner bundles the per-circuit machinery needed to run campaigns.
type Runner struct {
	c    *circuit.Circuit
	plan scan.Plan
	sim  *fsim.Simulator
	eng  *atpg.Engine
	// verdicts caches ATPG classifications: a fault's detectability is a
	// property of the circuit alone, so campaigns over many parameter
	// combinations classify each fault at most once. hard records
	// whether an Aborted verdict already survived the high-limit retry.
	verdicts map[fault.Fault]atpg.Verdict
	hard     map[fault.Fault]bool
	// trans is the lazily built two-frame transition ATPG engine.
	trans *atpg.TransEngine
	// obs is the runner-level observer, used when a Config carries none.
	obs *obs.Campaign
	// tracer, when set, replaces the observer's recorder for the spans
	// the runner records itself: fsim runs, worker batches, merges and
	// checkpoint writes (see recorder).
	tracer *trace.Recorder
	// sessions, when set, intercepts every fault-simulation session of a
	// campaign (see SessionRunner in units.go) — the distributed-dispatch
	// seam. Nil keeps the in-process simulator.
	sessions SessionRunner
	// workers is the runner-level fault-simulation worker count, used
	// when a Config carries none (and by the cfg-less entry points:
	// TopOff, CoverageCurve).
	workers int
}

// SetObserver attaches a campaign observer to every run the runner
// executes (RunProcedure2, TopOff, FirstComplete). A Config.Observer, if
// set, takes precedence for that run. Nil detaches.
func (r *Runner) SetObserver(o *obs.Campaign) { r.obs = o }

// SetTracer attaches an execution-trace recorder to every run the
// runner executes: fault-simulation runs, per-worker batches, merges
// and checkpoint writes become spans (see internal/trace). Without it
// they land on the observer's own recorder, next to its phase spans —
// the one-recorder setup the CLIs use. Nil detaches. Tracing is purely
// observational: traced and untraced campaigns produce byte-identical
// results.
func (r *Runner) SetTracer(tr *trace.Recorder) { r.tracer = tr }

// recorder resolves the effective trace recorder for a run observed by
// o: the SetTracer recorder if any, else the observer's.
func (r *Runner) recorder(o *obs.Campaign) *trace.Recorder {
	if r.tracer != nil {
		return r.tracer
	}
	return o.Trace()
}

// observer resolves the effective observer for a run.
func (r *Runner) observer(cfg Config) *obs.Campaign {
	if cfg.Observer != nil {
		return cfg.Observer
	}
	return r.obs
}

// SetWorkers sets the fault-simulation worker count for every run the
// runner executes (see fsim.Options.Workers). A Config.Workers, if
// nonzero, takes precedence for that run; zero restores the default
// (GOMAXPROCS). Negative values are clamped to the serial path.
func (r *Runner) SetWorkers(n int) {
	if n < 0 {
		n = 1
	}
	r.workers = n
}

// fsimWorkers resolves the effective worker count for a run.
func (r *Runner) fsimWorkers(cfg Config) int {
	if cfg.Workers != 0 {
		return cfg.Workers
	}
	return r.workers
}

// NewRunner returns a full-scan Runner for the circuit.
func NewRunner(c *circuit.Circuit) *Runner {
	r, err := NewRunnerWithPlan(c, scan.FullScan(c.NumSV()))
	if err != nil {
		panic(err) // full scan over the circuit's own N_SV cannot fail
	}
	return r
}

// NewRunnerWithPlan returns a Runner over an arbitrary scan plan. Under
// partial scan the PODEM classification remains sound for untestability
// (a fault undetectable with full control is undetectable with less) but
// "testable" verdicts assume full scan, so Complete is generally
// unreachable and campaigns are judged by Coverage instead.
func NewRunnerWithPlan(c *circuit.Circuit, plan scan.Plan) (*Runner, error) {
	s, err := fsim.NewWithPlan(c, plan)
	if err != nil {
		return nil, err
	}
	return &Runner{
		c: c, plan: plan, sim: s, eng: atpg.New(c),
		verdicts: make(map[fault.Fault]atpg.Verdict),
		hard:     make(map[fault.Fault]bool),
	}, nil
}

// retryLimit scales the high-effort PODEM backtrack budget inversely
// with circuit size: each backtrack costs one O(gates) implication pass,
// so a fixed limit would make hard instances on large circuits take
// minutes each.
func (r *Runner) retryLimit() int {
	limit := 200000000 / (r.c.NumGates() + 1)
	if limit > 500000 {
		limit = 500000
	}
	if limit < 20000 {
		limit = 20000
	}
	return limit
}

// classifyRemaining marks ATPG-proven untestable (and aborted) faults in
// fs, using the runner's verdict cache. Faults aborted at the default
// backtrack limit get a second, 50x harder attempt: a handful of
// hard-to-prove redundancies would otherwise block the "complete
// coverage" criterion forever.
func (r *Runner) classifyRemaining(fs *fault.Set) (untestable, aborted int) {
	// Cap the number of expensive high-limit retries per call so a large
	// circuit with many hard instances cannot stall a campaign; the
	// verdict cache makes later calls pick up where this one stopped.
	retries := 32
	for _, i := range fs.Remaining() {
		f := fs.Faults[i]
		v, ok := r.verdicts[f]
		if !ok {
			v, _ = r.eng.Generate(f)
			r.verdicts[f] = v
		}
		if v == atpg.Aborted && !r.hard[f] && retries > 0 {
			retries--
			r.hard[f] = true
			saved := r.eng.BacktrackLimit
			r.eng.BacktrackLimit = r.retryLimit()
			v, _ = r.eng.Generate(f)
			r.eng.BacktrackLimit = saved
			r.verdicts[f] = v
		}
		switch v {
		case atpg.Untestable:
			fs.State[i] = fault.Untestable
			untestable++
		case atpg.Aborted:
			fs.State[i] = fault.Aborted
			aborted++
		}
	}
	return untestable, aborted
}

// Circuit returns the runner's netlist.
func (r *Runner) Circuit() *circuit.Circuit { return r.c }

// NewFaultSet builds the collapsed stuck-at fault set for the circuit.
func (r *Runner) NewFaultSet() *fault.Set {
	reps, _ := fault.Collapse(r.c, fault.Universe(r.c))
	return fault.NewSet(reps)
}

// RunProcedure2 executes Procedure 2 for one parameter combination on a
// fresh fault set and returns the full result. The detectability target
// is established by simulating TS0 first and then ATPG-classifying only
// the faults TS0 missed (anything TS0 detects is trivially testable).
func (r *Runner) RunProcedure2(cfg Config) (*Result, error) {
	return r.run(context.Background(), cfg, nil, nil)
}

// run is the shared Procedure 2 engine behind RunProcedure2,
// RunWithContext and ResumeWithContext. A nil snap starts fresh; a
// non-nil snap restores the fault set, selected pairs and accumulated
// totals from a checkpoint and continues at the next iteration. Because
// iteration I's schedule is a pure function of (Seed, I) and the fault
// set at the iteration boundary, the continued run retraces exactly the
// iterations the uninterrupted run would have executed.
func (r *Runner) run(ctx context.Context, cfg Config, ck *CheckpointOptions, snap *checkpoint.Snapshot) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := r.observer(cfg)
	cfg.Observer = o // newSource warnings reach the effective observer
	fs := r.NewFaultSet()
	res := &Result{Config: cfg, TotalFaults: len(fs.Faults)}
	o.Emit(obs.Event{Kind: obs.KindCampaignStart, Circuit: r.c.Name, Faults: res.TotalFaults})
	o.Counter("campaign_runs_total").Inc()
	ckw := &checkpointWriter{opts: ck, o: o, tr: r.recorder(o), wroteIter: -1}

	// Step 2: generate TS0. On resume this regenerates the identical
	// test set (it is a pure function of the configured seed) without
	// re-simulating it.
	span := o.StartPhase("ts0_gen")
	ts0 := GenerateTS0WithPlan(r.c, r.plan, cfg)
	span.End()

	var running, nSame, startIter int
	var selected [][]scan.Test
	if snap == nil {
		span = o.StartPhase("ts0_sim")
		st, err := r.runSession(ctx, cfg, SessionRef{}, ts0, fs, o)
		span.End()
		if err != nil {
			if ctx.Err() != nil {
				// Nothing completed: no snapshot to flush.
				return nil, &InterruptedError{Err: ctx.Err()}
			}
			return nil, err
		}
		res.InitialDetected = st.Detected
		res.InitialCycles = st.Cycles
		res.TotalCycles = st.Cycles
		o.Counter("campaign_cycles_total").Add(st.Cycles)
		o.Counter("campaign_detected_total").Add(int64(st.Detected))

		// Classify what TS0 missed so that "complete coverage" means
		// "all detectable faults" exactly as the paper reports it.
		span = o.StartPhase("classify")
		res.Untestable, res.Aborted = r.classifyRemaining(fs)
		span.End()
		o.Counter("campaign_untestable_total").Add(int64(res.Untestable))
		running = res.InitialDetected
		startIter = 1
		// The TS0 boundary is always worth a snapshot: the simulation
		// and classification above are the campaign's fixed cost.
		if err := ckw.boundary(r, cfg, res, fs, nSame, true); err != nil {
			return nil, err
		}
	} else {
		var err error
		running, nSame, err = restore(snap, res, fs)
		if err != nil {
			return nil, err
		}
		startIter = snap.Iteration + 1
		// Regenerate the selected test sets (pure functions of the
		// stored (I, D1) pairs) so AvgLS is computed over the same sets
		// the uninterrupted run accumulated.
		span = o.StartPhase("resume_regen")
		for _, p := range res.Pairs {
			selected = append(selected, InsertLimitedScansWithPlan(r.c, r.plan, ts0, p.I, p.D1, cfg))
		}
		span.End()
		o.Counter("checkpoint_resumes_total").Inc()
		o.Emit(obs.Event{Kind: obs.KindResumed, Circuit: r.c.Name, I: snap.Iteration, Detected: running})
		ckw.last = snap
	}
	detectable := res.TotalFaults - res.Untestable
	o.Gauge("campaign_faults_detectable").Set(float64(detectable))

	remaining := func() int {
		return len(fs.Remaining())
	}

	// Steps 3-6: iterate I; for each I sweep the D1 schedule. The
	// no-improvement cutoff lives in the loop condition (nSame only
	// changes at iteration boundaries, so this is the same break the
	// classic loop takes — and it lets a resumed run that was already
	// finished fall straight through to the report).
	//
	// The whole loop is one "search" phase span: procedure1/fault_sim
	// below use the quiet Accumulate path (they run thousands of times),
	// so this span is what gives the dominant cost a StartPhase bracket —
	// and with it a per-phase profile under -profile-dir. The
	// endSearch closure ends it exactly once whichever exit path runs,
	// including the error returns inside the loop (via the defer).
	searchSpan := o.StartPhase("search")
	searchEnded := false
	endSearch := func() {
		if !searchEnded {
			searchEnded = true
			searchSpan.End()
		}
	}
	defer endSearch()
	for iter := startIter; remaining() > 0 && iter <= cfg.MaxIterations && nSame < cfg.NSameFC; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, ckw.interrupt(err)
		}
		res.Iterations = iter
		improved := false
		for _, d1 := range cfg.D1Order {
			if remaining() == 0 {
				break
			}
			var t0 time.Time
			if o != nil {
				t0 = time.Now()
			}
			ts := InsertLimitedScansWithPlan(r.c, r.plan, ts0, iter, d1, cfg)
			if o != nil {
				o.Accumulate("procedure1", time.Since(t0))
				t0 = time.Now()
			}
			st, err := r.runSession(ctx, cfg, SessionRef{I: iter, D1: d1}, ts, fs, o)
			if o != nil {
				o.Accumulate("fault_sim", time.Since(t0))
			}
			if err != nil {
				if ctx.Err() != nil {
					return nil, ckw.interrupt(ctx.Err())
				}
				if errs.Is(err, errs.InternalPanic) {
					// A contained simulator panic aborts the campaign, but
					// the last completed iteration boundary is still good:
					// flush it so -resume can pick up there.
					_ = ckw.flush()
				}
				return nil, err
			}
			o.Counter("campaign_pairs_tried_total").Inc()
			o.Emit(obs.Event{
				Kind: obs.KindPairTried, I: iter, D1: d1,
				Detected: st.Detected, Cycles: st.Cycles, Remaining: remaining(),
			})
			if st.Detected > 0 {
				res.Pairs = append(res.Pairs, PairResult{
					I: iter, D1: d1, Detected: st.Detected, Cycles: st.Cycles,
				})
				res.TotalCycles += st.Cycles
				selected = append(selected, ts)
				improved = true
				running += st.Detected
				o.Counter("campaign_pairs_selected_total").Inc()
				o.Counter("campaign_cycles_total").Add(st.Cycles)
				o.Counter("campaign_detected_total").Add(int64(st.Detected))
				o.Emit(obs.Event{
					Kind: obs.KindPairSelected, I: iter, D1: d1,
					Detected: st.Detected, Cycles: st.Cycles,
				})
				if detectable > 0 {
					cov := float64(running) / float64(detectable)
					res.Curve = append(res.Curve, CoveragePoint{
						I: iter, D1: d1, Detected: running,
						Cycles: res.TotalCycles, Coverage: cov,
					})
					o.Emit(obs.Event{
						Kind: obs.KindCoverage, Detected: running, Cycles: res.TotalCycles,
						Coverage: cov,
					})
				}
			}
		}
		o.Counter("campaign_iterations_total").Inc()
		o.Emit(obs.Event{
			Kind: obs.KindIteration, I: iter,
			Detected: running, Remaining: remaining(),
		})
		if improved {
			nSame = 0
		} else {
			nSame++
		}
		if err := ckw.boundary(r, cfg, res, fs, nSame, false); err != nil {
			return nil, err
		}
	}

	endSearch()

	res.Detected = fs.Count(fault.Detected)
	res.Aborted = fs.Count(fault.Aborted) // aborts that also evaded detection
	res.Complete = fs.Count(fault.Undetected) == 0
	res.AvgLS = scan.AverageLS(selected)
	o.Gauge("campaign_coverage").Set(res.Coverage())
	o.Gauge("campaign_ls_avg").Set(res.AvgLS)
	o.Emit(obs.Event{
		Kind: obs.KindCampaignEnd, Circuit: r.c.Name,
		Detected: res.Detected, Cycles: res.TotalCycles, Coverage: res.Coverage(),
	})
	// Leave the checkpoint file holding the final state: resuming a
	// finished campaign reproduces its report without redoing work.
	if err := ckw.boundary(r, cfg, res, fs, nSame, true); err != nil {
		return nil, err
	}
	res.CheckpointDegraded = ckw.degraded
	return res, nil
}
