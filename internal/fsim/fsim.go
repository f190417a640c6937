// Package fsim is a bit-parallel stuck-at fault simulator for scan
// circuits under the paper's test form: complete scan-in, primary input
// vectors applied at speed with optional limited scan operations between
// them, and a complete scan-out that overlaps the next test's scan-in.
//
// Faults are packed 63 per machine word with the good machine in lane 0.
// A fault is detected when an observed value — a primary output at any
// functional time unit, or a bit shifted out of the scan chain during a
// limited or complete scan operation — differs from the good machine's.
//
// The scan chain is modeled as a ring buffer over word-valued flip-flop
// slots, so a complete scan operation costs O(N_SV) word operations
// rather than O(N_SV^2). Partial scan (the paper's concluding remark) is
// supported through scan.Plan: unscanned flip-flops hold their values
// during scan operations.
package fsim

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/misr"
	"limscan/internal/obs"
	"limscan/internal/scan"
	"limscan/internal/sim"
	"limscan/internal/trace"
)

// LanesPerWord is the number of faults simulated concurrently per batch
// (lane 0 carries the good machine).
const LanesPerWord = 63

// Options tunes a simulation run. Run picks the simulation kernel
// itself (see chooseKernel); no option selects it.
type Options struct {
	// FaultsPerPass caps the number of faults packed into one batch.
	// Zero means LanesPerWord; values above LanesPerWord or below zero
	// are rejected by Validate. Smaller values are only useful for the
	// packing-width ablation benchmarks. The batch is also the sharding
	// and merge unit of the pattern-parallel kernel, which is why
	// checkpoint chunk geometry and stats are kernel-independent.
	FaultsPerPass int
	// Workers is the number of goroutines fault batches are sharded
	// across. Zero means runtime.GOMAXPROCS(0); one forces the serial
	// path. Because every fault is simulated against the same tests in
	// exactly one batch and the per-batch results are merged in batch
	// order, RunStats and the fault set are byte-identical at any worker
	// count (see TestParallelMatchesSerialBmarks).
	Workers int
	// NoEarlyExit disables stopping a batch once every fault in it has
	// been detected (for ablation benchmarks).
	NoEarlyExit bool
	// MISRDegree switches detection from exact stream comparison to
	// hardware-faithful signature compaction: every observed value is
	// fed into a multiple-input signature register of this degree, and a
	// fault counts as detected only if its final signature differs from
	// the good machine's. Zero keeps exact comparison. Compaction can
	// alias (probability about 2^-degree per fault), which is the point
	// of exposing it.
	MISRDegree int
	// Ctx, when set, is polled between fault batches: a canceled context
	// aborts the run with the context's error. On the serial path the
	// batches merged before cancellation have already marked fs, so a
	// canceled run leaves the fault set partially updated — callers that
	// resume must rebuild their fault set from a checkpoint rather than
	// reuse it. The sharded path discards all batch results on
	// cancellation and never touches fs. A nil Ctx keeps the hot path
	// free of polling.
	Ctx context.Context
	// Obs, when set, records per-run metrics (simulated cycles, tests,
	// batches, lane utilization) and enables detection-site attribution
	// in RunStats (exact-comparison mode only: under MISR compaction the
	// verdict exists only after the whole session, so no single site can
	// be credited). Nil keeps the hot path untouched.
	Obs *obs.Campaign
	// Trace, when set, records an execution trace of the run: one
	// fsim_run span on the campaign track, per-worker batch spans,
	// merge-barrier wait spans and the ordered-merge span (see
	// internal/trace). Recording happens strictly after batch results
	// exist and the merge never consults it, so traced and untraced runs
	// are byte-identical. The fsim_run span also advances Obs's
	// phase_seconds gauge, and on Obs's own recorder it is the phase
	// summary's fsim_run row. Nil keeps the hot path untouched.
	Trace *trace.Recorder
	// EmitBatchEvents additionally emits one fsim_batch event per fault
	// batch through Obs — live progress for a single long simulation
	// run. Leave it off inside campaigns, where runs number in the
	// hundreds.
	EmitBatchEvents bool

	// kernel, when not kernelAuto, overrides chooseKernel. Only this
	// package's differential tests set it.
	kernel kernel
}

// Validate rejects impossible option combinations. Run calls it on
// entry; callers building Options from external input (flags, configs)
// can call it earlier for a better error site.
func (o Options) Validate() error {
	if o.FaultsPerPass < 0 || o.FaultsPerPass > LanesPerWord {
		return fmt.Errorf("fsim: FaultsPerPass must be in [0, %d] (got %d; zero means %d)",
			LanesPerWord, o.FaultsPerPass, LanesPerWord)
	}
	if o.Workers < 0 {
		return fmt.Errorf("fsim: Workers must be >= 0 (got %d; zero means GOMAXPROCS)", o.Workers)
	}
	if o.MISRDegree < 0 {
		return fmt.Errorf("fsim: MISRDegree must be >= 0 (got %d)", o.MISRDegree)
	}
	return nil
}

// Detection sites: where an observed value first exposed a fault. These
// are the paper's observation channels — primary outputs during at-speed
// cycles, bits pushed out by limited scan operations, and bits leaving
// during complete scan-out (including the scan-out overlapped with the
// next test's scan-in).
const (
	sitePO = iota
	siteLimitedScan
	siteScanOut
	numSites
)

// RunStats reports the outcome of simulating one BIST session.
type RunStats struct {
	// Detected is the number of faults newly detected in this run.
	Detected int
	// Cycles is the session's clock-cycle cost per the paper's model
	// (it depends only on the tests, not on the faults).
	Cycles int64
	// Batches is the number of fault batches the run was packed into.
	Batches int
	// DetectedAtPO, DetectedAtLimitedScan and DetectedAtScanOut
	// attribute each detection to the observation site that first
	// exposed the fault (primary output, limited-scan shift-out,
	// complete scan-out). They are populated only when Options.Obs is
	// set and MISRDegree is zero; then their sum equals Detected.
	DetectedAtPO          int
	DetectedAtLimitedScan int
	DetectedAtScanOut     int
	// CheckpointDegraded reports that a checkpointed session finished
	// with its final snapshot write failed (see SessionCheckpoint): the
	// stats are complete and correct, but the on-disk snapshot is stale.
	// Plain Run never sets it.
	CheckpointDegraded bool
}

// Simulator simulates test sessions for one circuit. It is not safe for
// concurrent use; create one per goroutine.
type Simulator struct {
	c    *circuit.Circuit
	ev   *sim.Evaluator
	plan scan.Plan
	cost scan.CostModel

	// ring holds the scanned flip-flop values: chain element k lives in
	// ring[(head+k) % len(ring)]. hold carries unscanned positions.
	ring     []logic.Word
	head     int
	hold     []logic.Word
	chainIdx []int // position -> chain index, -1 if unscanned

	forces *sim.Forces
	// stateStuck pins a scan position to a stuck value in given lanes
	// (flip-flop output faults); captureStuck forces the value captured
	// by a flip-flop at functional clocks (flip-flop input faults).
	stateStuck   []laneForce
	captureStuck []laneForce

	// pool holds the lazily created per-worker clones used by sharded
	// runs; they are reused across Run calls so campaigns pay the clone
	// cost once per worker, not once per session.
	pool []*Simulator
}

type laneForce struct {
	pos  int
	mask logic.Word
	val  logic.Word
}

// New returns a full-scan Simulator for c.
func New(c *circuit.Circuit) *Simulator {
	s, err := NewWithPlan(c, scan.FullScan(c.NumSV()))
	if err != nil {
		panic(err) // full scan over the circuit's own N_SV cannot fail
	}
	return s
}

// NewWithPlan returns a Simulator using the given scan plan (full or
// partial).
func NewWithPlan(c *circuit.Circuit, plan scan.Plan) (*Simulator, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Total != c.NumSV() {
		return nil, fmt.Errorf("fsim: plan covers %d state variables, circuit has %d", plan.Total, c.NumSV())
	}
	s := &Simulator{
		c:        c,
		ev:       sim.NewEvaluator(c),
		plan:     plan,
		cost:     scan.CostModel{NSV: plan.Len()},
		ring:     make([]logic.Word, plan.Len()),
		hold:     make([]logic.Word, c.NumSV()),
		chainIdx: make([]int, c.NumSV()),
		forces:   sim.NewForces(c),
	}
	for i := range s.chainIdx {
		s.chainIdx[i] = -1
	}
	for k, pos := range plan.Chain {
		s.chainIdx[pos] = k
	}
	return s, nil
}

// Circuit returns the simulated netlist.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// Plan returns the scan plan in use.
func (s *Simulator) Plan() scan.Plan { return s.plan }

// Run simulates one BIST session applying tests in order against the
// remaining faults of fs, marks newly detected faults in fs (fault
// dropping), and returns the session statistics. Faults already Detected
// or Untestable are skipped.
//
// A panic anywhere in the simulation — serial loop or sharded worker —
// is contained at this boundary and returned as an error matching
// errs.InternalPanic, carrying the panicking goroutine's stack. On the
// serial path batches merged before the panic have already marked fs
// (like cancellation); the sharded path never touches fs.
func (s *Simulator) Run(tests []scan.Test, fs *fault.Set, opts Options) (stats RunStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := errs.NewPanic(r, debug.Stack())
			err = fmt.Errorf("fsim: contained panic: %w", pe)
			if o := opts.Obs; o != nil {
				o.Counter("fsim_worker_panics_total").Inc()
				o.Emit(obs.Event{Kind: obs.KindWarning,
					Msg: fmt.Sprintf("fault simulation panicked (run aborted): %v", pe.Value)})
			}
		}
	}()
	if err := opts.Validate(); err != nil {
		return RunStats{}, err
	}
	per := opts.FaultsPerPass
	if per == 0 {
		per = LanesPerWord
	}
	for i := range tests {
		if err := tests[i].Validate(s.c.NumPI(), s.plan.Len()); err != nil {
			return RunStats{}, fmt.Errorf("fsim: test %d: %w", i, err)
		}
	}
	stats = RunStats{Cycles: s.cost.SessionCycles(tests)}
	rem := fs.Remaining()
	k := opts.kernel
	if k == kernelAuto {
		k = s.chooseKernel(tests, fs.Faults, rem, opts)
	}
	var eng *ppEngine
	if k == kernelPattern {
		var engErr error
		eng, engErr = s.newPatternEngine(tests, fs.Faults, rem, opts)
		if engErr != nil {
			return RunStats{}, engErr
		}
	}
	tr := opts.Trace
	var runStart time.Duration
	if tr != nil {
		runStart = tr.Now()
	}
	w := opts.effectiveWorkers((len(rem) + per - 1) / per)
	if w > 1 {
		if err := s.runSharded(tests, fs, rem, per, w, eng, opts, &stats); err != nil {
			return stats, err
		}
	} else {
		var pw *ppWorker
		if eng != nil {
			pw = eng.newWorker()
		}
		var sites *[numSites]logic.Word
		if opts.Obs != nil && opts.MISRDegree == 0 {
			sites = new([numSites]logic.Word)
		}
		// On the serial path the caller's goroutine is the one worker, so
		// its batch spans land on worker track 0.
		var wt *trace.Track
		if tr != nil {
			wt = tr.Track(trace.WorkerTrackPrefix + "0")
		}
		for start := 0; start < len(rem); start += per {
			if opts.Ctx != nil {
				if err := opts.Ctx.Err(); err != nil {
					return stats, err
				}
			}
			end := start + per
			if end > len(rem) {
				end = len(rem)
			}
			batch := rem[start:end]
			if sites != nil {
				*sites = [numSites]logic.Word{}
			}
			if h := PanicHook; h != nil {
				h(start / per)
			}
			var bs time.Duration
			if wt != nil {
				bs = tr.Now()
			}
			det := s.simBatch(pw, tests, fs.Faults, batch, opts, sites)
			if wt != nil {
				wt.Add(trace.CatBatch, trace.SpanBatch, bs, tr.Now()-bs,
					trace.KV{K: "batch", V: int64(start / per)},
					trace.KV{K: "faults", V: int64(len(batch))})
			}
			s.mergeBatch(&stats, fs, batch, det, sites, opts)
		}
	}
	if tr != nil {
		// A run span, not a phase bracket: Run fires thousands of times
		// per campaign, so an event and a profile capture per call would
		// drown the observability it feeds. The campaign-level "search"
		// phase brackets these from above. A span keeps two attributes:
		// the worker count (read by trace.Analyze) and the kernel chosen;
		// the batch count is the run's batch spans.
		d := tr.Now() - runStart
		tr.Track(trace.MainTrack).Add(trace.CatRun, trace.SpanRun, runStart, d,
			trace.KV{K: "workers", V: int64(w)},
			trace.KV{K: "mode", V: k.code()})
		opts.Obs.PhaseGauge(trace.SpanRun).Add(d.Seconds())
	}
	opts.Obs.Gauge("fsim_mode").Set(float64(k.code()))
	ObserveRun(opts.Obs, len(tests), stats)
	return stats, nil
}

// kernel names a fault-simulation kernel.
type kernel uint8

const (
	kernelAuto    kernel = iota // Options.kernel unset: Run calls chooseKernel
	kernelFault                 // 63 faults plus the good machine per word (runBatch)
	kernelPattern               // PPSFP: 64 tests per word, one fault at a time (pattern.go)
)

// code is the kernel's number on the fsim_mode gauge and the mode
// attribute of the fsim_run span: 0 fault-parallel, 1 pattern-parallel.
func (k kernel) code() int64 { return int64(k) - int64(kernelFault) }

// chooseKernel picks the kernel for one session. Pattern-parallel
// simulation runs exactly when the session has the paper's TS0 shape,
// the kernel is exact for it and it fills the kernel's lanes: tests and
// faults remain, a full scan plan, exact comparison (MISRDegree 0), only
// stuck-at faults remaining, no test with a limited-scan shift, and on
// average at least minPatternLanes tests per pattern group. Every other
// session runs fault-parallel. Limited scan is excluded although the
// pattern kernel simulates it exactly: each distinct shift schedule is
// its own pattern group with its own fault-free trace, so search
// sessions fill few lanes and allocate a trace per test (see README,
// "Kernel selection (PPSFP)").
func (s *Simulator) chooseKernel(tests []scan.Test, faults []fault.Fault, rem []int, opts Options) kernel {
	if len(rem) == 0 {
		return kernelFault
	}
	for i := range tests {
		for u := range tests[i].T {
			if shiftAt(&tests[i], u) > 0 {
				return kernelFault
			}
		}
	}
	if s.patternUnsupported(faults, rem, opts) != nil {
		return kernelFault
	}
	if groups := len(ppGroups(tests, logic.W64Lanes)); groups == 0 || len(tests) < minPatternLanes*groups {
		return kernelFault
	}
	return kernelPattern
}

// minPatternLanes is the fewest tests per pattern group, on average, for
// which Run picks the pattern-parallel kernel. Each group costs one
// fault-free trace and one pass per fault whatever its lane count; on
// s1196 and s5378 sessions of 1- and 8-frame scan-free tests at one
// worker the fault-parallel kernel is faster below about 4 lanes and
// the pattern kernel at least 2x faster from 8. The one-test sessions of
// CoverageCurve and TopOff therefore stay fault-parallel.
const minPatternLanes = 8

// ObserveRun records one finished session's fsim_* counters on o — the
// bookkeeping Run and the distributed session runner share, so their
// ledger records stay comparable. A nil o records nothing.
func ObserveRun(o *obs.Campaign, tests int, stats RunStats) {
	if o == nil {
		return
	}
	o.Counter("fsim_runs_total").Inc()
	o.Counter("fsim_tests_total").Add(int64(tests))
	o.Counter("fsim_batches_total").Add(int64(stats.Batches))
	o.Counter("fsim_cycles_total").Add(stats.Cycles)
	o.Counter("fsim_detected_total").Add(int64(stats.Detected))
	o.Counter("fsim_detected_po_total").Add(int64(stats.DetectedAtPO))
	o.Counter("fsim_detected_limited_scan_total").Add(int64(stats.DetectedAtLimitedScan))
	o.Counter("fsim_detected_scan_out_total").Add(int64(stats.DetectedAtScanOut))
}

// mergeBatch folds one batch's detection mask into the session: it marks
// newly detected faults in fs, advances the session stats, and performs
// the per-batch observer bookkeeping. Both the serial loop and the
// parallel merge call it in batch order — that shared, ordered fold is
// what makes the two paths byte-identical.
func (s *Simulator) mergeBatch(stats *RunStats, fs *fault.Set, batch []int, det logic.Word, sites *[numSites]logic.Word, opts Options) {
	stats.Batches++
	for j, fi := range batch {
		lane := logic.Lane(j + 1)
		if det&lane == 0 {
			continue
		}
		fs.State[fi] = fault.Detected
		stats.Detected++
		if sites != nil {
			switch {
			case sites[sitePO]&lane != 0:
				stats.DetectedAtPO++
			case sites[siteLimitedScan]&lane != 0:
				stats.DetectedAtLimitedScan++
			case sites[siteScanOut]&lane != 0:
				stats.DetectedAtScanOut++
			}
		}
	}
	if o := opts.Obs; o != nil {
		o.Histogram("fsim_lane_utilization").Observe(float64(len(batch)) / LanesPerWord)
		if opts.EmitBatchEvents {
			o.Emit(obs.Event{
				Kind: obs.KindFsimBatch, N: stats.Batches,
				Faults: len(batch), Detected: stats.Detected,
			})
		}
	}
}

// getState and setState access a flip-flop position regardless of
// whether it sits on the scan chain.
func (s *Simulator) getState(pos int) logic.Word {
	if k := s.chainIdx[pos]; k >= 0 {
		return s.ring[s.slot(k)]
	}
	return s.hold[pos]
}

func (s *Simulator) setState(pos int, w logic.Word) {
	if k := s.chainIdx[pos]; k >= 0 {
		s.ring[s.slot(k)] = w
		return
	}
	s.hold[pos] = w
}

// slot maps a chain index to its ring slot.
func (s *Simulator) slot(k int) int {
	n := len(s.ring)
	i := s.head + k
	if i >= n {
		i -= n
	}
	return i
}

// applyStateStuck re-pins flip-flop output faults after any operation
// that rewrote state values.
func (s *Simulator) applyStateStuck() {
	for _, f := range s.stateStuck {
		s.setState(f.pos, logic.Force(s.getState(f.pos), f.mask, f.val))
	}
}

// shiftOne performs one scan shift: every chain element moves right, fill
// enters at chain position 0 (identically in all lanes), and the word
// leaving the last chain element is returned for observation. Unscanned
// flip-flops hold. Flip-flop output faults are re-applied so stuck bits
// corrupt values passing through.
func (s *Simulator) shiftOne(fill uint8) logic.Word {
	n := len(s.ring)
	if n == 0 {
		return 0
	}
	// Chain element n-1 is slot (head+n-1) mod n == (head-1) mod n.
	outSlot := s.head - 1
	if outSlot < 0 {
		outSlot += n
	}
	out := s.ring[outSlot]
	// Rotating the head left makes every old element k appear at k+1;
	// the vacated slot becomes element 0.
	s.head = outSlot
	s.ring[s.head] = logic.Spread(fill)
	s.applyStateStuck()
	// Scan activity breaks launch-on-capture pairs: the next functional
	// cycle cannot launch a transition from the pre-scan cycle.
	s.forces.UnprimeTransitions()
	return out
}

// reset zeroes all machine state (the power-up configuration: every lane
// agrees, so no detections can arise from it).
func (s *Simulator) reset() {
	for i := range s.ring {
		s.ring[i] = 0
	}
	for i := range s.hold {
		s.hold[i] = 0
	}
	s.head = 0
	s.applyStateStuck()
}

// simBatch dispatches one batch to the session's kernel: the
// pattern-parallel worker when one exists, the fault-parallel session
// replay otherwise. Both produce the same det/sites contract, so the
// shared mergeBatch fold keeps the kernels byte-identical.
func (s *Simulator) simBatch(pw *ppWorker, tests []scan.Test, faults []fault.Fault, batch []int, opts Options, sites *[numSites]logic.Word) logic.Word {
	if pw != nil {
		return pw.runBatch(faults, batch, opts, sites)
	}
	return s.runBatch(tests, faults, batch, opts, sites)
}

// runBatch simulates the whole session for one batch of faults and
// returns the detection mask (lane j+1 set when batch[j] was detected).
// A non-nil sites array additionally records, per observation site, the
// lanes whose first divergence was seen there.
func (s *Simulator) runBatch(tests []scan.Test, faults []fault.Fault, batch []int, opts Options, sites *[numSites]logic.Word) logic.Word {
	batchMask := s.installFaults(faults, batch)
	s.reset()

	var detected logic.Word
	var compactor *misr.MISR
	var observe func(logic.Word)
	// site tracks which observation channel the next observe call sees;
	// the loop updates it per segment. Only the site-attributing closure
	// captures it, so the unobserved and MISR paths are byte-for-byte
	// the seed hot path.
	site := sitePO
	switch {
	case opts.MISRDegree > 0:
		compactor = misr.MustNew(opts.MISRDegree)
		observe = compactor.Feed
	case sites != nil:
		observe = func(w logic.Word) {
			good := logic.Spread(logic.Bit(w, 0))
			diff := (w ^ good) & batchMask
			sites[site] |= diff &^ detected
			detected |= diff
		}
	default:
		observe = func(w logic.Word) {
			good := logic.Spread(logic.Bit(w, 0))
			detected |= (w ^ good) & batchMask
		}
	}
	done := func() bool {
		// Under compaction the verdict exists only once the whole
		// session has been absorbed.
		return compactor == nil && !opts.NoEarlyExit && detected&batchMask == batchMask
	}

	m := s.plan.Len()
	for ti := range tests {
		t := &tests[ti]
		// Complete scan: scan in t.SI while scanning out the previous
		// test's final state (observed, except before the first test).
		// Bits enter at chain position 0 and end at increasing
		// positions, so the last SI bit to enter is SI[0]: feed SI back
		// to front.
		site = siteScanOut
		for k := m - 1; k >= 0; k-- {
			out := s.shiftOne(t.SI.Get(k))
			if ti > 0 {
				observe(out)
			}
		}
		if done() {
			return detected
		}
		for u := 0; u < len(t.T); u++ {
			if t.Shift != nil && t.Shift[u] > 0 {
				site = siteLimitedScan
				for k := 0; k < t.Shift[u]; k++ {
					observe(s.shiftOne(t.Fill[u][k]))
				}
				if done() {
					return detected
				}
			}
			s.step(t.T[u])
			site = sitePO
			for i := 0; i < s.c.NumPO(); i++ {
				observe(s.ev.PO(i))
			}
			if done() {
				return detected
			}
		}
	}
	// Final complete scan-out (fill value irrelevant to detection).
	site = siteScanOut
	for k := 0; k < m; k++ {
		observe(s.shiftOne(0))
		if done() {
			return detected
		}
	}
	if compactor != nil {
		detected = compactor.DiffMask() & batchMask
	}
	return detected
}

// installFaults resets injection state and wires one batch of faults
// into forces and the per-position stuck lists. It returns the batch's
// lane mask.
func (s *Simulator) installFaults(faults []fault.Fault, batch []int) logic.Word {
	s.forces.Reset()
	s.stateStuck = s.stateStuck[:0]
	s.captureStuck = s.captureStuck[:0]

	var batchMask logic.Word
	for j, fi := range batch {
		lane := j + 1
		batchMask |= logic.Lane(lane)
		s.installFault(faults[fi], lane)
	}
	return batchMask
}

func (s *Simulator) installFault(f fault.Fault, lane int) {
	g := &s.c.Gates[f.Gate]
	if f.Model != fault.StuckAt {
		// Transition faults are stem-only on non-DFF lines (see
		// fault.TransitionUniverse); anything else is a modeling error.
		if f.Pin != fault.Stem || g.Type == circuit.DFF {
			panic(fmt.Sprintf("fsim: unsupported transition fault %v", f))
		}
		s.forces.ForceTransition(f.Gate, lane, f.Model == fault.SlowToRise)
		return
	}
	switch {
	case g.Type == circuit.DFF && f.Pin == fault.Stem:
		s.stateStuck = append(s.stateStuck, mkLaneForce(s.dffPos(f.Gate), lane, f.Stuck))
	case g.Type == circuit.DFF:
		s.captureStuck = append(s.captureStuck, mkLaneForce(s.dffPos(f.Gate), lane, f.Stuck))
	case f.Pin == fault.Stem:
		s.forces.ForceOut(f.Gate, lane, f.Stuck)
	default:
		s.forces.ForcePin(f.Gate, f.Pin, lane, f.Stuck)
	}
}

func (s *Simulator) dffPos(gate int) int {
	for pos, id := range s.c.DFFs {
		if id == gate {
			return pos
		}
	}
	return -1
}

// step applies one primary input vector at speed: evaluate the
// combinational core from the current state and capture the next state.
func (s *Simulator) step(vec logic.Vec) {
	for i := 0; i < s.c.NumPI(); i++ {
		s.ev.SetPI(i, logic.Spread(vec.Get(i)))
	}
	for pos := 0; pos < s.c.NumSV(); pos++ {
		s.ev.SetState(pos, s.getState(pos))
	}
	s.ev.Eval(s.forces)
	for pos := 0; pos < s.c.NumSV(); pos++ {
		s.setState(pos, s.ev.NextState(pos))
	}
	for _, f := range s.captureStuck {
		s.setState(f.pos, logic.Force(s.getState(f.pos), f.mask, f.val))
	}
	s.applyStateStuck()
}

func mkLaneForce(pos, lane int, stuck uint8) laneForce {
	f := laneForce{pos: pos, mask: logic.Lane(lane)}
	if stuck != 0 {
		f.val = f.mask
	}
	return f
}
