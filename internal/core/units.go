// Distributed work units: the seam that lets a campaign's fault
// simulation run somewhere else.
//
// A Procedure 2 campaign is a strict sequence of *sessions* — TS0, then
// one TS(I,D1) per candidate pair — where each session simulates the
// currently remaining faults against one test set. A fault's verdict in
// a session is a pure function of (tests, fault): lanes never interact,
// so any partition of the remaining-fault list can be simulated
// anywhere, in any order, any number of times, and fold back into the
// same fault set (the same purity argument behind internal/fsim's
// sharded mode; see fsim/parallel.go). A UnitSpec carries everything a
// stateless worker needs to recompute its slice of a session from
// scratch — campaign parameters regenerate the tests, the collapsed
// fault universe is a deterministic function of the circuit — and a
// UnitResult folds back in unit order, so a campaign executed by 0, 1
// or N workers produces byte-identical reports.
package core

import (
	"context"
	"fmt"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// SessionRef names one fault-simulation session of a campaign. I == 0
// is the TS0 session (D1 is ignored there); I >= 1 with a D1 value is
// the Procedure 1 test set TS(I,D1).
type SessionRef struct {
	I  int `json:"i"`
	D1 int `json:"d1"`
}

// SessionRequest is one session handed to a SessionRunner: the runner
// and config that own it, the reference naming it, the already-generated
// tests, the live fault set to fold detections into, and the exact
// fsim.Options the in-process path would have used (Ctx, Obs, Trace,
// Workers).
type SessionRequest struct {
	Runner  *Runner
	Config  Config
	Session SessionRef
	Tests   []scan.Test
	Faults  *fault.Set
	Options fsim.Options
}

// SessionRunner intercepts a campaign's fault-simulation sessions. The
// contract mirrors fsim.Run exactly: mark newly detected faults in
// req.Faults, return the session stats, honor req.Options.Ctx. The
// implementation must leave the fault set in the same final state the
// in-process simulator would — internal/dispatch does so by partitioning
// the session into units and merging results in unit order.
type SessionRunner interface {
	RunSession(req SessionRequest) (fsim.RunStats, error)
}

// SetSessionRunner routes every fault-simulation session of the
// runner's campaigns through sr instead of the in-process simulator.
// Nil restores the in-process path. The campaign logic around the seam
// (test generation, classification, pair selection, checkpointing) is
// unchanged either way.
func (r *Runner) SetSessionRunner(sr SessionRunner) { r.sessions = sr }

// runSession executes one session through the seam: the configured
// SessionRunner if any, the in-process simulator otherwise.
func (r *Runner) runSession(ctx context.Context, cfg Config, ref SessionRef, tests []scan.Test, fs *fault.Set, o *obs.Campaign) (fsim.RunStats, error) {
	opts := fsim.Options{Obs: o, Workers: r.fsimWorkers(cfg), Ctx: ctx, Trace: r.recorder(o)}
	if r.sessions != nil {
		return r.sessions.RunSession(SessionRequest{
			Runner: r, Config: cfg, Session: ref, Tests: tests, Faults: fs, Options: opts,
		})
	}
	return r.sim.Run(tests, fs, opts)
}

// SessionCycles returns the clock-cycle cost of applying tests as one
// session under the runner's scan plan — the same cost model fsim.Run
// reports. The coordinator computes cycles locally (they depend only on
// the tests), so workers never report time-like quantities.
func (r *Runner) SessionCycles(tests []scan.Test) int64 {
	return scan.CostModel{NSV: r.plan.Len()}.SessionCycles(tests)
}

// DefaultUnitFaults is the fault count of one work unit: the checkpoint
// chunk geometry (16 batches of fsim.LanesPerWord), sized so a unit is
// meaty enough to amortize dispatch overhead yet small enough that
// losing a worker mid-unit forfeits little work.
const DefaultUnitFaults = 16 * fsim.LanesPerWord

// UnitSpec is one leased work unit on the wire: a consecutive slice of
// a session's remaining faults plus every parameter a stateless worker
// needs to recompute the session from scratch. Tests are regenerated,
// never shipped — they are pure functions of (Seed, I, D1) — and fault
// indices refer to the canonical collapsed fault list, a deterministic
// function of the circuit. CircuitHash and NumFaults guard against a
// worker resolving a different netlist than the coordinator.
type UnitSpec struct {
	// Key identifies the unit within its coordinator (lease bookkeeping
	// and result routing).
	Key string `json:"key"`

	Circuit     string `json:"circuit"`
	CircuitHash string `json:"circuit_hash"`
	NumFaults   int    `json:"num_faults"`

	// Campaign parameters sufficient to regenerate TS0 and any TS(I,D1).
	LA            int    `json:"la"`
	LB            int    `json:"lb"`
	N             int    `json:"n"`
	Seed          uint64 `json:"seed"`
	ReseedPerTest bool   `json:"reseed_per_test,omitempty"`
	UseLFSR       bool   `json:"use_lfsr,omitempty"`
	LFSRDegree    int    `json:"lfsr_degree,omitempty"`

	Session SessionRef `json:"session"`

	// Faults are indices into the canonical collapsed fault list —
	// this unit's slice of the session's remaining faults, ascending.
	Faults []int `json:"faults"`
	// Attrib asks for detection-site attribution (the coordinator has an
	// observer attached).
	Attrib bool `json:"attrib,omitempty"`
}

// config reconstructs the campaign parameters a worker needs for test
// regeneration. Fields irrelevant to test generation (D1Order, NSameFC,
// MaxIterations) stay at their defaults.
func (u UnitSpec) config() Config {
	return Config{
		LA: u.LA, LB: u.LB, N: u.N, Seed: u.Seed,
		ReseedPerTest: u.ReseedPerTest,
		UseLFSR:       u.UseLFSR, LFSRDegree: u.LFSRDegree,
	}
}

// UnitResult is a completed unit: a detection bitmask over the spec's
// fault slice plus the per-unit aggregates that fold into RunStats.
// Everything here is a pure function of the spec, which is what makes
// at-least-once delivery safe: any two attempts produce identical bytes.
type UnitResult struct {
	Key string `json:"key"`
	// Detected is a bitmask over spec.Faults: bit j set means
	// spec.Faults[j] was detected (bit j lives in word j/64).
	Detected []uint64 `json:"detected"`
	// Site attribution sums (zero unless spec.Attrib).
	PO int `json:"po,omitempty"`
	LS int `json:"ls,omitempty"`
	SO int `json:"so,omitempty"`
	// Batches is the number of fault batches the unit packed into.
	Batches int `json:"batches"`
}

// Bit reports whether fault j of the unit was detected.
func (r *UnitResult) Bit(j int) bool {
	w := j / 64
	return w < len(r.Detected) && r.Detected[w]&(1<<(j%64)) != 0
}

func (r *UnitResult) setBit(j int) {
	for len(r.Detected) <= j/64 {
		r.Detected = append(r.Detected, 0)
	}
	r.Detected[j/64] |= 1 << (j % 64)
}

// DeriveUnits partitions a session's remaining faults into UnitSpecs of
// at most chunk faults each (chunk <= 0 means DefaultUnitFaults; any
// value is rounded up to a multiple of fsim.LanesPerWord so unit
// boundaries coincide with batch boundaries and per-unit batch counts
// sum to the single-process count). Keys are "<prefix>.<index>".
func DeriveUnits(req SessionRequest, keyPrefix string, chunk int) []UnitSpec {
	if chunk <= 0 {
		chunk = DefaultUnitFaults
	}
	if rest := chunk % fsim.LanesPerWord; rest != 0 {
		chunk += fsim.LanesPerWord - rest
	}
	r := req.Runner
	base := UnitSpec{
		Circuit:     r.c.Name,
		CircuitHash: checkpoint.CircuitHash(r.c),
		NumFaults:   len(req.Faults.Faults),
		LA:          req.Config.LA, LB: req.Config.LB, N: req.Config.N,
		Seed:          req.Config.Seed,
		ReseedPerTest: req.Config.ReseedPerTest,
		UseLFSR:       req.Config.UseLFSR,
		LFSRDegree:    req.Config.LFSRDegree,
		Session:       req.Session,
		Attrib:        req.Options.Obs != nil && req.Options.MISRDegree == 0,
	}
	rem := req.Faults.Remaining()
	var units []UnitSpec
	for start := 0; start < len(rem); start += chunk {
		end := start + chunk
		if end > len(rem) {
			end = len(rem)
		}
		u := base
		u.Key = fmt.Sprintf("%s.%d", keyPrefix, len(units))
		u.Faults = append([]int(nil), rem[start:end]...)
		units = append(units, u)
	}
	return units
}

// MergeUnits folds completed units back into the session's fault set in
// unit order and returns the aggregated stats (Cycles left zero — the
// caller computes it from the tests; see Runner.SessionCycles). The
// fold is the same ordered, last-write-wins-free accumulation
// fsim.mergeBatch performs, so the final fault set and stats are
// byte-identical to an in-process run.
func MergeUnits(fs *fault.Set, units []UnitSpec, results []*UnitResult) (fsim.RunStats, error) {
	var stats fsim.RunStats
	if len(units) != len(results) {
		return stats, fmt.Errorf("core: %d units but %d results", len(units), len(results))
	}
	for i := range units {
		res := results[i]
		if res == nil {
			return stats, fmt.Errorf("core: unit %s has no result", units[i].Key)
		}
		for j, fi := range units[i].Faults {
			if fi < 0 || fi >= len(fs.State) {
				return stats, fmt.Errorf("core: unit %s fault index %d out of range", units[i].Key, fi)
			}
			if res.Bit(j) {
				fs.State[fi] = fault.Detected
				stats.Detected++
			}
		}
		stats.DetectedAtPO += res.PO
		stats.DetectedAtLimitedScan += res.LS
		stats.DetectedAtScanOut += res.SO
		stats.Batches += res.Batches
	}
	return stats, nil
}

// ExecUnitLocal runs one unit on the session's own simulator and tests —
// the coordinator's degraded fallback when no workers are live and its
// last resort for units that exhausted their lease attempts. It builds
// a scratch fault set over the same fault list (only the unit's faults
// undetected) so the campaign set is untouched until MergeUnits, exactly
// like a remote execution. Call sequentially from the campaign
// goroutine: it borrows req.Runner's simulator.
func ExecUnitLocal(req SessionRequest, spec UnitSpec) (*UnitResult, error) {
	sub := &fault.Set{Faults: req.Faults.Faults, State: make([]fault.Status, len(req.Faults.Faults))}
	for i := range sub.State {
		sub.State[i] = fault.Detected
	}
	for _, fi := range spec.Faults {
		if fi < 0 || fi >= len(sub.State) {
			return nil, fmt.Errorf("core: unit %s fault index %d out of range", spec.Key, fi)
		}
		sub.State[fi] = fault.Undetected
	}
	opts := fsim.Options{
		Workers: req.Options.Workers,
		Ctx:     req.Options.Ctx,
	}
	if spec.Attrib {
		opts.Obs = obs.New(obs.NewRegistry(), nil)
	}
	st, err := req.Runner.sim.Run(req.Tests, sub, opts)
	if err != nil {
		return nil, err
	}
	return unitResult(spec, sub, st), nil
}

// unitResult packs a finished scratch set into the wire form.
func unitResult(spec UnitSpec, sub *fault.Set, st fsim.RunStats) *UnitResult {
	res := &UnitResult{Key: spec.Key, Batches: st.Batches,
		PO: st.DetectedAtPO, LS: st.DetectedAtLimitedScan, SO: st.DetectedAtScanOut}
	if n := len(spec.Faults); n > 0 {
		res.Detected = make([]uint64, (n+63)/64)
	}
	for j, fi := range spec.Faults {
		if sub.State[fi] == fault.Detected {
			res.setBit(j)
		}
	}
	return res
}

// UnitRunner executes UnitSpecs from scratch — the worker process side.
// It caches the expensive invariants between units (the circuit, its
// simulator and collapsed fault list per campaign; the regenerated test
// set per session), since a fleet worker chews through many units of
// the same session in a row. Not safe for concurrent use; a worker
// process runs units one at a time.
type UnitRunner struct {
	campKey  string
	sim      *fsim.Simulator
	faults   []fault.Fault
	ts0      []scan.Test
	cfg      Config
	sessKey  SessionRef
	sessSet  bool
	tests    []scan.Test
	numFault int
}

// campaignKey identifies the cached circuit+TS0 invariants.
func campaignKey(u UnitSpec) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d|%v|%v|%d",
		u.Circuit, u.CircuitHash, u.NumFaults, u.LA, u.LB, u.N, u.Seed,
		u.ReseedPerTest, u.UseLFSR, u.LFSRDegree)
}

// Run executes one unit and returns its result. Any mismatch between
// the spec and what this process can reconstruct (unknown circuit,
// different circuit hash, fault count or index disagreement) is an
// errs.Input error — the worker's build disagrees with the
// coordinator's, and retrying locally cannot help.
func (u *UnitRunner) Run(spec UnitSpec) (*UnitResult, error) {
	if err := u.prepare(spec); err != nil {
		return nil, err
	}
	sub := fault.NewSet(u.faults)
	for i := range sub.State {
		sub.State[i] = fault.Detected
	}
	for _, fi := range spec.Faults {
		if fi < 0 || fi >= len(sub.State) {
			return nil, errs.Newf(errs.Input, "unit %s: fault index %d out of range [0,%d)", spec.Key, fi, len(sub.State))
		}
		sub.State[fi] = fault.Undetected
	}
	opts := fsim.Options{Workers: 1}
	if spec.Attrib {
		opts.Obs = obs.New(obs.NewRegistry(), nil)
	}
	st, err := u.sim.Run(u.tests, sub, opts)
	if err != nil {
		return nil, err
	}
	return unitResult(spec, sub, st), nil
}

// prepare (re)builds the cached invariants for the spec's campaign and
// session.
func (u *UnitRunner) prepare(spec UnitSpec) error {
	if key := campaignKey(spec); key != u.campKey {
		c, err := bmark.Load(spec.Circuit)
		if err != nil {
			return errs.Wrap(errs.Input, err)
		}
		if h := checkpoint.CircuitHash(c); h != spec.CircuitHash {
			return errs.Newf(errs.Input, "unit %s: circuit %s hash %s != coordinator's %s",
				spec.Key, spec.Circuit, h, spec.CircuitHash)
		}
		reps, _ := fault.Collapse(c, fault.Universe(c))
		if len(reps) != spec.NumFaults {
			return errs.Newf(errs.Input, "unit %s: %d collapsed faults != coordinator's %d",
				spec.Key, len(reps), spec.NumFaults)
		}
		cfg := spec.config()
		u.sim = fsim.New(c)
		u.faults = reps
		u.cfg = cfg
		u.ts0 = GenerateTS0(c, cfg)
		u.campKey = key
		u.sessSet = false
		u.numFault = len(reps)
	}
	if !u.sessSet || spec.Session != u.sessKey {
		if spec.Session.I == 0 {
			u.tests = u.ts0
		} else {
			u.tests = InsertLimitedScans(u.sim.Circuit(), u.ts0, spec.Session.I, spec.Session.D1, u.cfg)
		}
		u.sessKey = spec.Session
		u.sessSet = true
	}
	return nil
}
