package main

import (
	"time"

	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// Benchmark-owned trace tracks, one per layer the traced run times.
const (
	trackSetup   = "bench setup"
	trackCore    = "bench core"
	trackFsim    = "bench fsim"
	trackAtpg    = "bench atpg"
	trackService = "bench service"
	trackVerify  = "bench verify"
)

// layerStats accumulates what the timing SessionRunner sees across the
// campaigns of one traced run.
type layerStats struct {
	sessions, batches         int
	busy, ts0, search, classy time.Duration
	simCycles, faultVectors   int64

	faultsIn, untestable, aborted int

	pairsTried, pairsSelected, iterations, combos int
}

// tracedPass is what a traced pass collects over its campaigns: the
// spans, the layer totals and every fault classification declared
// untestable.
type tracedPass struct {
	rec        *trace.Recorder
	stats      layerStats
	untestable map[fault.Fault]bool
}

func newTracedPass(rec *trace.Recorder) *tracedPass {
	return &tracedPass{rec: rec, untestable: make(map[fault.Fault]bool)}
}

// untestableFaults returns the faults classification declared
// untestable, in no particular order.
func (tp *tracedPass) untestableFaults() []fault.Fault {
	out := make([]fault.Fault, 0, len(tp.untestable))
	for f := range tp.untestable {
		out = append(out, f)
	}
	return out
}

// timingRunner is the benchmark's core.SessionRunner: it runs every
// fault-simulation session of a campaign on its own simulator, exactly
// as the in-process path would, and times it. A campaign's sessions
// arrive in order — TS0 (I == 0), then TS(I,D1) for I >= 1 — and the
// only campaign work between the end of TS0 and the next session is
// classification plus one Procedure 1 call (about 0.2 ms), so that gap
// is charged to classification.
type timingRunner struct {
	sim *fsim.Simulator
	tp  *tracedPass
	job int64

	// pending is set from the end of a TS0 session until the next
	// session starts or the campaign returns.
	pending      bool
	pendingStart time.Duration
	// fs is the fault set of the current campaign; searched records
	// whether its first search session was seen, where the verdicts are
	// read off the fault set (or at the return, for a campaign that
	// never searches).
	fs       *fault.Set
	searched bool
	lastI    int
}

func newTimingRunner(r *core.Runner, plan scan.Plan, tp *tracedPass, job int64) (*timingRunner, error) {
	sim, err := fsim.NewWithPlan(r.Circuit(), plan)
	if err != nil {
		return nil, err
	}
	return &timingRunner{sim: sim, tp: tp, job: job}, nil
}

// sessionID packs (I, D1) into one span argument.
func sessionID(ref core.SessionRef) int64 { return int64(ref.I)*100 + int64(ref.D1) }

func (t *timingRunner) RunSession(req core.SessionRequest) (fsim.RunStats, error) {
	now := t.tp.rec.Now()
	if req.Session.I == 0 {
		t.endCampaign(now)
		t.tp.stats.combos++
		t.fs, t.searched, t.lastI = req.Faults, false, 0
	} else {
		t.closeClassify(now)
		if !t.searched {
			t.searched = true
			t.noteVerdicts()
		}
	}
	remaining := len(req.Faults.Remaining())
	vectors := 0
	for i := range req.Tests {
		vectors += len(req.Tests[i].T)
	}

	start := t.tp.rec.Now()
	st, err := t.sim.Run(req.Tests, req.Faults, req.Options)
	end := t.tp.rec.Now()
	name := "search"
	if req.Session.I == 0 {
		name = "ts0"
	}
	t.tp.rec.Track(trackFsim).Add("fsim", name, start, end-start,
		trace.KV{K: "job", V: t.job}, trace.KV{K: "session", V: sessionID(req.Session)})
	if err != nil {
		return st, err
	}

	s := &t.tp.stats
	s.sessions++
	s.batches += st.Batches
	s.busy += end - start
	s.simCycles += st.Cycles
	s.faultVectors += int64(remaining) * int64(vectors)
	if req.Session.I == 0 {
		s.ts0 += end - start
		s.faultsIn += len(req.Faults.Remaining())
		t.pending, t.pendingStart = true, end
		return st, nil
	}
	s.search += end - start
	s.pairsTried++
	if st.Detected > 0 {
		s.pairsSelected++
	}
	if req.Session.I != t.lastI {
		s.iterations++
		t.lastI = req.Session.I
	}
	return st, nil
}

// closeClassify charges the gap since the end of TS0 to classification.
func (t *timingRunner) closeClassify(now time.Duration) {
	if !t.pending {
		return
	}
	t.pending = false
	t.tp.stats.classy += now - t.pendingStart
	t.tp.rec.Track(trackAtpg).Add("atpg", "classify", t.pendingStart, now-t.pendingStart,
		trace.KV{K: "job", V: t.job}, trace.KV{K: "faults_in", V: int64(len(t.fs.Remaining()))})
}

// noteVerdicts reads classification's verdicts off the fault set.
func (t *timingRunner) noteVerdicts() {
	for i, st := range t.fs.State {
		switch st {
		case fault.Untestable:
			t.tp.stats.untestable++
			t.tp.untestable[t.fs.Faults[i]] = true
		case fault.Aborted:
			t.tp.stats.aborted++
		}
	}
}

// endCampaign closes the current campaign at now: a campaign whose TS0
// left nothing to search still has its classification and verdicts.
func (t *timingRunner) endCampaign(now time.Duration) {
	if t.fs == nil {
		return
	}
	t.closeClassify(now)
	if !t.searched {
		t.searched = true
		t.noteVerdicts()
	}
}

// finish closes the last campaign; call it when the campaign call
// returns.
func (t *timingRunner) finish() { t.endCampaign(t.tp.rec.Now()) }

// layerValues turns accumulated stats over ops operations into the
// fsim, atpg and core per-layer metrics, each per operation; wall is
// the operations' total wall time.
func (s *layerStats) layerValues(o *outcome, ops int, wall time.Duration) {
	per := func(x float64) float64 { return x / float64(ops) }
	v := o.values
	v["fsim.sessions"] = per(float64(s.sessions))
	v["fsim.busy_s"] = per(s.busy.Seconds())
	v["fsim.ts0_s"] = per(s.ts0.Seconds())
	v["fsim.search_s"] = per(s.search.Seconds())
	v["fsim.batches"] = per(float64(s.batches))
	v["fsim.sim_cycles"] = per(float64(s.simCycles))
	v["fsim.fault_vectors"] = per(float64(s.faultVectors))
	v["fsim.ns_per_fault_vector"] = ratio(float64(s.busy.Nanoseconds()), float64(s.faultVectors))
	v["atpg.classify_s"] = per(s.classy.Seconds())
	v["atpg.faults_in"] = per(float64(s.faultsIn))
	v["atpg.s_per_fault"] = ratio(s.classy.Seconds(), float64(s.faultsIn))
	v["atpg.untestable"] = per(float64(s.untestable))
	v["atpg.aborted"] = per(float64(s.aborted))
	v["atpg.decided_ratio"] = ratio(float64(s.faultsIn-s.aborted), float64(s.faultsIn))
	v["core.loop_s"] = per((wall - s.busy - s.classy).Seconds())
	v["core.pairs_tried"] = per(float64(s.pairsTried))
	v["core.pairs_selected"] = per(float64(s.pairsSelected))
	v["core.select_ratio"] = ratio(float64(s.pairsSelected), float64(s.pairsTried))
	v["core.iterations"] = per(float64(s.iterations))
	v["core.combos"] = per(float64(s.combos))
}
