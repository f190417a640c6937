package core

import (
	"context"
	"fmt"

	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/fault"
)

// CheckpointMeta returns the identity block a Procedure 2 snapshot for
// this runner and configuration carries: the structural circuit hash,
// the scan plan length, and every result-affecting parameter. Workers
// and Observer are deliberately excluded — they change how fast a
// campaign runs, never what it computes, so a checkpoint taken under one
// may be resumed under another.
func (r *Runner) CheckpointMeta(cfg Config) checkpoint.Meta {
	return metaFor(r.c, r.plan.Len(), cfg)
}

// metaFor is the shared identity constructor behind CheckpointMeta and
// JobParamsHash.
func metaFor(c *circuit.Circuit, planLen int, cfg Config) checkpoint.Meta {
	cfg = cfg.withDefaults()
	return checkpoint.Meta{
		Mode:          checkpoint.ModeProcedure2,
		Circuit:       c.Name,
		CircuitHash:   checkpoint.CircuitHash(c),
		PlanLen:       planLen,
		LA:            cfg.LA,
		LB:            cfg.LB,
		N:             cfg.N,
		Seed:          cfg.Seed,
		D1Order:       cfg.D1Order,
		NSameFC:       cfg.NSameFC,
		MaxIterations: cfg.MaxIterations,
		ReseedPerTest: cfg.ReseedPerTest,
		UseLFSR:       cfg.UseLFSR,
		LFSRDegree:    cfg.LFSRDegree,
	}
}

// ParamsHash digests every result-affecting parameter of a campaign
// into a short hex string — the run-identity key the performance ledger
// records, so `perf diff` can tell "same work, different speed" apart
// from "different work". It is the checkpoint Meta hash: the two
// subsystems agreeing on one identity means a ledger record and a
// checkpoint from the same run are cross-referencable.
func (r *Runner) ParamsHash(cfg Config) string {
	return r.CheckpointMeta(cfg).Hash()
}

// snapshot captures the campaign state at an iteration boundary. The
// fault set is copied bit-packed; everything else is already scalar.
func (r *Runner) snapshot(cfg Config, res *Result, fs *fault.Set, nSame int) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		Version:         checkpoint.Version,
		Meta:            r.CheckpointMeta(cfg),
		Iteration:       res.Iterations,
		NSame:           nSame,
		InitialDetected: res.InitialDetected,
		InitialCycles:   res.InitialCycles,
		TotalCycles:     res.TotalCycles,
		Untestable:      res.Untestable,
		NumFaults:       len(fs.State),
		States:          checkpoint.EncodeStates(fs.State),
	}
	for _, p := range res.Pairs {
		s.Pairs = append(s.Pairs, checkpoint.Pair{I: p.I, D1: p.D1, Detected: p.Detected, Cycles: p.Cycles})
	}
	for _, cp := range res.Curve {
		s.Curve = append(s.Curve, checkpoint.CurvePoint{
			I: cp.I, D1: cp.D1, Detected: cp.Detected, Cycles: cp.Cycles, Coverage: cp.Coverage,
		})
	}
	return s
}

// restore rebuilds the in-flight campaign state of a run from a
// snapshot: fault statuses, selected pairs, curve points, accumulated
// totals. It returns the running detection count and the nSame counter.
func restore(snap *checkpoint.Snapshot, res *Result, fs *fault.Set) (running, nSame int, err error) {
	if err := snap.RestoreStates(fs.State); err != nil {
		return 0, 0, err
	}
	res.InitialDetected = snap.InitialDetected
	res.InitialCycles = snap.InitialCycles
	res.TotalCycles = snap.TotalCycles
	res.Untestable = snap.Untestable
	res.Iterations = snap.Iteration
	running = snap.InitialDetected
	for _, p := range snap.Pairs {
		res.Pairs = append(res.Pairs, PairResult{I: p.I, D1: p.D1, Detected: p.Detected, Cycles: p.Cycles})
		running += p.Detected
	}
	for _, cp := range snap.Curve {
		res.Curve = append(res.Curve, CoveragePoint{
			I: cp.I, D1: cp.D1, Detected: cp.Detected, Cycles: cp.Cycles, Coverage: cp.Coverage,
		})
	}
	return running, snap.NSame, nil
}

// RunWithContext is RunProcedure2 with cooperative cancellation and
// optional checkpointing: ctx is polled at every iteration and pair
// boundary (and between fault batches inside the simulator), and a
// non-nil ck writes periodic snapshots that ResumeWithContext can
// continue from. On cancellation the last completed iteration is
// flushed to ck.Path and a *checkpoint.InterruptedError is returned.
func (r *Runner) RunWithContext(ctx context.Context, cfg Config, ck *checkpoint.Options) (*Result, error) {
	return r.run(ctx, cfg, ck, nil)
}

// ResumeWithContext continues a campaign from a snapshot produced by
// RunWithContext on an equivalent runner and configuration. The
// snapshot's identity hash must match this run's circuit, scan plan and
// parameters exactly; a mismatch is an error, never a wrong-answer run.
// The result is identical to what the uninterrupted run would have
// produced (see TestResumeEquivalence*).
func (r *Runner) ResumeWithContext(ctx context.Context, cfg Config, snap *checkpoint.Snapshot, ck *checkpoint.Options) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if err := snap.CheckMeta(r.CheckpointMeta(cfg)); err != nil {
		return nil, err
	}
	return r.run(ctx, cfg, ck, snap)
}
