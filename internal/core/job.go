package core

import (
	"context"
	"fmt"
	"os"

	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// JobParamsHash is Runner.ParamsHash without the Runner: the run
// identity of a full-scan campaign over c with cfg. The service
// front-end hashes every submission on the admission path — before
// deciding whether to build a simulator at all — so the cache/
// singleflight key must be computable from the netlist and parameters
// alone. It is the same CheckpointMeta hash Runner.ParamsHash returns,
// byte for byte (see TestJobParamsHashMatchesRunner).
func JobParamsHash(c *circuit.Circuit, cfg Config) string {
	return metaFor(c, scan.FullScan(c.NumSV()).Len(), cfg).Hash()
}

// RunJob is the job-shaped campaign entry point the service front-end
// (cmd/limscand) schedules: run the configured campaign with
// checkpointing at ck.Path, transparently resuming when the path
// already holds a snapshot of this exact run. It is what makes a
// crashed service restartable by re-submission alone — the caller never
// needs to know whether a previous attempt got partway.
//
// The decision table, in order:
//
//   - no file at ck.Path: start fresh (the common case);
//   - a valid snapshot whose identity matches this runner and config:
//     resume from it (resumed=true) — byte-identical to an
//     uninterrupted run, per the resume-equivalence suite;
//   - a corrupt snapshot: discard it and start fresh, with a warning
//     event (a torn file from a crash mid-write must cost a re-run,
//     never a wrong answer or a stuck job);
//   - a valid snapshot of a *different* run: start fresh with a
//     warning. The service keys paths by ParamsHash so this means an
//     operator pointed two different campaigns at one state file; the
//     fresh run overwrites it with snapshots of the right identity.
//
// A nil ck (or empty Path) degenerates to RunWithContext without
// checkpointing.
func (r *Runner) RunJob(ctx context.Context, cfg Config, ck *checkpoint.Options) (res *Result, resumed bool, err error) {
	if ck == nil || ck.Path == "" {
		res, err = r.RunWithContext(ctx, cfg, ck)
		return res, false, err
	}
	snap, lerr := checkpoint.LoadFS(ck.FS, ck.Path)
	switch {
	case lerr == nil:
		if merr := snap.CheckMeta(r.CheckpointMeta(cfg)); merr == nil {
			res, err = r.ResumeWithContext(ctx, cfg, snap, ck)
			return res, true, err
		}
		r.observer(cfg).Emit(obs.Event{Kind: obs.KindWarning,
			Msg: fmt.Sprintf("checkpoint %s belongs to a different run; starting fresh", ck.Path)})
	case errs.Is(lerr, errs.CorruptSnapshot):
		r.observer(cfg).Emit(obs.Event{Kind: obs.KindWarning,
			Msg: fmt.Sprintf("checkpoint %s is corrupt; starting fresh: %v", ck.Path, lerr)})
		r.observer(cfg).Counter("checkpoint_corrupt_total").Inc()
	case errs.Is(lerr, os.ErrNotExist):
		// No previous attempt: the expected fresh-start path.
	default:
		// The file exists but cannot be read (permissions, I/O): that is
		// an environment problem the caller must see, not paper over —
		// silently re-running would orphan the unreadable snapshot.
		return nil, false, lerr
	}
	res, err = r.RunWithContext(ctx, cfg, ck)
	return res, false, err
}
