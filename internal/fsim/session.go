package fsim

import (
	"context"
	"fmt"

	"limscan/internal/checkpoint"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// Checkpointed sessions.
//
// A plain Run is one shot: all remaining faults against one test
// session. RunCheckpointed decomposes the same work along the fault
// axis — consecutive index chunks of the fault list, each simulated
// against the full test session — and snapshots the fault set between
// chunks. Because every fault's verdict is a pure function of (tests,
// fault), the chunk decomposition observes exactly the values a single
// Run would, so an interrupted-and-resumed session reports the same
// detections, sites and states as an uninterrupted one.

// SessionCheckpoint configures checkpointing for RunCheckpointed.
type SessionCheckpoint struct {
	// Meta identifies the run; a resume snapshot must match it exactly.
	Meta checkpoint.Meta
	// ChunkFaults is the number of consecutive faults per chunk. Zero
	// means 16 batches' worth (16 * LanesPerWord). Chunks that are not
	// a multiple of the pass width change batch packing (and the
	// Batches stat) relative to a single Run; detections never change.
	// On resume the snapshot's recorded chunk size wins over this
	// field: the stored chunk cursor only means anything under the
	// geometry it was written with.
	ChunkFaults int
	// Checkpoint is the write policy. Boundaries are completed chunks;
	// the last chunk is always written. An empty Path disables writing
	// (cancellation still works).
	Checkpoint checkpoint.Options
}

// RunCheckpointed simulates the session in fault chunks with periodic
// snapshots. A non-nil resume snapshot restores the fault states and
// accumulated stats and continues at the next chunk; ctx cancellation
// flushes the last completed chunk boundary and returns a
// *checkpoint.InterruptedError. The final RunStats describe the whole
// session — chunks completed before an interruption included.
func (s *Simulator) RunCheckpointed(ctx context.Context, tests []scan.Test, fs *fault.Set, resume *checkpoint.Snapshot, opts Options, ck SessionCheckpoint) (RunStats, error) {
	if err := opts.Validate(); err != nil {
		return RunStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Ctx = ctx
	chunk := ck.ChunkFaults
	if chunk == 0 {
		chunk = 16 * LanesPerWord
	}
	if chunk < 1 {
		return RunStats{}, fmt.Errorf("fsim: ChunkFaults must be >= 1 (got %d)", chunk)
	}
	n := len(fs.Faults)
	nchunks := (n + chunk - 1) / chunk
	stats := RunStats{Cycles: s.cost.SessionCycles(tests)}
	o := opts.Obs
	w := checkpoint.NewWriter(&ck.Checkpoint, o, opts.Trace)

	start := 0
	if resume != nil {
		if err := resume.CheckMeta(ck.Meta); err != nil {
			return stats, err
		}
		if resume.ChunkFaults > 0 {
			chunk = resume.ChunkFaults
			nchunks = (n + chunk - 1) / chunk
		}
		if resume.Iteration > nchunks {
			return stats, fmt.Errorf("fsim: snapshot chunk cursor %d exceeds the session's %d chunks", resume.Iteration, nchunks)
		}
		if err := resume.RestoreStates(fs.State); err != nil {
			return stats, err
		}
		stats.Detected = resume.Detected
		stats.Batches = resume.Batches
		stats.DetectedAtPO = resume.SitePO
		stats.DetectedAtLimitedScan = resume.SiteLimitedScan
		stats.DetectedAtScanOut = resume.SiteScanOut
		start = resume.Iteration
		w.Resume(resume)
		o.Counter("checkpoint_resumes_total").Inc()
		o.Emit(obs.Event{Kind: obs.KindResumed, Circuit: s.c.Name, I: start, Detected: stats.Detected})
	}

	// boundary hands the writer the session state after `done`
	// completed chunks.
	boundary := func(done int, force bool) error {
		return w.Boundary(done, force, func() *checkpoint.Snapshot {
			return &checkpoint.Snapshot{
				Version:         checkpoint.Version,
				Meta:            ck.Meta,
				Iteration:       done,
				ChunkFaults:     chunk,
				Detected:        stats.Detected,
				Batches:         stats.Batches,
				TotalCycles:     stats.Cycles,
				SitePO:          stats.DetectedAtPO,
				SiteLimitedScan: stats.DetectedAtLimitedScan,
				SiteScanOut:     stats.DetectedAtScanOut,
				NumFaults:       n,
				States:          checkpoint.EncodeStates(fs.State),
			}
		})
	}

	for ci := start; ci < nchunks; ci++ {
		if err := ctx.Err(); err != nil {
			return stats, w.Interrupt(err)
		}
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		// The chunk view aliases the session fault set: statuses the
		// chunk run marks land directly in fs.
		sub := &fault.Set{Faults: fs.Faults[lo:hi], State: fs.State[lo:hi]}
		st, err := s.Run(tests, sub, opts)
		if err != nil {
			if ctx.Err() != nil {
				return stats, w.Interrupt(ctx.Err())
			}
			if errs.Is(err, errs.InternalPanic) {
				// A contained panic aborts the session, but the last
				// completed chunk boundary is still good: flush it so a
				// resume can pick up there.
				_ = w.Flush()
			}
			return stats, err
		}
		stats.Detected += st.Detected
		stats.Batches += st.Batches
		stats.DetectedAtPO += st.DetectedAtPO
		stats.DetectedAtLimitedScan += st.DetectedAtLimitedScan
		stats.DetectedAtScanOut += st.DetectedAtScanOut
		if err := boundary(ci+1, ci+1 == nchunks); err != nil {
			return stats, err
		}
	}
	// An empty fault list never enters the loop; still leave a valid
	// final snapshot behind when checkpointing is on.
	if nchunks == 0 && resume == nil {
		if err := boundary(0, true); err != nil {
			return stats, err
		}
	}
	stats.CheckpointDegraded = w.Degraded()
	return stats, nil
}
