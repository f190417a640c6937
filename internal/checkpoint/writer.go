package checkpoint

import (
	"fmt"
	"time"

	"limscan/internal/errs"
	"limscan/internal/iofault"
	"limscan/internal/obs"
	"limscan/internal/trace"
)

// Options controls periodic snapshotting of a run: a Procedure 2
// campaign (boundaries are iterations) or a checkpointed fault
// simulation session (boundaries are fault chunks).
type Options struct {
	// Path is the snapshot file. It is rewritten atomically (write-temp,
	// fsync, rename), so it always holds the latest complete snapshot.
	// Empty disables writing; cancellation still reports a boundary.
	Path string
	// Every writes a snapshot at every boundary whose index is a
	// multiple of Every. Zero means 1 (every boundary). Boundaries the
	// run forces (a campaign's TS0 phase and its end, a session's last
	// chunk) are always written, and a cancellation flushes the last
	// boundary regardless of cadence.
	Every int
	// FS routes the snapshot I/O; nil means the real filesystem. Chaos
	// tests substitute an iofault.Injector here.
	FS iofault.FS
	// Retry overrides the transient-failure retry policy for snapshot
	// writes; nil means the iofault defaults (4 attempts, capped
	// exponential backoff).
	Retry *iofault.Retry
}

// Writer is the write side of checkpointing, shared by every
// checkpointed run: the cadence, the metrics and events, the
// checkpoint_write span, the degraded-mode state machine and the
// interruption report.
//
// Degraded mode: a snapshot write that still fails after the retry
// policy's budget does NOT abort the run. Checkpointing is purely
// observational — neither Procedure 2's greedy accumulation nor a fault
// simulation session ever reads the snapshot back — so losing a
// boundary costs only resume granularity, never correctness. The
// writer raises the checkpoint_degraded gauge, counts the failure,
// emits a loud event, and tries again at the next boundary; a later
// success clears the state. Only a run that ends with its final
// snapshot unwritten reports degraded completion (Degraded).
type Writer struct {
	opts Options
	o    *obs.Campaign
	// tr, when set, records a checkpoint_write span around every disk
	// write — checkpoint I/O is serial time the trace diagnoser charges
	// against scaling.
	tr *trace.Recorder
	// last is the most recent boundary snapshot, whether or not the
	// cadence wrote it; a cancellation flushes it. It stays nil while
	// writing is disabled: no snapshot is built that nothing writes.
	last *Snapshot
	// boundary mirrors the last boundary index even when writing is
	// disabled (for the interruption report).
	boundary int
	// degraded is set while the most recent write attempt exhausted its
	// retries; failures counts the consecutive failed boundaries.
	degraded bool
	failures int
	// wrote is the boundary of the last snapshot known to be at Path
	// (-1 before any) — what an interruption can truthfully report.
	wrote int
}

// NewWriter returns the writer for one run. A nil opts disables
// writing; o and tr may be nil.
func NewWriter(opts *Options, o *obs.Campaign, tr *trace.Recorder) *Writer {
	w := &Writer{o: o, tr: tr, wrote: -1}
	if opts != nil {
		w.opts = *opts
	}
	if w.opts.Every < 1 {
		w.opts.Every = 1
	}
	return w
}

// Resume starts the writer from the snapshot a run was restored from:
// it is the last boundary, and the file at Path — the one the run was
// resumed from, as the CLIs and core.RunJob arrange — holds it.
func (w *Writer) Resume(s *Snapshot) {
	w.boundary = s.Iteration
	if w.opts.Path != "" {
		w.last = s
		w.wrote = s.Iteration
	}
}

// Boundary records boundary i. When writing is enabled it captures the
// snapshot snap builds — at the boundary, so later work cannot leak
// into it — and writes it when i is a multiple of Every or force is
// set. Only a snapshot that cannot be encoded (a bug) is returned as
// an error; I/O failures degrade the writer instead.
func (w *Writer) Boundary(i int, force bool, snap func() *Snapshot) error {
	w.boundary = i
	if w.opts.Path == "" {
		return nil
	}
	w.last = snap()
	if !force && i%w.opts.Every != 0 {
		return nil
	}
	return w.Flush()
}

// Flush writes the last boundary snapshot regardless of cadence; a
// contained panic calls it so a resume can pick up at that boundary.
func (w *Writer) Flush() error {
	if w.opts.Path == "" || w.last == nil {
		return nil
	}
	t0 := time.Now()
	n, err := SaveFS(w.opts.FS, w.opts.Path, w.last, w.opts.Retry)
	if w.tr != nil {
		w.tr.Track(trace.MainTrack).Add(trace.CatCheckpoint, trace.SpanCheckpoint,
			w.tr.Rel(t0), time.Since(t0), trace.KV{K: "bytes", V: int64(n)})
	}
	if err != nil {
		if errs.Is(err, errs.TransientIO) {
			w.degrade(err)
			return nil
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	if w.degraded {
		w.degraded = false
		w.failures = 0
		w.o.Gauge("checkpoint_degraded").Set(0)
		w.o.Emit(obs.Event{Kind: obs.KindWarning,
			Msg: fmt.Sprintf("checkpoint writes recovered at boundary %d; snapshot is fresh again", w.last.Iteration)})
	}
	w.wrote = w.last.Iteration
	w.o.Counter("checkpoint_writes_total").Inc()
	w.o.Histogram("checkpoint_bytes", 1<<10, 1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22).Observe(float64(n))
	w.o.Histogram("checkpoint_write_seconds").Observe(time.Since(t0).Seconds())
	w.o.Emit(obs.Event{Kind: obs.KindCheckpoint, I: w.last.Iteration, N: n})
	return nil
}

// degrade records one exhausted-retries write failure and keeps the run
// going.
func (w *Writer) degrade(err error) {
	w.degraded = true
	w.failures++
	w.o.Counter("checkpoint_write_failures_total").Inc()
	w.o.Gauge("checkpoint_degraded").Set(1)
	w.o.Emit(obs.Event{Kind: obs.KindDegraded, N: w.failures,
		Msg: fmt.Sprintf("checkpoint write failed after retries (run continues; on-disk snapshot is stale): %v", err)})
}

// Degraded reports whether the most recent write failed: a run that
// ends degraded finished with a stale snapshot on disk.
func (w *Writer) Degraded() bool { return w.degraded }

// Interrupt flushes the last boundary snapshot and wraps the context
// error in an *InterruptedError naming the boundary actually on disk:
// the flushed one, or — when that flush failed too — the last one that
// was written. Work past the last boundary is discarded; a resumed run
// redoes it from the boundary, which reproduces it exactly.
func (w *Writer) Interrupt(cause error) error {
	_ = w.Flush()
	ie := &InterruptedError{Iteration: w.boundary, Path: w.opts.Path, Err: cause}
	if w.wrote >= 0 {
		ie.Iteration = w.wrote
	}
	return ie
}
