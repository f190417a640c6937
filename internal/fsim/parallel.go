package fsim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// Multi-core fault simulation.
//
// A BIST session over N remaining faults decomposes into ceil(N/per)
// batches, and — because every lane simulates one fault against the
// shared good machine — each batch's detection mask is a pure function
// of (tests, batch). Fault dropping cannot couple batches inside one
// session: the batches partition fs.Remaining(), so no two workers ever
// simulate the same fault, and a fault dropped by a peer was by
// construction never in this worker's share. Workers therefore claim
// batch indices from an atomic cursor, simulate independently on
// private Simulator clones, and publish per-batch masks; a single
// deterministic merge then folds the masks into the fault set in batch
// order. The result — detections, first-observation sites, cycle and
// batch counts — is byte-identical to the serial path at any worker
// count and under any scheduling.

// effectiveWorkers resolves Options.Workers against the host and the
// work: zero means GOMAXPROCS, and no run uses more workers than it has
// batches.
func (o Options) effectiveWorkers(batches int) int {
	w := o.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > batches {
		w = batches
	}
	if w < 1 {
		w = 1
	}
	return w
}

// batchOut is one batch's published result: the detection mask and (when
// site attribution is on) the per-site first-divergence masks.
type batchOut struct {
	det   logic.Word
	sites [numSites]logic.Word
}

// worker returns the i-th simulator of the shard pool; index 0 is the
// parent itself, higher indices are lazily created clones. Must be
// called before the workers start (it appends to s.pool).
func (s *Simulator) worker(i int) *Simulator {
	if i == 0 {
		return s
	}
	for len(s.pool) < i {
		w, err := NewWithPlan(s.c, s.plan)
		if err != nil {
			panic(err) // s.plan was validated when s was built
		}
		s.pool = append(s.pool, w)
	}
	return s.pool[i-1]
}

// runSharded simulates the session with the batches sharded across
// `workers` goroutines and merges the results deterministically into fs
// and stats. Callers guarantee workers >= 2 and tests pre-validated. A
// canceled Options.Ctx stops the workers at the next batch claim and
// returns the context error without merging anything into fs.
func (s *Simulator) runSharded(tests []scan.Test, fs *fault.Set, rem []int, per, workers int, eng *ppEngine, opts Options, stats *RunStats) error {
	nb := (len(rem) + per - 1) / per
	out := make([]batchOut, nb)
	attrib := opts.Obs != nil && opts.MISRDegree == 0

	// The atomic cursor is the shared work queue: batch boundaries are
	// fixed up front, so claiming order affects only load balance, never
	// results.
	var next atomic.Int64
	var wg sync.WaitGroup
	// Panic containment: a worker that panics stores the first
	// *errs.PanicError (with its captured stack) and raises stop, so the
	// siblings drain at their next batch claim instead of wasting work —
	// or worse, publishing results a caller might merge. The run then
	// fails with a typed error and fs is never touched, exactly like the
	// cancellation path.
	var panicErr atomic.Pointer[errs.PanicError]
	var stop atomic.Bool
	batchesBy := make([]int, workers)
	doneAt := make([]time.Time, workers)
	tr := opts.Trace
	start := time.Now()
	for w := 0; w < workers; w++ {
		// Pattern-parallel workers carry their own scratch over the shared
		// read-only engine; only fault-parallel workers need a Simulator
		// clone from the pool.
		var ws *Simulator
		if eng == nil {
			ws = s.worker(w)
		}
		wg.Add(1)
		go func(w int, ws *Simulator) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicErr.CompareAndSwap(nil, errs.NewPanic(r, debug.Stack()))
					stop.Store(true)
				}
				doneAt[w] = time.Now()
			}()
			// Each worker owns its track for the duration of the run, so
			// batch spans append lock-free (see trace.Track).
			var wt *trace.Track
			if tr != nil {
				wt = tr.Track(trace.WorkerTrackPrefix + strconv.Itoa(w))
			}
			var pw *ppWorker
			if eng != nil {
				pw = eng.newWorker()
			}
			for {
				if stop.Load() {
					break
				}
				if opts.Ctx != nil && opts.Ctx.Err() != nil {
					break
				}
				bi := int(next.Add(1)) - 1
				if bi >= nb {
					break
				}
				lo := bi * per
				hi := lo + per
				if hi > len(rem) {
					hi = len(rem)
				}
				var sites *[numSites]logic.Word
				if attrib {
					sites = &out[bi].sites
				}
				if h := PanicHook; h != nil {
					h(bi)
				}
				var bs time.Duration
				if wt != nil {
					bs = tr.Now()
				}
				if pw != nil {
					out[bi].det = pw.runBatch(fs.Faults, rem[lo:hi], sites)
				} else {
					out[bi].det = ws.runBatch(tests, fs.Faults, rem[lo:hi], opts, sites)
				}
				if wt != nil {
					wt.Add(trace.CatBatch, trace.SpanBatch, bs, tr.Now()-bs,
						trace.KV{K: "batch", V: int64(bi)},
						trace.KV{K: "faults", V: int64(hi - lo)})
				}
				batchesBy[w]++
			}
		}(w, ws)
	}
	wg.Wait()
	// Merge-barrier stall spans: each worker's gap between finishing its
	// last batch and the merge starting now. Recorded after wg.Wait, so
	// the workers are gone and the campaign goroutine is each track's
	// sole writer again.
	if tr != nil {
		mergeAt := tr.Now()
		for w := 0; w < workers; w++ {
			if d := mergeAt - tr.Rel(doneAt[w]); d > 0 {
				tr.Track(trace.WorkerTrackPrefix+strconv.Itoa(w)).
					Add(trace.CatWait, trace.SpanWaitMerge, tr.Rel(doneAt[w]), d)
			}
		}
	}
	if pe := panicErr.Load(); pe != nil {
		if o := opts.Obs; o != nil {
			o.Counter("fsim_worker_panics_total").Inc()
			o.Emit(obs.Event{Kind: obs.KindWarning,
				Msg: fmt.Sprintf("fault-simulation worker panicked (run aborted, fault set untouched): %v", pe.Value)})
		}
		return fmt.Errorf("fsim: worker panic: %w", pe)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return err
		}
	}

	// Deterministic merge: identical bookkeeping, in the same batch
	// order, as the serial loop. The trace span around it is recorded
	// after the fold completes — the recorder observes the merge, never
	// participates in it.
	var mergeStart time.Duration
	if tr != nil {
		mergeStart = tr.Now()
	}
	for bi := 0; bi < nb; bi++ {
		lo := bi * per
		hi := lo + per
		if hi > len(rem) {
			hi = len(rem)
		}
		var sites *[numSites]logic.Word
		if attrib {
			sites = &out[bi].sites
		}
		s.mergeBatch(stats, fs, rem[lo:hi], out[bi].det, sites, opts)
	}
	if tr != nil {
		tr.Track(trace.MainTrack).Add(trace.CatMerge, trace.SpanMerge, mergeStart, tr.Now()-mergeStart,
			trace.KV{K: "batches", V: int64(nb)})
	}

	if o := opts.Obs; o != nil {
		o.Gauge("fsim_workers").Set(float64(workers))
		o.Counter("fsim_sharded_runs_total").Inc()
		last := doneAt[0]
		for _, t := range doneAt[1:] {
			if t.After(last) {
				last = t
			}
		}
		for w := 0; w < workers; w++ {
			o.Histogram("fsim_worker_batches", 1, 2, 4, 8, 16, 32, 64, 128, 256).Observe(float64(batchesBy[w]))
			o.Histogram("fsim_worker_busy_seconds").Observe(doneAt[w].Sub(start).Seconds())
			// Straggler wait: how long this worker's core sat idle while
			// the slowest peer finished — the shard-imbalance signal.
			o.Histogram("fsim_worker_wait_seconds").Observe(last.Sub(doneAt[w]).Seconds())
		}
		if opts.EmitBatchEvents {
			o.Emit(obs.Event{Kind: obs.KindFsimSharded, N: workers, Faults: nb})
		}
	}
	return nil
}
