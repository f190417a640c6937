package fsim

import (
	"strings"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/obs"
	"limscan/internal/trace"
)

// sessionDims scales the differential workload to the circuit so the
// full bmark sweep stays fast even under -race: big netlists get fewer,
// shorter tests (their fault universes alone exercise many batches).
func sessionDims(gates int) (n, length int) {
	switch {
	case gates > 8000:
		return 1, 2
	case gates > 2000:
		return 2, 3
	case gates > 500:
		return 3, 4
	default:
		return 4, 6
	}
}

// runWorkers simulates one session at the given worker count and returns
// the stats and final fault states. An observer is attached so detection
// sites are populated — the strictest comparison surface.
func runWorkers(t *testing.T, c *circuit.Circuit, reps []fault.Fault, workers, per int, seed uint64) (RunStats, []fault.Status) {
	t.Helper()
	n, length := sessionDims(len(c.Gates))
	tests := randomTests(c, n, length, true, seed)
	fs := fault.NewSet(reps)
	s := New(c)
	stats, err := s.Run(tests, fs, Options{
		Workers:       workers,
		FaultsPerPass: per,
		Obs:           obs.New(nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]fault.Status, len(fs.State))
	copy(states, fs.State)
	return stats, states
}

// TestParallelMatchesSerialBmarks is the tentpole's differential gate:
// on every registered benchmark circuit, sharding the session across
// 2, 4 and 8 workers must reproduce the Workers=1 RunStats struct —
// detections, batch count, cycle cost, per-site attribution — and the
// per-fault detection states exactly.
func TestParallelMatchesSerialBmarks(t *testing.T) {
	for _, name := range bmark.Names() {
		spec, _ := bmark.Info(name)
		if testing.Short() && spec.Gates > 2000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := bmark.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			reps, _ := fault.Collapse(c, fault.Universe(c))
			seed := spec.Seed ^ 0x9E3779B9
			base, baseStates := runWorkers(t, c, reps, 1, 0, seed)
			for _, w := range []int{2, 4, 8} {
				stats, states := runWorkers(t, c, reps, w, 0, seed)
				if stats != base {
					t.Errorf("Workers=%d stats = %+v, want %+v", w, stats, base)
				}
				for i := range states {
					if states[i] != baseStates[i] {
						t.Errorf("Workers=%d: fault %s state %v, want %v",
							w, reps[i].Pretty(c), states[i], baseStates[i])
					}
				}
			}
		})
	}
}

// TestParallelSmallBatches forces many small batches (FaultsPerPass far
// below LanesPerWord) so the worker pool sees real contention on the
// claim cursor, and still must merge deterministically.
func TestParallelSmallBatches(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s510"} {
		t.Run(name, func(t *testing.T) {
			c, err := bmark.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			reps, _ := fault.Collapse(c, fault.Universe(c))
			base, baseStates := runWorkers(t, c, reps, 1, 5, 7)
			for _, w := range []int{3, 8} {
				stats, states := runWorkers(t, c, reps, w, 5, 7)
				if stats != base {
					t.Errorf("Workers=%d stats = %+v, want %+v", w, stats, base)
				}
				for i := range states {
					if states[i] != baseStates[i] {
						t.Errorf("Workers=%d: fault %s diverged", w, reps[i].Pretty(c))
					}
				}
			}
		})
	}
}

// TestParallelMultiSessionDropping runs two sessions back to back: the
// second session's remaining-fault list depends on the first session's
// dropping, so any cross-session nondeterminism in the parallel path
// would compound here.
func TestParallelMultiSessionDropping(t *testing.T) {
	c, err := bmark.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	run := func(workers int) ([]RunStats, []fault.Status) {
		fs := fault.NewSet(reps)
		s := New(c)
		var all []RunStats
		for sess := 0; sess < 3; sess++ {
			tests := randomTests(c, 2, 4, sess%2 == 0, uint64(11+sess))
			stats, err := s.Run(tests, fs, Options{Workers: workers, Obs: obs.New(nil, nil)})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, stats)
		}
		return all, fs.State
	}
	base, baseStates := run(1)
	for _, w := range []int{2, 4} {
		stats, states := run(w)
		for i := range stats {
			if stats[i] != base[i] {
				t.Errorf("Workers=%d session %d stats = %+v, want %+v", w, i, stats[i], base[i])
			}
		}
		for i := range states {
			if states[i] != baseStates[i] {
				t.Errorf("Workers=%d: fault %s diverged after 3 sessions", w, reps[i].Pretty(c))
			}
		}
	}
}

// TestParallelTransitionFaults covers the transition-fault universe,
// whose installFault path differs from stuck-at.
func TestParallelTransitionFaults(t *testing.T) {
	c, err := bmark.Load("s344")
	if err != nil {
		t.Fatal(err)
	}
	reps := fault.TransitionUniverse(c)
	tests := randomTests(c, 3, 5, true, 21)
	run := func(workers int) (RunStats, []fault.Status) {
		fs := fault.NewSet(reps)
		stats, err := New(c).Run(tests, fs, Options{Workers: workers, Obs: obs.New(nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		return stats, fs.State
	}
	base, baseStates := run(1)
	for _, w := range []int{2, 8} {
		stats, states := run(w)
		if stats != base {
			t.Errorf("Workers=%d stats = %+v, want %+v", w, stats, base)
		}
		for i := range states {
			if states[i] != baseStates[i] {
				t.Errorf("Workers=%d: transition fault %d diverged", w, i)
			}
		}
	}
}

// TestParallelWorkerMetrics checks the worker-pool observability surface:
// fsim_workers, the sharded-run counter, and the per-worker histograms.
func TestParallelWorkerMetrics(t *testing.T) {
	c, err := bmark.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	fs := fault.NewSet(reps)
	_, err = New(c).Run(randomTests(c, 2, 3, true, 5), fs, Options{
		Workers:         4,
		FaultsPerPass:   8,
		Obs:             obs.New(reg, col),
		EmitBatchEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("fsim_workers").Value(); got != 4 {
		t.Errorf("fsim_workers = %v, want 4", got)
	}
	if got := reg.Counter("fsim_sharded_runs_total").Value(); got != 1 {
		t.Errorf("fsim_sharded_runs_total = %d, want 1", got)
	}
	if got := reg.Histogram("fsim_worker_batches").Count(); got != 4 {
		t.Errorf("fsim_worker_batches count = %d, want 4 (one per worker)", got)
	}
	if got := reg.Histogram("fsim_worker_wait_seconds").Count(); got != 4 {
		t.Errorf("fsim_worker_wait_seconds count = %d, want 4", got)
	}
	if got := reg.Histogram("fsim_worker_busy_seconds").Count(); got != 4 {
		t.Errorf("fsim_worker_busy_seconds count = %d, want 4", got)
	}
	var sharded int
	for _, e := range col.Events() {
		if e.Kind == obs.KindFsimSharded {
			sharded++
			if e.N != 4 {
				t.Errorf("fsim_sharded event N = %d, want 4 workers", e.N)
			}
			if e.Faults < 2 {
				t.Errorf("fsim_sharded event Faults = %d, want >= 2 batches", e.Faults)
			}
		}
	}
	if sharded != 1 {
		t.Errorf("saw %d fsim_sharded events, want 1", sharded)
	}
}

// TestOptionsValidate pins the Validate contract — in particular that
// FaultsPerPass beyond LanesPerWord is now an error, not a silent clamp.
func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		{FaultsPerPass: 1},
		{FaultsPerPass: LanesPerWord},
		{Workers: 1},
		{Workers: 64},
		{MISRDegree: 16},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	invalid := []Options{
		{FaultsPerPass: LanesPerWord + 1},
		{FaultsPerPass: 100},
		{FaultsPerPass: -1},
		{Workers: -1},
		{MISRDegree: -2},
	}
	for _, o := range invalid {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
	// Run must reject, not clamp, an oversized FaultsPerPass.
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	if _, err := New(c).Run(randomTests(c, 1, 2, false, 1), fs, Options{FaultsPerPass: 100}); err == nil {
		t.Fatal("Run accepted FaultsPerPass=100, want error")
	}
}

// TestEffectiveWorkers pins the worker-count resolution: zero means
// GOMAXPROCS, and no run uses more workers than batches.
func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		workers, batches, want int
	}{
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2},
		{8, 1, 1},
		{3, 0, 1},
	}
	for _, tc := range cases {
		if got := (Options{Workers: tc.workers}).effectiveWorkers(tc.batches); got != tc.want {
			t.Errorf("effectiveWorkers(Workers=%d, batches=%d) = %d, want %d",
				tc.workers, tc.batches, got, tc.want)
		}
	}
	if got := (Options{}).effectiveWorkers(1 << 20); got < 1 {
		t.Errorf("effectiveWorkers(Workers=0) = %d, want >= 1", got)
	}
}

// TestParallelTracedIdenticalResults pins the soundness claim behind
// -trace: recording an execution trace must not perturb the simulation.
// Every RunStats field and every per-fault state must be byte-identical
// with tracing on vs off, at serial and sharded worker counts — and the
// trace itself must carry one track per worker plus the run span. The
// "Parallel" name puts this under `make paradiff`, so the claim is also
// checked at GOMAXPROCS=1 and 4.
func TestParallelTracedIdenticalResults(t *testing.T) {
	for _, name := range []string{"s298", "s641"} {
		t.Run(name, func(t *testing.T) {
			c, err := bmark.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			reps, _ := fault.Collapse(c, fault.Universe(c))
			n, length := sessionDims(len(c.Gates))
			tests := randomTests(c, n, length, true, 99)

			run := func(workers int, tr *trace.Recorder) (RunStats, []fault.Status) {
				fs := fault.NewSet(reps)
				stats, err := New(c).Run(tests, fs, Options{
					Workers: workers,
					Obs:     obs.New(nil, nil),
					Trace:   tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				states := make([]fault.Status, len(fs.State))
				copy(states, fs.State)
				return stats, states
			}

			for _, w := range []int{1, 4} {
				plain, plainStates := run(w, nil)
				tr := trace.New()
				traced, tracedStates := run(w, tr)
				if traced != plain {
					t.Errorf("Workers=%d traced stats = %+v, want %+v", w, traced, plain)
				}
				for i := range tracedStates {
					if tracedStates[i] != plainStates[i] {
						t.Errorf("Workers=%d: fault %s state diverged under tracing",
							w, reps[i].Pretty(c))
					}
				}
				// The trace recorded what it promised: a run span with the
				// effective worker count, and a batch track per worker that
				// claimed work.
				m := tr.Model()
				main := m.Track(trace.MainTrack)
				if main == nil || len(main.Spans) == 0 {
					t.Fatalf("Workers=%d: no run span on the campaign track", w)
				}
				var runSpans, workerTracks int
				for i := range main.Spans {
					if main.Spans[i].Cat == trace.CatRun {
						runSpans++
						if got, ok := main.Spans[i].Arg("workers"); !ok || got < 1 {
							t.Errorf("run span workers arg = %d, %v", got, ok)
						}
					}
				}
				for _, mt := range m.Tracks {
					if strings.HasPrefix(mt.Name, trace.WorkerTrackPrefix) && len(mt.Spans) > 0 {
						workerTracks++
					}
				}
				if runSpans != 1 {
					t.Errorf("Workers=%d: %d run spans, want 1", w, runSpans)
				}
				if workerTracks < 1 {
					t.Errorf("Workers=%d: no worker tracks with batch spans", w)
				}
			}
		})
	}
}
