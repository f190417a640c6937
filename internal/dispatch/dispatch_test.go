package dispatch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/obs"
)

// synthetic specs/results: the protocol tests exercise leases, epochs
// and fencing, not simulation, so units carry only a key and a fault
// count.
func synthUnits(n int) []core.UnitSpec {
	units := make([]core.UnitSpec, n)
	for i := range units {
		units[i] = core.UnitSpec{Key: fmt.Sprintf("u.%d", i), Faults: []int{i}}
	}
	return units
}

func synthResult(key string) *core.UnitResult {
	return &core.UnitResult{Key: key, Detected: []uint64{1}, Batches: 1}
}

// harness runs RunUnits on a background goroutine and hands the test
// the coordinator plus a done channel carrying the outcome. The run's
// pump is the one goroutine the fake clock drives.
type harness struct {
	d    *Coordinator
	clk  *fakeClock
	reg  *obs.Registry
	done chan runOutcome
}

type runOutcome struct {
	results []*core.UnitResult
	err     error
}

// newHarness registers workers before the run starts, so its first pump
// already counts them live.
func newHarness(t *testing.T, opts Options, units []core.UnitSpec, local func(core.UnitSpec) (*core.UnitResult, error), workers ...string) *harness {
	t.Helper()
	clk := newFakeClock()
	reg := obs.NewRegistry()
	opts.Clock = clk
	opts.Obs = obs.New(reg, nil)
	h := &harness{d: New(opts), clk: clk, reg: reg, done: make(chan runOutcome, 1)}
	for _, w := range workers {
		if _, err := h.d.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if local == nil {
		local = func(spec core.UnitSpec) (*core.UnitResult, error) { return synthResult(spec.Key), nil }
	}
	go func() {
		res, err := h.d.RunUnits(ctx, units, local)
		h.done <- runOutcome{results: res, err: err}
	}()
	return h
}

func (h *harness) wait(t *testing.T) runOutcome {
	t.Helper()
	var out runOutcome
	advanceUntil(t, h.clk, 1, func() bool {
		select {
		case out = <-h.done:
			return true
		default:
			return false
		}
	}, 50*time.Millisecond, time.Hour)
	return out
}

func (h *harness) counter(name string) int64 { return h.reg.Counter(name).Value() }

// mustLease leases until a grant arrives (retrying through backoff
// windows by advancing the clock).
func mustLease(t *testing.T, h *harness, worker string) LeaseGrant {
	t.Helper()
	var g LeaseGrant
	advanceUntil(t, h.clk, 1, func() bool {
		grant, ok, err := h.d.Lease(worker)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if ok {
			g = grant
		}
		return ok
	}, 50*time.Millisecond, time.Hour)
	return g
}

// TestLeaseCompleteHappyPath: one worker drains every unit; results come
// back in unit order regardless of completion order.
func TestLeaseCompleteHappyPath(t *testing.T) {
	h := newHarness(t, Options{}, synthUnits(3), nil, "w1")
	var grants []LeaseGrant
	for i := 0; i < 3; i++ {
		grants = append(grants, mustLease(t, h, "w1"))
	}
	if _, ok, _ := h.d.Lease("w1"); ok {
		t.Fatal("fourth lease granted with only three units")
	}
	// Complete in reverse order; the result slice must still be in unit
	// order.
	for i := 2; i >= 0; i-- {
		g := grants[i]
		acc, err := h.d.Complete("w1", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key))
		if err != nil || !acc {
			t.Fatalf("complete %s: accepted=%v err=%v", g.Spec.Key, acc, err)
		}
	}
	out := h.wait(t)
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, res := range out.results {
		if res.Key != fmt.Sprintf("u.%d", i) {
			t.Errorf("result %d is %s", i, res.Key)
		}
	}
	if n := h.counter("dispatch_leases_total"); n != 3 {
		t.Errorf("leases_total = %d, want 3", n)
	}
	if n := h.counter("dispatch_local_units_total"); n != 0 {
		t.Errorf("local_units_total = %d, want 0 (workers were live)", n)
	}
}

// TestExpiryFencesZombie: a worker that stops heartbeating loses its
// lease; the unit is re-granted under a higher epoch; the zombie's late
// result and heartbeat are rejected with Conflict and counted as
// fenced.
func TestExpiryFencesZombie(t *testing.T) {
	h := newHarness(t, Options{LeaseTTL: time.Second, BackoffBase: 100 * time.Millisecond}, synthUnits(1), nil,
		"zombie", "healthy")
	g := mustLease(t, h, "zombie")

	// Let the lease rot. The pump reaps it and bumps the epoch.
	advanceUntil(t, h.clk, 1, func() bool { return h.counter("dispatch_expired_total") == 1 },
		100*time.Millisecond, time.Hour)

	// The zombie's heartbeat now bounces.
	if err := h.d.Heartbeat("zombie", g.Spec.Key, g.Epoch); !errs.Is(err, errs.Conflict) {
		t.Fatalf("zombie heartbeat: %v, want Conflict", err)
	}

	// The healthy worker picks it up (after backoff) at a higher epoch
	// and completes it.
	g2 := mustLease(t, h, "healthy")
	if g2.Epoch <= g.Epoch {
		t.Fatalf("re-grant epoch %d not above original %d", g2.Epoch, g.Epoch)
	}
	// The zombie's late result is fenced. It is submitted while the
	// re-granted lease is still open: once the healthy result lands the
	// run may end and forget the unit.
	if _, err := h.d.Complete("zombie", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key)); !errs.Is(err, errs.Conflict) {
		t.Fatalf("zombie result: %v, want Conflict", err)
	}
	if acc, err := h.d.Complete("healthy", g2.Spec.Key, g2.Epoch, synthResult(g2.Spec.Key)); err != nil || !acc {
		t.Fatalf("healthy complete: accepted=%v err=%v", acc, err)
	}
	if n := h.counter("dispatch_fenced_total"); n < 1 {
		t.Errorf("fenced_total = %d, want >= 1", n)
	}

	out := h.wait(t)
	if out.err != nil || len(out.results) != 1 {
		t.Fatalf("outcome: %+v", out)
	}
}

// TestHeartbeatExtendsLease: regular heartbeats keep a lease alive far
// past its original TTL.
func TestHeartbeatExtendsLease(t *testing.T) {
	h := newHarness(t, Options{LeaseTTL: time.Second}, synthUnits(1), nil, "w1")
	g := mustLease(t, h, "w1")
	for i := 0; i < 10; i++ {
		h.clk.BlockUntil(1) // the pump has observed the previous now
		h.clk.Advance(500 * time.Millisecond)
		if err := h.d.Heartbeat("w1", g.Spec.Key, g.Epoch); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if n := h.counter("dispatch_expired_total"); n != 0 {
		t.Fatalf("lease expired despite heartbeats")
	}
	if acc, err := h.d.Complete("w1", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key)); err != nil || !acc {
		t.Fatalf("complete after long heartbeat run: accepted=%v err=%v", acc, err)
	}
	if out := h.wait(t); out.err != nil {
		t.Fatal(out.err)
	}
}

// TestDuplicateDeliveryIsIdempotent: redelivering an accepted result is
// acknowledged (no error) but not re-applied, and counted.
func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	h := newHarness(t, Options{}, synthUnits(2), nil, "w1")
	g := mustLease(t, h, "w1")
	if acc, err := h.d.Complete("w1", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key)); err != nil || !acc {
		t.Fatalf("first delivery: accepted=%v err=%v", acc, err)
	}
	acc, err := h.d.Complete("w1", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key))
	if err != nil {
		t.Fatalf("duplicate delivery errored: %v", err)
	}
	if acc {
		t.Fatal("duplicate delivery accepted twice")
	}
	if n := h.counter("dispatch_duplicates_total"); n != 1 {
		t.Errorf("duplicates_total = %d, want 1", n)
	}
	// A *different* worker redelivering the done unit is fenced, not
	// acknowledged: it never held the accepted lease.
	h.d.Register("w2")
	if _, err := h.d.Complete("w2", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key)); !errs.Is(err, errs.Conflict) {
		t.Fatalf("foreign duplicate: %v, want Conflict", err)
	}
	g2 := mustLease(t, h, "w1")
	h.d.Complete("w1", g2.Spec.Key, g2.Epoch, synthResult(g2.Spec.Key))
	if out := h.wait(t); out.err != nil {
		t.Fatal(out.err)
	}
}

// TestLocalFallbackNoWorkers: with nobody registered, the coordinator
// runs every unit itself, immediately.
func TestLocalFallbackNoWorkers(t *testing.T) {
	h := newHarness(t, Options{}, synthUnits(4), nil)
	out := h.wait(t)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.results) != 4 {
		t.Fatalf("%d results, want 4", len(out.results))
	}
	if n := h.counter("dispatch_local_units_total"); n != 4 {
		t.Errorf("local_units_total = %d, want 4", n)
	}
	if n := h.counter("dispatch_leases_total"); n != 0 {
		t.Errorf("leases_total = %d, want 0", n)
	}
}

// TestMaxAttemptsFallsBackLocally: a unit whose leases keep expiring is
// eventually pulled from the fleet and run locally, even with a live
// worker hammering Lease.
func TestMaxAttemptsFallsBackLocally(t *testing.T) {
	h := newHarness(t, Options{
		LeaseTTL: time.Second, MaxAttempts: 2,
		BackoffBase: 100 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
		WorkerTTL: time.Hour, // the crashy worker stays "live" to keep the fleet path open
	}, synthUnits(1), nil, "crashy")
	for i := 0; i < 2; i++ {
		mustLease(t, h, "crashy") // lease and abandon
		advanceUntil(t, h.clk, 1, func() bool { return h.counter("dispatch_expired_total") == int64(i+1) },
			100*time.Millisecond, time.Hour)
	}
	out := h.wait(t)
	if out.err != nil {
		t.Fatal(out.err)
	}
	if n := h.counter("dispatch_local_units_total"); n != 1 {
		t.Errorf("local_units_total = %d, want 1", n)
	}
	if n := h.counter("dispatch_expired_total"); n != 2 {
		t.Errorf("expired_total = %d, want 2", n)
	}
}

// TestWorkerLostAndRejoin: a silent worker crosses the liveness horizon
// (worker_lost), pending work falls back locally, and the worker's next
// contact re-registers it.
func TestWorkerLostAndRejoin(t *testing.T) {
	blockLocal := make(chan struct{})
	unitsDone := make(chan struct{}, 8)
	h := newHarness(t, Options{LeaseTTL: time.Second, WorkerTTL: 2 * time.Second},
		synthUnits(1), func(spec core.UnitSpec) (*core.UnitResult, error) {
			<-blockLocal
			unitsDone <- struct{}{}
			return synthResult(spec.Key), nil
		}, "flaky")
	// Silence: the worker never leases. Once it crosses the horizon the
	// coordinator declares it lost and the unit goes local.
	advanceUntil(t, h.clk, 1, func() bool { return h.counter("dispatch_workers_lost_total") == 1 },
		200*time.Millisecond, time.Hour)
	close(blockLocal)
	out := h.wait(t)
	if out.err != nil {
		t.Fatal(out.err)
	}
	joinsBefore := h.counter("dispatch_workers_joined_total")
	h.d.Register("flaky") // rejoin emits a fresh join
	if n := h.counter("dispatch_workers_joined_total"); n != joinsBefore+1 {
		t.Errorf("joined_total = %d after rejoin, want %d", n, joinsBefore+1)
	}
}

// TestRunUnitsCancellation: a canceled context abandons the set; racing
// workers get NotFound afterwards.
func TestRunUnitsCancellation(t *testing.T) {
	clk := newFakeClock()
	d := New(Options{Clock: clk})
	d.Register("w1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.RunUnits(ctx, synthUnits(2), nil)
		done <- err
	}()
	// Lease one unit so the set is visibly active, then cancel.
	var g LeaseGrant
	advanceUntil(t, clk, 1, func() bool {
		grant, ok, _ := d.Lease("w1")
		if ok {
			g = grant
		}
		return ok
	}, 50*time.Millisecond, time.Hour)
	cancel()
	var err error
	advanceUntil(t, clk, 1, func() bool {
		select {
		case err = <-done:
			return true
		default:
			return false
		}
	}, 50*time.Millisecond, time.Hour)
	if err != context.Canceled {
		t.Fatalf("RunUnits returned %v, want context.Canceled", err)
	}
	if _, cerr := d.Complete("w1", g.Spec.Key, g.Epoch, synthResult(g.Spec.Key)); !errs.Is(cerr, errs.NotFound) {
		t.Fatalf("complete after cancel: %v, want NotFound", cerr)
	}
}

// TestSecondRunUnitsRejected: the one-active-set invariant fails fast.
func TestSecondRunUnitsRejected(t *testing.T) {
	clk := newFakeClock()
	d := New(Options{Clock: clk})
	d.Register("w1") // keep units pending (live worker, no local fallback)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go d.RunUnits(ctx, synthUnits(1), nil)
	clk.BlockUntil(1) // the first set is active and its pump parked
	_, second := d.RunUnits(context.Background(), synthUnits(1), nil)
	if second == nil {
		t.Fatal("second RunUnits accepted")
	}
}

// TestBackoffDeterministicAndCapped pins the reassignment backoff: same
// (key, attempt) always yields the same delay; delays grow then cap;
// jitter keeps them within [delay/2, delay].
func TestBackoffDeterministicAndCapped(t *testing.T) {
	d := New(Options{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	for attempt := 1; attempt <= 8; attempt++ {
		a := d.backoff("unit-x", attempt)
		b := d.backoff("unit-x", attempt)
		if a != b {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, a, b)
		}
		full := 100 * time.Millisecond
		for i := 1; i < attempt && full < time.Second; i++ {
			full *= 2
		}
		if full > time.Second {
			full = time.Second
		}
		if a < full/2 || a > full {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, a, full/2, full)
		}
	}
	if d.backoff("unit-x", 3) == d.backoff("unit-y", 3) {
		t.Error("distinct keys produced identical jitter (suspicious)")
	}
}

// TestConcurrentWorkersDrainRace exercises the full protocol under the
// race detector: many workers lease/complete concurrently against a
// real-clock coordinator with aggressive TTLs.
func TestConcurrentWorkersDrainRace(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Options{LeaseTTL: 50 * time.Millisecond, Tick: 5 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		Obs: obs.New(reg, nil)})
	const units = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			d.Register(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				g, ok, err := d.Lease(id)
				if err != nil || !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				// Half the time, dally past the TTL to force reaps.
				if len(g.Spec.Key)%2 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				d.Complete(id, g.Spec.Key, g.Epoch, synthResult(g.Spec.Key))
			}
		}(fmt.Sprintf("w%d", w))
	}
	res, err := d.RunUnits(context.Background(), synthUnits(units), func(spec core.UnitSpec) (*core.UnitResult, error) {
		return synthResult(spec.Key), nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != units {
		t.Fatalf("%d results, want %d", len(res), units)
	}
	for i, r := range res {
		if r == nil || r.Key != fmt.Sprintf("u.%d", i) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}
