package fsim

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/obs"
)

// armHook installs a PanicHook that panics with value on the trip-th
// call (1-based), and restores the nil hook when the test ends. The
// returned counter reports how many calls happened.
func armHook(t *testing.T, trip int64, value any) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	PanicHook = func(batch int) {
		if calls.Add(1) == trip {
			panic(value)
		}
	}
	t.Cleanup(func() { PanicHook = nil })
	return &calls
}

// waitGoroutines polls until the goroutine count drops back to base (a
// small settle loop: contained workers have already been waited for, so
// this converges immediately unless a worker leaked).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, started with %d", runtime.NumGoroutine(), base)
}

// TestShardedPanicContained: a panic inside a sharded worker surfaces as
// a typed errs.InternalPanic error carrying the panicking goroutine's
// stack, the sibling workers shut down (Run returns, no goroutine
// leak), and the fault set is left untouched — nothing partial merged.
func TestShardedPanicContained(t *testing.T) {
	c, err := bmark.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 3, 4, true, 9)
	base := runtime.NumGoroutine()

	armHook(t, 3, "chaos-monkey")
	fs := fault.NewSet(reps)
	reg := obs.NewRegistry()
	var warned atomic.Int64
	o := obs.New(reg, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindWarning {
			warned.Add(1)
		}
	}))
	_, err = New(c).Run(tests, fs, Options{Workers: 4, FaultsPerPass: 5, Obs: o})
	if err == nil {
		t.Fatal("sharded Run with a panicking worker returned nil error")
	}
	if !errs.Is(err, errs.InternalPanic) {
		t.Fatalf("error %v does not match errs.InternalPanic", err)
	}
	var pe *errs.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v carries no *errs.PanicError", err)
	}
	if pe.Value != "chaos-monkey" {
		t.Errorf("PanicError.Value = %v, want chaos-monkey", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack does not look like a stack:\n%s", pe.Stack)
	}
	waitGoroutines(t, base)

	for i, st := range fs.State {
		if st != fault.Undetected {
			t.Fatalf("fault %s marked %v after panicked run", reps[i].Pretty(c), st)
		}
	}
	if got := reg.Counter("fsim_worker_panics_total").Value(); got != 1 {
		t.Errorf("fsim_worker_panics_total = %d, want 1", got)
	}
	if warned.Load() == 0 {
		t.Error("no warning event emitted for the contained panic")
	}
}

// TestSerialPanicContained: the serial path contains the panic too — the
// caller gets a typed error, never an unwound stack.
func TestSerialPanicContained(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 2, 3, true, 3)

	armHook(t, 1, errors.New("wrapped panic value"))
	_, err = New(c).Run(tests, fault.NewSet(reps), Options{Workers: 1})
	if !errs.Is(err, errs.InternalPanic) {
		t.Fatalf("serial Run error %v does not match errs.InternalPanic", err)
	}
	var pe *errs.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("serial panic lost its stack: %v", err)
	}
}

// TestPanicExitCode: a contained panic maps to the internal exit code,
// not the usage code the Go runtime's own panic exit (2) would collide
// with.
func TestPanicExitCode(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	armHook(t, 1, "boom")
	_, err = New(c).Run(randomTests(c, 1, 2, true, 1), fault.NewSet(reps), Options{Workers: 1})
	if got := errs.ExitCode(err); got != errs.ExitInternal {
		t.Errorf("ExitCode = %d, want %d", got, errs.ExitInternal)
	}
}

// TestCheckpointedPanicFlushesLastChunk: when a worker panics mid-
// session, RunCheckpointed flushes the last completed chunk boundary
// before unwinding, and a resume from that snapshot (with the fault
// cleared) converges to the straight session's result.
func TestCheckpointedPanicFlushesLastChunk(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 3, 4, true, 42)
	ck := SessionCheckpoint{
		Meta:        sessionMeta(c, tests, 42),
		ChunkFaults: 16,
		// The cadence never writes; only the panic flush does.
		Checkpoint: checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json"), Every: 1000},
	}
	straight, straightStates, err := runChunked(t, c, reps, tests, ck, nil, obs.New(nil, nil), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Chunks of 16 faults fit one batch each, so the hook fires once per
	// chunk: tripping on call 4 lets chunks 1-3 complete first.
	ck.Checkpoint.Path = filepath.Join(t.TempDir(), "ck.json")
	armHook(t, 4, "mid-session panic")
	_, _, err = runChunked(t, c, reps, tests, ck, nil, obs.New(nil, nil), context.Background())
	if !errs.Is(err, errs.InternalPanic) {
		t.Fatalf("panicked session error %v does not match errs.InternalPanic", err)
	}
	snap, err := checkpoint.Load(ck.Checkpoint.Path)
	if err != nil {
		t.Fatalf("no flushed snapshot after panic: %v", err)
	}
	if snap.Iteration != 3 {
		t.Errorf("flushed snapshot at chunk %d, want 3 (last completed boundary)", snap.Iteration)
	}

	PanicHook = nil
	resumed, resumedStates, err := runChunked(t, c, reps, tests, ck, snap, obs.New(nil, nil), context.Background())
	if err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
	if resumed != straight {
		t.Errorf("resumed stats = %+v, straight = %+v", resumed, straight)
	}
	for i := range resumedStates {
		if resumedStates[i] != straightStates[i] {
			t.Fatalf("fault %s: resumed state %v, straight %v",
				reps[i].Pretty(c), resumedStates[i], straightStates[i])
		}
	}
}

// TestPanicHookRestored guards the suite's shared seam: the hook must be
// nil between tests (armHook's cleanup), or unrelated tests would trip.
func TestPanicHookRestored(t *testing.T) {
	if PanicHook != nil {
		t.Fatal("PanicHook leaked from a previous test")
	}
}
