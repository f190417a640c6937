package core

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"limscan/internal/checkpoint"
	"limscan/internal/errs"
	"limscan/internal/fsim"
	"limscan/internal/obs"
)

// TestCampaignPanicFlushesBoundary: a simulator worker panic mid-
// campaign aborts the run with a typed errs.InternalPanic error, but
// the last completed iteration boundary is flushed to the checkpoint
// first — so an operator can fix the bug and -resume instead of paying
// the whole campaign again. The resumed run (fault cleared) must match
// the uninterrupted campaign exactly.
func TestCampaignPanicFlushesBoundary(t *testing.T) {
	c := loadBmark(t, "s298")
	cfg := resumeConfig(5)
	want, err := NewRunner(c).RunWithContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Arm the panic hook only after the TS0 boundary snapshot is written,
	// so the panic lands in an iteration's fault simulation and the TS0
	// boundary is the last completed one.
	var armed, sawPanicWarning atomic.Bool
	fsim.PanicHook = func(batch int) {
		if armed.Load() {
			panic("campaign chaos")
		}
	}
	t.Cleanup(func() { fsim.PanicHook = nil })

	path := filepath.Join(t.TempDir(), "ck.json")
	reg := obs.NewRegistry()
	cfgPanic := cfg
	cfgPanic.Observer = obs.New(reg, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint {
			armed.Store(true)
		}
		if e.Kind == obs.KindWarning {
			sawPanicWarning.Store(true)
		}
	}))
	_, err = NewRunner(c).RunWithContext(context.Background(), cfgPanic, &checkpoint.Options{Path: path})
	if err == nil {
		t.Fatal("campaign with a panicking simulator returned nil error")
	}
	if !errs.Is(err, errs.InternalPanic) {
		t.Fatalf("error %v does not match errs.InternalPanic", err)
	}
	var pe *errs.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("campaign panic lost its stack: %v", err)
	}
	if got := errs.ExitCode(err); got != errs.ExitInternal {
		t.Errorf("ExitCode = %d, want %d", got, errs.ExitInternal)
	}
	if got := reg.Counter("fsim_worker_panics_total").Value(); got < 1 {
		t.Errorf("fsim_worker_panics_total = %d, want >= 1", got)
	}
	if !sawPanicWarning.Load() {
		t.Error("no warning event emitted for the contained panic")
	}

	// The TS0 boundary must be on disk despite the abort.
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("no flushed snapshot after panic: %v", err)
	}
	if snap.Iteration != 0 {
		t.Errorf("flushed snapshot at iteration %d, want 0 (TS0 boundary)", snap.Iteration)
	}

	fsim.PanicHook = nil
	got, err := NewRunner(c).ResumeWithContext(context.Background(), cfg, snap, nil)
	if err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
	sameResult(t, "resume-after-panic", got, want)
}
