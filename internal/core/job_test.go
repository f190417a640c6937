package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"limscan/internal/checkpoint"
	"limscan/internal/obs"
)

// TestRunJobFresh: with no snapshot at the path, RunJob runs the
// campaign from scratch and leaves a resumable final snapshot behind.
func TestRunJobFresh(t *testing.T) {
	c := loadBmark(t, "s298")
	cfg := resumeConfig(5)
	want, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "job.ck")
	got, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, &checkpoint.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("fresh RunJob reported resumed=true")
	}
	sameResult(t, "fresh", got, want)
	if _, err := checkpoint.Load(path); err != nil {
		t.Errorf("final snapshot unreadable: %v", err)
	}
}

// TestRunJobResumesInterrupted: a job killed mid-run continues from its
// snapshot on the next RunJob with the same path — the service's
// crash-restart path — and converges to the uninterrupted result.
func TestRunJobResumesInterrupted(t *testing.T) {
	c := loadBmark(t, "s298")
	cfg := resumeConfig(5)
	want, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "job.ck")
	ck := &checkpoint.Options{Path: path}

	// First attempt: cancel at the first checkpoint write, as a crash
	// between iteration boundaries would.
	ctx, cancel := context.WithCancel(context.Background())
	o := obs.New(nil, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint {
			cancel()
		}
	}))
	cfgHop := cfg
	cfgHop.Observer = o
	_, _, err = NewRunner(c).RunJob(ctx, cfgHop, ck)
	cancel()
	var ie *checkpoint.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("interrupted first attempt returned %v", err)
	}

	// Restart: a fresh runner (fresh process), same path. RunJob must
	// pick the snapshot up by itself; chained interruptions resume too.
	var got *Result
	for hops := 0; ; hops++ {
		if hops > want.Iterations+4 {
			t.Fatal("resume chain did not converge")
		}
		res, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		if !resumed {
			t.Fatal("restarted RunJob did not resume from the snapshot")
		}
		got = res
		break
	}
	sameResult(t, "resumed", got, want)
}

// TestRunJobCorruptSnapshot: a torn snapshot is discarded with a
// warning and the job re-runs from scratch — never an error, never a
// wrong answer.
func TestRunJobCorruptSnapshot(t *testing.T) {
	c := loadBmark(t, "s298")
	cfg := resumeConfig(5)
	want, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "job.ck")
	if err := os.WriteFile(path, []byte(`{"version":1,"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil, nil)
	cfg.Observer = o
	got, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, &checkpoint.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("corrupt snapshot reported resumed=true")
	}
	if o.Counter("checkpoint_corrupt_total").Value() != 1 {
		t.Error("corrupt snapshot not counted")
	}
	sameResult(t, "after corrupt", got, want)
	if _, err := checkpoint.Load(path); err != nil {
		t.Errorf("fresh run left no valid snapshot: %v", err)
	}
}

// TestRunJobForeignSnapshot: a valid snapshot of a different campaign
// at the path must not be resumed from; the job runs fresh.
func TestRunJobForeignSnapshot(t *testing.T) {
	c := loadBmark(t, "s298")
	path := filepath.Join(t.TempDir(), "job.ck")
	other := resumeConfig(99) // different seed: different identity
	if _, err := NewRunner(c).RunWithContext(context.Background(), other,
		&checkpoint.Options{Path: path}); err != nil {
		t.Fatal(err)
	}

	cfg := resumeConfig(5)
	want, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, &checkpoint.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("foreign snapshot reported resumed=true")
	}
	sameResult(t, "after foreign", got, want)
}

// TestRunJobFinishedSnapshot: RunJob over the final snapshot of a
// completed campaign reproduces the report without redoing the search.
func TestRunJobFinishedSnapshot(t *testing.T) {
	c := loadBmark(t, "s298")
	cfg := resumeConfig(5)
	path := filepath.Join(t.TempDir(), "job.ck")
	ck := &checkpoint.Options{Path: path}
	want, _, err := NewRunner(c).RunJob(context.Background(), cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	got, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Error("finished snapshot not resumed from")
	}
	sameResult(t, "re-run of finished job", got, want)
}

// TestJobParamsHashMatchesRunner: the runner-less hash is the same
// identity the checkpoint and ledger record — one key across all three
// subsystems is what makes the service's memoization sound.
func TestJobParamsHashMatchesRunner(t *testing.T) {
	c := loadBmark(t, "s298")
	for _, cfg := range []Config{
		resumeConfig(5),
		{LA: 8, LB: 16, N: 64, Seed: 1},
		{LA: 8, LB: 16, N: 64, Seed: 1, D1Order: DescendingD1()},
	} {
		if got, want := JobParamsHash(c, cfg), NewRunner(c).ParamsHash(cfg); got != want {
			t.Errorf("JobParamsHash = %q, Runner.ParamsHash = %q (cfg %+v)", got, want, cfg)
		}
	}
	// Result-neutral knobs must not change the identity.
	base := resumeConfig(5)
	withWorkers := base
	withWorkers.Workers = 7
	if JobParamsHash(c, base) != JobParamsHash(c, withWorkers) {
		t.Error("Workers changed the params hash")
	}
	// Result-affecting knobs must.
	other := base
	other.Seed = 6
	if JobParamsHash(c, base) == JobParamsHash(c, other) {
		t.Error("Seed did not change the params hash")
	}
}

// TestRunJobNoCheckpoint: a nil CheckpointOptions degenerates to a
// plain run.
func TestRunJobNoCheckpoint(t *testing.T) {
	c := loadBmark(t, "s27")
	cfg := resumeConfig(1)
	got, resumed, err := NewRunner(c).RunJob(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || got == nil {
		t.Errorf("nil-checkpoint RunJob: resumed=%v res=%v", resumed, got)
	}
}
