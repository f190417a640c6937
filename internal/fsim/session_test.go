package fsim

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// sinkFunc adapts a function to obs.Sink for cancel-on-event tests.
type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }

// sessionMeta builds the identity block a checkpointed session carries.
func sessionMeta(c *circuit.Circuit, tests []scan.Test, seed uint64) checkpoint.Meta {
	return checkpoint.Meta{
		Mode:        checkpoint.ModeFaultSim,
		Circuit:     c.Name,
		CircuitHash: checkpoint.CircuitHash(c),
		PlanLen:     c.NumSV(),
		N:           len(tests),
		Seed:        seed,
	}
}

// runChunked runs one checkpointed session from scratch (resume == nil)
// or from a snapshot, on a fresh simulator and fault set — modeling a
// fresh process. It returns the stats, final states, and error.
func runChunked(t *testing.T, c *circuit.Circuit, reps []fault.Fault, tests []scan.Test, ck SessionCheckpoint, resume *checkpoint.Snapshot, o *obs.Campaign, ctx context.Context) (RunStats, []fault.Status, error) {
	t.Helper()
	fs := fault.NewSet(reps)
	s := New(c)
	stats, err := s.RunCheckpointed(ctx, tests, fs, resume, Options{Obs: o}, ck)
	states := make([]fault.Status, len(fs.State))
	copy(states, fs.State)
	return stats, states, err
}

// TestSessionCheckpointEquivalenceBmarks is the fsim half of the resume
// equivalence gate, run on every registered benchmark circuit: a session
// interrupted after its first checkpoint write and resumed in a "fresh
// process" must finish with exactly the RunStats struct and per-fault
// states of the same session run straight through — and the chunked
// session itself must agree with a plain uninterrupted Run on
// detections, cycle cost, and per-site attribution.
func TestSessionCheckpointEquivalenceBmarks(t *testing.T) {
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
			n, length := sessionDims(len(c.Gates))
			seed := spec.Seed ^ 0xC0FFEE
			tests := randomTests(c, n, length, true, seed)
			ck := SessionCheckpoint{
				Meta:        sessionMeta(c, tests, seed),
				Checkpoint:  checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json")},
				ChunkFaults: 2 * LanesPerWord,
			}

			// Plain uninterrupted run: the reference for what the session
			// detects and costs.
			plainFS := fault.NewSet(reps)
			plain, err := New(c).Run(tests, plainFS, Options{Obs: obs.New(nil, nil)})
			if err != nil {
				t.Fatal(err)
			}

			// Straight chunked run with checkpointing on.
			straight, straightStates, err := runChunked(t, c, reps, tests, ck, nil, obs.New(nil, nil), context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if straight != plain {
				t.Errorf("chunked stats = %+v, plain Run = %+v", straight, plain)
			}
			for i, st := range straightStates {
				if st != plainFS.State[i] {
					t.Fatalf("chunked fault %s state %v, plain %v", reps[i].Pretty(c), st, plainFS.State[i])
				}
			}
			final, err := checkpoint.Load(ck.Checkpoint.Path)
			if err != nil {
				t.Fatalf("final checkpoint unreadable: %v", err)
			}
			if final.Detected != straight.Detected {
				t.Errorf("final checkpoint Detected = %d, want %d", final.Detected, straight.Detected)
			}

			// Interrupted run: cancel as soon as the first checkpoint hits
			// disk, then resume in a fresh "process" from the file.
			ck2 := ck
			ck2.Checkpoint.Path = filepath.Join(t.TempDir(), "ck.json")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := obs.New(nil, sinkFunc(func(e obs.Event) {
				if e.Kind == obs.KindCheckpoint {
					cancel()
				}
			}))
			_, _, err = runChunked(t, c, reps, tests, ck2, nil, o, ctx)
			var ie *checkpoint.InterruptedError
			if err != nil && !errors.As(err, &ie) {
				t.Fatalf("interrupted run returned %v, want *InterruptedError or clean finish", err)
			}
			snap, err := checkpoint.Load(ck2.Checkpoint.Path)
			if err != nil {
				t.Fatalf("checkpoint after interrupt unreadable: %v", err)
			}
			resumed, resumedStates, err := runChunked(t, c, reps, tests, ck2, snap, obs.New(nil, nil), context.Background())
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if resumed != straight {
				t.Errorf("resumed stats = %+v, straight = %+v", resumed, straight)
			}
			for i := range resumedStates {
				if resumedStates[i] != straightStates[i] {
					t.Fatalf("resumed fault %s state %v, straight %v",
						reps[i].Pretty(c), resumedStates[i], straightStates[i])
				}
			}
		})
	}
}

// TestSessionResumeChain interrupts one session repeatedly — after every
// single chunk — resuming each time from the latest snapshot, and
// requires the chained final state to match the straight run. Small
// chunks make every boundary an interruption point.
func TestSessionResumeChain(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 3, 4, true, 42)
	ck := SessionCheckpoint{
		Meta:        sessionMeta(c, tests, 42),
		Checkpoint:  checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json")},
		ChunkFaults: 16, // many chunks, deliberately not a batch multiple
	}
	straight, straightStates, err := runChunked(t, c, reps, tests, ck, nil, obs.New(nil, nil), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ck.Checkpoint.Path = filepath.Join(t.TempDir(), "ck.json")
	var snap *checkpoint.Snapshot
	var lastStats RunStats
	var lastStates []fault.Status
	for hop := 0; hop < 1000; hop++ {
		ctx, cancel := context.WithCancel(context.Background())
		o := obs.New(nil, sinkFunc(func(e obs.Event) {
			if e.Kind == obs.KindCheckpoint {
				cancel()
			}
		}))
		stats, states, err := runChunked(t, c, reps, tests, ck, snap, o, ctx)
		cancel()
		if err == nil {
			lastStats, lastStates = stats, states
			break
		}
		var ie *checkpoint.InterruptedError
		if !errors.As(err, &ie) {
			t.Fatalf("hop %d: %v", hop, err)
		}
		snap, err = checkpoint.Load(ck.Checkpoint.Path)
		if err != nil {
			t.Fatalf("hop %d: reload: %v", hop, err)
		}
		if hop == 999 {
			t.Fatal("session never completed across 1000 resumes")
		}
	}
	if lastStats != straight {
		t.Errorf("chained stats = %+v, straight = %+v", lastStats, straight)
	}
	for i := range lastStates {
		if lastStates[i] != straightStates[i] {
			t.Fatalf("chained fault %s diverged", reps[i].Pretty(c))
		}
	}
}

// TestSessionMetaMismatch: a snapshot written for one circuit or test
// session must be refused by any other.
func TestSessionMetaMismatch(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 2, 3, true, 7)
	ck := SessionCheckpoint{
		Meta:       sessionMeta(c, tests, 7),
		Checkpoint: checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json")},
	}
	if _, _, err := runChunked(t, c, reps, tests, ck, nil, nil, context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ck.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*checkpoint.Meta){
		func(m *checkpoint.Meta) { m.Circuit = "s344"; m.CircuitHash = "0" },
		func(m *checkpoint.Meta) { m.Seed++ },
		func(m *checkpoint.Meta) { m.N++ },
		func(m *checkpoint.Meta) { m.Mode = checkpoint.ModeProcedure2 },
	} {
		bad := ck
		mutate(&bad.Meta)
		if _, _, err := runChunked(t, c, reps, tests, bad, snap, nil, context.Background()); err == nil {
			t.Errorf("resume accepted snapshot with mismatched meta %+v", bad.Meta)
		}
	}
}

// TestRunCanceledLeavesShardedSetUntouched: the sharded path must return
// the context error and never merge partial results into the fault set.
func TestRunCanceledLeavesShardedSetUntouched(t *testing.T) {
	c, err := bmark.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 3, 4, true, 9)
	fs := fault.NewSet(reps)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run starts
	_, err = New(c).Run(tests, fs, Options{Workers: 4, FaultsPerPass: 5, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	for i, st := range fs.State {
		if st != fault.Undetected {
			t.Fatalf("fault %s marked %v after canceled sharded run", reps[i].Pretty(c), st)
		}
	}
}

// TestRunCanceledSerialReturnsError: the serial path returns the context
// error (its partial marks are documented; resumers rebuild from the
// checkpoint).
func TestRunCanceledSerialReturnsError(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 2, 3, true, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = New(c).Run(tests, fault.NewSet(reps), Options{Workers: 1, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// TestSessionEmptyFaultList: zero faults still yields a valid final
// snapshot (so a resume of the empty session is well-defined).
func TestSessionEmptyFaultList(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	tests := randomTests(c, 1, 2, true, 1)
	ck := SessionCheckpoint{
		Meta:       sessionMeta(c, tests, 1),
		Checkpoint: checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json")},
	}
	fs := fault.NewSet(nil)
	stats, err := New(c).RunCheckpointed(context.Background(), tests, fs, nil, Options{}, ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != 0 {
		t.Errorf("Detected = %d, want 0", stats.Detected)
	}
	snap, err := checkpoint.Load(ck.Checkpoint.Path)
	if err != nil {
		t.Fatalf("empty-session snapshot unreadable: %v", err)
	}
	if snap.NumFaults != 0 || snap.Iteration != 0 {
		t.Errorf("empty snapshot = %+v", snap)
	}
}

// TestSessionResumeAdoptsSnapshotChunk: a resume configured with a
// different (or default) chunk size must keep the snapshot's recorded
// geometry — the stored chunk cursor counts chunks of the size it was
// written under — and still converge to the straight session's result.
func TestSessionResumeAdoptsSnapshotChunk(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	seed := uint64(7)
	tests := randomTests(c, 8, 6, true, seed)
	ck := SessionCheckpoint{
		Meta:        sessionMeta(c, tests, seed),
		Checkpoint:  checkpoint.Options{Path: filepath.Join(t.TempDir(), "ck.json")},
		ChunkFaults: 16,
	}
	straight, straightStates, err := runChunked(t, c, reps, tests, ck, nil, obs.New(nil, nil), context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ck2 := ck
	ck2.Checkpoint.Path = filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := obs.New(nil, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint {
			cancel()
		}
	}))
	_, _, err = runChunked(t, c, reps, tests, ck2, nil, o, ctx)
	var ie *checkpoint.InterruptedError
	if err != nil && !errors.As(err, &ie) {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ck2.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ChunkFaults != 16 {
		t.Fatalf("snapshot ChunkFaults = %d, want 16", snap.ChunkFaults)
	}

	// Resume with ChunkFaults left at zero (the CLI default when the
	// flag is omitted): the snapshot's 16 must win.
	ck3 := ck2
	ck3.ChunkFaults = 0
	resumed, resumedStates, err := runChunked(t, c, reps, tests, ck3, snap, obs.New(nil, nil), context.Background())
	if err != nil {
		t.Fatal(err)
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

	// A cursor past the session's chunk count (possible only with a
	// hand-edited snapshot) is refused, not wrapped or clamped.
	bad := *snap
	bad.ChunkFaults = len(reps)
	bad.Iteration = 2
	if _, _, err := runChunked(t, c, reps, tests, ck3, &bad, obs.New(nil, nil), context.Background()); err == nil {
		t.Error("out-of-range chunk cursor accepted")
	}
}
