package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/obs"
)

// sinkFunc adapts a function to obs.Sink for cancel-on-event tests.
type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }

// resumeCircuits are the campaign-equivalence targets: small enough that
// ATPG classification (the dominant cost) stays in the tens of
// milliseconds, diverse enough to cover different iteration counts.
func resumeCircuits(t *testing.T) []string {
	if testing.Short() {
		return []string{"s27", "s298"}
	}
	return []string{"s27", "s208", "s298", "s344", "s382", "s510"}
}

func resumeConfig(seed uint64) Config {
	return Config{LA: 10, LB: 5, N: 2, Seed: seed, ReseedPerTest: true}
}

func loadBmark(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := bmark.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameResult compares every result field the report is built from,
// including the full pair and curve sequences.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if resultKey(got) != resultKey(want) {
		t.Errorf("%s: result %+v, want %+v", label, resultKey(got), resultKey(want))
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Errorf("%s: pair %d = %+v, want %+v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("%s: %d curve points, want %d", label, len(got.Curve), len(want.Curve))
	}
	for i := range got.Curve {
		if got.Curve[i] != want.Curve[i] {
			t.Errorf("%s: curve %d = %+v, want %+v", label, i, got.Curve[i], want.Curve[i])
		}
	}
}

// TestResumeEquivalenceChain is the tentpole's headline gate: a campaign
// interrupted at EVERY iteration boundary in turn — each interruption
// and resume happening in a fresh "process" (fresh Runner, so no verdict
// cache or simulator state can leak across the kill) — must converge to
// exactly the result of the uninterrupted run: same pairs in the same
// order, same coverage curve, same cycle totals, same completeness.
//
// The chain construction interrupts after each checkpoint write, so
// every boundary the campaign ever reaches is exercised as a resume
// point, not a sampled subset.
func TestResumeEquivalenceChain(t *testing.T) {
	for _, name := range resumeCircuits(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := loadBmark(t, name)
			spec, _ := bmark.Info(name)
			cfg := resumeConfig(spec.Seed)

			// Uninterrupted reference, with checkpointing on so the write
			// path itself is part of the straight run too.
			straightPath := filepath.Join(t.TempDir(), "ck.json")
			want, err := NewRunner(c).RunWithContext(context.Background(), cfg,
				&checkpoint.Options{Path: straightPath})
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "ck.json")
			ck := &checkpoint.Options{Path: path}
			var snap *checkpoint.Snapshot
			var got *Result
			maxHops := want.Iterations + 4
			hops := 0
			for ; hops < maxHops; hops++ {
				ctx, cancel := context.WithCancel(context.Background())
				o := obs.New(nil, sinkFunc(func(e obs.Event) {
					if e.Kind == obs.KindCheckpoint {
						cancel()
					}
				}))
				cfgHop := cfg
				cfgHop.Observer = o
				r := NewRunner(c) // fresh process: empty verdict cache
				var res *Result
				if snap == nil {
					res, err = r.RunWithContext(ctx, cfgHop, ck)
				} else {
					res, err = r.ResumeWithContext(ctx, cfgHop, snap, ck)
				}
				cancel()
				if err == nil {
					got = res
					break
				}
				var ie *checkpoint.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("hop %d: %v", hops, err)
				}
				if ie.Path != path {
					t.Fatalf("hop %d: InterruptedError.Path = %q, want %q", hops, ie.Path, path)
				}
				snap, err = checkpoint.Load(path)
				if err != nil {
					t.Fatalf("hop %d: reload: %v", hops, err)
				}
			}
			if got == nil {
				t.Fatalf("campaign never completed in %d hops", maxHops)
			}
			if hops == 0 {
				t.Fatal("campaign was never interrupted; cancel-after-checkpoint hook is dead")
			}
			sameResult(t, "chained", got, want)

			// The final checkpoints of both runs must decode to the same
			// state.
			a, err := checkpoint.Load(straightPath)
			if err != nil {
				t.Fatal(err)
			}
			b, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if a.Iteration != b.Iteration || a.States != b.States || len(a.Pairs) != len(b.Pairs) {
				t.Errorf("final checkpoints diverge: %+v vs %+v", a, b)
			}
		})
	}
}

// TestResumeOfFinishedCampaign: resuming from the final snapshot redoes
// no iterations and reproduces the report — which is what makes an e2e
// kill that lands after the campaign finished harmless.
func TestResumeOfFinishedCampaign(t *testing.T) {
	c := loadBmark(t, "s298")
	spec, _ := bmark.Info("s298")
	cfg := resumeConfig(spec.Seed)
	path := filepath.Join(t.TempDir(), "ck.json")
	want, err := NewRunner(c).RunWithContext(context.Background(), cfg, &checkpoint.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(c).ResumeWithContext(context.Background(), cfg, snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "finished-resume", got, want)
}

// TestResumeMetaMismatch: a snapshot must be refused — loudly, before
// any simulation — when the circuit, scan plan or any result-affecting
// parameter changed.
func TestResumeMetaMismatch(t *testing.T) {
	c := loadBmark(t, "s27")
	spec, _ := bmark.Info("s27")
	cfg := resumeConfig(spec.Seed)
	path := filepath.Join(t.TempDir(), "ck.json")
	if _, err := NewRunner(c).RunWithContext(context.Background(), cfg, &checkpoint.Options{Path: path}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := NewRunner(c).ResumeWithContext(context.Background(), cfg, nil, nil); err == nil {
		t.Error("nil snapshot accepted")
	}

	other := loadBmark(t, "s344")
	if _, err := NewRunner(other).ResumeWithContext(context.Background(), cfg, snap, nil); err == nil {
		t.Error("snapshot for s27 accepted by s344 runner")
	}

	for _, mutate := range []func(*Config){
		func(c *Config) { c.Seed++ },
		func(c *Config) { c.LA++ },
		func(c *Config) { c.N++ },
		func(c *Config) { c.D1Order = []int{3, 1} },
		func(c *Config) { c.ReseedPerTest = !c.ReseedPerTest },
		func(c *Config) { c.UseLFSR = true },
	} {
		bad := cfg
		mutate(&bad)
		if _, err := NewRunner(c).ResumeWithContext(context.Background(), bad, snap, nil); err == nil {
			t.Errorf("snapshot accepted under changed config %+v", bad)
		}
	}

	// Observer and Workers are execution knobs, not identity: changing
	// them must NOT invalidate the snapshot.
	ok := cfg
	ok.Workers = 2
	ok.Observer = obs.New(nil, nil)
	if _, err := NewRunner(c).ResumeWithContext(context.Background(), ok, snap, nil); err != nil {
		t.Errorf("snapshot rejected for changed Workers/Observer: %v", err)
	}
}

// faultParallelDigests pins each resumeCircuits campaign's Result —
// scalars, every pair and every curve point — as recorded when every
// session ran on the fault-parallel kernel. Since fsim picks its kernel
// per session (pattern-parallel for the scan-free TS0 sessions), the
// same campaign must still hash to these values.
var faultParallelDigests = map[string]string{
	"s27":  "5d9710080b8b8088",
	"s208": "efbd101dba2d72f4",
	"s298": "a11ccb10e78e9d8b",
	"s344": "a42f0a11912a2c14",
	"s382": "0ad2918de16b9b96",
	"s510": "c68719e06e91b292",
}

func resultDigest(r *Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v|%+v", resultKey(r), r.Pairs, r.Curve)))
	return fmt.Sprintf("%x", sum[:8])
}

// TestCampaignModeInvariant is the campaign-level kernel differential: a
// full Procedure 2 run, whose TS0 sessions fsim now simulates
// pattern-parallel, must produce the Result the all-fault-parallel
// simulator produced — every pair, curve point, cycle total and
// completeness flag (pinned in faultParallelDigests).
func TestCampaignModeInvariant(t *testing.T) {
	for _, name := range resumeCircuits(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := loadBmark(t, name)
			spec, _ := bmark.Info(name)
			got, err := NewRunner(c).RunProcedure2(resumeConfig(spec.Seed))
			if err != nil {
				t.Fatal(err)
			}
			if d := resultDigest(got); d != faultParallelDigests[name] {
				t.Errorf("result digest %s, want %s (fault-parallel): %+v", d, faultParallelDigests[name], resultKey(got))
			}
		})
	}
}

// TestRunWithContextUncheckpointed: cancellation without a checkpoint
// configuration still stops the run, with an InterruptedError whose
// empty Path says there is nothing to resume from.
func TestRunWithContextUncheckpointed(t *testing.T) {
	c := loadBmark(t, "s298")
	spec, _ := bmark.Info("s298")
	cfg := resumeConfig(spec.Seed)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewRunner(c).RunWithContext(ctx, cfg, nil)
	var ie *checkpoint.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *checkpoint.InterruptedError", err)
	}
	if ie.Path != "" {
		t.Errorf("Path = %q, want empty", ie.Path)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false")
	}
}

// TestRunWithContextMatchesRunProcedure2: with a live context and no
// checkpointing, RunWithContext is RunProcedure2.
func TestRunWithContextMatchesRunProcedure2(t *testing.T) {
	c := loadBmark(t, "s344")
	spec, _ := bmark.Info("s344")
	cfg := resumeConfig(spec.Seed)
	want, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(c).RunWithContext(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "ctx-run", got, want)
}

// TestCheckpointCadence: Every=N writes only every N-th iteration
// boundary (plus the forced TS0 and final snapshots), and the file left
// behind always decodes.
func TestCheckpointCadence(t *testing.T) {
	c := loadBmark(t, "s298")
	spec, _ := bmark.Info("s298")
	cfg := resumeConfig(spec.Seed)
	writes := 0
	cfg.Observer = obs.New(nil, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindCheckpoint {
			writes++
		}
	}))
	path := filepath.Join(t.TempDir(), "ck.json")
	res, err := NewRunner(c).RunWithContext(context.Background(), cfg, &checkpoint.Options{Path: path, Every: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Only the forced writes: TS0 and final.
	if writes != 2 {
		t.Errorf("writes = %d, want 2 (TS0 + final) at Every=1000 over %d iterations", writes, res.Iterations)
	}
	if _, err := checkpoint.Load(path); err != nil {
		t.Fatal(err)
	}
}
