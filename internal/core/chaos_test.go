// Chaos tests: deterministic fault injection into every checkpoint I/O
// operation of a real campaign. The invariant under any injected fault
// is exactly the one DESIGN.md §2c promises:
//
//   - the campaign itself always completes, with a report byte-identical
//     to the uninjected run (checkpointing is observational; failures
//     degrade it, never the result), and
//   - whatever snapshot the faults left on disk either resumes to the
//     same byte-identical report or is refused with a typed error —
//     a corrupt snapshot is never accepted, and divergence is never
//     silent.
//
// The default run sweeps a bounded subset of injection points per mode;
// `make chaos` sets LIMSCAN_CHAOS_FULL=1 to sweep every point.
package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/fsim"
	"limscan/internal/iofault"
	"limscan/internal/obs"
	"limscan/internal/report"
)

// chaosSink adapts a function to obs.Sink.
type chaosSink func(obs.Event)

func (f chaosSink) OnEvent(e obs.Event) { f(e) }

// noSleep removes retry backoff delays so persistent-failure sweeps
// don't spend wall-clock sleeping.
var noSleep = &iofault.Retry{Sleep: func(time.Duration) {}}

func chaosCircuit(t *testing.T) (*circuit.Circuit, core.Config) {
	t.Helper()
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := bmark.Info("s298")
	return c, core.Config{LA: 10, LB: 5, N: 2, Seed: spec.Seed, ReseedPerTest: true}
}

func campaignReport(t *testing.T, c *circuit.Circuit, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteCampaign(&buf, c, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// straightReport runs the uninjected checkpointed campaign once and
// returns its report — the byte-identity reference for every sweep.
func straightReport(t *testing.T, c *circuit.Circuit, cfg core.Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ck.json")
	res, err := core.NewRunner(c).RunWithContext(context.Background(), cfg, &checkpoint.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	return campaignReport(t, c, res)
}

// sweepPoints picks the injection indices for one mode: every point
// under LIMSCAN_CHAOS_FULL, otherwise the first, a middle and the last —
// the boundary cases (TS0 write, steady state, final write) that differ.
func sweepPoints(eligible int64) []int64 {
	if eligible <= 0 {
		return nil
	}
	if os.Getenv("LIMSCAN_CHAOS_FULL") != "" || eligible <= 4 {
		pts := make([]int64, 0, eligible)
		for at := int64(1); at <= eligible; at++ {
			pts = append(pts, at)
		}
		return pts
	}
	pts := []int64{1, eligible/2 + 1, eligible}
	out := pts[:0]
	seen := map[int64]bool{}
	for _, at := range pts {
		if !seen[at] {
			seen[at] = true
			out = append(out, at)
		}
	}
	return out
}

// checkSnapshotOutcome enforces the second half of the invariant for
// whatever the injected campaign left at path: a loadable snapshot must
// resume to the reference report; an unloadable one must fail with a
// typed error (corrupt snapshot or input), never an untyped surprise.
func checkSnapshotOutcome(t *testing.T, c *circuit.Circuit, cfg core.Config, path, want string) {
	t.Helper()
	snap, err := checkpoint.Load(path)
	if err != nil {
		if !errs.Is(err, errs.CorruptSnapshot) && !errs.Is(err, errs.Input) {
			t.Errorf("snapshot load failure is untyped: %v", err)
		}
		return
	}
	res, err := core.NewRunner(c).ResumeWithContext(context.Background(), cfg, snap, nil)
	if err != nil {
		t.Errorf("resume from surviving snapshot: %v", err)
		return
	}
	if got := campaignReport(t, c, res); got != want {
		t.Errorf("resumed report diverges from straight run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestChaosCheckpointSweep injects each fault mode at chosen operation
// indices of a checkpointed s298 campaign. A counting pass (At=0)
// first measures how many mode-eligible operations the campaign issues;
// the sweep then replays the campaign with the fault at each index.
func TestChaosCheckpointSweep(t *testing.T) {
	c, cfg := chaosCircuit(t)
	want := straightReport(t, c, cfg)

	for _, mode := range iofault.Modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			// Counting pass: nothing injected, so the campaign and its
			// report must be untouched by the FS indirection itself.
			counter := &iofault.Injector{Mode: mode}
			path := filepath.Join(t.TempDir(), "ck.json")
			res, err := core.NewRunner(c).RunWithContext(context.Background(), cfg,
				&checkpoint.Options{Path: path, FS: counter, Retry: noSleep})
			if err != nil {
				t.Fatalf("counting pass: %v", err)
			}
			if got := campaignReport(t, c, res); got != want {
				t.Fatalf("counting pass report diverges:\ngot:\n%s\nwant:\n%s", got, want)
			}
			eligible := counter.Eligible()
			if eligible == 0 {
				t.Fatalf("campaign issued no %s-eligible operations; the sweep is vacuous", mode)
			}

			for _, at := range sweepPoints(eligible) {
				at := at
				t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
					inj := &iofault.Injector{Mode: mode, At: at}
					path := filepath.Join(t.TempDir(), "ck.json")
					res, err := core.NewRunner(c).RunWithContext(context.Background(), cfg,
						&checkpoint.Options{Path: path, FS: inj, Retry: noSleep})
					if err != nil {
						t.Fatalf("injected checkpoint fault aborted the campaign: %v", err)
					}
					if inj.Hits() == 0 {
						t.Fatalf("injection at op %d/%d never fired", at, eligible)
					}
					if got := campaignReport(t, c, res); got != want {
						t.Errorf("report diverges under %s at op %d:\ngot:\n%s\nwant:\n%s", mode, at, got, want)
					}
					checkSnapshotOutcome(t, c, cfg, path, want)
				})
			}
		})
	}
}

// TestChaosPersistentDegradedCompletion drives the disk-stays-broken
// scenario: every eligible operation fails for the whole campaign. The
// campaign must still complete with the identical report, but in
// degraded mode — flag set, gauge raised, degraded events emitted — and
// whatever file the faults left behind must never resume silently wrong.
func TestChaosPersistentDegradedCompletion(t *testing.T) {
	c, cfg := chaosCircuit(t)
	want := straightReport(t, c, cfg)

	for _, mode := range iofault.Modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			inj := &iofault.Injector{Mode: mode, At: 1, Persistent: true}
			path := filepath.Join(t.TempDir(), "ck.json")
			reg := obs.NewRegistry()
			degradedEvents := 0
			cfgObs := cfg
			cfgObs.Observer = obs.New(reg, chaosSink(func(e obs.Event) {
				if e.Kind == obs.KindDegraded {
					degradedEvents++
				}
			}))
			res, err := core.NewRunner(c).RunWithContext(context.Background(), cfgObs,
				&checkpoint.Options{Path: path, FS: inj, Retry: noSleep})
			if err != nil {
				t.Fatalf("persistent %s aborted the campaign: %v", mode, err)
			}
			if !res.CheckpointDegraded {
				t.Error("CheckpointDegraded = false, want true (final write failed)")
			}
			if degradedEvents == 0 {
				t.Error("no KindDegraded events emitted")
			}
			if got := reg.Gauge("checkpoint_degraded").Value(); got != 1 {
				t.Errorf("checkpoint_degraded gauge = %v, want 1", got)
			}
			if got := reg.Counter("checkpoint_write_failures_total").Value(); got < 2 {
				t.Errorf("checkpoint_write_failures_total = %d, want >= 2 (every boundary failed)", got)
			}
			if got := campaignReport(t, c, res); got != want {
				t.Errorf("degraded report diverges:\ngot:\n%s\nwant:\n%s", got, want)
			}
			checkSnapshotOutcome(t, c, cfg, path, want)
		})
	}
}

// TestChaosInterruptReportsOnDiskBoundary pins the interruption report
// under degraded mode for both checkpointed runners: once the disk
// breaks after the first snapshot, a cancellation's final flush fails
// too, so the boundary the InterruptedError names must be the one the
// file still holds — not the last boundary the run reached.
func TestChaosInterruptReportsOnDiskBoundary(t *testing.T) {
	c, cfg := chaosCircuit(t)

	// interrupted runs one checkpointed run whose writes fail with EINTR
	// from the second on, cancels it at the third degraded event, and
	// checks the report against the file.
	interrupted := func(t *testing.T, run func(ctx context.Context, o *obs.Campaign, ck checkpoint.Options) error) {
		t.Helper()
		ck := checkpoint.Options{
			Path:  filepath.Join(t.TempDir(), "ck.json"),
			FS:    &iofault.Injector{Mode: iofault.WriteEINTR, At: 2, Persistent: true},
			Retry: noSleep,
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		degraded := 0
		o := obs.New(nil, chaosSink(func(e obs.Event) {
			if e.Kind == obs.KindDegraded {
				if degraded++; degraded == 3 {
					cancel()
				}
			}
		}))
		var ie *checkpoint.InterruptedError
		if err := run(ctx, o, ck); !errors.As(err, &ie) {
			t.Fatalf("run returned %v, want *checkpoint.InterruptedError", err)
		}
		snap, err := checkpoint.Load(ck.Path)
		if err != nil {
			t.Fatalf("on-disk snapshot unreadable: %v", err)
		}
		if ie.Iteration != snap.Iteration {
			t.Errorf("InterruptedError.Iteration = %d, snapshot on disk is at boundary %d", ie.Iteration, snap.Iteration)
		}
	}

	t.Run("campaign", func(t *testing.T) {
		interrupted(t, func(ctx context.Context, o *obs.Campaign, ck checkpoint.Options) error {
			cfgObs := cfg
			cfgObs.Observer = o
			_, err := core.NewRunner(c).RunWithContext(ctx, cfgObs, &ck)
			return err
		})
	})
	t.Run("faultsim", func(t *testing.T) {
		interrupted(t, func(ctx context.Context, o *obs.Campaign, ck checkpoint.Options) error {
			tests := core.GenerateTS0(c, cfg)
			meta := checkpoint.Meta{Mode: checkpoint.ModeFaultSim, Circuit: c.Name,
				CircuitHash: checkpoint.CircuitHash(c), PlanLen: c.NumSV(), N: len(tests), Seed: cfg.Seed}
			_, err := fsim.New(c).RunCheckpointed(ctx, tests, core.NewRunner(c).NewFaultSet(), nil,
				fsim.Options{Obs: o}, fsim.SessionCheckpoint{Meta: meta, ChunkFaults: 16, Checkpoint: ck})
			return err
		})
	})
}
