// Campaign-level chaos: real s298 campaigns run through the
// distributed dispatch path with scripted fleet failures — crashes,
// heartbeat hangs, zombie stale-epoch submissions, duplicate delivery,
// partitions, a coordinator restart mid-campaign — asserting the one
// invariant the whole design exists for: the final report is
// byte-identical to a clean single-process run, at any worker count
// including zero, under any interleaving of failures.
//
// Time is a fakeClock driven from the test goroutine, so lease expiry
// and liveness horizons happen exactly when scripted; workers are
// goroutines speaking the coordinator's method API and executing units
// with real core.UnitRunners (fresh per worker, like real processes).
package dispatch

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/obs"
	"limscan/internal/report"
	"limscan/internal/trace"
)

const chaosChunk = 63 // one batch per unit: several units per session

func chaosCampaign(t *testing.T) (*circuit.Circuit, core.Config) {
	t.Helper()
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := bmark.Info("s298")
	return c, core.Config{LA: 10, LB: 5, N: 2, Seed: spec.Seed, ReseedPerTest: true}
}

func renderReport(t *testing.T, c *circuit.Circuit, res *core.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteCampaign(&buf, c, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// baselineReport is the clean single-process reference every scenario
// must reproduce byte for byte.
func baselineReport(t *testing.T, c *circuit.Circuit, cfg core.Config) string {
	t.Helper()
	res, err := core.NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return renderReport(t, c, res)
}

// fleet is one chaos scenario's apparatus: a fake-clock coordinator
// with its own metrics registry and a stop signal the workers watch.
// workers counts the worker goroutines that idle on the clock.
type fleet struct {
	d       *Coordinator
	clk     *fakeClock
	reg     *obs.Registry
	stop    chan struct{}
	wg      sync.WaitGroup
	workers int
}

func newFleet(t *testing.T, opts Options) *fleet {
	t.Helper()
	f := &fleet{clk: newFakeClock(), reg: obs.NewRegistry(), stop: make(chan struct{})}
	opts.Clock = f.clk
	opts.Obs = obs.New(f.reg, nil)
	f.d = New(opts)
	t.Cleanup(func() {
		close(f.stop)
		f.wg.Wait()
	})
	return f
}

func (f *fleet) counter(name string) int64 { return f.reg.Counter(name).Value() }

// idle parks a worker with nothing to lease on the fake clock until the
// next step; it reports false once the fleet is stopping.
func (f *fleet) idle() bool {
	select {
	case <-f.stop:
		return false
	case <-f.clk.After(time.Millisecond):
		return true
	}
}

// worker starts a fleet worker goroutine: lease, execute with a real
// UnitRunner, complete. interfere is consulted with the running grant
// count before execution; returning false abandons the unit (the
// crash/hang analog — the lease simply rots). Complete rejections
// (fencing) are tolerated exactly as the real worker loop tolerates
// them. The worker id is registered synchronously before the goroutine
// starts, so a campaign launched next sees a live fleet.
func (f *fleet) worker(t *testing.T, id string, interfere func(n int, g LeaseGrant) bool) {
	t.Helper()
	if _, err := f.d.Register(id); err != nil {
		t.Fatal(err)
	}
	f.workers++
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		exec := &core.UnitRunner{}
		n := 0
		for {
			g, ok, err := f.d.Lease(id)
			if err != nil || !ok {
				if !f.idle() {
					return
				}
				continue
			}
			n++
			if interfere != nil && !interfere(n, g) {
				continue // abandoned: no heartbeat, no result — the lease rots
			}
			res, err := exec.Run(g.Spec)
			if err != nil {
				t.Errorf("worker %s: unit %s: %v", id, g.Spec.Key, err)
				return
			}
			f.d.Complete(id, g.Spec.Key, g.Epoch, res)
		}
	}()
}

// runCampaign executes the distributed campaign on a background
// goroutine while the test goroutine drives the fake clock forward
// until it completes: time moves only while the run's pump and every
// worker are parked on the clock.
func (f *fleet) runCampaign(t *testing.T, c *circuit.Circuit, cfg core.Config) *core.Result {
	t.Helper()
	r := core.NewRunner(c)
	r.SetSessionRunner(&CampaignExec{Coord: f.d, Chunk: chaosChunk, Prefix: "chaos"})
	var res *core.Result
	var err error
	done := make(chan struct{})
	go func() {
		res, err = r.RunProcedure2(cfg)
		close(done)
	}()
	advanceUntil(t, f.clk, 1+f.workers, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}, 2*time.Second, 200*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChaosCleanFleet: two healthy workers, no failures. The report is
// byte-identical to single-process and nothing was reassigned or run
// locally — the distributed path carried the whole campaign.
func TestChaosCleanFleet(t *testing.T) {
	c, cfg := chaosCampaign(t)
	want := baselineReport(t, c, cfg)

	f := newFleet(t, Options{LeaseTTL: time.Hour})
	f.worker(t, "w1", nil)
	f.worker(t, "w2", nil)
	res := f.runCampaign(t, c, cfg)
	if got := renderReport(t, c, res); got != want {
		t.Errorf("clean-fleet report diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := f.counter("dispatch_local_units_total"); n != 0 {
		t.Errorf("local_units_total = %d, want 0", n)
	}
	if n := f.counter("dispatch_expired_total"); n != 0 {
		t.Errorf("expired_total = %d, want 0", n)
	}
	total, done := f.counter("dispatch_units_total"), f.counter("dispatch_units_done_total")
	if total == 0 || total != done {
		t.Errorf("units_total = %d, units_done_total = %d", total, done)
	}
}

// TestChaosWorkerCrash: one worker abandons every unit it leases (the
// SIGKILL analog — leases rot with no heartbeat); a healthy worker
// carries on. The reaper reassigns; the report is byte-identical.
func TestChaosWorkerCrash(t *testing.T) {
	c, cfg := chaosCampaign(t)
	want := baselineReport(t, c, cfg)

	f := newFleet(t, Options{LeaseTTL: time.Minute, BackoffBase: time.Second, BackoffMax: 5 * time.Second})
	f.worker(t, "crashy", func(n int, g LeaseGrant) bool { return n > 2 }) // drops its first two leases on the floor
	f.worker(t, "healthy", nil)
	res := f.runCampaign(t, c, cfg)
	if got := renderReport(t, c, res); got != want {
		t.Errorf("crash report diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := f.counter("dispatch_expired_total"); n < 1 {
		t.Errorf("expired_total = %d, want >= 1 (abandoned leases must be reaped)", n)
	}
	if total, done := f.counter("dispatch_units_total"), f.counter("dispatch_units_done_total"); total != done {
		t.Errorf("units_total = %d != units_done_total = %d", total, done)
	}
}

// TestChaosZombieAndDuplicate: the heartbeat-hang / stale-epoch / dup-
// delivery triple. A zombie worker leases a unit, computes the result,
// but goes silent until after its lease is reaped — its late submission
// must be fenced with Conflict. Meanwhile the healthy worker submits
// every accepted result twice — the redelivery must be acknowledged
// idempotently. Report byte-identical throughout.
func TestChaosZombieAndDuplicate(t *testing.T) {
	c, cfg := chaosCampaign(t)
	want := baselineReport(t, c, cfg)

	f := newFleet(t, Options{LeaseTTL: time.Minute, BackoffBase: time.Second, BackoffMax: 5 * time.Second})

	zombieHolds := make(chan struct{}, 1) // zombie → test: I hold a lease and its result
	zombieGo := make(chan struct{})       // test → zombie: lease reaped, submit your stale result
	zombieDone := make(chan error, 1)     // zombie → test: outcome of the stale submission

	// The contested unit, for the fleet-trace assertions below. Written
	// by the zombie before zombieHolds, read by the test after — the
	// channel send orders the accesses.
	var zombieKey string
	var zombieEpoch uint64

	// The zombie: leases exactly one unit, computes it for real, then
	// hangs (no heartbeat) until released. Like the real worker loop it
	// records an exec span tagged with its lease epoch and ships the
	// segment alongside the (fenced) result submission — the abandoned
	// attempt must stay visible in the stitched trace.
	if _, err := f.d.Register("zombie"); err != nil {
		t.Fatal(err)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		exec := &core.UnitRunner{}
		zrec := trace.New()
		for {
			g, ok, err := f.d.Lease("zombie")
			if err != nil || !ok {
				if !f.idle() {
					return
				}
				continue
			}
			res, err := exec.Run(g.Spec)
			if err != nil {
				zombieDone <- err
				return
			}
			zrec.Track(trace.WorkerExecTrack).Add(trace.CatDispatch, g.Spec.Key,
				0, time.Millisecond, trace.KV{K: "epoch", V: int64(g.Epoch)})
			zombieKey, zombieEpoch = g.Spec.Key, g.Epoch
			zombieHolds <- struct{}{}
			select {
			case <-zombieGo:
			case <-f.stop:
				return
			}
			seg := zrec.DrainSegment()
			f.d.AddTraceSegment("zombie", g.Spec.Key, 0, &seg)
			_, err = f.d.Complete("zombie", g.Spec.Key, g.Epoch, res)
			zombieDone <- err
			return
		}
	}()

	// The campaign starts now; the zombie grabs the first unit it can.
	var res *core.Result
	var err error
	done := make(chan struct{})
	r := core.NewRunner(c)
	r.SetSessionRunner(&CampaignExec{Coord: f.d, Chunk: chaosChunk, Prefix: "chaos"})
	go func() { res, err = r.RunProcedure2(cfg); close(done) }()

	// Wait until the zombie holds a lease, let the lease rot past its
	// TTL (the reaper bumps the epoch: the fence), then release the
	// zombie *before* anyone else can touch the unit: its stale-epoch
	// submission against the pending-again unit must bounce off the
	// fence with Conflict.
	advanceUntil(t, f.clk, 2, func() bool {
		select {
		case <-zombieHolds:
			return true
		default:
			return false
		}
	}, time.Second, 200*time.Hour)
	advanceUntil(t, f.clk, 1, func() bool { return f.counter("dispatch_expired_total") >= 1 },
		10*time.Second, 200*time.Hour)
	close(zombieGo)

	var zerr error
	advanceUntil(t, f.clk, 1, func() bool {
		select {
		case zerr = <-zombieDone:
			return true
		default:
			return false
		}
	}, time.Second, 200*time.Hour)
	if !errs.Is(zerr, errs.Conflict) {
		t.Fatalf("zombie stale-epoch submission: %v, want Conflict", zerr)
	}

	// Now the healthy (double-submitting) worker drains the campaign.
	if _, err := f.d.Register("healthy"); err != nil {
		t.Fatal(err)
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		exec := &core.UnitRunner{}
		hrec := trace.New()
		for {
			g, ok, err := f.d.Lease("healthy")
			if err != nil || !ok {
				if !f.idle() {
					return
				}
				continue
			}
			res, err := exec.Run(g.Spec)
			if err != nil {
				t.Errorf("healthy worker: %v", err)
				return
			}
			hrec.Track(trace.WorkerExecTrack).Add(trace.CatDispatch, g.Spec.Key,
				0, time.Millisecond, trace.KV{K: "epoch", V: int64(g.Epoch)})
			seg := hrec.DrainSegment()
			f.d.AddTraceSegment("healthy", g.Spec.Key, 0, &seg)
			if acc, err := f.d.Complete("healthy", g.Spec.Key, g.Epoch, res); err == nil && acc {
				// Deliver again: the network "lost our response".
				f.d.Complete("healthy", g.Spec.Key, g.Epoch, res)
			}
		}
	}()

	// The campaign completes under the healthy worker regardless.
	advanceUntil(t, f.clk, 2, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}, 2*time.Second, 200*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, c, res); got != want {
		t.Errorf("zombie/duplicate report diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := f.counter("dispatch_fenced_total"); n < 1 {
		t.Errorf("fenced_total = %d, want >= 1", n)
	}
	if n := f.counter("dispatch_duplicates_total"); n < 1 {
		t.Errorf("duplicates_total = %d, want >= 1", n)
	}

	// The stitched fleet trace tells the contested unit's whole story:
	// the zombie's abandoned attempt and the healthy worker's reassigned
	// one both appear, in separate process groups, distinguishable by
	// their fencing epochs; the coordinator's own track shows the reap.
	m := f.d.FleetModel()
	var zpid, hpid int
	for pid, name := range m.Processes {
		switch name {
		case "worker zombie":
			zpid = pid
		case "worker healthy":
			hpid = pid
		}
	}
	if zpid == 0 || hpid == 0 {
		t.Fatalf("worker process groups missing from fleet trace: %+v", m.Processes)
	}
	epochOf := func(pid int) (int64, bool) {
		for i := range m.Tracks {
			tr := &m.Tracks[i]
			if tr.PID != pid || tr.Name != trace.WorkerExecTrack {
				continue
			}
			for j := range tr.Spans {
				if tr.Spans[j].Name == zombieKey {
					return tr.Spans[j].Arg("epoch")
				}
			}
		}
		return 0, false
	}
	ze, zok := epochOf(zpid)
	he, hok := epochOf(hpid)
	if !zok || !hok {
		t.Fatalf("contested unit %s missing from an exec track (zombie %v, healthy %v)", zombieKey, zok, hok)
	}
	if ze != int64(zombieEpoch) {
		t.Errorf("zombie attempt epoch = %d, want %d", ze, zombieEpoch)
	}
	if he <= ze {
		t.Errorf("reassigned attempt epoch %d not after abandoned epoch %d: attempts indistinguishable", he, ze)
	}
	reaped := false
	for i := range m.Tracks {
		tr := &m.Tracks[i]
		if tr.PID != 1 || tr.Name != trace.DispatchTrackPrefix+"zombie" {
			continue
		}
		for j := range tr.Spans {
			sp := &tr.Spans[j]
			if sp.Name == trace.SpanLeaseExpired {
				reaped = true
				if e, ok := sp.Arg("epoch"); !ok || e != int64(zombieEpoch) {
					t.Errorf("reap span epoch = %d (%v), want %d", e, ok, zombieEpoch)
				}
			}
		}
	}
	if !reaped {
		t.Error("coordinator reap span missing from the zombie's dispatch lane")
	}
}

// TestChaosPartitionFallsBackLocal: the only worker registers and then
// never speaks again (partition). Once it crosses the liveness horizon
// the coordinator runs everything itself — the documented degraded
// mode — and the report is still byte-identical.
func TestChaosPartitionFallsBackLocal(t *testing.T) {
	c, cfg := chaosCampaign(t)
	want := baselineReport(t, c, cfg)

	f := newFleet(t, Options{LeaseTTL: time.Minute, WorkerTTL: 2 * time.Minute})
	if _, err := f.d.Register("partitioned"); err != nil {
		t.Fatal(err)
	}
	res := f.runCampaign(t, c, cfg)
	if got := renderReport(t, c, res); got != want {
		t.Errorf("partition report diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := f.counter("dispatch_workers_lost_total"); n != 1 {
		t.Errorf("workers_lost_total = %d, want 1", n)
	}
	if total, local := f.counter("dispatch_units_total"), f.counter("dispatch_local_units_total"); total == 0 || total != local {
		t.Errorf("units_total = %d, local_units_total = %d: everything should have run locally", total, local)
	}
}

// TestChaosCoordinatorRestart: the campaign is interrupted mid-run (the
// coordinator process dies), then resumed from its checkpoint with a
// *fresh* coordinator and a fresh fleet. The stitched report is
// byte-identical to a clean run.
func TestChaosCoordinatorRestart(t *testing.T) {
	c, cfg := chaosCampaign(t)
	want := baselineReport(t, c, cfg)
	path := t.TempDir() + "/ck.json"

	// Phase 1: run distributed until a few pairs are in, then cancel.
	f1 := newFleet(t, Options{LeaseTTL: time.Hour})
	f1.worker(t, "w1", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pairs := 0
	cfg1 := cfg
	cfg1.Observer = obs.New(nil, sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindPairTried {
			pairs++
			if pairs == 3 {
				cancel()
			}
		}
	}))
	r1 := core.NewRunner(c)
	r1.SetSessionRunner(&CampaignExec{Coord: f1.d, Chunk: chaosChunk, Prefix: "chaos"})
	var runErr error
	done := make(chan struct{})
	go func() {
		_, runErr = r1.RunWithContext(ctx, cfg1, &checkpoint.Options{Path: path})
		close(done)
	}()
	advanceUntil(t, f1.clk, 1+f1.workers, func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}, 2*time.Second, 200*time.Hour)
	var interrupted *checkpoint.InterruptedError
	if !errors.As(runErr, &interrupted) {
		t.Fatalf("phase 1 returned %v, want InterruptedError", runErr)
	}

	// Phase 2: a brand-new coordinator (all lease state gone — it lived
	// in memory and died with the process) and a new fleet resume from
	// the snapshot.
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	f2 := newFleet(t, Options{LeaseTTL: time.Hour})
	f2.worker(t, "w2", nil)
	r2 := core.NewRunner(c)
	r2.SetSessionRunner(&CampaignExec{Coord: f2.d, Chunk: chaosChunk, Prefix: "chaos"})
	var res *core.Result
	done2 := make(chan struct{})
	go func() {
		res, err = r2.ResumeWithContext(context.Background(), cfg, snap, nil)
		close(done2)
	}()
	advanceUntil(t, f2.clk, 1+f2.workers, func() bool {
		select {
		case <-done2:
			return true
		default:
			return false
		}
	}, 2*time.Second, 200*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, c, res); got != want {
		t.Errorf("restarted report diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := f2.counter("dispatch_units_done_total"); n == 0 {
		t.Error("restarted coordinator dispatched nothing; the resume path is vacuous")
	}
}

// sinkFunc adapts a function to obs.Sink.
type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }
