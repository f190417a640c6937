// Package dispatch is the fault-tolerant distributed half of the
// campaign service: a lease-based coordinator that hands core.UnitSpecs
// to worker processes and survives every failure the fleet introduces —
// crashes, hangs, partitions, duplicate delivery, zombie results.
//
// The protocol, in one paragraph: each unit is granted under a *lease*
// carrying a deadline and a monotonically increasing *epoch*. Workers
// heartbeat to extend their lease; a lease whose deadline passes is
// reaped — the unit returns to the queue with capped-exponential
// backoff (jittered deterministically from the unit key and attempt
// count) and its epoch is bumped, *fencing* the old holder: any later
// heartbeat or result quoting a stale epoch is rejected with
// errs.Conflict. Execution is therefore at-least-once; correctness
// survives because a unit's result is a pure function of its spec (see
// internal/core/units.go), so whichever attempt's result is accepted is
// bit-identical, duplicates for done units are acknowledged and
// discarded, and the ordered merge downstream produces byte-identical
// reports at any worker count — including zero: when no live workers
// exist (none registered, or all heartbeats stale) or a unit exhausts
// its lease attempts, the coordinator runs the unit itself, a
// documented degraded mode mirroring the checkpoint writer's.
package dispatch

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/obs"
	"limscan/internal/trace"
)

// Options tunes a Coordinator. The zero value is usable: every field
// has a production default.
type Options struct {
	// LeaseTTL is how long a lease lives without a heartbeat. Zero means
	// 10s.
	LeaseTTL time.Duration
	// WorkerTTL is the liveness horizon: a worker whose last contact is
	// older counts as lost (and the local fallback may engage). Zero
	// means 3×LeaseTTL.
	WorkerTTL time.Duration
	// MaxAttempts is the number of lease grants a unit gets before the
	// coordinator stops offering it to workers and runs it locally. Zero
	// means 5.
	MaxAttempts int
	// BackoffBase / BackoffMax shape the capped exponential backoff a
	// reaped unit waits before re-leasing: base doubles per attempt up to
	// max, minus a deterministic jitter of up to half the delay drawn
	// from hashing (unit key, attempt). Zeros mean 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Tick is the pump granularity: the longest the coordinator waits
	// before re-checking deadlines when no other event wakes it. Zero
	// means 100ms.
	Tick time.Duration
	// Obs receives dispatch_* metrics (including the queue-wait,
	// lease-to-complete, heartbeat-RTT and retry-backoff latency
	// histograms) and worker/unit lifecycle events. Nil runs unobserved
	// (the obs nil contract).
	Obs *obs.Campaign
	// Trace, when set, records one CatDispatch span per completed unit
	// on a per-worker track (trace.DispatchTrackPrefix + worker id).
	// Independent of Trace, the coordinator always keeps a fleet trace
	// (see Fleet/FleetModel) stitching worker-shipped span segments with
	// its own lease/reap events; recording there is per-unit, not
	// per-cycle, so it costs the simulation hot path nothing.
	Trace *trace.Recorder
	// Clock abstracts time for the chaos suite. Nil means the real
	// clock.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 3 * o.LeaseTTL
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Tick <= 0 {
		o.Tick = 100 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// unit lifecycle states.
const (
	unitPending = iota
	unitLeased
	unitDone
)

// localHolder is the holder id of a unit the coordinator leased to
// itself for local execution.
const localHolder = "(local)"

type unitState struct {
	spec  core.UnitSpec
	state int
	// epoch increments on every lease grant AND every expiry, so a
	// result or heartbeat quoting an older epoch can never be confused
	// with the current holder's.
	epoch    uint64
	holder   string
	deadline time.Time
	leasedAt time.Time
	// attempts counts lease grants (local execution included).
	attempts int
	// notBefore gates re-leasing after an expiry (backoff).
	notBefore time.Time
	// availableAt is when the unit last became grantable (run start, or
	// the end of a post-expiry backoff window); grant minus availableAt
	// is the queue-wait histogram sample.
	availableAt time.Time
	result      *core.UnitResult
}

type activeRun struct {
	units   map[string]*unitState
	order   []string
	pending int // units not yet done
	// tr is the recorder dispatch spans for this run land on (the
	// job's own tracer in the service, Options.Trace otherwise).
	tr *trace.Recorder
}

type workerState struct {
	lastSeen time.Time
	joinedAt time.Time
	lost     bool // lost event emitted; cleared on next contact
	done     int  // units completed (accepted results)
	// Cumulative telemetry served by FleetSnapshot.
	attempts int           // lease grants
	expired  int           // leases reaped while this worker held them
	busy     time.Duration // lease-to-complete time across accepted units
}

// Coordinator owns the lease table for at most one active unit set at a
// time (a campaign's sessions are strictly sequential) plus the worker
// registry, which outlives unit sets. All methods are safe for
// concurrent use; the HTTP layer in http.go is a thin JSON veneer over
// Register / Lease / Heartbeat / Complete.
type Coordinator struct {
	opts Options
	clk  Clock

	// fleet stitches worker-shipped trace segments with the
	// coordinator's own lease/reap/merge spans into one multi-process
	// trace (always on; per-unit cost only).
	fleet *trace.Fleet

	mu      sync.Mutex
	workers map[string]*workerState
	run     *activeRun
	wake    chan struct{}
}

// New returns a Coordinator.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	return &Coordinator{
		opts:    opts,
		clk:     opts.Clock,
		fleet:   trace.NewFleet(),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}, 1),
	}
}

// rttBuckets shapes the heartbeat round-trip histogram: heartbeats are
// sub-millisecond on a LAN, so the default second-scale buckets would
// put every sample in the first one.
var rttBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// signal wakes a blocked RunUnits pump (non-blocking; the channel
// carries "something changed", not a count).
func (d *Coordinator) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// touch records contact from a worker, registering it on first sight.
// Callers hold d.mu.
func (d *Coordinator) touch(worker string, now time.Time) *workerState {
	w, ok := d.workers[worker]
	if !ok {
		w = &workerState{joinedAt: now}
		d.workers[worker] = w
		d.opts.Obs.Counter("dispatch_workers_joined_total").Inc()
		d.opts.Obs.Emit(obs.Event{Kind: obs.KindWorkerJoin, Msg: worker})
	}
	if w.lost {
		// A lost worker making contact again rejoins; the join event
		// fires again so the ledger shows the flap.
		w.lost = false
		d.opts.Obs.Counter("dispatch_workers_joined_total").Inc()
		d.opts.Obs.Emit(obs.Event{Kind: obs.KindWorkerJoin, Msg: worker})
	}
	w.lastSeen = now
	return w
}

// liveWorkers counts workers seen within the liveness horizon. Callers
// hold d.mu.
func (d *Coordinator) liveWorkers(now time.Time) int {
	n := 0
	for _, w := range d.workers {
		if !now.After(w.lastSeen.Add(d.opts.WorkerTTL)) {
			n++
		}
	}
	return n
}

// RegisterReply tells a joining worker how to behave.
type RegisterReply struct {
	// LeaseTTLMillis is the lease lifetime; a worker must heartbeat well
	// inside it (HeartbeatMillis is the suggested interval, TTL/3).
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// PollMillis is the suggested idle re-poll interval when no unit is
	// available.
	PollMillis int64 `json:"poll_ms"`
}

// Register announces a worker. Re-registration is harmless (workers
// re-register after coordinator restarts).
func (d *Coordinator) Register(worker string) (RegisterReply, error) {
	if worker == "" {
		return RegisterReply{}, errs.Newf(errs.Input, "dispatch: empty worker id")
	}
	d.mu.Lock()
	d.touch(worker, d.clk.Now())
	d.mu.Unlock()
	d.signal()
	return RegisterReply{
		LeaseTTLMillis:  d.opts.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (d.opts.LeaseTTL / 3).Milliseconds(),
		PollMillis:      (d.opts.Tick * 2).Milliseconds(),
	}, nil
}

// LeaseGrant is one unit handed to a worker: the spec, the fencing
// epoch the worker must quote on every heartbeat and on the result, and
// the deadline it must heartbeat before.
type LeaseGrant struct {
	Spec     core.UnitSpec `json:"spec"`
	Epoch    uint64        `json:"epoch"`
	Deadline time.Time     `json:"deadline"`
}

// Lease offers the next available unit to a worker. ok is false when no
// unit is currently available — nothing pending, everything leased, or
// all pending units still inside their backoff window — and the worker
// should re-poll.
func (d *Coordinator) Lease(worker string) (g LeaseGrant, ok bool, err error) {
	if worker == "" {
		return g, false, errs.Newf(errs.Input, "dispatch: empty worker id")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	d.touch(worker, now)
	if d.run == nil {
		return g, false, nil
	}
	w := d.workers[worker]
	for _, key := range d.run.order {
		u := d.run.units[key]
		if u.state != unitPending || now.Before(u.notBefore) || u.attempts >= d.opts.MaxAttempts {
			continue
		}
		u.state = unitLeased
		u.epoch++
		u.holder = worker
		u.attempts++
		u.leasedAt = now
		u.deadline = now.Add(d.opts.LeaseTTL)
		w.attempts++
		if !u.availableAt.IsZero() {
			d.opts.Obs.Histogram("dispatch_queue_wait_seconds").Observe(now.Sub(u.availableAt).Seconds())
		}
		d.opts.Obs.Counter("dispatch_leases_total").Inc()
		d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitLeased, Phase: key, Msg: worker, N: int(u.epoch)})
		return LeaseGrant{Spec: u.spec, Epoch: u.epoch, Deadline: u.deadline}, true, nil
	}
	return g, false, nil
}

// Heartbeat extends a lease. A Conflict return means the lease is gone
// (reaped and possibly re-granted): the worker has been fenced and
// should abandon the unit — any result it eventually produces will be
// rejected too.
func (d *Coordinator) Heartbeat(worker, key string, epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	d.touch(worker, now)
	u := d.lookup(key)
	if u == nil {
		return errs.Newf(errs.NotFound, "dispatch: unknown unit %q", key)
	}
	if u.state != unitLeased || u.epoch != epoch || u.holder != worker {
		d.opts.Obs.Counter("dispatch_fenced_heartbeats_total").Inc()
		return errs.Newf(errs.Conflict, "dispatch: unit %q epoch %d is fenced (current %d, state %d)",
			key, epoch, u.epoch, u.state)
	}
	u.deadline = now.Add(d.opts.LeaseTTL)
	d.opts.Obs.Counter("dispatch_heartbeats_total").Inc()
	return nil
}

// Complete delivers a unit result. The three outcomes:
//
//   - accepted=true, err=nil: the result was folded in — the caller held
//     the current lease.
//   - accepted=false, err=nil: the unit is already done and this is a
//     duplicate delivery from the accepted holder (a client retry after
//     a lost response). Idempotent acknowledgement; the payload is
//     discarded — it is bit-identical to the stored one by purity.
//   - err matching errs.Conflict: the caller was fenced — its epoch is
//     stale (the lease was reaped, and possibly re-granted or completed
//     by someone else). The payload is rejected.
func (d *Coordinator) Complete(worker, key string, epoch uint64, res *core.UnitResult) (accepted bool, err error) {
	if res == nil {
		return false, errs.Newf(errs.Input, "dispatch: nil result for unit %q", key)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	d.touch(worker, now)
	u := d.lookup(key)
	if u == nil {
		return false, errs.Newf(errs.NotFound, "dispatch: unknown unit %q", key)
	}
	switch {
	case u.state == unitDone && u.epoch == epoch && u.holder == worker:
		d.opts.Obs.Counter("dispatch_duplicates_total").Inc()
		d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitDuplicate, Phase: key, Msg: worker, N: int(epoch)})
		return false, nil
	case u.state == unitLeased && u.epoch == epoch && u.holder == worker:
		d.accept(u, worker, res, now)
		return true, nil
	default:
		d.opts.Obs.Counter("dispatch_fenced_total").Inc()
		d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitFenced, Phase: key, Msg: worker, N: int(epoch)})
		return false, errs.Newf(errs.Conflict, "dispatch: unit %q epoch %d is fenced (current %d)", key, epoch, u.epoch)
	}
}

// accept folds an accepted result in. Callers hold d.mu.
func (d *Coordinator) accept(u *unitState, worker string, res *core.UnitResult, now time.Time) {
	u.state = unitDone
	u.result = res
	u.holder = worker
	d.run.pending--
	held := now.Sub(u.leasedAt)
	if w := d.workers[worker]; w != nil {
		w.done++
		w.busy += held
	}
	d.opts.Obs.Counter("dispatch_units_done_total").Inc()
	d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitDone, Phase: u.spec.Key, Msg: worker, N: int(u.epoch)})
	if worker != localHolder {
		d.opts.Obs.Histogram("dispatch_lease_to_complete_seconds").Observe(held.Seconds())
		args := [2]trace.KV{
			{K: "faults", V: int64(len(u.spec.Faults))},
			{K: "epoch", V: int64(u.epoch)},
		}
		// The mutex serializes appends, satisfying the one-goroutine
		// track convention — for the run tracer and the fleet's
		// coordinator recorder alike.
		if tr := d.run.tr; tr != nil {
			tr.Track(trace.DispatchTrackPrefix+worker).Add(trace.CatDispatch, trace.SpanUnit,
				tr.Rel(u.leasedAt), held, args[0], args[1])
		}
		fc := d.fleet.Coord()
		fc.Track(trace.DispatchTrackPrefix+worker).Add(trace.CatDispatch, trace.SpanUnit,
			fc.Rel(u.leasedAt), held, args[0], args[1])
	}
	if d.run.pending == 0 {
		d.signal()
	}
}

// lookup finds a unit in the active run. Callers hold d.mu.
func (d *Coordinator) lookup(key string) *unitState {
	if d.run == nil {
		return nil
	}
	return d.run.units[key]
}

// backoff returns the re-lease delay after the given attempt count:
// capped exponential doubling minus a deterministic jitter of up to half
// the delay, drawn from hashing (key, attempt) — many reaped units
// spread out instead of stampeding back at one tick.
func (d *Coordinator) backoff(key string, attempt int) time.Duration {
	delay := d.opts.BackoffBase
	for i := 1; i < attempt && delay < d.opts.BackoffMax; i++ {
		delay *= 2
	}
	if delay > d.opts.BackoffMax {
		delay = d.opts.BackoffMax
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	frac := float64(h.Sum64()>>11) / (1 << 53) // [0,1)
	return delay - time.Duration(float64(delay)*0.5*frac)
}

// pump advances the lease table to now: reaps expired leases (bumping
// epochs — the fence), flags lost workers, and selects units for local
// execution. It returns done=true when every unit has a result, plus
// the specs the caller (RunUnits, on the campaign goroutine) must run
// locally: all eligible pending units when no live worker exists, and
// any unit that exhausted its lease attempts.
func (d *Coordinator) pump() (done bool, locals []core.UnitSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.clk.Now()
	for id, w := range d.workers {
		if !w.lost && now.After(w.lastSeen.Add(d.opts.WorkerTTL)) {
			w.lost = true
			d.opts.Obs.Counter("dispatch_workers_lost_total").Inc()
			d.opts.Obs.Emit(obs.Event{Kind: obs.KindWorkerLost, Msg: id})
		}
	}
	live := d.liveWorkers(now)
	d.opts.Obs.Gauge("dispatch_workers_live").Set(float64(live))
	if d.run == nil {
		return true, nil
	}
	for _, key := range d.run.order {
		u := d.run.units[key]
		if u.state == unitLeased && u.holder != localHolder && now.After(u.deadline) {
			// Reap: bump the epoch so the old holder is fenced, and gate
			// the re-lease behind backoff.
			heldEpoch := u.epoch
			u.state = unitPending
			u.epoch++
			wait := d.backoff(key, u.attempts)
			u.notBefore = now.Add(wait)
			u.availableAt = u.notBefore
			d.opts.Obs.Counter("dispatch_expired_total").Inc()
			d.opts.Obs.Histogram("dispatch_retry_backoff_seconds").Observe(wait.Seconds())
			d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitExpired, Phase: key, Msg: u.holder, N: int(u.epoch)})
			if w := d.workers[u.holder]; w != nil {
				w.expired++
			}
			// The abandoned attempt stays visible in the fleet trace: a
			// lease_expired span covering the whole lost lease, tagged
			// with the epoch the holder held (now fenced).
			fc := d.fleet.Coord()
			fc.Track(trace.DispatchTrackPrefix+u.holder).Add(trace.CatDispatch, trace.SpanLeaseExpired,
				fc.Rel(u.leasedAt), now.Sub(u.leasedAt),
				trace.KV{K: "epoch", V: int64(heldEpoch)})
			u.holder = ""
		}
	}
	if d.run.pending == 0 {
		return true, nil
	}
	for _, key := range d.run.order {
		u := d.run.units[key]
		if u.state != unitPending {
			continue
		}
		if live == 0 || u.attempts >= d.opts.MaxAttempts {
			// Lease to ourselves. The epoch bump fences any zombie that
			// still holds an older epoch for this unit.
			u.state = unitLeased
			u.epoch++
			u.holder = localHolder
			u.attempts++
			u.leasedAt = now
			// No deadline: the local run is synchronous on the campaign
			// goroutine and cannot be reaped.
			u.deadline = time.Time{}
			locals = append(locals, u.spec)
		}
	}
	return false, locals
}

// completeLocal folds in a locally executed unit.
func (d *Coordinator) completeLocal(key string, res *core.UnitResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	u := d.lookup(key)
	if u == nil || u.state != unitLeased || u.holder != localHolder {
		// The run was torn down underneath us (cancellation); drop it.
		return
	}
	d.opts.Obs.Counter("dispatch_local_units_total").Inc()
	d.opts.Obs.Emit(obs.Event{Kind: obs.KindUnitLocal, Phase: key, N: int(u.epoch)})
	d.accept(u, localHolder, res, d.clk.Now())
}

// RunUnits executes one session's unit set to completion and returns
// the results in unit order. It blocks the calling (campaign) goroutine:
// workers are fed through Lease/Heartbeat/Complete from other
// goroutines, while this loop reaps expired leases each pump and runs
// the local-fallback units itself via local. ctx cancellation abandons
// the set (workers racing in get Conflict/NotFound and move on).
//
// At most one unit set may be active; a second concurrent RunUnits is a
// programming error and fails fast.
func (d *Coordinator) RunUnits(ctx context.Context, units []core.UnitSpec, local func(core.UnitSpec) (*core.UnitResult, error)) ([]*core.UnitResult, error) {
	return d.RunUnitsTraced(ctx, units, local, d.opts.Trace)
}

// RunUnitsTraced is RunUnits with an explicit recorder for this run's
// dispatch spans (the service passes each job's own tracer so
// /trace/{id} shows that job's units; Options.Trace is the default).
func (d *Coordinator) RunUnitsTraced(ctx context.Context, units []core.UnitSpec, local func(core.UnitSpec) (*core.UnitResult, error), tr *trace.Recorder) ([]*core.UnitResult, error) {
	if len(units) == 0 {
		return nil, nil
	}
	now := d.clk.Now()
	run := &activeRun{units: make(map[string]*unitState, len(units)), pending: len(units), tr: tr}
	for _, spec := range units {
		if _, dup := run.units[spec.Key]; dup {
			return nil, fmt.Errorf("dispatch: duplicate unit key %q", spec.Key)
		}
		run.units[spec.Key] = &unitState{spec: spec, availableAt: now}
		run.order = append(run.order, spec.Key)
	}
	d.mu.Lock()
	if d.run != nil {
		d.mu.Unlock()
		return nil, fmt.Errorf("dispatch: a unit set is already active")
	}
	d.run = run
	d.mu.Unlock()
	d.opts.Obs.Counter("dispatch_units_total").Add(int64(len(units)))
	defer func() {
		d.mu.Lock()
		d.run = nil
		d.mu.Unlock()
	}()

	// Drain a stale wake-up from a previous set so the first pump wait is
	// honest.
	select {
	case <-d.wake:
	default:
	}

	// tick is the pending pump deadline. A wake-up keeps it rather than
	// arming a new one, so the loop holds at most one timer at a time.
	var tick <-chan time.Time
	for {
		done, locals := d.pump()
		if done {
			results := make([]*core.UnitResult, len(run.order))
			d.mu.Lock()
			for i, key := range run.order {
				results[i] = run.units[key].result
			}
			d.mu.Unlock()
			return results, nil
		}
		if len(locals) > 0 {
			for _, spec := range locals {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				res, err := local(spec)
				if err != nil {
					return nil, err
				}
				d.completeLocal(spec.Key, res)
			}
			// Results may have raced in while we were simulating; re-pump
			// immediately rather than sleeping.
			continue
		}
		if tick == nil {
			tick = d.clk.After(d.opts.Tick)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-d.wake:
		case <-tick:
			tick = nil
		}
	}
}

// Stats is a point-in-time snapshot for introspection: the worker
// registry state plus the cumulative protocol counters. It is what
// GET /v1/dispatch/stats serves, so an operator (or the dispatch smoke)
// can watch leases expire and workers drop without waiting for the
// end-of-job ledger record.
type Stats struct {
	Workers       int   `json:"workers"`
	LiveWorkers   int   `json:"live_workers"`
	Units         int64 `json:"units"`
	UnitsDone     int64 `json:"units_done"`
	Leases        int64 `json:"leases"`
	Expired       int64 `json:"expired"`
	Fenced        int64 `json:"fenced"`
	Duplicates    int64 `json:"duplicates"`
	LocalUnits    int64 `json:"local_units"`
	WorkersJoined int64 `json:"workers_joined"`
	WorkersLost   int64 `json:"workers_lost"`
}

// JobFromKey extracts the job ID a unit key encodes: the prefix before
// the first '/' of the "<jobID>/s<seq>.i<I>.d<D1>.<idx>" form
// CampaignExec derives ("" for keys without one, e.g. tests).
func JobFromKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return ""
}

// Fleet returns the coordinator's fleet trace stitcher. Coordinator-side
// events (lease reaps, unit acks) and worker-shipped segments land here.
func (d *Coordinator) Fleet() *trace.Fleet {
	if d == nil {
		return nil
	}
	return d.fleet
}

// RecordClockSample aligns a worker's trace clock with the
// coordinator's: workerNow is "now" on the worker's recorder timeline,
// sampled just before the request was sent, so coordinator-now minus
// workerNow over-estimates the offset by at most that exchange's
// one-way latency (see DESIGN.md §9). Each sample overwrites the last,
// keeping drift bounded for long-lived workers.
func (d *Coordinator) RecordClockSample(worker string, workerNow time.Duration) {
	if worker == "" {
		return
	}
	d.fleet.SetOffset(worker, d.fleet.Coord().Now()-workerNow)
}

// AddTraceSegment stitches one worker-shipped span segment into the
// fleet trace under the job the unit key encodes. workerNow (the
// worker's trace clock at send time, nanoseconds) refreshes the clock
// offset first so the segment lands aligned; zero means "no sample".
// Segments are accepted regardless of the unit's lease outcome — a
// fenced zombie's spans are exactly the ones worth seeing.
func (d *Coordinator) AddTraceSegment(worker, key string, workerNow int64, seg *trace.Segment) {
	if worker == "" {
		return
	}
	if workerNow > 0 {
		d.RecordClockSample(worker, time.Duration(workerNow))
	}
	if seg != nil {
		d.fleet.AddSegment(worker, JobFromKey(key), *seg)
	}
}

// FleetModel renders the stitched multi-process fleet trace:
// coordinator tracks as process 1, one process group per worker that
// has made trace contact. Safe mid-run.
func (d *Coordinator) FleetModel() *trace.Model {
	return d.fleet.Model()
}

// JobTrace renders one job's stitched view: the job's own recorder as
// the coordinator process plus only the worker spans shipped under
// that job's unit keys.
func (d *Coordinator) JobTrace(job string, rec *trace.Recorder) *trace.Model {
	return d.fleet.JobModel(job, rec)
}

// ObserveHeartbeatRTT records one worker-measured heartbeat round-trip
// into the dispatch_heartbeat_rtt_seconds histogram.
func (d *Coordinator) ObserveHeartbeatRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	d.opts.Obs.Histogram("dispatch_heartbeat_rtt_seconds", rttBuckets...).Observe(rtt.Seconds())
}

// WorkerTelemetry is one worker's cumulative accounting in a FleetView.
type WorkerTelemetry struct {
	ID   string `json:"id"`
	Live bool   `json:"live"`
	// UnitsDone counts accepted results; Attempts counts lease grants;
	// LeaseExpiries counts leases reaped while this worker held them.
	UnitsDone     int `json:"units_done"`
	Attempts      int `json:"attempts"`
	LeaseExpiries int `json:"lease_expiries"`
	// BusySeconds is cumulative lease-to-complete time across accepted
	// units; IdleSeconds is registered wall time not covered by it.
	BusySeconds float64 `json:"busy_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
	// ClockOffsetSeconds is the trace-clock offset (coordinator − worker)
	// currently used to align this worker's shipped spans.
	ClockOffsetSeconds float64 `json:"clock_offset_seconds"`
}

// FleetView is what GET /v1/dispatch/fleet serves: per-worker
// cumulative telemetry plus the protocol counters and a pointer at the
// stitched trace.
type FleetView struct {
	Workers []WorkerTelemetry `json:"workers"`
	Stats   Stats             `json:"stats"`
	// TracePath is where the stitched multi-process trace is served.
	TracePath string `json:"trace_path"`
}

// FleetSnapshot reports per-worker cumulative telemetry, sorted by
// worker ID for stable output.
func (d *Coordinator) FleetSnapshot() FleetView {
	stats := d.Snapshot()
	d.mu.Lock()
	now := d.clk.Now()
	view := FleetView{Stats: stats, TracePath: "/v1/dispatch/fleet/trace"}
	ids := make([]string, 0, len(d.workers))
	for id := range d.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := d.workers[id]
		idle := now.Sub(w.joinedAt) - w.busy
		if idle < 0 {
			idle = 0
		}
		view.Workers = append(view.Workers, WorkerTelemetry{
			ID:                 id,
			Live:               !now.After(w.lastSeen.Add(d.opts.WorkerTTL)),
			UnitsDone:          w.done,
			Attempts:           w.attempts,
			LeaseExpiries:      w.expired,
			BusySeconds:        w.busy.Seconds(),
			IdleSeconds:        idle.Seconds(),
			ClockOffsetSeconds: d.fleet.Offset(id).Seconds(),
		})
	}
	d.mu.Unlock()
	return view
}

// Snapshot reports the worker registry state and protocol counters.
// Counters read zero when the coordinator runs unobserved (nil Obs).
func (d *Coordinator) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	cv := func(name string) int64 { return d.opts.Obs.Counter(name).Value() }
	return Stats{
		Workers:       len(d.workers),
		LiveWorkers:   d.liveWorkers(d.clk.Now()),
		Units:         cv("dispatch_units_total"),
		UnitsDone:     cv("dispatch_units_done_total"),
		Leases:        cv("dispatch_leases_total"),
		Expired:       cv("dispatch_expired_total"),
		Fenced:        cv("dispatch_fenced_total"),
		Duplicates:    cv("dispatch_duplicates_total"),
		LocalUnits:    cv("dispatch_local_units_total"),
		WorkersJoined: cv("dispatch_workers_joined_total"),
		WorkersLost:   cv("dispatch_workers_lost_total"),
	}
}
