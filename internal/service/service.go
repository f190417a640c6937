// Package service turns the batch limited-scan campaign engine into a
// long-running job system: the scheduler behind cmd/limscand.
//
// A Service owns a bounded admission queue, a pool of campaign workers,
// a two-layer results cache keyed by core ParamsHash, and a state
// directory that makes the whole thing crash-restartable:
//
//   - every admitted job persists its spec (<hash>.spec.json) before it
//     is queued, and its campaign checkpoints land at <hash>.ck;
//   - a completed job replaces both with a durable memoized result
//     (<hash>.result.json) holding the exact report bytes;
//   - New scans the directory and re-queues every job that has a spec
//     but no result — so a SIGKILL mid-campaign costs only the tail of
//     the interrupted run, which core.Runner.RunJob resumes from the
//     checkpoint, byte-identical to an uninterrupted run.
//
// Concurrency contract: submissions of the same ParamsHash while one is
// queued or running coalesce onto that job (singleflight — the
// simulation runs exactly once); a submission whose hash is already
// memoized completes instantly as a cache hit; and a submission that
// finds the queue full is rejected with errs.Saturated and no side
// effects. All of it is exercised under the race detector by the
// package tests.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"limscan/internal/checkpoint"
	"limscan/internal/core"
	"limscan/internal/debugsrv"
	"limscan/internal/dispatch"
	"limscan/internal/errs"
	"limscan/internal/ledger"
	"limscan/internal/obs"
	"limscan/internal/report"
	"limscan/internal/trace"
)

// Options configures a Service. Zero values mean the documented
// defaults; StateDir is the only required field.
type Options struct {
	// StateDir holds specs, checkpoints and memoized results. Created
	// if missing. Required.
	StateDir string
	// Workers is the number of campaigns run concurrently. <1 means 1.
	Workers int
	// QueueDepth bounds the jobs waiting behind the running ones;
	// submissions beyond it are rejected with errs.Saturated. <1 means 64.
	QueueDepth int
	// CacheEntries bounds the in-memory layer of the results cache
	// (the disk layer is unbounded). <1 means 256.
	CacheEntries int
	// CheckpointEvery is the snapshot cadence in iterations. <1 means 1.
	CheckpointEvery int
	// FsimWorkers is the per-job fault-simulation worker default when a
	// spec doesn't set its own; 0 means GOMAXPROCS. Result-neutral.
	FsimWorkers int
	// LedgerPath, when set, appends one performance record per finished
	// job (cache hits included, flagged as such).
	LedgerPath string
	// Obs observes the service: job lifecycle events plus the
	// queue/running/cache metrics. Nil gets a fresh silent observer so
	// /metrics still works.
	Obs *obs.Campaign
	// RetryAfterSeconds is the Retry-After value advertised with 429
	// (queue saturated) responses. <1 means 1.
	RetryAfterSeconds int
	// Dispatch, when set, routes every campaign's fault-simulation
	// sessions through the distributed lease coordinator instead of
	// running them in-process; Handler also mounts the coordinator's
	// /v1/dispatch endpoints. The coordinator runs one unit set at a
	// time, so Workers is forced to 1. Build the coordinator with this
	// service's Obs so dispatch_* counters reach /metrics and the
	// ledger records.
	Dispatch *dispatch.Coordinator
	// DispatchChunk is the per-unit fault count handed to the fleet
	// (0 means the core default; rounded up to a batch-width multiple).
	DispatchChunk int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Dispatch != nil {
		o.Workers = 1 // one active unit set per coordinator
	}
	if o.RetryAfterSeconds < 1 {
		o.RetryAfterSeconds = 1
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 256
	}
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = 1
	}
	if o.Obs == nil {
		o.Obs = obs.New(nil, nil)
	}
	return o
}

// Service is the campaign scheduler. Create with New, stop with
// Shutdown.
type Service struct {
	opts  Options
	o     *obs.Campaign
	cache *memoCache

	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job // id -> job
	order    []*job          // submission order, for List
	inflight map[string]*job // hash -> queued/running job (singleflight)
	seq      int
	closed   bool

	ready     atomic.Bool
	runCtx    context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	// beforeRun, when set, runs in the worker goroutine after a job
	// turns running and before its campaign starts — the test seam the
	// saturation and cancellation tests use to hold a worker in a known
	// state without time.Sleep.
	beforeRun func(*job)
}

// New builds the service, recovers incomplete jobs from the state
// directory, and starts the worker pool. The service reports ready
// (Ready, /readyz) only after recovery has re-queued every incomplete
// job, so a client that waits for readiness never observes a
// post-crash service that has "forgotten" work.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if opts.StateDir == "" {
		return nil, errs.Newf(errs.Input, "service: Options.StateDir is required")
	}
	if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
		return nil, errs.Wrap(errs.TransientIO, fmt.Errorf("service: state dir: %w", err))
	}
	s := &Service{
		opts:     opts,
		o:        opts.Obs,
		cache:    newMemoCache(opts.StateDir, opts.CacheEntries),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
	}
	s.runCtx, s.cancelAll = context.WithCancel(context.Background())

	recovered, err := s.scanStateDir()
	if err != nil {
		return nil, err
	}
	// The queue must hold every recovered job even when there are more
	// of them than the configured depth: recovery is not admission.
	depth := opts.QueueDepth
	if len(recovered) > depth {
		depth = len(recovered)
	}
	s.queue = make(chan *job, depth)
	for _, j := range recovered {
		s.admit(j)
		s.o.Counter("service_jobs_recovered_total").Inc()
		s.o.Emit(obs.Event{Kind: obs.KindJobRecovered, Job: j.id, Circuit: j.spec.Circuit})
	}

	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s, nil
}

// scanStateDir finds crash leftovers: specs without results become
// recovered jobs (in deterministic name order); specs whose result
// landed before the crash are just cleaned up.
func (s *Service) scanStateDir() ([]*job, error) {
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		return nil, errs.Wrap(errs.TransientIO, fmt.Errorf("service: scan state dir: %w", err))
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".spec.json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var recovered []*job
	for _, name := range names {
		path := filepath.Join(s.opts.StateDir, name)
		hash := strings.TrimSuffix(name, ".spec.json")
		sp, err := readSpec(path)
		if err != nil {
			s.o.Emit(obs.Event{Kind: obs.KindWarning,
				Msg: fmt.Sprintf("service: dropping unreadable spec %s: %v", name, err)})
			_ = os.Remove(path)
			continue
		}
		if _, ok, _ := s.cache.Get(hash); ok {
			// Finished before the crash; only the cleanup was lost.
			_ = os.Remove(path)
			continue
		}
		j := s.newJob(sp, hash)
		j.recovered = true
		recovered = append(recovered, j)
	}
	return recovered, nil
}

// newJob allocates a job record (not yet registered; callers go
// through admit or register it terminal themselves under the lock).
func (s *Service) newJob(sp Spec, hash string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return &job{
		id:      jobID(s.seq),
		state:   StateQueued,
		spec:    sp,
		hash:    hash,
		created: time.Now().UTC(),
		done:    make(chan struct{}),
		tracer:  trace.New(),
	}
}

// admit registers a queued job and puts it on the queue. The caller
// guarantees capacity (Submit checks under the lock; recovery sizes
// the channel).
func (s *Service) admit(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.inflight[j.hash] = j
	s.mu.Unlock()
	s.queue <- j
	s.o.Gauge("service_queue_depth").Set(float64(len(s.queue)))
}

// Submit admits a campaign. The returned bool is false when the
// submission coalesced onto an already-inflight job with the same
// ParamsHash. Cache hits return an already-done job. Errors: Input
// (bad spec), Saturated (queue full), Conflict (shutting down).
func (s *Service) Submit(sp Spec) (View, bool, error) {
	c, cfg, err := sp.resolve()
	if err != nil {
		return View{}, false, err
	}
	sp = sp.withDefaults()
	hash := core.JobParamsHash(c, cfg)
	s.o.Counter("service_jobs_submitted_total").Inc()

	if v, ok := s.tryCacheHit(sp, hash); ok {
		return v, true, nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return View{}, false, errs.Newf(errs.Conflict, "service: shutting down")
	}
	if j := s.inflight[hash]; j != nil {
		v := j.view()
		s.mu.Unlock()
		s.o.Counter("service_jobs_deduped_total").Inc()
		return v, false, nil
	}
	// A job with this hash may have finished between the cache probe
	// above and taking the lock; the memory layer makes the re-check
	// cheap. (Lock order service.mu -> cache.mu, never the reverse.)
	if _, ok, _ := s.cache.Get(hash); ok {
		s.mu.Unlock()
		if v, ok := s.tryCacheHit(sp, hash); ok {
			return v, true, nil
		}
		return View{}, false, errs.Newf(errs.InternalPanic, "service: memo for %s vanished", hash)
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		s.o.Counter("service_jobs_rejected_total").Inc()
		return View{}, false, errs.Newf(errs.Saturated,
			"service: campaign queue is full (%d queued); retry later", cap(s.queue))
	}
	s.seq++
	j := &job{
		id:      jobID(s.seq),
		state:   StateQueued,
		spec:    sp,
		hash:    hash,
		created: time.Now().UTC(),
		done:    make(chan struct{}),
		tracer:  trace.New(),
	}
	if err := writeSpec(s.specPath(hash), sp); err != nil {
		s.mu.Unlock()
		return View{}, false, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.inflight[hash] = j
	v := j.view()
	s.queue <- j // capacity checked above; producers serialize on s.mu
	s.mu.Unlock()

	s.o.Gauge("service_queue_depth").Set(float64(len(s.queue)))
	s.o.Emit(obs.Event{Kind: obs.KindJobQueued, Job: j.id, Circuit: sp.Circuit})
	return v, true, nil
}

// tryCacheHit serves a submission from the memo cache: a fresh,
// already-terminal job whose report is the memoized bytes.
func (s *Service) tryCacheHit(sp Spec, hash string) (View, bool) {
	m, ok, layer := s.cache.Get(hash)
	if !ok {
		return View{}, false
	}
	j := s.newJob(sp, hash)
	j.cacheHit = true // not yet visible to any other goroutine
	summary := m.Summary
	s.appendLedger(j, &summary, 0)
	now := time.Now().UTC()
	s.mu.Lock()
	j.state = StateDone
	j.summary = &summary
	j.report = []byte(m.Report)
	j.started, j.finished = now, now
	close(j.done)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	v := j.view()
	s.mu.Unlock()

	s.o.Counter("service_cache_hits_total").Inc()
	s.o.Counter(obs.Label("service_cache_hits_by_layer_total", "layer", layer)).Inc()
	s.o.Gauge("service_cache_resident").Set(float64(s.cache.Resident()))
	s.o.Emit(obs.Event{Kind: obs.KindCacheHit, Job: j.id, Circuit: sp.Circuit})
	return v, true
}

// worker is one campaign runner: pull, run, repeat until shutdown.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		}
	}
}

// runJob executes one queued campaign end to end.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	ctx, cancel := context.WithCancel(s.runCtx)
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()

	s.o.Gauge("service_queue_depth").Set(float64(len(s.queue)))
	s.o.Gauge("service_jobs_running").Add(1)
	defer s.o.Gauge("service_jobs_running").Add(-1)
	s.o.Emit(obs.Event{Kind: obs.KindJobStarted, Job: j.id, Circuit: j.spec.Circuit})
	if s.beforeRun != nil {
		s.beforeRun(j)
	}

	res, resumed, err := s.runCampaign(ctx, j)
	wall := time.Since(j.started)
	if err != nil {
		s.finishErr(j, err)
		return
	}

	var buf bytes.Buffer
	c, _, rerr := j.spec.resolve()
	if rerr == nil {
		rerr = report.WriteCampaign(&buf, c, res)
	}
	if rerr != nil {
		s.finishErr(j, rerr)
		return
	}
	summary := summarize(res)
	memo := &Memo{ParamsHash: j.hash, Spec: j.spec, Summary: summary, Report: buf.String()}
	if err := s.cache.Put(memo); err != nil {
		// The job still finished; only repeat traffic loses the memo.
		s.o.Emit(obs.Event{Kind: obs.KindWarning, Job: j.id,
			Msg: fmt.Sprintf("service: memoization failed: %v", err)})
	}
	_ = os.Remove(s.specPath(j.hash))

	s.appendLedger(j, &summary, wall)
	s.mu.Lock()
	j.state = StateDone
	j.resumed = resumed
	j.summary = &summary
	j.report = buf.Bytes()
	j.finished = time.Now().UTC()
	j.cancel = nil
	delete(s.inflight, j.hash)
	close(j.done)
	s.mu.Unlock()

	if resumed {
		s.o.Counter("service_jobs_resumed_total").Inc()
	}
	s.o.Counter("service_jobs_completed_total").Inc()
	s.o.Gauge("service_cache_resident").Set(float64(s.cache.Resident()))
	s.o.Emit(obs.Event{Kind: obs.KindJobDone, Job: j.id, Circuit: j.spec.Circuit,
		Detected: summary.Detected, Cycles: summary.TotalCycles, Coverage: summary.Coverage})
}

// runCampaign builds the per-job runner and executes RunJob with the
// job's checkpoint path, containing any panic at the job boundary.
func (s *Service) runCampaign(ctx context.Context, j *job) (res *core.Result, resumed bool, err error) {
	c, cfg, rerr := j.spec.resolve()
	if rerr != nil {
		return nil, false, rerr
	}
	r := core.NewRunner(c)
	r.SetWorkers(s.opts.FsimWorkers)
	r.SetTracer(j.tracer)
	if s.opts.Dispatch != nil {
		// Unit keys are namespaced by job id, so two jobs sharing the
		// coordinator over the service's lifetime can never collide.
		r.SetSessionRunner(&dispatch.CampaignExec{
			Coord:  s.opts.Dispatch,
			Chunk:  s.opts.DispatchChunk,
			Prefix: j.id,
		})
	}
	s.o.Counter("service_runs_total").Inc()
	ck := &checkpoint.Options{Path: s.ckPath(j.hash), Every: s.opts.CheckpointEvery}
	return r.RunJob(ctx, cfg, ck)
}

// finishErr moves a job to its terminal failure state. Cancellation —
// by DELETE or by shutdown — surfaces as errs.Interrupted from the
// runner; a user cancel becomes StateCanceled and drops the spec file
// (the user said stop), while a shutdown interruption keeps it so the
// next start re-queues the job and resumes its checkpoint. Real
// failures also drop the spec: a deterministic campaign that failed
// once would only crash-loop on re-queue.
func (s *Service) finishErr(j *job, err error) {
	s.mu.Lock()
	interrupted := errors.Is(err, errs.Interrupted)
	if interrupted && j.userCanceled {
		j.state = StateCanceled
	} else if interrupted {
		// Shutdown: the job is going back to the queue of a future
		// process, not failing. Record it as canceled-by-shutdown.
		j.state = StateCanceled
	} else {
		j.state = StateFailed
	}
	j.err = err
	j.finished = time.Now().UTC()
	j.cancel = nil
	userCanceled := j.userCanceled
	delete(s.inflight, j.hash)
	close(j.done)
	s.mu.Unlock()

	if !interrupted || userCanceled {
		_ = os.Remove(s.specPath(j.hash))
	}
	if userCanceled {
		_ = os.Remove(s.ckPath(j.hash))
	}
	if interrupted {
		s.o.Counter("service_jobs_canceled_total").Inc()
		s.o.Emit(obs.Event{Kind: obs.KindJobCanceled, Job: j.id, Circuit: j.spec.Circuit})
		return
	}
	s.o.Counter("service_jobs_failed_total").Inc()
	s.o.Emit(obs.Event{Kind: obs.KindJobFailed, Job: j.id, Circuit: j.spec.Circuit, Msg: err.Error()})
}

// Get returns one job's view.
func (s *Service) Get(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return View{}, errs.Newf(errs.NotFound, "service: no campaign %q", id)
	}
	return j.view(), nil
}

// List returns every job in submission order.
func (s *Service) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.view())
	}
	return out
}

// Report returns a finished job's report bytes — exactly what
// `limscan` would have printed for the same parameters. A job that
// isn't done yet is a Conflict; a canceled or failed job surfaces its
// terminal error.
func (s *Service) Report(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, errs.Newf(errs.NotFound, "service: no campaign %q", id)
	}
	switch j.state {
	case StateDone:
		return j.report, nil
	case StateQueued, StateRunning:
		return nil, errs.Newf(errs.Conflict, "service: campaign %s is %s; report not ready", id, j.state)
	default: // canceled, failed
		return nil, j.err
	}
}

// Cancel stops a job: a queued one terminates immediately, a running
// one has its context canceled and finishes asynchronously (poll Get).
// Canceling a terminal job is a Conflict.
func (s *Service) Cancel(id string) (View, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return View{}, errs.Newf(errs.NotFound, "service: no campaign %q", id)
	}
	if j.state.terminal() {
		v := j.view()
		s.mu.Unlock()
		return v, errs.Newf(errs.Conflict, "service: campaign %s is already %s", id, j.state)
	}
	j.userCanceled = true
	if j.state == StateQueued {
		j.state = StateCanceled
		j.err = errs.Newf(errs.Interrupted, "service: canceled before start")
		j.finished = time.Now().UTC()
		delete(s.inflight, j.hash)
		close(j.done)
		hash := j.hash
		v := j.view()
		s.mu.Unlock()
		_ = os.Remove(s.specPath(hash))
		_ = os.Remove(s.ckPath(hash))
		s.o.Counter("service_jobs_canceled_total").Inc()
		s.o.Emit(obs.Event{Kind: obs.KindJobCanceled, Job: j.id, Circuit: j.spec.Circuit})
		return v, nil
	}
	cancel := j.cancel
	v := j.view()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return v, nil
}

// TraceFor resolves a job's execution trace (nil for unknown ids) —
// the debugsrv /trace/{id} source. In distributed mode the job's own
// recorder is stitched with the worker span segments shipped under the
// job's unit keys, so the download is a multi-process view; otherwise
// it is the recorder itself.
func (s *Service) TraceFor(id string) debugsrv.TraceSource {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	if j.tracer == nil {
		return nil
	}
	if s.opts.Dispatch != nil {
		return s.opts.Dispatch.JobTrace(id, j.tracer)
	}
	return j.tracer
}

// Ready reports whether recovery finished and the workers are up — the
// /readyz source.
func (s *Service) Ready() bool { return s.ready.Load() }

// Obs returns the service observer (for /metrics and the CLI stack).
func (s *Service) Obs() *obs.Campaign { return s.o }

// Wait blocks until the job reaches a terminal state or ctx expires —
// the poll-free primitive the tests (and graceful drains) use.
func (s *Service) Wait(ctx context.Context, id string) (View, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return View{}, errs.Newf(errs.NotFound, "service: no campaign %q", id)
	}
	select {
	case <-j.done:
		return s.Get(id)
	case <-ctx.Done():
		return View{}, ctx.Err()
	}
}

// Shutdown stops the service: no new submissions, running campaigns
// are interrupted (flushing their checkpoint boundary, so a future New
// over the same state dir resumes them), and the workers are joined.
// It returns ctx.Err if the workers don't drain in time.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.ready.Store(false)
	s.cancelAll()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// appendLedger records one finishing job (wall is zero for cache hits).
// Both paths call it before publishing the job, so a client that sees a
// job done always finds its record in the ledger.
func (s *Service) appendLedger(j *job, sum *Summary, wall time.Duration) {
	if s.opts.LedgerPath == "" {
		return
	}
	s.mu.Lock()
	rec := &ledger.Record{
		Kind:        ledger.KindService,
		JobID:       j.id,
		Circuit:     j.spec.Circuit,
		ParamsHash:  j.hash,
		Seed:        j.spec.Seed,
		CacheHit:    j.cacheHit,
		Recovered:   j.recovered,
		WallSeconds: wall.Seconds(),
		Faults:      sum.Faults,
		Detected:    sum.Detected,
		Coverage:    sum.Coverage,
		TotalCycles: sum.TotalCycles,
	}
	s.mu.Unlock()
	if s.opts.Dispatch != nil {
		rec.DispatchFromObs(s.o)
	}
	rec.Stamp()
	if err := ledger.Append(s.opts.LedgerPath, rec, nil); err != nil {
		s.o.Emit(obs.Event{Kind: obs.KindWarning, Job: j.id,
			Msg: fmt.Sprintf("service: ledger append failed: %v", err)})
	}
}

// specPath and ckPath are the per-hash state files.
func (s *Service) specPath(hash string) string {
	return filepath.Join(s.opts.StateDir, hash+".spec.json")
}

func (s *Service) ckPath(hash string) string {
	return filepath.Join(s.opts.StateDir, hash+".ck")
}

// specFile is the on-disk spec wrapper (schema-versioned like the memo
// files).
type specFile struct {
	Schema int  `json:"schema"`
	Spec   Spec `json:"spec"`
}

func writeSpec(path string, sp Spec) error {
	data, err := json.MarshalIndent(specFile{Schema: memoSchema, Spec: sp}, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode spec: %w", err)
	}
	data = append(data, '\n')
	if err := writeFileAtomic(path, data); err != nil {
		return errs.Wrap(errs.TransientIO, fmt.Errorf("service: persist spec: %w", err))
	}
	return nil
}

func readSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var f specFile
	if err := json.Unmarshal(data, &f); err != nil {
		return Spec{}, err
	}
	if f.Schema != memoSchema {
		return Spec{}, fmt.Errorf("service: spec schema %d, this build reads %d", f.Schema, memoSchema)
	}
	if _, _, err := f.Spec.resolve(); err != nil {
		return Spec{}, err
	}
	return f.Spec, nil
}
