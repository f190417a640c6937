package service

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"limscan/internal/errs"
	"limscan/internal/ledger"
	"limscan/internal/obs"
)

// fastSpec is the quick s27 campaign most tests use (~ms per run). The
// variable seed keeps tests from colliding on the shared bmark cache or
// accidentally sharing ParamsHash across unrelated cases.
func fastSpec(seed uint64) Spec {
	return Spec{Circuit: "s27", LA: 10, LB: 5, N: 2, Seed: seed}
}

// newTestService builds a service over a temp state dir and guarantees
// teardown. Mutate opts via mod before New runs.
func newTestService(t *testing.T, mod func(*Options)) (*Service, string) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{StateDir: dir, Obs: obs.New(obs.NewRegistry(), nil)}
	if mod != nil {
		mod(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, dir
}

// waitDone blocks until the job terminates (bounded, no polling).
func waitDone(t *testing.T, s *Service, id string) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

// TestSubmitRunsToCompletion: the basic lifecycle — submit, run, done,
// report available, spec file cleaned up, memo file durable.
func TestSubmitRunsToCompletion(t *testing.T) {
	s, _ := newTestService(t, nil)
	v, created, err := s.Submit(fastSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first submission reported created=false")
	}
	final := waitDone(t, s, v.ID)
	if final.State != StateDone {
		t.Fatalf("state %s, want done (err %s)", final.State, final.Error)
	}
	if final.Summary == nil || final.Summary.Detected == 0 {
		t.Errorf("done job has no summary: %+v", final.Summary)
	}
	rep, err := s.Report(v.ID)
	if err != nil || len(rep) == 0 {
		t.Fatalf("report: %v (%d bytes)", err, len(rep))
	}
	if _, ok, _ := s.cache.Get(v.ParamsHash); !ok {
		t.Error("completed job not memoized")
	}
}

// TestSingleflight: N racing submissions of one spec coalesce onto one
// job and the simulation runs exactly once. The beforeRun gate holds
// the job mid-flight so every submission observes it inflight — the
// test is deterministic, not timing-lucky. Run with -race.
func TestSingleflight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, _ := newTestService(t, func(o *Options) {
		o.Workers = 2
	})
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}

	first, created, err := s.Submit(fastSpec(2))
	if err != nil || !created {
		t.Fatalf("lead submission: created=%v err=%v", created, err)
	}
	<-started

	const racers = 8
	views := make([]View, racers)
	createds := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, c, err := s.Submit(fastSpec(2))
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			views[i], createds[i] = v, c
		}(i)
	}
	wg.Wait()
	close(release)

	for i := range views {
		if views[i].ID != first.ID {
			t.Errorf("racer %d got job %s, want %s", i, views[i].ID, first.ID)
		}
		if createds[i] {
			t.Errorf("racer %d reported created=true on an inflight hash", i)
		}
	}
	waitDone(t, s, first.ID)
	if got := s.o.Counter("service_runs_total").Value(); got != 1 {
		t.Errorf("runs_total = %v, want 1 (singleflight leak)", got)
	}
	if got := s.o.Counter("service_jobs_deduped_total").Value(); got != racers {
		t.Errorf("deduped_total = %v, want %d", got, racers)
	}
}

// TestCacheHitLayers: a completed spec resubmits as a memory-layer hit
// in the same process and a disk-layer hit in the next one — without
// ever re-running the simulation — and the cached report is
// byte-identical.
func TestCacheHitLayers(t *testing.T) {
	s, dir := newTestService(t, nil)
	v, _, err := s.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	want, err := s.Report(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	hit, created, err := s.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !created || !hit.CacheHit || hit.State != StateDone {
		t.Fatalf("resubmission: created=%v cacheHit=%v state=%s", created, hit.CacheHit, hit.State)
	}
	if got := s.o.Counter(obs.Label("service_cache_hits_by_layer_total", "layer", "memory")).Value(); got != 1 {
		t.Errorf("memory-layer hits = %v, want 1", got)
	}
	if rep, _ := s.Report(hit.ID); !bytes.Equal(rep, want) {
		t.Error("memory-layer cached report differs from the original")
	}

	// A fresh process over the same state dir: the memory layer is cold,
	// the disk layer serves the hit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{StateDir: dir, Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(ctx)
	hit2, _, err := s2.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !hit2.CacheHit {
		t.Fatal("restarted service missed the durable cache")
	}
	if got := s2.o.Counter(obs.Label("service_cache_hits_by_layer_total", "layer", "disk")).Value(); got != 1 {
		t.Errorf("disk-layer hits = %v, want 1", got)
	}
	if rep, _ := s2.Report(hit2.ID); !bytes.Equal(rep, want) {
		t.Error("disk-layer cached report differs from the original")
	}
	if got := s2.o.Counter("service_runs_total").Value(); got != 0 {
		t.Errorf("restarted service ran %v simulations for a cached spec", got)
	}
}

// TestQueueSaturation: with one blocked worker and a depth-1 queue, a
// third distinct spec is rejected with errs.Saturated and leaves no
// job, spec file, or inflight entry behind.
func TestQueueSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, _ := newTestService(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer close(release)

	running, _, err := s.Submit(fastSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker holds job 1; the queue is empty again
	queued, _, err := s.Submit(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(fastSpec(6))
	if !errs.Is(err, errs.Saturated) {
		t.Fatalf("over-depth submission returned %v, want Saturated", err)
	}
	if got := len(s.List()); got != 2 {
		t.Errorf("rejected submission left a job behind (%d listed)", got)
	}
	if got := s.o.Counter("service_jobs_rejected_total").Value(); got != 1 {
		t.Errorf("rejected_total = %v, want 1", got)
	}
	_ = running
	_ = queued
}

// TestCancelQueued: canceling a job that has not started terminates it
// immediately and removes its state files; the worker must skip it.
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, dir := newTestService(t, func(o *Options) { o.Workers = 1 })
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}

	blocker, _, err := s.Submit(fastSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := s.Submit(fastSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("canceled queued job is %s", v.State)
	}
	if _, err := readSpec(s.specPath(queued.ParamsHash)); err == nil {
		t.Errorf("canceled job left its spec file in %s", dir)
	}
	if _, err := s.Report(queued.ID); !errs.Is(err, errs.Interrupted) {
		t.Errorf("report of canceled job returned %v, want Interrupted", err)
	}
	// Canceling a terminal job is a Conflict.
	if _, err := s.Cancel(queued.ID); !errs.Is(err, errs.Conflict) {
		t.Errorf("double cancel returned %v, want Conflict", err)
	}

	close(release)
	final := waitDone(t, s, blocker.ID)
	if final.State != StateDone {
		t.Fatalf("blocker finished %s (the worker must skip canceled jobs, not die)", final.State)
	}
}

// TestCancelRunning: canceling a running job interrupts its campaign;
// the job terminates canceled and a resubmission starts a fresh run
// (the cancel dropped its state files).
func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	s, _ := newTestService(t, nil)
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
	}
	v, _, err := s.Submit(Spec{Circuit: "s298", LA: 10, LB: 5, N: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, s, v.ID)
	// The cancel races the (fast) campaign: interrupted-in-time is the
	// common outcome, completed-first is legal. Both must be terminal
	// and coherent.
	switch final.State {
	case StateCanceled:
		if final.ErrorKind != "interrupted" {
			t.Errorf("canceled job error kind %q", final.ErrorKind)
		}
	case StateDone:
		if final.Summary == nil {
			t.Error("done job without summary")
		}
	default:
		t.Fatalf("canceled running job ended %s", final.State)
	}
}

// TestShutdownRecovery: jobs interrupted by shutdown keep their spec
// files; a new service over the same state dir re-queues and finishes
// them, and the finished report is byte-identical to an uninterrupted
// run of the same spec.
func TestShutdownRecovery(t *testing.T) {
	spec := Spec{Circuit: "s298", LA: 10, LB: 5, N: 2, Seed: 10}

	// Reference: the same spec run uninterrupted in a throwaway service.
	ref, _ := newTestService(t, nil)
	rv, _, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rv.ID)
	want, err := ref.Report(rv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted service: hold the job at its start, shut down while it
	// is inflight. Shutdown cancels the run context; the release lets
	// the worker observe it.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1, dir := newTestService(t, nil)
	s1.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	v, _, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s1.Shutdown(ctx)
	}()
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := readSpec(s1.specPath(v.ParamsHash)); err != nil {
		t.Fatalf("shutdown-interrupted job lost its spec file: %v", err)
	}

	// Restart: recovery re-queues the job; it must complete unattended.
	s2, err := New(Options{StateDir: dir, Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	})
	views := s2.List()
	if len(views) != 1 || !views[0].Recovered {
		t.Fatalf("restart did not recover the job: %+v", views)
	}
	final := waitDone(t, s2, views[0].ID)
	if final.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", final.State, final.Error)
	}
	got, err := s2.Report(final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered job's report differs from an uninterrupted run")
	}
	if s2.o.Counter("service_jobs_recovered_total").Value() != 1 {
		t.Error("recovery not counted")
	}
}

// TestLedgerRecords: finished jobs and cache hits both land in the
// ledger, distinguishable by the CacheHit flag, and a job's record is
// written before the job is published as done.
func TestLedgerRecords(t *testing.T) {
	path := t.TempDir() + "/ledger.jsonl"
	s, _ := newTestService(t, func(o *Options) { o.LedgerPath = path })
	v, _, err := s.Submit(fastSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	recs, _, err := ledger.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := ledger.Filter(recs, ledger.KindService, ""); len(got) != 1 || got[0].JobID != v.ID {
		t.Fatalf("job %s seen done before its ledger record was written: %+v", v.ID, got)
	}
	if _, _, err := s.Submit(fastSpec(11)); err != nil { // cache hit
		t.Fatal(err)
	}
	recs, skipped, err := ledger.Read(path)
	if err != nil || len(skipped) > 0 {
		t.Fatalf("ledger read: %v (skipped %d)", err, len(skipped))
	}
	svcRecs := ledger.Filter(recs, ledger.KindService, "")
	if len(svcRecs) != 2 {
		t.Fatalf("ledger holds %d service records, want 2", len(svcRecs))
	}
	if svcRecs[0].CacheHit || !svcRecs[1].CacheHit {
		t.Errorf("cache-hit flags wrong: run=%v hit=%v", svcRecs[0].CacheHit, svcRecs[1].CacheHit)
	}
	if svcRecs[0].ParamsHash == "" || svcRecs[0].ParamsHash != svcRecs[1].ParamsHash {
		t.Errorf("service records disagree on ParamsHash: %q vs %q",
			svcRecs[0].ParamsHash, svcRecs[1].ParamsHash)
	}
	if svcRecs[0].JobID == svcRecs[1].JobID {
		t.Error("run and cache hit share a job id")
	}
}

// TestSubmitInputErrors: bad specs fail fast as Input, with no job
// created and nothing on disk.
func TestSubmitInputErrors(t *testing.T) {
	s, _ := newTestService(t, nil)
	for _, sp := range []Spec{
		{},                         // no circuit
		{Circuit: "no-such-bench"}, // unknown circuit
		{Circuit: "s27", LA: -1},   // invalid config
		{Circuit: "s27", Workers: -3},
	} {
		if _, _, err := s.Submit(sp); !errs.Is(err, errs.Input) {
			t.Errorf("Submit(%+v) = %v, want Input", sp, err)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("rejected specs created %d jobs", n)
	}
}

// TestWorkersResultNeutralCache: specs that differ only in the
// result-neutral worker count share one ParamsHash, so the
// second submission is a cache hit — the cache-key soundness property
// DESIGN.md §8 argues.
func TestWorkersResultNeutralCache(t *testing.T) {
	s, _ := newTestService(t, nil)
	a := fastSpec(12)
	v, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)

	b := a
	b.Workers = 3
	hit, _, err := s.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("the result-neutral worker count changed the cache key")
	}
	if hit.ParamsHash != v.ParamsHash {
		t.Errorf("hashes differ: %s vs %s", hit.ParamsHash, v.ParamsHash)
	}
}

// TestGetUnknown: lookups of absent ids are NotFound across Get,
// Report, Cancel and Wait.
func TestGetUnknown(t *testing.T) {
	s, _ := newTestService(t, nil)
	if _, err := s.Get("c999999"); !errs.Is(err, errs.NotFound) {
		t.Errorf("Get = %v", err)
	}
	if _, err := s.Report("c999999"); !errs.Is(err, errs.NotFound) {
		t.Errorf("Report = %v", err)
	}
	if _, err := s.Cancel("c999999"); !errs.Is(err, errs.NotFound) {
		t.Errorf("Cancel = %v", err)
	}
	if _, err := s.Wait(context.Background(), "c999999"); !errs.Is(err, errs.NotFound) {
		t.Errorf("Wait = %v", err)
	}
}

// TestSubmitAfterShutdown: a closed service refuses new work with
// Conflict instead of hanging or panicking.
func TestSubmitAfterShutdown(t *testing.T) {
	s, _ := newTestService(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(fastSpec(13)); !errs.Is(err, errs.Conflict) {
		t.Errorf("post-shutdown Submit = %v, want Conflict", err)
	}
}

// TestManyDistinctJobs: a burst of distinct specs across several
// workers all complete, each memoized under its own hash. Run with
// -race; this is the scheduler's bread-and-butter load.
func TestManyDistinctJobs(t *testing.T) {
	s, _ := newTestService(t, func(o *Options) {
		o.Workers = 4
		o.QueueDepth = 32
	})
	const n = 12
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		v, _, err := s.Submit(fastSpec(uint64(100 + i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	seen := map[string]bool{}
	for _, id := range ids {
		v := waitDone(t, s, id)
		if v.State != StateDone {
			t.Errorf("job %s ended %s: %s", id, v.State, v.Error)
		}
		if seen[v.ParamsHash] {
			t.Errorf("hash %s assigned to two jobs", v.ParamsHash)
		}
		seen[v.ParamsHash] = true
	}
	if got := s.o.Counter("service_runs_total").Value(); got != n {
		t.Errorf("runs_total = %v, want %d", got, n)
	}
}

// TestRecoverySkipsCompleted: a spec file whose result landed before
// the crash is cleaned up at startup, not re-run.
func TestRecoverySkipsCompleted(t *testing.T) {
	s, dir := newTestService(t, nil)
	v, _, err := s.Submit(fastSpec(14))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window between memoization and spec cleanup.
	if err := writeSpec(s.specPath(v.ParamsHash), fastSpec(14)); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{StateDir: dir, Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(ctx)
	if n := len(s2.List()); n != 0 {
		t.Fatalf("completed spec re-queued as %d job(s)", n)
	}
	if _, err := readSpec(s2.specPath(v.ParamsHash)); err == nil {
		t.Error("stale spec file not cleaned up")
	}
	if s2.o.Counter("service_jobs_recovered_total").Value() != 0 {
		t.Error("completed spec counted as recovered")
	}
}

// TestRecoveryDropsGarbageSpec: an unparsable spec file must not wedge
// startup; it is dropped with a warning.
func TestRecoveryDropsGarbageSpec(t *testing.T) {
	dir := t.TempDir()
	if err := writeFileAtomic(dir+"/deadbeef.spec.json", []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{StateDir: dir, Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatalf("garbage spec broke startup: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer s.Shutdown(ctx)
	if n := len(s.List()); n != 0 {
		t.Fatalf("garbage spec became %d job(s)", n)
	}
}

// TestTraceFor: every job exposes a trace recorder; unknown ids do not.
func TestTraceFor(t *testing.T) {
	s, _ := newTestService(t, nil)
	v, _, err := s.Submit(fastSpec(15))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, v.ID)
	if s.TraceFor(v.ID) == nil {
		t.Error("finished job has no trace recorder")
	}
	if s.TraceFor("c999999") != nil {
		t.Error("unknown id resolved a recorder")
	}
}

// TestJobIDsSequential pins the id format the API documents.
func TestJobIDsSequential(t *testing.T) {
	for i, want := range []string{"c000001", "c000002"} {
		if got := jobID(i + 1); got != want {
			t.Errorf("jobID(%d) = %q, want %q", i+1, got, want)
		}
	}
	if got := fmt.Sprintf("%s", jobID(1234567)); got != "c1234567" {
		t.Errorf("overflow id = %q", got)
	}
}
