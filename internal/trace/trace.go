// Package trace is the execution-tracing layer of the observability
// stack: a lightweight hierarchical span recorder whose output loads in
// Perfetto / chrome://tracing and feeds the `perf trace` scaling
// diagnoser.
//
// Where the obs metrics aggregate (total busy seconds, wait histograms),
// a trace keeps the *when*: every fault-simulation batch, ordered-merge
// fold, checkpoint write and campaign phase becomes one timed span on a
// named track, so "workers starve on dispatch" and "workers stall behind
// the merge" stop being hypotheses and become visible gaps.
//
// Design contract (mirrors internal/obs):
//
//   - A nil *Recorder / nil *Track accepts every method as a no-op, so
//     the untraced hot path costs one pointer test and zero allocations.
//   - Appending a span takes no lock: each Track is owned by exactly one
//     goroutine at a time (the campaign goroutine, or one fsim worker),
//     and spans land in fixed-size chunks published with an atomic
//     counter. Only chunk allocation (every chunkSize spans) and track
//     creation take the recorder mutex.
//   - The trace is readable mid-run (the debugsrv /trace endpoint): a
//     reader snapshots the chunk list under the mutex and then reads
//     only the atomically published prefix of each chunk, so it races
//     with nothing.
//   - Recording never feeds back into simulation: spans are written
//     after batch results exist, and the deterministic ordered merge
//     never consults the recorder (see DESIGN.md §7).
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. The analyzer (analyze.go) keys off these, so the
// recorder and the diagnoser agree by construction.
const (
	CatPhase      = "phase"      // campaign phase brackets (Recorder.StartPhase)
	CatQuiet      = "quiet"      // quiet phase accumulations; Analyze skips them
	CatRun        = "run"        // one fsim.Run session
	CatBatch      = "batch"      // one fault batch simulated by a worker
	CatWait       = "wait"       // a worker stalled at the merge barrier
	CatMerge      = "merge"      // the deterministic ordered merge
	CatCheckpoint = "checkpoint" // one snapshot write
	CatDispatch   = "dispatch"   // one leased work unit (distributed fan-out)
)

// Well-known track and span names.
const (
	// MainTrack is the campaign goroutine's track: phases, fsim runs,
	// merges and checkpoint writes — the single-threaded critical path.
	MainTrack = "campaign"
	// WorkerTrackPrefix prefixes per-worker tracks ("fsim worker 3").
	// The analyzer identifies worker tracks by this prefix.
	WorkerTrackPrefix = "fsim worker "
	// DispatchTrackPrefix prefixes per-remote-worker dispatch tracks
	// ("dispatch worker w1"): one lane per registered worker process,
	// one CatDispatch span per unit it completed.
	DispatchTrackPrefix = "dispatch worker "

	SpanRun        = "fsim_run"
	SpanBatch      = "batch"
	SpanWaitMerge  = "wait_merge"
	SpanMerge      = "merge"
	SpanCheckpoint = "checkpoint_write"
	SpanUnit       = "dispatch_unit"

	// WorkerExecTrack / WorkerControlTrack name the two tracks a
	// limsworker process records on: exec carries one span per leased
	// unit (named by unit key, epoch in the args), control carries
	// heartbeat round-trips. They ship to the coordinator as segments
	// and reappear under the worker's process group in the fleet trace.
	WorkerExecTrack    = "exec"
	WorkerControlTrack = "control"
	// SpanLeaseExpired marks a coordinator-side reap of a worker's
	// lease on that worker's dispatch track: the span covers the whole
	// lease the worker lost, so abandoned attempts are visible next to
	// the reassigned ones.
	SpanLeaseExpired = "lease_expired"
)

// KV is one integer span argument (batch index, fault count, bytes...).
// Fixed-size and inline in Span so a span never allocates. The json
// tags serve the segment wire form (segment.go); the Perfetto export
// does not use them.
type KV struct {
	K string `json:"k"`
	V int64  `json:"v"`
}

// Span is one completed timed operation. Start is relative to the
// recorder's zero (monotonic), so spans from different tracks share one
// timeline.
type Span struct {
	Name  string
	Cat   string
	Start time.Duration
	Dur   time.Duration
	Args  [2]KV // unused slots have empty keys
}

// chunkSize is the span capacity of one track chunk. Spans within a
// chunk are appended lock-free; a new chunk every chunkSize spans takes
// one brief mutex acquisition.
const chunkSize = 1024

// DefaultMaxSpans caps each track's span count (~64 MiB of spans per
// track at the Span size). Past the cap spans are counted, not stored,
// and the exporter reports the drop — a bounded trace that says it is
// bounded beats an unbounded one that OOMs the campaign.
const DefaultMaxSpans = 1 << 20

type chunk struct {
	n     atomic.Int64 // published span count, <= chunkSize
	spans [chunkSize]Span
}

// Track is one named horizontal lane of the trace. Appends must come
// from a single goroutine at a time (enforced by convention: each fsim
// worker owns its track for the duration of a sharded run, the campaign
// goroutine owns MainTrack); reads may come from anywhere, any time.
type Track struct {
	r    *Recorder
	name string
	tid  int

	mu      sync.Mutex // guards chunks growth; appends within a chunk are lock-free
	chunks  []*chunk
	cur     *chunk
	total   atomic.Int64 // published spans across all chunks
	dropped atomic.Int64

	// Drain cursor (segment shipping): how many spans and drops have
	// already been handed out by DrainSegment. Guarded by drainMu so
	// concurrent drains (result submission racing the final flush)
	// never double-ship a span.
	drainMu      sync.Mutex
	drained      int
	drainedDrops int64
}

// Recorder owns the trace: the time base and the track set.
type Recorder struct {
	t0       time.Time
	maxSpans int64

	mu     sync.Mutex
	byName map[string]*Track
	order  []*Track

	// mainMu serializes the phase API's MainTrack appends (Phase.End,
	// AddQuiet): one observer may be shared across goroutines.
	mainMu   sync.Mutex
	listener PhaseListener

	started atomic.Bool // first phase span opened (readiness signal)
}

// PhaseListener is told when each phase bracket opens and closes — the
// seam the per-phase profiler (internal/prof) plugs into. Implementations
// must tolerate PhaseEnd calls for phases they never saw start.
type PhaseListener interface {
	PhaseStart(name string)
	PhaseEnd(name string)
}

// New returns a Recorder whose timeline starts now. The MainTrack is
// created eagerly so it is always track 0 in the export.
func New() *Recorder {
	r := &Recorder{
		t0:       time.Now(),
		maxSpans: DefaultMaxSpans,
		byName:   make(map[string]*Track),
	}
	r.Track(MainTrack)
	return r
}

// SetMaxSpans overrides the per-track span cap (testing and huge
// campaigns). Zero or negative restores the default. Call before
// recording starts.
func (r *Recorder) SetMaxSpans(n int) {
	if r == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	r.maxSpans = int64(n)
}

// Now returns the current time on the recorder's timeline. Span start
// times come from here so every track shares one clock.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

// Rel converts an absolute timestamp (captured with time.Now by code
// that does its own timing, e.g. the fsim worker bookkeeping) onto the
// recorder's timeline.
func (r *Recorder) Rel(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.t0)
}

// Started reports whether the first phase span has opened — the
// readiness contract behind the debugsrv /readyz endpoint: a campaign
// that opened its first phase has finished flag parsing, circuit
// loading and fault-universe construction, and is doing real work.
func (r *Recorder) Started() bool {
	return r != nil && r.started.Load()
}

// Track returns the named track, creating it on first use. Safe for
// concurrent use; the returned handle is what the owning goroutine
// appends through.
func (r *Recorder) Track(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := &Track{r: r, name: name, tid: len(r.order)}
	r.byName[name] = t
	r.order = append(r.order, t)
	return t
}

// Name returns the track's name ("" for nil).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Add appends one completed span. Lock-free except when the current
// chunk is full. Must be called only by the track's owning goroutine.
// A span holds at most two args; a third panics, on a nil track too,
// so a caller that would lose data fails in every test that reaches it.
func (t *Track) Add(cat, name string, start, dur time.Duration, args ...KV) {
	if len(args) > len(Span{}.Args) {
		panic(fmt.Sprintf("trace: span %q given %d args, a span holds %d", name, len(args), len(Span{}.Args)))
	}
	if t == nil {
		return
	}
	if t.total.Load() >= t.r.maxSpans {
		t.dropped.Add(1)
		return
	}
	cur := t.cur
	if cur == nil || cur.n.Load() == chunkSize {
		cur = &chunk{}
		t.mu.Lock()
		t.chunks = append(t.chunks, cur)
		t.mu.Unlock()
		t.cur = cur
	}
	n := cur.n.Load()
	sp := &cur.spans[n]
	sp.Name, sp.Cat, sp.Start, sp.Dur = name, cat, start, dur
	sp.Args = [2]KV{}
	copy(sp.Args[:], args)
	// Publish: the atomic store orders the field writes above before any
	// reader that loads n — the mid-run /trace download races with
	// nothing.
	cur.n.Store(n + 1)
	t.total.Add(1)
}

// Len returns the published span count.
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return int(t.total.Load())
}

// Dropped returns the number of spans lost to the per-track cap.
func (t *Track) Dropped() int {
	if t == nil {
		return 0
	}
	return int(t.dropped.Load())
}

// snapshotSpans copies the published spans (safe mid-run).
func (t *Track) snapshotSpans() []Span {
	t.mu.Lock()
	chunks := make([]*chunk, len(t.chunks))
	copy(chunks, t.chunks)
	t.mu.Unlock()
	var out []Span
	for _, c := range chunks {
		n := c.n.Load()
		out = append(out, c.spans[:n]...)
	}
	return out
}

// SetPhaseListener fills the one listener slot (nil empties it). Call
// it before recording starts: the slot is not synchronized.
func (r *Recorder) SetPhaseListener(l PhaseListener) {
	if r == nil {
		return
	}
	r.listener = l
}

// Phase is an open phase bracket returned by StartPhase; End closes it.
// The zero Phase (from a nil Recorder) is inert.
type Phase struct {
	r     *Recorder
	name  string
	start time.Duration
}

// StartPhase opens a named phase bracket: it latches Started (the
// readiness signal) and tells the listener, then starts the clock.
func (r *Recorder) StartPhase(name string) Phase {
	if r == nil {
		return Phase{}
	}
	r.started.Store(true)
	if r.listener != nil {
		r.listener.PhaseStart(name)
	}
	return Phase{r: r, name: name, start: r.Now()}
}

// End closes the bracket as one CatPhase span on MainTrack, tells the
// listener, and returns the span's length.
func (p Phase) End() time.Duration {
	if p.r == nil {
		return 0
	}
	d := p.r.Now() - p.start
	p.r.addMain(CatPhase, p.name, p.start, d)
	if p.r.listener != nil {
		p.r.listener.PhaseEnd(p.name)
	}
	return d
}

// AddQuiet records a quiet accumulation that just ended as a CatQuiet
// span of length d on MainTrack: no listener call, and Analyze skips it.
func (r *Recorder) AddQuiet(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.addMain(CatQuiet, name, r.Now()-d, d)
}

func (r *Recorder) addMain(cat, name string, start, d time.Duration) {
	r.mainMu.Lock()
	r.Track(MainTrack).Add(cat, name, start, d)
	r.mainMu.Unlock()
}

// Total is the summed length of one span name.
type Total struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total"`
}

// Totals sums the MainTrack phase, quiet and fsim-run spans by name, in
// first-seen order — from the same spans a trace export writes.
func (r *Recorder) Totals() []Total {
	if r == nil {
		return nil
	}
	var out []Total
	at := make(map[string]int)
	for _, sp := range r.Track(MainTrack).snapshotSpans() {
		if sp.Cat != CatPhase && sp.Cat != CatQuiet && sp.Cat != CatRun {
			continue
		}
		i, ok := at[sp.Name]
		if !ok {
			i = len(out)
			at[sp.Name] = i
			out = append(out, Total{Name: sp.Name})
		}
		out[i].Count++
		out[i].Total += sp.Dur
	}
	return out
}

// tracks snapshots the track list.
func (r *Recorder) tracks() []*Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Track, len(r.order))
	copy(out, r.order)
	return out
}

// Model converts the recorder's current contents into the analyzer's
// offline form — the same structure Parse builds from a trace file, so
// in-process consumers (the JSON export, the stitched fleet trace) and
// file analysis (perf trace) share one code path.
func (r *Recorder) Model() *Model {
	if r == nil {
		return &Model{}
	}
	m := &Model{}
	for _, t := range r.tracks() {
		m.Tracks = append(m.Tracks, ModelTrack{
			Name:    t.name,
			TID:     t.tid,
			Dropped: t.Dropped(),
			Spans:   t.snapshotSpans(),
		})
	}
	return m
}
