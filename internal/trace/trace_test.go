package trace

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// dur is a test shorthand.
func dur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 || r.Rel(time.Now()) != 0 || r.Started() {
		t.Error("nil Recorder time methods not zero")
	}
	r.SetMaxSpans(10)
	r.SetPhaseListener(nil)
	if d := r.StartPhase("x").End(); d != 0 {
		t.Errorf("nil Recorder phase lasted %v", d)
	}
	r.AddQuiet("x", 1)
	if r.Totals() != nil {
		t.Error("nil Recorder has totals")
	}
	tr := r.Track("anything")
	if tr != nil {
		t.Fatal("nil Recorder returned a live track")
	}
	tr.Add(CatBatch, SpanBatch, 0, 1) // nil Track no-op
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Name() != "" {
		t.Error("nil Track accessors not zero")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if m, err := Parse(buf.Bytes()); err != nil || len(m.Tracks) != 0 {
		t.Errorf("nil Recorder export not an empty valid trace: %v, %d tracks", err, len(m.Tracks))
	}
}

// TestAddRejectsThirdArg: a span holds two args, so a third must fail
// loudly — naming the span — instead of being dropped, on a nil track
// too; one and two args are kept in order.
func TestAddRejectsThirdArg(t *testing.T) {
	r := New()
	tk := r.Track(MainTrack)
	tk.Add(CatRun, "one", 0, dur(1), KV{K: "a", V: 1})
	tk.Add(CatRun, "two", 0, dur(1), KV{K: "a", V: 1}, KV{K: "b", V: 2})
	m := r.Model()
	if got := m.Tracks[0].Spans; len(got) != 2 || got[0].Args[0].K != "a" || got[1].Args[1].K != "b" {
		t.Fatalf("spans = %+v", got)
	}
	three := []KV{{K: "a"}, {K: "b"}, {K: "c"}}
	for _, tk := range []*Track{tk, (*Recorder)(nil).Track(MainTrack)} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"three"`) {
					t.Errorf("third arg: recovered %q, want a panic naming the span", msg)
				}
			}()
			tk.Add(CatRun, "three", 0, dur(1), three...)
		}()
	}
	if n := r.Track(MainTrack).Len(); n != 2 {
		t.Errorf("track holds %d spans after the rejected add, want 2", n)
	}
}

func TestMainTrackIsAlwaysTIDZero(t *testing.T) {
	r := New()
	r.Track(WorkerTrackPrefix + "0")
	m := r.Model()
	if len(m.Tracks) != 2 || m.Tracks[0].Name != MainTrack || m.Tracks[0].TID != 0 {
		t.Fatalf("MainTrack not eagerly created as tid 0: %+v", m.Tracks)
	}
}

func TestRoundTrip(t *testing.T) {
	r := New()
	main := r.Track(MainTrack)
	// Whole-microsecond values survive the decimal µs encoding exactly;
	// a sub-µs span checks the fractional path.
	main.Add(CatPhase, "ts0_sim", 5*time.Microsecond, 100*time.Microsecond)
	main.Add(CatRun, SpanRun, 10*time.Microsecond, 80*time.Microsecond,
		KV{K: "workers", V: 4}, KV{K: "batches", V: 7})
	w0 := r.Track(WorkerTrackPrefix + "0")
	w0.Add(CatBatch, SpanBatch, 12*time.Microsecond, 500*time.Nanosecond, KV{K: "batch", V: 0})

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("re-parse of own export failed: %v\n%s", err, buf.String())
	}

	mt := m.Track(MainTrack)
	if mt == nil {
		t.Fatalf("main track lost its name in the round trip: %+v", m.Tracks)
	}
	if len(mt.Spans) != 2 {
		t.Fatalf("main track has %d spans, want 2", len(mt.Spans))
	}
	run := mt.Spans[1]
	if run.Name != SpanRun || run.Cat != CatRun {
		t.Errorf("run span identity lost: %+v", run)
	}
	if run.Start != 10*time.Microsecond || run.Dur != 80*time.Microsecond {
		t.Errorf("run span timing changed: start %v dur %v", run.Start, run.Dur)
	}
	if w, ok := run.Arg("workers"); !ok || w != 4 {
		t.Errorf("workers arg lost: %v %v", w, ok)
	}
	if b, ok := run.Arg("batches"); !ok || b != 7 {
		t.Errorf("batches arg lost: %v %v", b, ok)
	}
	wt := m.Track(WorkerTrackPrefix + "0")
	if wt == nil || len(wt.Spans) != 1 {
		t.Fatalf("worker track lost: %+v", m.Tracks)
	}
	if wt.Spans[0].Dur != 500*time.Nanosecond {
		t.Errorf("sub-µs duration lost: %v", wt.Spans[0].Dur)
	}
}

func TestParseBareArrayForm(t *testing.T) {
	data := []byte(`[
		{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"fsim worker 1"}},
		{"ph":"X","pid":1,"tid":3,"cat":"batch","name":"batch","ts":10,"dur":5,"args":{"batch":2}}
	]`)
	m, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	wt := m.Track("fsim worker 1")
	if wt == nil || len(wt.Spans) != 1 {
		t.Fatalf("bare-array parse: %+v", m.Tracks)
	}
}

func TestParseHostileInput(t *testing.T) {
	if _, err := Parse([]byte("not json")); err == nil {
		t.Error("garbage must not parse")
	}
	// A float-overflow timestamp is a clean error, not a crash.
	if _, err := Parse([]byte(`{"traceEvents":[{"ph":"X","tid":0,"name":"a","ts":1e999,"dur":1}]}`)); err == nil {
		t.Error("overflowing ts must error")
	}
	// Unknown event kinds and foreign fields are ignored, not fatal.
	m, err := Parse([]byte(`{"traceEvents":[
		{"ph":"B","tid":0,"name":"open-ended"},
		{"ph":"X","tid":0,"name":"b","ts":1,"dur":2,"sf":7}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Tracks[0].Spans); n != 1 {
		t.Errorf("want 1 span from mixed events, got %d", n)
	}
}

// listener records the brackets a PhaseListener is told about.
type listener struct{ calls []string }

func (l *listener) PhaseStart(name string) { l.calls = append(l.calls, "start:"+name) }
func (l *listener) PhaseEnd(name string)   { l.calls = append(l.calls, "end:"+name) }

func TestPhaseBracket(t *testing.T) {
	r := New()
	l := &listener{}
	r.SetPhaseListener(l)
	if r.Started() {
		t.Error("fresh recorder claims started")
	}
	p := r.StartPhase("ts0_gen")
	if !r.Started() {
		t.Error("Started not set by the first StartPhase")
	}
	if d := p.End(); d < 0 {
		t.Errorf("phase length %v", d)
	}
	r.AddQuiet("procedure1", time.Microsecond) // the quiet path never reaches the listener
	if want := []string{"start:ts0_gen", "end:ts0_gen"}; strings.Join(l.calls, " ") != strings.Join(want, " ") {
		t.Errorf("listener calls = %v, want %v", l.calls, want)
	}
	mt := r.Model().Track(MainTrack)
	if len(mt.Spans) != 2 || mt.Spans[0].Name != "ts0_gen" || mt.Spans[0].Cat != CatPhase ||
		mt.Spans[1].Name != "procedure1" || mt.Spans[1].Cat != CatQuiet || mt.Spans[1].Dur != time.Microsecond {
		t.Fatalf("bracket and quiet span not recorded on MainTrack: %+v", mt.Spans)
	}
}

// TestPhaseAPIConcurrentUse: brackets and quiet spans from several
// goroutines share MainTrack without breaking its one-writer rule.
func TestPhaseAPIConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.StartPhase("p").End()
				r.AddQuiet("q", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	got := r.Totals()
	if len(got) != 2 || got[0].Count+got[1].Count != 3200 || got[0].Count != 1600 {
		t.Errorf("Totals = %+v, want 1600 of each", got)
	}
}

func TestTotals(t *testing.T) {
	r := New()
	main := r.Track(MainTrack)
	main.Add(CatPhase, "ts0_gen", 0, dur(1))
	main.Add(CatRun, SpanRun, dur(1), dur(2))
	main.Add(CatMerge, SpanMerge, dur(2), dur(0.5)) // not a timing row
	main.Add(CatPhase, "ts0_sim", dur(1), dur(3))
	main.Add(CatQuiet, "fault_sim", dur(4), dur(2))
	main.Add(CatRun, SpanRun, dur(4), dur(1))
	r.Track(WorkerTrackPrefix+"0").Add(CatBatch, SpanBatch, dur(1), dur(1)) // other tracks never count
	want := []Total{
		{Name: "ts0_gen", Count: 1, Total: dur(1)},
		{Name: SpanRun, Count: 2, Total: dur(3)},
		{Name: "ts0_sim", Count: 1, Total: dur(3)},
		{Name: "fault_sim", Count: 1, Total: dur(2)},
	}
	got := r.Totals()
	if len(got) != len(want) {
		t.Fatalf("Totals = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Totals[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMaxSpansCapReported(t *testing.T) {
	r := New()
	r.SetMaxSpans(10)
	w := r.Track(WorkerTrackPrefix + "0")
	for i := 0; i < 25; i++ {
		w.Add(CatBatch, SpanBatch, time.Duration(i), 1)
	}
	if w.Len() != 10 || w.Dropped() != 15 {
		t.Fatalf("cap accounting: len %d dropped %d, want 10/15", w.Len(), w.Dropped())
	}
	// The drop survives export and re-parse — a bounded trace says so.
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spans_dropped") {
		t.Error("export silent about dropped spans")
	}
	m, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Track(WorkerTrackPrefix + "0").Dropped; got != 15 {
		t.Errorf("dropped count lost in round trip: %d", got)
	}
	if a := Analyze(m); a.DroppedSpans != 15 {
		t.Errorf("analysis DroppedSpans = %d, want 15", a.DroppedSpans)
	}
}

// TestConcurrentAppendAndSnapshot is the mid-run download contract under
// the race detector: per-track single writers append while a reader
// repeatedly exports, and every export must be a valid, consistent
// prefix.
func TestConcurrentAppendAndSnapshot(t *testing.T) {
	r := New()
	const workers = 4
	const perWorker = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wt := r.Track(WorkerTrackPrefix + strconv.Itoa(w))
			for i := 0; i < perWorker; i++ {
				wt.Add(CatBatch, SpanBatch, time.Duration(i), 1, KV{K: "batch", V: int64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(buf.Bytes()); err != nil {
			t.Fatalf("mid-run export invalid: %v", err)
		}
		select {
		case <-done:
			m := r.Model()
			for w := 0; w < workers; w++ {
				wt := m.Track(WorkerTrackPrefix + strconv.Itoa(w))
				if wt == nil || len(wt.Spans) != perWorker {
					t.Fatalf("worker %d final span count wrong: %+v", w, wt)
				}
			}
			return
		default:
		}
	}
}

// syntheticModel builds a trace with known time structure:
//
//	wall 10ms; one sharded run window [2,8) at 2 workers;
//	worker 0: busy [2,5), merge-stall [5,7.5)   → starve 0.5ms
//	worker 1: busy [2,7), merge-stall [7,7.5)   → starve 0.5ms
//	merge [7.5,8), checkpoint [8.5,9) on the campaign track.
//
// Serial = 10-6 = 4ms; P = 8ms busy; serial fraction 1/3; max speedup
// 3x; balanced at 2 workers 1.5x; measured 12/10 = 1.2x.
func syntheticModel() *Model {
	return &Model{Tracks: []ModelTrack{
		{Name: MainTrack, TID: 0, Spans: []Span{
			{Name: "search", Cat: CatPhase, Start: 0, Dur: dur(10)},
			{Name: SpanRun, Cat: CatRun, Start: dur(2), Dur: dur(6),
				Args: [2]KV{{K: "workers", V: 2}, {K: "batches", V: 4}}},
			{Name: SpanMerge, Cat: CatMerge, Start: dur(7.5), Dur: dur(0.5),
				Args: [2]KV{{K: "batches", V: 4}}},
			{Name: SpanCheckpoint, Cat: CatCheckpoint, Start: dur(8.5), Dur: dur(0.5),
				Args: [2]KV{{K: "bytes", V: 4096}}},
		}},
		{Name: WorkerTrackPrefix + "0", TID: 1, Spans: []Span{
			{Name: SpanBatch, Cat: CatBatch, Start: dur(2), Dur: dur(3)},
			{Name: SpanWaitMerge, Cat: CatWait, Start: dur(5), Dur: dur(2.5)},
		}},
		{Name: WorkerTrackPrefix + "1", TID: 2, Spans: []Span{
			{Name: SpanBatch, Cat: CatBatch, Start: dur(2), Dur: dur(5)},
			{Name: SpanWaitMerge, Cat: CatWait, Start: dur(7), Dur: dur(0.5)},
		}},
	}}
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("%s = %g, want %g", name, got, want)
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	a := Analyze(syntheticModel())
	approx(t, "WallSeconds", a.WallSeconds, 0.010)
	if a.Runs != 1 || a.ShardedRuns != 1 || a.Workers != 2 {
		t.Errorf("run counts: %d runs, %d sharded, %d workers", a.Runs, a.ShardedRuns, a.Workers)
	}
	approx(t, "SerialSeconds", a.SerialSeconds, 0.004)
	approx(t, "ParallelBusy", a.ParallelBusy, 0.008)
	approx(t, "SerialFraction", a.SerialFraction, 1.0/3.0)
	approx(t, "MaxSpeedup", a.MaxSpeedup, 3.0)
	approx(t, "BalancedSpeedup", a.BalancedSpeedup, 1.5)
	approx(t, "MeasuredSpeedup", a.MeasuredSpeedup, 1.2)
	approx(t, "MergeSeconds", a.MergeSeconds, 0.0005)
	approx(t, "CheckpointSeconds", a.CheckpointSeconds, 0.0005)
	approx(t, "BusySeconds", a.BusySeconds, 0.008)
	approx(t, "MergeStallSeconds", a.MergeStallSeconds, 0.003)
	approx(t, "StarveSeconds", a.StarveSeconds, 0.001)

	if len(a.WorkerStats) != 2 {
		t.Fatalf("worker stats: %+v", a.WorkerStats)
	}
	w0 := a.WorkerStats[0]
	approx(t, "w0.Busy", w0.BusySeconds, 0.003)
	approx(t, "w0.Wait", w0.WaitSeconds, 0.0025)
	approx(t, "w0.Starve", w0.StarveSeconds, 0.0005)
	approx(t, "w0.InRun", w0.InRunSeconds, 0.006)
	approx(t, "w0.Utilization", w0.Utilization, 0.5)

	// The dominant limiter at these numbers is the 4ms serial section.
	if !strings.Contains(a.Diagnosis, "serial sections") {
		t.Errorf("diagnosis misses the serial bottleneck: %q", a.Diagnosis)
	}
	if !strings.Contains(a.Diagnosis, "Amdahl ceiling 3.00x") {
		t.Errorf("diagnosis misses the Amdahl ceiling: %q", a.Diagnosis)
	}
}

func TestAnalyzeDominantMergeStall(t *testing.T) {
	// Tiny serial time, huge barrier stall: worker 1 does all the work
	// while worker 0 stalls — the verdict must blame the barrier.
	m := &Model{Tracks: []ModelTrack{
		{Name: MainTrack, TID: 0, Spans: []Span{
			{Name: SpanRun, Cat: CatRun, Start: 0, Dur: dur(10),
				Args: [2]KV{{K: "workers", V: 2}}},
		}},
		{Name: WorkerTrackPrefix + "0", TID: 1, Spans: []Span{
			{Name: SpanBatch, Cat: CatBatch, Start: 0, Dur: dur(1)},
			{Name: SpanWaitMerge, Cat: CatWait, Start: dur(1), Dur: dur(9)},
		}},
		{Name: WorkerTrackPrefix + "1", TID: 2, Spans: []Span{
			{Name: SpanBatch, Cat: CatBatch, Start: 0, Dur: dur(10)},
		}},
	}}
	a := Analyze(m)
	if !strings.Contains(a.Diagnosis, "merge-barrier stall") {
		t.Errorf("diagnosis misses the barrier: %q", a.Diagnosis)
	}
}

func TestAnalyzeSerialOnlyTrace(t *testing.T) {
	m := &Model{Tracks: []ModelTrack{
		{Name: MainTrack, TID: 0, Spans: []Span{
			{Name: SpanRun, Cat: CatRun, Start: 0, Dur: dur(5),
				Args: [2]KV{{K: "workers", V: 1}}},
		}},
	}}
	a := Analyze(m)
	if a.ShardedRuns != 0 || a.Runs != 1 {
		t.Errorf("counts: %d/%d", a.Runs, a.ShardedRuns)
	}
	if !strings.Contains(a.Diagnosis, "serial path") {
		t.Errorf("serial-only diagnosis: %q", a.Diagnosis)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(&Model{})
	if a.WallSeconds != 0 || a.Diagnosis == "" {
		t.Errorf("empty analysis: %+v", a)
	}
}

func TestCriticalPathNesting(t *testing.T) {
	// campaign [0,10] contains a [1,4] (which contains b [2,3]) and
	// c [5,7]: exclusive times campaign 5, a 2, b 1, c 2.
	m := &ModelTrack{Name: MainTrack, Spans: []Span{
		{Name: "campaign", Start: 0, Dur: dur(10)},
		{Name: "a", Start: dur(1), Dur: dur(3)},
		{Name: "b", Start: dur(2), Dur: dur(1)},
		{Name: "c", Start: dur(5), Dur: dur(2)},
		// A quiet span re-times work already covered; it takes no
		// exclusive time from the span it overlaps.
		{Name: "q", Cat: CatQuiet, Start: dur(5), Dur: dur(2)},
	}}
	got := map[string]float64{}
	for _, p := range criticalPath(m) {
		got[p.Name] = p.Seconds
	}
	approx(t, "campaign excl", got["campaign"], 0.005)
	approx(t, "a excl", got["a"], 0.002)
	approx(t, "b excl", got["b"], 0.001)
	approx(t, "c excl", got["c"], 0.002)
	if _, ok := got["q"]; ok {
		t.Error("quiet span on the critical path")
	}
}

func TestWriteReportMentionsTheNumbers(t *testing.T) {
	var buf bytes.Buffer
	Analyze(syntheticModel()).WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{
		"fsim worker 0", "fsim worker 1", "merge-stall",
		"serial fraction 0.333", "max speedup 3.00x", "dominant limiter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkAddSpan measures the traced hot path (lock-free append).
func BenchmarkAddSpan(b *testing.B) {
	r := New()
	r.SetMaxSpans(1 << 30)
	w := r.Track(WorkerTrackPrefix + "0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(CatBatch, SpanBatch, time.Duration(i), 1, KV{K: "batch", V: int64(i)})
	}
}

// BenchmarkNilPath measures the untraced hot path: one nil check, no
// allocation — the zero-overhead contract the fsim instrumentation
// relies on.
func BenchmarkNilPath(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r != nil {
			b.Fatal("unreachable")
		}
	}
}
