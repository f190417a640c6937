package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLinesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLines(&buf)
	in := []Event{
		{Kind: KindCampaignStart, Time: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC), Circuit: "s420", Faults: 863},
		{Kind: KindPairSelected, Time: time.Date(2026, 8, 5, 12, 0, 1, 500, time.UTC), I: 3, D1: 7, Detected: 12, Cycles: 9342},
		{Kind: KindCoverage, Time: time.Date(2026, 8, 5, 12, 0, 2, 0, time.UTC), Coverage: 0.9921, Cycles: 40894, Detected: 840},
		{Kind: KindWarning, Time: time.Date(2026, 8, 5, 12, 0, 3, 0, time.UTC), Msg: "something odd"},
		{Kind: KindCampaignEnd, Time: time.Date(2026, 8, 5, 12, 0, 4, 0, time.UTC), Circuit: "s420", Detected: 844, Cycles: 40894, Coverage: 1},
	}
	for _, e := range in {
		sink.OnEvent(e)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("wrote %d lines, want %d", got, len(in))
	}
	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if !a.Time.Equal(b.Time) {
			t.Errorf("event %d: time %v != %v", i, a.Time, b.Time)
		}
		a.Time, b.Time = time.Time{}, time.Time{}
		if a != b {
			t.Errorf("event %d round trip:\n in: %+v\nout: %+v", i, a, b)
		}
	}
}

func TestReadEventsBadInput(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"kind\":\"x\"}\nnot json\n")); err == nil {
		t.Fatal("want error on malformed stream")
	}
}

func TestCampaignEmitStampsTime(t *testing.T) {
	col := &Collector{}
	o := New(nil, col)
	o.Emit(Event{Kind: KindWarning, Msg: "hi"})
	ev := col.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Time.IsZero() {
		t.Error("Emit must stamp a zero time")
	}
	pinned := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	o.Emit(Event{Kind: KindWarning, Time: pinned})
	if got := col.Events()[1].Time; !got.Equal(pinned) {
		t.Errorf("Emit must preserve a set time, got %v", got)
	}
}

func TestNilCampaignIsNoOp(t *testing.T) {
	var o *Campaign
	o.Emit(Event{Kind: KindWarning})
	o.Counter("x").Inc()
	o.Gauge("y").Set(1)
	o.Histogram("z").Observe(1)
	o.Accumulate("p", time.Second)
	span := o.StartPhase("q")
	if d := span.End(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
	if o.Metrics() != nil || o.PhaseSummary() != nil {
		t.Error("nil campaign must expose nothing")
	}
}

func TestPhaseAccounting(t *testing.T) {
	o := New(nil, nil)

	d := o.StartPhase("sim").End()
	o.Accumulate("sim", 750*time.Millisecond)
	o.Accumulate("gen", time.Millisecond)

	sum := o.PhaseSummary()
	if len(sum) != 2 || sum[0].Name != "sim" || sum[1].Name != "gen" {
		t.Fatalf("summary = %+v", sum)
	}
	want := d + 750*time.Millisecond
	if sum[0].Count != 2 || sum[0].Total != want {
		t.Errorf("sim phase = %+v, want 2 run(s) totalling %v", sum[0], want)
	}
	if got := o.Gauge(`phase_seconds{phase="sim"}`).Value(); math.Abs(got-want.Seconds()) > 1e-9 {
		t.Errorf("phase gauge = %g, want %g", got, want.Seconds())
	}
}

func TestPhaseSpanEvents(t *testing.T) {
	col := &Collector{}
	o := New(nil, col)
	o.StartPhase("classify").End()
	ev := col.Events()
	if len(ev) != 2 || ev[0].Kind != KindPhaseStart || ev[1].Kind != KindPhaseEnd {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Phase != "classify" || ev[1].Phase != "classify" {
		t.Error("phase name must ride on both events")
	}
}

func TestMulti(t *testing.T) {
	a, b := &Collector{}, &Collector{}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing must be nil")
	}
	if Multi(a) != Sink(a) {
		t.Error("Multi of one sink must be that sink")
	}
	m := Multi(a, nil, b)
	m.OnEvent(Event{Kind: KindWarning})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Error("Multi must fan out to every non-nil sink")
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.OnEvent(Event{Kind: KindCampaignStart, Circuit: "s420", Faults: 863})
	p.OnEvent(Event{Kind: KindPairTried, I: 1, D1: 4})      // suppressed
	p.OnEvent(Event{Kind: KindFsimBatch, N: 1, Faults: 63}) // suppressed by default
	p.OnEvent(Event{Kind: KindPairSelected, I: 1, D1: 4, Detected: 10, Cycles: 14898})
	p.OnEvent(Event{Kind: KindCampaignEnd, Circuit: "s420", Detected: 844, Cycles: 40894, Coverage: 1})
	out := buf.String()
	for _, want := range []string{"s420", "863", "(I=1, D1=4)", "+10 faults", "coverage 100.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "batch") {
		t.Error("batch events must be suppressed unless ShowBatches")
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("got %d lines, want 3:\n%s", lines, out)
	}

	buf.Reset()
	p.ShowBatches = true
	p.OnEvent(Event{Kind: KindFsimBatch, N: 2, Faults: 63, Detected: 40})
	if !strings.Contains(buf.String(), "batch 2") {
		t.Errorf("ShowBatches must print batch lines, got %q", buf.String())
	}
}

// TestCampaignConcurrentUse exercises the handle the way a parallel
// campaign would: many goroutines emitting, accumulating and counting at
// once (meaningful under -race).
func TestCampaignConcurrentUse(t *testing.T) {
	var buf bytes.Buffer
	o := New(nil, Multi(NewJSONLines(&buf), &Collector{}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Counter("n").Inc()
				o.Accumulate("work", time.Microsecond)
				o.Emit(Event{Kind: KindIteration, I: i})
			}
		}()
	}
	wg.Wait()
	if got := o.Counter("n").Value(); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
	ev, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1600 {
		t.Errorf("events = %d, want 1600 (lines must not interleave)", len(ev))
	}
}
