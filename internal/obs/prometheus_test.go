package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition byte for byte:
// sorted family order, one TYPE line per family shared by its labeled
// series, label-value escaping, and the histogram bucket/sum/count
// layout. Any change to the exposition format must update this golden.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fsim_runs_total").Add(3)
	reg.Counter("campaign_runs_total").Inc()
	reg.Gauge("campaign_coverage").Set(0.875)
	// Two labeled series of one family plus a value needing every escape.
	reg.Gauge(Label("phase_seconds", "phase", "ts0_sim")).Set(1.5)
	reg.Gauge(Label("phase_seconds", "phase", `a"b\c`+"\n")).Set(2)
	// A bare name that sorts between `phase_seconds` and `phase_seconds{`
	// must not split the family from its TYPE line.
	reg.Gauge("phase_secondsx").Set(9)
	h := reg.Histogram("lane_util", 0.5, 1)
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE campaign_runs_total counter
campaign_runs_total 1
# TYPE fsim_runs_total counter
fsim_runs_total 3
# TYPE campaign_coverage gauge
campaign_coverage 0.875
# TYPE phase_seconds gauge
phase_seconds{phase="a\"b\\c\n"} 2
phase_seconds{phase="ts0_sim"} 1.5
# TYPE phase_secondsx gauge
phase_secondsx 9
# TYPE lane_util histogram
lane_util_bucket{le="0.5"} 1
lane_util_bucket{le="1"} 2
lane_util_bucket{le="+Inf"} 3
lane_util_sum 3
lane_util_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"plain", `m{k="plain"}`},
		{`back\slash`, `m{k="back\\slash"}`},
		{`quo"te`, `m{k="quo\"te"}`},
		{"new\nline", `m{k="new\nline"}`},
	} {
		if got := Label("m", "k", tc.in); got != tc.want {
			t.Errorf("Label(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// recordingListener collects the phase brackets the recorder reports.
type recordingListener struct{ calls []string }

func (l *recordingListener) PhaseStart(name string) { l.calls = append(l.calls, "start:"+name) }
func (l *recordingListener) PhaseEnd(name string)   { l.calls = append(l.calls, "end:"+name) }

// TestPhaseListener: the StartPhase/End brackets reach the recorder's
// listener slot; the quiet Accumulate path does not.
func TestPhaseListener(t *testing.T) {
	o := New(nil, nil)
	l := &recordingListener{}
	o.Trace().SetPhaseListener(l)
	o.StartPhase("alpha").End()
	o.Accumulate("quiet", 1)
	o.StartPhase("beta").End()
	want := "start:alpha end:alpha start:beta end:beta"
	if got := strings.Join(l.calls, " "); got != want {
		t.Fatalf("listener calls = %q, want %q", got, want)
	}
	var names []string
	for _, p := range o.PhaseSummary() {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, " "); got != "alpha quiet beta" {
		t.Errorf("phase summary = %q, want alpha quiet beta", got)
	}

	// A nil campaign and an emptied slot stay no-ops.
	var nilC *Campaign
	nilC.Trace().SetPhaseListener(l)
	nilC.StartPhase("x").End()
	o.Trace().SetPhaseListener(nil)
	o.StartPhase("gamma").End()
	if nilC.PhaseSummary() != nil || len(l.calls) != 4 {
		t.Errorf("nil campaign or emptied slot reached the listener: %v", l.calls)
	}
}

func TestCampaignStarted(t *testing.T) {
	var nilC *Campaign
	if nilC.Started() {
		t.Error("nil campaign claims started")
	}
	o := New(nil, nil)
	if o.Started() {
		t.Error("fresh campaign claims started")
	}
	span := o.StartPhase("ts0_gen")
	if !o.Started() {
		t.Error("Started not set when the first phase span opens")
	}
	span.End()
	if !o.Started() {
		t.Error("Started must latch")
	}
}
