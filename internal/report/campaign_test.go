package report

import (
	"strings"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/core"
)

func TestWriteCampaignBody(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Config:          core.Config{LA: 10, LB: 5, N: 2, Seed: 17},
		TotalFaults:     35,
		InitialDetected: 22,
		InitialCycles:   45,
		Pairs:           []core.PairResult{{I: 1, D1: 2, Detected: 13, Cycles: 289}},
		Detected:        35,
		TotalCycles:     334,
		AvgLS:           0.47,
		Complete:        true,
		Iterations:      1,
	}
	var sb strings.Builder
	if err := WriteCampaign(&sb, c, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"circuit s27: 4 PIs, 1 POs, 3 state variables",
		"parameters LA=10 LB=5 N=2 seed=17",
		"faults: 35 collapsed, 0 untestable, 0 aborted",
		"TS0: 22 detected, 45 cycles",
		"with limited scan: 1 pairs, 35 detected, 334 cycles, ls=0.47",
		"coverage 100.00% (complete=true)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The body must be wall-clock free: rendering twice is identical.
	var sb2 strings.Builder
	if err := WriteCampaign(&sb2, c, res); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("WriteCampaign is not deterministic")
	}
}

// TestWriteCampaignZeroDetected: a campaign that detects nothing renders
// zeros, not garbage (division by the detectable count must not blow up
// the coverage line).
func TestWriteCampaignZeroDetected(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Config:      core.Config{LA: 1, LB: 1, N: 1, Seed: 1},
		TotalFaults: 35,
	}
	var sb strings.Builder
	if err := WriteCampaign(&sb, c, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"TS0: 0 detected, 0 cycles",
		"with limited scan: 0 pairs, 0 detected, 0 cycles, ls=0.00",
		"coverage 0.00% (complete=false)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteCampaignAllUntestable: when every fault is untestable the
// detectable denominator is zero and coverage reads 100%, matching
// Result.Coverage's convention.
func TestWriteCampaignAllUntestable(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{
		Config:      core.Config{LA: 1, LB: 1, N: 1, Seed: 1},
		TotalFaults: 5,
		Untestable:  5,
		Complete:    true,
	}
	var sb strings.Builder
	if err := WriteCampaign(&sb, c, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "coverage 100.00% (complete=true)") {
		t.Errorf("all-untestable coverage line wrong:\n%s", sb.String())
	}
}

// TestWriteCampaignModeInvariant renders a real campaign and requires
// the report the all-fault-parallel simulator produced, byte for byte:
// fsim now runs the campaign's TS0 session on the pattern-parallel
// kernel, and nothing the kernel choice touches may leak into the
// user-visible output.
func TestWriteCampaignModeInvariant(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{LA: 10, LB: 5, N: 2, Seed: 32, ReseedPerTest: true}
	res, err := core.NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCampaign(&sb, c, res); err != nil {
		t.Fatal(err)
	}
	const want = `circuit s298: 3 PIs, 6 POs, 14 state variables
parameters LA=10 LB=5 N=2 seed=32
faults: 521 collapsed, 11 untestable, 0 aborted
TS0: 442 detected, 100 cycles
with limited scan: 14 pairs, 507 detected, 2812 cycles, ls=0.41
coverage 99.41% (complete=false)
`
	if sb.String() != want {
		t.Errorf("campaign report differs from the fault-parallel one:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

// TestCyclesBoundaries pins the humanization exactly at the format
// switch points.
func TestCyclesBoundaries(t *testing.T) {
	cases := map[int64]string{
		9999:     "9999",
		10000:    "10.0K",
		99999:    "100.0K",
		100000:   "100K",
		999999:   "1000K",
		1000000:  "1.0M",
		9999999:  "10.0M",
		10000000: "10M",
	}
	for n, want := range cases {
		if got := Cycles(n); got != want {
			t.Errorf("Cycles(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestTableEmpty: a table with no rows renders its header and separator
// and nothing else, in both text and CSV forms.
func TestTableEmpty(t *testing.T) {
	tb := NewTable("Empty", "a", "bb")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 { // title, header, separator
		t.Errorf("empty table rendered %d lines, want 3:\n%s", len(lines), sb.String())
	}
	var csv strings.Builder
	if err := tb.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if csv.String() != "a,bb\n" {
		t.Errorf("empty CSV = %q", csv.String())
	}
}

// TestGridAllRowsBlank: a grid whose every (LA, LB) combination violates
// LA < LB renders no data rows at all.
func TestGridAllRowsBlank(t *testing.T) {
	g := NewGrid("g", []int{32, 64}, []int{16, 32}, []int{8})
	var sb strings.Builder
	if err := g.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 { // title, header, separator
		t.Errorf("grid rendered %d lines, want 3:\n%s", len(lines), sb.String())
	}
}
