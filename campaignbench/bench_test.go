package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule the acceptance spread is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7}, 1.625, 3.5, 8},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 20, 30}, 10, 20, 30},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// A percentile is reported only with ten or more samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("percentile(50) = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("percentile(90) = %v, want 5", got)
	}
}

// s298Campaign runs one small full-scan campaign, behind the timing
// SessionRunner when traced is set.
func s298Campaign(t *testing.T, traced bool) (*core.Result, *tracedPass) {
	t.Helper()
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(c)
	var tp *tracedPass
	var tr *timingRunner
	if traced {
		tp = newTracedPass(trace.New())
		if tr, err = newTimingRunner(r, scan.FullScan(c.NumSV()), tp, 0); err != nil {
			t.Fatal(err)
		}
		r.SetSessionRunner(tr)
	}
	res, err := r.RunProcedure2(core.Config{LA: 8, LB: 16, N: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.finish()
	}
	return res, tp
}

func TestTimingRunnerReportIsByteIdentical(t *testing.T) {
	c, _ := bmark.Load("s298")
	plain, _ := s298Campaign(t, false)
	timed, tp := s298Campaign(t, true)
	if a, b := campaignReport(c, plain), campaignReport(c, timed); !bytes.Equal(a, b) {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	st := tp.stats
	if st.combos != 1 || st.sessions != 1+st.pairsTried || st.pairsSelected != len(timed.Pairs) {
		t.Errorf("stats %+v disagree with the result (%d pairs)", st, len(timed.Pairs))
	}
	if st.untestable != timed.Untestable || len(tp.untestableFaults()) != timed.Untestable {
		t.Errorf("saw %d untestable verdicts, result has %d", st.untestable, timed.Untestable)
	}
	if st.classy <= 0 || st.faultVectors <= 0 {
		t.Errorf("classification %v, fault-vectors %d: want both positive", st.classy, st.faultVectors)
	}
}

func TestCheckResultRejectsTamperedResult(t *testing.T) {
	c, _ := bmark.Load("s298")
	plan := scan.FullScan(c.NumSV())
	res, _ := s298Campaign(t, false)
	if err := checkResult(c, plan, res); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("campaign selected no pair; the tampering cases need one")
	}
	for name, tamper := range map[string]func(r *core.Result){
		"detected fault flipped to undetected": func(r *core.Result) { r.Detected-- },
		"pair detection flipped":               func(r *core.Result) { r.Pairs[0].Detected-- },
		"TS0 detection flipped":                func(r *core.Result) { r.InitialDetected-- },
		"cycles":                               func(r *core.Result) { r.TotalCycles++ },
		"pair dropped":                         func(r *core.Result) { r.Pairs = r.Pairs[1:] },
	} {
		bad := *res
		bad.Pairs = append([]core.PairResult(nil), res.Pairs...)
		tamper(&bad)
		if err := checkResult(c, plan, &bad); err == nil {
			t.Errorf("%s: tampered result accepted", name)
		}
	}
}

func TestCheckUntestable(t *testing.T) {
	c, _ := bmark.Load("s298")
	_, tp := s298Campaign(t, true)
	bad, err := checkUntestable(c, tp.untestableFaults(), 1<<12, 99)
	if err != nil || len(bad) != 0 {
		t.Fatalf("genuine untestable verdicts: bad %v, err %v", bad, err)
	}
	// A fault TS0 detects is testable; declared untestable, it must be
	// caught.
	reps, _ := fault.Collapse(c, fault.Universe(c))
	bad, err = checkUntestable(c, append(tp.untestableFaults(), reps[0]), 1<<12, 99)
	if err != nil || len(bad) != 1 || bad[0] != reps[0] {
		t.Fatalf("false untestable verdict not caught: bad %v, err %v", bad, err)
	}
}

// Each client's cache-hit resubmission follows the miss it repeats.
func TestJobList(t *testing.T) {
	sw := serviceWorkload{circuit: "s510", clients: 2}
	lists := sw.jobList(3, 8)
	misses, hits := 0, 0
	for _, l := range lists {
		seen := make(map[uint64]bool)
		for _, j := range l {
			if j.hit {
				hits++
				if !seen[j.spec.Seed] {
					t.Errorf("hit on seed %d before its miss", j.spec.Seed)
				}
				continue
			}
			misses++
			if seen[j.spec.Seed] {
				t.Errorf("seed %d missed twice", j.spec.Seed)
			}
			seen[j.spec.Seed] = true
		}
	}
	if misses != 8 || hits != 4 {
		t.Errorf("%d misses and %d hits, want 8 and 4", misses, hits)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this
// program runs and reports.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, program runs %v", declared, ours)
	}
	for _, set := range []struct {
		decl  []struct{ Name, Unit string }
		names []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.decl) != len(set.names) {
			t.Errorf("%d metrics declared, program reports %d", len(set.decl), len(set.names))
			continue
		}
		for i, m := range set.decl {
			if m.Name != set.names[i] || m.Unit != units[m.Name] {
				t.Errorf("declared %s [%s], program reports %s [%s]", m.Name, m.Unit, set.names[i], units[set.names[i]])
			}
		}
	}
}
