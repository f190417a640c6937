package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"limscan/internal/ledger"
	"limscan/internal/trace"
)

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perf-test-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "perf")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building perf: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return so.String(), se.String(), code
}

// writeLedger builds a two-record history: a 1.0s run and a 1.5s run.
func writeLedger(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	for i, wall := range []float64{1.0, 1.5} {
		r := &ledger.Record{
			Kind: ledger.KindCampaign, Circuit: "s298", ParamsHash: "cafe",
			Coverage: 0.95, TotalCycles: 1000, WallSeconds: wall,
			Phases: []ledger.PhaseSeconds{{Name: "search", Count: 1, Seconds: wall * 0.8}},
		}
		r.Stamp()
		if err := ledger.Append(path, r, nil); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return path
}

func writeBaseline(t *testing.T, wallLimitValue float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	content := fmt.Sprintf(`{
  "schema": 1, "kind": "campaign", "circuit": "s298",
  "metrics": {
    "wall_seconds": {"value": %g, "rel_tol": 0.2},
    "coverage": {"value": 0.95, "abs_tol": 0.01, "higher_is_better": true}
  }
}`, wallLimitValue)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestList(t *testing.T) {
	led := writeLedger(t)
	so, se, code := run(t, "list", "-ledger", led)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	if !strings.Contains(so, "campaign") || !strings.Contains(so, "s298") {
		t.Errorf("list output:\n%s", so)
	}
	if lines := strings.Count(so, "\n"); lines != 3 { // header + 2 rows
		t.Errorf("want 3 lines, got %d:\n%s", lines, so)
	}
}

func TestDiffDefaultLastTwo(t *testing.T) {
	led := writeLedger(t)
	so, se, code := run(t, "diff", "-ledger", led)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	if !strings.Contains(so, "wall_seconds") || !strings.Contains(so, "1.500x") {
		t.Errorf("diff output missing wall_seconds ratio:\n%s", so)
	}
	if !strings.Contains(so, "phase_seconds/search") {
		t.Errorf("diff output missing phase row:\n%s", so)
	}
}

func TestDiffByIndex(t *testing.T) {
	led := writeLedger(t)
	if _, se, code := run(t, "diff", "-ledger", led, "1", "0"); code != 0 {
		t.Fatalf("diff 1 0: exit %d, stderr: %s", code, se)
	}
	if _, _, code := run(t, "diff", "-ledger", led, "0", "9"); code != 2 {
		t.Errorf("out-of-range index: exit %d, want 2", code)
	}
	if _, _, code := run(t, "diff", "-ledger", led, "-1", "0"); code != 2 {
		t.Errorf("negative index: exit %d, want 2", code)
	}
}

func TestCheckPassAndFail(t *testing.T) {
	led := writeLedger(t) // latest record: wall 1.5

	pass := writeBaseline(t, 1.5) // limit 1.8
	so, se, code := run(t, "check", "-ledger", led, "-baseline", pass)
	if code != 0 {
		t.Fatalf("pass case: exit %d, stderr: %s\n%s", code, se, so)
	}
	if !strings.Contains(so, "PASS") {
		t.Errorf("pass output:\n%s", so)
	}

	regress := writeBaseline(t, 1.0) // limit 1.2 < 1.5
	so, _, code = run(t, "check", "-ledger", led, "-baseline", regress)
	if code != 1 {
		t.Fatalf("regression must exit 1, got %d:\n%s", code, so)
	}
	if !strings.Contains(so, "REGRESSION") || !strings.Contains(so, "wall_seconds") {
		t.Errorf("regression output:\n%s", so)
	}
}

func TestCheckUsageErrors(t *testing.T) {
	led := writeLedger(t)
	if _, _, code := run(t, "check", "-ledger", led); code != 2 {
		t.Errorf("missing -baseline: exit %d, want 2", code)
	}
	base := writeBaseline(t, 1.5)
	if _, _, code := run(t, "check", "-ledger", led, "-baseline", base, "-circuit", "s9999"); code != 2 {
		t.Errorf("no matching record: exit %d, want 2", code)
	}
	if _, _, code := run(t, "bogus"); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
}

// writeTraceFile records a small synthetic trace — one sharded run, two
// workers, a merge — and writes it as trace-event JSON.
func writeTraceFile(t *testing.T) string {
	t.Helper()
	tr := trace.New()
	main := tr.Track(trace.MainTrack)
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	main.Add(trace.CatPhase, "search", 0, ms(10))
	main.Add(trace.CatRun, trace.SpanRun, ms(2), ms(6),
		trace.KV{K: "workers", V: 2}, trace.KV{K: "batches", V: 4})
	main.Add(trace.CatMerge, trace.SpanMerge, ms(7.5), ms(0.5), trace.KV{K: "batches", V: 4})
	w0 := tr.Track(trace.WorkerTrackPrefix + "0")
	w0.Add(trace.CatBatch, trace.SpanBatch, ms(2), ms(3), trace.KV{K: "batch", V: 0})
	w0.Add(trace.CatWait, trace.SpanWaitMerge, ms(5), ms(2.5))
	w1 := tr.Track(trace.WorkerTrackPrefix + "1")
	w1.Add(trace.CatBatch, trace.SpanBatch, ms(2), ms(5), trace.KV{K: "batch", V: 1})

	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceReport(t *testing.T) {
	path := writeTraceFile(t)
	so, se, code := run(t, "trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	for _, want := range []string{
		"fsim worker 0", "fsim worker 1", "merge-stall",
		"serial fraction", "Amdahl", "dominant limiter",
	} {
		if !strings.Contains(so, want) {
			t.Errorf("trace report missing %q:\n%s", want, so)
		}
	}
}

func TestTraceJSON(t *testing.T) {
	path := writeTraceFile(t)
	so, se, code := run(t, "trace", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	var a trace.Analysis
	if err := json.Unmarshal([]byte(so), &a); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, so)
	}
	if a.Workers != 2 || a.ShardedRuns != 1 || a.SerialFraction <= 0 {
		t.Errorf("analysis fields: %+v", a)
	}
}

func TestTraceUsageErrors(t *testing.T) {
	if _, _, code := run(t, "trace"); code != 2 {
		t.Errorf("no file: exit %d, want 2", code)
	}
	if _, _, code := run(t, "trace", "does-not-exist.json"); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := run(t, "trace", bad); code != 2 {
		t.Errorf("invalid file: exit %d, want 2", code)
	}
}

// TestDiffToleratesOldRecords pins the forward-compatibility contract:
// a history whose older records predate later fields (worker busy
// seconds, per-phase seconds) must diff cleanly against a new record
// that has them — the new metrics appear as one-sided rows, never as an
// error.
func TestDiffToleratesOldRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	// An old-format line, written literally so no new field can sneak in
	// through the struct.
	old := `{"schema":1,"time":"2026-01-01T00:00:00Z","kind":"faultsim","circuit":"s298",` +
		`"params_hash":"cafe","gomaxprocs":1,"num_cpu":1,"wall_seconds":2.0,"coverage":0.9,"total_cycles":500}`
	if err := os.WriteFile(path, []byte(old+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &ledger.Record{
		Kind: ledger.KindFaultSim, Circuit: "s298", ParamsHash: "cafe",
		Coverage: 0.9, TotalCycles: 500, WallSeconds: 1.8,
		WorkerBusySeconds: 1.5,
		Phases:            []ledger.PhaseSeconds{{Name: "search", Count: 1, Seconds: 1.2}},
	}
	rec.Stamp()
	if err := ledger.Append(path, rec, nil); err != nil {
		t.Fatal(err)
	}
	so, se, code := run(t, "diff", "-ledger", path)
	if code != 0 {
		t.Fatalf("diff across schema generations: exit %d, stderr: %s", code, se)
	}
	// The new metrics show as present-on-one-side rows.
	if !strings.Contains(so, "worker_busy_seconds") || !strings.Contains(so, "phase_seconds/search") {
		t.Errorf("diff hides the new metrics:\n%s", so)
	}
}

// TestCheckToleratesOldRecords: a baseline that names only the classic
// metrics must pass a record missing every trace-era field — the gate is
// opt-in per metric, so growing the ledger never retroactively fails CI.
func TestCheckToleratesOldRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	old := `{"schema":1,"time":"2026-01-01T00:00:00Z","kind":"campaign","circuit":"s298",` +
		`"params_hash":"cafe","gomaxprocs":1,"num_cpu":1,"wall_seconds":1.0,"coverage":0.95,"total_cycles":1000}`
	if err := os.WriteFile(path, []byte(old+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeBaseline(t, 1.0)
	so, se, code := run(t, "check", "-ledger", path, "-baseline", base)
	if code != 0 {
		t.Fatalf("check of a pre-trace record: exit %d, stderr: %s\n%s", code, se, so)
	}
	if !strings.Contains(so, "PASS") {
		t.Errorf("check output:\n%s", so)
	}
}

// TestCheckCommittedBaseline loads the repository's committed baseline
// and checks that every metric it gates is one a campaign record can
// carry: a name no producer writes would fail every check, because the
// gate treats a named-but-absent metric as a violation.
func TestCheckCommittedBaseline(t *testing.T) {
	basePath := filepath.Join("..", "..", "scripts", "perf_baseline.json")
	if _, err := os.Stat(basePath); err != nil {
		t.Skipf("committed baseline not found: %v", err)
	}
	b, err := ledger.LoadBaseline(basePath)
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	full := ledger.Record{
		WallSeconds: 1, Coverage: 1, Detected: 1, TotalCycles: 1,
		WorkerBusySeconds: 1, WorkerWaitSeconds: 1,
		PeakHeapBytes: 1, AllocBytesTotal: 1, GCPauseSecondsTotal: 1, NumGC: 1,
	}
	known := full.Metrics()
	for name := range b.Metrics {
		if _, ok := known[name]; !ok && !strings.HasPrefix(name, "phase_seconds/") {
			t.Errorf("committed baseline gates %q, which no ledger record carries", name)
		}
	}
}

// writeFleetTraceFile stitches a small synthetic fleet — a coordinator
// with two dispatch lanes plus a fast and a slow worker — exactly the
// way the coordinator does, and writes the multi-process export.
func writeFleetTraceFile(t *testing.T) string {
	t.Helper()
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	f := trace.NewFleet()
	f.Coord().Track(trace.MainTrack).Add(trace.CatPhase, "campaign", 0, ms(10))
	f.Coord().Track(trace.MainTrack).Add(trace.CatMerge, trace.SpanMerge, ms(9), ms(0.5))
	for i, w := range []string{"fast", "slow"} {
		lane := f.Coord().Track(trace.DispatchTrackPrefix + w)
		for u := 0; u < 4; u++ {
			lane.Add(trace.CatDispatch, trace.SpanUnit, ms(float64(u)), ms(1),
				trace.KV{K: "epoch", V: int64(u + 1)})
		}
		wr := trace.New()
		busy := ms(2)
		if i == 1 {
			busy = ms(9)
		}
		wr.Track(trace.WorkerExecTrack).Add(trace.CatDispatch, "job/s1.i0.d0.0", 0, busy,
			trace.KV{K: "epoch", V: 1})
		f.AddSegment(w, "job", wr.DrainSegment())
	}
	path := filepath.Join(t.TempDir(), "fleet_trace.json")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Model().WriteJSON(file); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFleetReport(t *testing.T) {
	path := writeFleetTraceFile(t)
	so, se, code := run(t, "fleet", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	for _, want := range []string{
		"fleet trace:", "fast", "slow", "dominant limiter: straggler worker slow",
	} {
		if !strings.Contains(so, want) {
			t.Errorf("fleet report missing %q:\n%s", want, so)
		}
	}
}

func TestFleetJSON(t *testing.T) {
	path := writeFleetTraceFile(t)
	so, se, code := run(t, "fleet", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	var a trace.FleetAnalysis
	if err := json.Unmarshal([]byte(so), &a); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, so)
	}
	if len(a.Workers) != 2 || a.Units != 8 || a.Diagnosis == "" {
		t.Errorf("analysis fields: %+v", a)
	}
}

// TestFleetLedgerContext: -ledger prints the latest dispatch-bearing
// record as a one-line context header.
func TestFleetLedgerContext(t *testing.T) {
	tracePath := writeFleetTraceFile(t)
	led := filepath.Join(t.TempDir(), "ledger.jsonl")
	rec := &ledger.Record{
		Kind: ledger.KindService, Circuit: "s298", WallSeconds: 1,
		Dispatch: &ledger.DispatchStats{Units: 8, UnitsDone: 8, Leases: 9, Expired: 1, WorkersJoined: 2},
	}
	rec.Stamp()
	if err := ledger.Append(led, rec, nil); err != nil {
		t.Fatal(err)
	}
	so, se, code := run(t, "fleet", "-ledger", led, tracePath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	if !strings.Contains(so, "ledger:") || !strings.Contains(so, "8 units") {
		t.Errorf("ledger context line missing:\n%s", so)
	}
}

func TestFleetUsageErrors(t *testing.T) {
	if _, _, code := run(t, "fleet"); code != 2 {
		t.Errorf("no file: exit %d, want 2", code)
	}
	if _, _, code := run(t, "fleet", "does-not-exist.json"); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := run(t, "fleet", bad); code != 2 {
		t.Errorf("invalid file: exit %d, want 2", code)
	}
}

// TestFleetOnSingleProcessTrace: an ordinary single-process trace is a
// degenerate but legal fleet input — the verdict says "no worker
// process groups" instead of inventing numbers.
func TestFleetOnSingleProcessTrace(t *testing.T) {
	path := writeTraceFile(t)
	so, se, code := run(t, "fleet", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, se)
	}
	if !strings.Contains(so, "no worker process groups") {
		t.Errorf("single-process fleet verdict:\n%s", so)
	}
}

// TestTraceDegenerateInputs: structurally valid but informationally
// empty traces must produce a diagnosis (or a typed usage error for
// non-traces) — never a panic, NaN, or division by zero.
func TestTraceDegenerateInputs(t *testing.T) {
	writeFile := func(name, content string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content string
	}{
		{"empty-events", `{"traceEvents":[]}`},
		{"single-span", `{"traceEvents":[
			{"ph":"X","pid":1,"tid":0,"cat":"phase","name":"search","ts":0,"dur":100}
		]}`},
		{"worker-tracks-only", `{"traceEvents":[
			{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"fsim worker 0"}},
			{"ph":"X","pid":1,"tid":1,"cat":"batch","name":"batch","ts":0,"dur":50}
		]}`},
	}
	for _, sub := range []string{"trace", "fleet"} {
		for _, tc := range cases {
			t.Run(sub+"/"+tc.name, func(t *testing.T) {
				p := writeFile(tc.name+".json", tc.content)
				so, se, code := run(t, sub, p)
				if code != 0 {
					t.Fatalf("exit %d, stderr: %s", code, se)
				}
				if !strings.Contains(so, "diagnosis") && !strings.Contains(so, "limiter") &&
					!strings.Contains(so, "nothing to diagnose") && !strings.Contains(so, "no worker") &&
					!strings.Contains(so, "serial path") && !strings.Contains(so, "balanced") {
					t.Errorf("no verdict in output:\n%s", so)
				}
				for _, bad := range []string{"NaN", "Inf", "panic"} {
					if strings.Contains(so, bad) || strings.Contains(se, bad) {
						t.Errorf("%s leaked into output:\nstdout:\n%s\nstderr:\n%s", bad, so, se)
					}
				}
			})
		}
	}
}
