package cliobs

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/core"
	"limscan/internal/errs"
	"limscan/internal/ledger"
	"limscan/internal/obs"
	"limscan/internal/prof"
	"limscan/internal/trace"
)

func TestShutdownOrderAndIdempotence(t *testing.T) {
	dir := t.TempDir()
	f := Flags{
		Metrics:    filepath.Join(dir, "metrics.json"),
		Events:     filepath.Join(dir, "events.jsonl"),
		DebugAddr:  "127.0.0.1:0",
		Trace:      filepath.Join(dir, "trace.json"),
		ProfileDir: filepath.Join(dir, "prof"),
		sample:     true,
	}
	s, err := f.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := s.Debug
	s.Obs.StartPhase("interrupted") // left open, like a SIGINT mid-phase
	if errs := s.Shutdown(); len(errs) != 0 {
		t.Fatalf("Shutdown: %v", errs)
	}
	// Second call is a no-op, not a double close.
	if errs := s.Shutdown(); len(errs) != 0 {
		t.Fatalf("second Shutdown: %v", errs)
	}

	// The metrics dump happened after the sampler's final sample.
	data, err := os.ReadFile(f.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), prof.GaugeHeapBytes) {
		t.Errorf("metrics dump missing sampler gauges:\n%s", data)
	}
	// The debug server is down.
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("debug server survived Shutdown")
	}
	// The trace file landed, even though the phase was left open (the
	// open span is simply absent — only closed brackets become spans).
	tdata, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatalf("trace dump missing: %v", err)
	}
	if _, err := trace.Parse(tdata); err != nil {
		t.Errorf("trace dump not valid trace-event JSON: %v", err)
	}
	if _, err := os.Stat(f.Events); err != nil {
		t.Errorf("events file: %v", err)
	}
	// The interrupted phase's CPU profile was released: a fresh profiler
	// can start one.
	p2, err := prof.New(filepath.Join(dir, "prof2"))
	if err != nil {
		t.Fatal(err)
	}
	p2.PhaseStart("next")
	p2.PhaseEnd("next")
	if err := p2.Close(); err != nil {
		t.Errorf("CPU profile not released by Shutdown: %v", err)
	}
}

func TestEmptyStack(t *testing.T) {
	var s Stack
	if errs := s.Shutdown(); len(errs) != 0 {
		t.Errorf("empty stack Shutdown: %v", errs)
	}
}

func TestWriteMetricsStdout(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total").Inc()

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	werr := WriteMetrics("-", reg)
	w.Close()
	os.Stdout = old
	if werr != nil {
		t.Fatal(werr)
	}
	buf := make([]byte, 4096)
	n, _ := r.Read(buf)
	if !strings.Contains(string(buf[:n]), "x_total") {
		t.Errorf("stdout dump missing metric: %s", buf[:n])
	}
}

func TestOpenUnobserved(t *testing.T) {
	var f Flags
	f.Register(flag.NewFlagSet("x", flag.ContinueOnError), Usage{Metrics: "m", SampleEvery: "s"})
	s, err := f.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Obs != nil || s.Sampler != nil {
		t.Errorf("a run with no observability flags got a stack: %+v", s)
	}
	if errs := s.Shutdown(); len(errs) != 0 {
		t.Errorf("Shutdown: %v", errs)
	}
}

func TestOpenBadDebugAddrIsUsageError(t *testing.T) {
	f := Flags{DebugAddr: "not-an-address", Events: filepath.Join(t.TempDir(), "ev.jsonl")}
	if _, err := f.Open(nil); errs.ExitCode(err) != errs.ExitUsage || !strings.Contains(err.Error(), "-debug-addr") {
		t.Errorf("Open = %v, want a -debug-addr usage error", err)
	}
}

// TestOneSpanSource runs one observed s298 campaign the way limscan
// does and requires its three phase reports — the observer's summary,
// the ledger record and the exported trace — to agree on names and
// counts, and /readyz to flip at the first phase and never before.
func TestOneSpanSource(t *testing.T) {
	dir := t.TempDir()
	f := Flags{DebugAddr: "127.0.0.1:0", Trace: filepath.Join(dir, "trace.json")}
	var readyAt []string
	var s *Stack
	readyz := func() string {
		resp, err := http.Get("http://" + s.Debug.Addr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Status
	}
	probe := sinkFunc(func(e obs.Event) {
		if e.Kind == obs.KindCampaignStart || (e.Kind == obs.KindPhaseStart && len(readyAt) == 1) {
			readyAt = append(readyAt, string(e.Kind)+" "+readyz())
		}
	})
	s, err := f.Open(probe)
	if err != nil {
		t.Fatal(err)
	}
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	r := core.NewRunner(c)
	r.SetObserver(s.Obs)
	if _, err := r.RunProcedure2(core.Config{LA: 10, LB: 5, N: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	want := "campaign_start 503 Service Unavailable|phase_start 200 OK"
	if got := strings.Join(readyAt, "|"); got != want {
		t.Errorf("/readyz = %q, want %q", got, want)
	}
	summary := rows(s.Obs.PhaseSummary(), func(p obs.PhaseSpan) (string, int) { return p.Name, p.Count })
	var rec ledger.Record
	rec.FromObs(s.Obs)
	recorded := rows(rec.Phases, func(p ledger.PhaseSeconds) (string, int) { return p.Name, p.Count })
	if errs := s.Shutdown(); len(errs) != 0 {
		t.Fatal(errs)
	}
	data, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the rows from the export: every phase bracket, quiet
	// accumulation and fault-simulation run on the campaign track.
	var spans []trace.Total
	at := map[string]int{}
	var phases []string
	for _, sp := range m.Track(trace.MainTrack).Spans {
		switch sp.Cat {
		case trace.CatPhase:
			phases = append(phases, sp.Name)
		case trace.CatQuiet, trace.CatRun:
		default:
			continue
		}
		i, ok := at[sp.Name]
		if !ok {
			i = len(spans)
			at[sp.Name] = i
			spans = append(spans, trace.Total{Name: sp.Name})
		}
		spans[i].Count++
	}
	exported := rows(spans, func(p trace.Total) (string, int) { return p.Name, p.Count })

	if got, want := strings.Join(phases, " "), "ts0_gen ts0_sim classify search"; got != want {
		t.Errorf("exported phase spans %q, want %q", got, want)
	}
	for _, name := range []string{"procedure1", "fault_sim", trace.SpanRun} {
		if !strings.Contains(summary, name+"×") {
			t.Errorf("phase summary %q lacks %s", summary, name)
		}
	}
	if recorded != summary {
		t.Errorf("ledger phases %q != phase summary %q", recorded, summary)
	}
	if exported != summary {
		t.Errorf("exported spans %q != phase summary %q", exported, summary)
	}
}

// rows renders name×count pairs in order.
func rows[T any](xs []T, f func(T) (string, int)) string {
	var out []string
	for _, x := range xs {
		name, n := f(x)
		out = append(out, fmt.Sprintf("%s×%d", name, n))
	}
	return strings.Join(out, " ")
}

type sinkFunc func(obs.Event)

func (f sinkFunc) OnEvent(e obs.Event) { f(e) }
