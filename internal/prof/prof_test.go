package prof

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"limscan/internal/obs"
)

// spin burns a little CPU so the profiler has samples to collect.
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// checkPprof asserts the file exists, is non-empty, and starts with the
// gzip magic — pprof's wire format is gzipped protobuf, so this catches
// a truncated or plain-text write without needing the pprof reader.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile missing: %v", err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("%s: not a gzipped pprof profile (len %d)", path, len(data))
	}
}

func TestProfilerPerPhaseFiles(t *testing.T) {
	dir := t.TempDir()
	p, err := New(filepath.Join(dir, "run"))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(nil, nil)
	o.Trace().SetPhaseListener(p)

	span := o.StartPhase("ts0_sim")
	spin(20 * time.Millisecond)
	span.End()
	span = o.StartPhase("search")
	spin(20 * time.Millisecond)
	span.End()
	// A repeated phase numbers its later captures instead of overwriting.
	o.StartPhase("ts0_sim").End()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	for _, f := range []string{
		"ts0_sim.cpu.pprof", "ts0_sim.heap.pprof", "ts0_sim.allocs.pprof",
		"search.cpu.pprof", "search.heap.pprof", "search.allocs.pprof",
		"ts0_sim.2.cpu.pprof", "ts0_sim.2.heap.pprof", "ts0_sim.2.allocs.pprof",
	} {
		checkPprof(t, filepath.Join(dir, "run", f))
	}
}

func TestProfilerCloseStopsOpenPhase(t *testing.T) {
	p, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.PhaseStart("interrupted")
	// No PhaseEnd — an interrupted run unwinds through Close, which must
	// release the process-wide CPU profile so later runs can start one.
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p2, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p2.PhaseStart("next")
	p2.PhaseEnd("next")
	if err := p2.Close(); err != nil {
		t.Fatalf("second profiler: %v", err)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.PhaseStart("x")
	p.PhaseEnd("x")
	if p.Dir() != "" {
		t.Error("nil Dir not empty")
	}
	if err := p.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestProfilerEndWithoutStart(t *testing.T) {
	p, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.PhaseEnd("never_started")
	if err := p.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	ents, err := os.ReadDir(p.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("unmatched end wrote files: %v", ents)
	}
}

func TestSanitize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"fault_sim", "fault_sim"},
		{"a/b c", "a_b_c"},
		{"", "phase"},
		{"UPPER-1.2", "UPPER-1.2"},
	} {
		if got := sanitize(tc.in); got != tc.want {
			t.Errorf("sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSamplerGaugesAndPeak(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	s := StartSampler(o, time.Millisecond)
	// Allocate enough to move the heap gauges, then give the sampler a
	// few ticks to see it.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<16))
	}
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	_ = sink

	for _, g := range []string{
		GaugeHeapBytes, GaugeHeapBytesPeak, GaugeGoroutines,
		GaugeAllocBytesTotal,
	} {
		if v := reg.Gauge(g).Value(); v <= 0 {
			t.Errorf("%s = %g, want > 0", g, v)
		}
	}
	if peak, cur := reg.Gauge(GaugeHeapBytesPeak).Value(), reg.Gauge(GaugeHeapBytes).Value(); peak < cur {
		t.Errorf("peak %g below current %g", peak, cur)
	}
	st := s.Stats()
	if st.PeakHeapBytes == 0 || st.AllocBytesTotal == 0 {
		t.Errorf("final stats empty: %+v", st)
	}
	// Stop is idempotent.
	s.Stop()
}

func TestSamplerNilObserver(t *testing.T) {
	s := StartSampler(nil, time.Millisecond)
	if s != nil {
		t.Fatal("nil observer must yield a nil sampler")
	}
	s.Stop()
	if st := s.Stats(); st != (RuntimeStats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

// TestNilSamplerAllocFree pins the zero-overhead contract of the
// unobserved path: starting, stopping and reading a nil sampler
// allocates nothing.
func TestNilSamplerAllocFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		s := StartSampler(nil, 0)
		s.Stop()
		_ = s.Stats()
	})
	if allocs != 0 {
		t.Errorf("nil sampler path allocates %g per run, want 0", allocs)
	}
}

// BenchmarkSamplerSample measures one live sample — the recurring cost a
// running campaign pays per cadence tick.
func BenchmarkSamplerSample(b *testing.B) {
	o := obs.New(nil, nil)
	s := StartSampler(o, time.Hour) // tick far away; we drive samples by hand
	defer s.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sample()
	}
}

// BenchmarkSamplerNil measures the unobserved path.
func BenchmarkSamplerNil(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := StartSampler(nil, 0)
		s.sample()
		s.Stop()
	}
}
