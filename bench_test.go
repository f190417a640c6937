package limscan_test

// The benchmark harness: one testing.B benchmark per paper table (on the
// Quick workloads so a full -bench=. run stays tractable), plus the
// ablation benchmarks called out in DESIGN.md (fault packing width, fault
// dropping, LFSR stepping style, collapsing, evaluation).
//
// Regenerate the full tables with: go run ./cmd/tables

import (
	"io"
	"testing"

	"limscan"

	"limscan/internal/bmark"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/lfsr"
	"limscan/internal/misr"
	"limscan/internal/obs"
	"limscan/internal/sim"
	"limscan/internal/stafan"
	"limscan/internal/tables"
)

var quickOpts = tables.Options{Seed: 1, MaxCombos: 8, Quick: true}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table1(quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table2(quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table3(quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table4(quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table5(quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table6(nil, quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table7([]string{"s208", "s298"}, quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table8(nil, quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable9Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := tables.Table9([]string{"s208", "s298"}, quickOpts); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Ablations ---------------------------------------------------------

func sessionFor(b *testing.B, name string, n, length int) (*limscan.Circuit, []limscan.Test) {
	b.Helper()
	c, err := bmark.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{LA: length, LB: length, N: n / 2, Seed: 1}
	return c, core.GenerateTS0(c, cfg)
}

// BenchmarkFsimPacking compares fault-packing widths: 63 faults per word
// versus serial (1 fault per word) simulation of the same session.
func BenchmarkFsimPacking63(b *testing.B) { benchPacking(b, 63) }

// BenchmarkFsimPacking1 is the serial lower bound of the packing ablation.
func BenchmarkFsimPacking1(b *testing.B) { benchPacking(b, 1) }

// BenchmarkFsimPacking8 is the intermediate point of the packing ablation.
func BenchmarkFsimPacking8(b *testing.B) { benchPacking(b, 8) }

func benchPacking(b *testing.B, per int) {
	c, tests := sessionFor(b, "s298", 16, 8)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(reps)
		if _, err := s.Run(tests, fs, fsim.Options{FaultsPerPass: per}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFsimWorkers sweeps the sharded simulator's worker count over
// one mid-size session — the serial-vs-parallel regression pair (the
// kernel pair `make benchgate` gates lives in internal/fsim).
func BenchmarkFsimWorkers1(b *testing.B) { benchWorkers(b, 1) }

// BenchmarkFsimWorkers2 is the two-worker point of the scaling sweep.
func BenchmarkFsimWorkers2(b *testing.B) { benchWorkers(b, 2) }

// BenchmarkFsimWorkers4 is the four-worker point of the scaling sweep.
func BenchmarkFsimWorkers4(b *testing.B) { benchWorkers(b, 4) }

// BenchmarkFsimWorkers8 is the eight-worker point of the scaling sweep.
func BenchmarkFsimWorkers8(b *testing.B) { benchWorkers(b, 8) }

func benchWorkers(b *testing.B, workers int) {
	c, tests := sessionFor(b, "s5378", 8, 8)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(reps)
		if _, err := s.Run(tests, fs, fsim.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFsimNilObserver and BenchmarkFsimObserved pin the
// observability layer's zero-overhead claim: the same mid-size session
// with no observer attached versus full instrumentation (per-run
// counters, lane-utilization histogram, detection-site attribution).
// The nil-observer variant must stay within ~2% of the seed simulator.
func BenchmarkFsimNilObserver(b *testing.B) { benchObserved(b, false) }

// BenchmarkFsimObserved is the instrumented counterpart.
func BenchmarkFsimObserved(b *testing.B) { benchObserved(b, true) }

func benchObserved(b *testing.B, observed bool) {
	c, tests := sessionFor(b, "s1423", 16, 8)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	var o *obs.Campaign
	if observed {
		o = obs.New(obs.NewRegistry(), nil)
	}
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(reps)
		if _, err := s.Run(tests, fs, fsim.Options{Obs: o}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultDroppingOn measures a Procedure 2 style multi-session
// campaign with fault dropping (detected faults leave the simulation).
func BenchmarkFaultDroppingOn(b *testing.B) { benchDropping(b, true) }

// BenchmarkFaultDroppingOff re-simulates every fault in every session.
func BenchmarkFaultDroppingOff(b *testing.B) { benchDropping(b, false) }

func benchDropping(b *testing.B, drop bool) {
	c, tests := sessionFor(b, "s298", 16, 8)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(reps)
		for session := 0; session < 4; session++ {
			if _, err := s.Run(tests, fs, fsim.Options{}); err != nil {
				b.Fatal(err)
			}
			if !drop {
				for j := range fs.State {
					if fs.State[j] == fault.Detected {
						fs.State[j] = fault.Undetected
					}
				}
			}
		}
	}
}

// BenchmarkCoverageCurve measures a session fault-simulated one test at a
// time, the way CoverageCurve and TopOff call the simulator: every call
// is a one-test session, which Run keeps on the fault-parallel kernel.
func BenchmarkCoverageCurve(b *testing.B) {
	c, tests := sessionFor(b, "s1196", 128, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.NewRunner(c)
		if _, err := r.CoverageCurve(tests, r.NewFaultSet()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLFSRGalois and BenchmarkLFSRFibonacci compare the two stepping
// styles of the PRPG.
func BenchmarkLFSRGalois(b *testing.B) { benchLFSR(b, lfsr.Galois) }

// BenchmarkLFSRFibonacci is the external-XOR variant.
func BenchmarkLFSRFibonacci(b *testing.B) { benchLFSR(b, lfsr.Fibonacci) }

func benchLFSR(b *testing.B, style lfsr.Style) {
	l := lfsr.MustNew(32, style, 1)
	b.ResetTimer()
	var sink uint8
	for i := 0; i < b.N; i++ {
		sink ^= l.Step()
	}
	if sink == 2 {
		b.Fatal("impossible")
	}
}

// BenchmarkCollapseOn measures fault simulation over the collapsed
// universe; BenchmarkCollapseOff over the full one.
func BenchmarkCollapseOn(b *testing.B) { benchCollapse(b, true) }

// BenchmarkCollapseOff is the uncollapsed variant.
func BenchmarkCollapseOff(b *testing.B) { benchCollapse(b, false) }

func benchCollapse(b *testing.B, collapse bool) {
	c, tests := sessionFor(b, "s298", 8, 8)
	universe := fault.Universe(c)
	faults := universe
	if collapse {
		faults, _ = fault.Collapse(c, universe)
	}
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(faults)
		if _, err := s.Run(tests, fs, fsim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEval measures raw bit-parallel combinational evaluation.
func BenchmarkEval(b *testing.B) {
	c, err := bmark.Load("s1196")
	if err != nil {
		b.Fatal(err)
	}
	ev := sim.NewEvaluator(c)
	for i := 0; i < c.NumPI(); i++ {
		ev.SetPI(i, 0xDEADBEEFCAFEF00D*uint64(i+1))
	}
	for i := 0; i < c.NumSV(); i++ {
		ev.SetState(i, 0x123456789ABCDEF*uint64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(nil)
	}
	b.ReportMetric(float64(c.Stats().Gates), "gates/op")
}

// BenchmarkEvalWithForces measures evaluation with an active fault batch.
func BenchmarkEvalWithForces(b *testing.B) {
	c, err := bmark.Load("s1196")
	if err != nil {
		b.Fatal(err)
	}
	ev := sim.NewEvaluator(c)
	f := sim.NewForces(c)
	for lane := 1; lane < 64; lane++ {
		f.ForceOut(lane%c.NumGates(), lane, uint8(lane&1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Eval(f)
	}
}

// BenchmarkProcedure2 measures a full Procedure 2 run end to end.
func BenchmarkProcedure2(b *testing.B) {
	c, err := bmark.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.NewRunner(c)
		res, err := r.RunProcedure2(core.Config{LA: 8, LB: 16, N: 64, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Detected == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkATPGClassify measures PODEM classification throughput.
func BenchmarkATPGClassify(b *testing.B) {
	c, err := bmark.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := limscan.NewFaultSet(reps)
		limscan.ClassifyFaults(c, fs)
	}
	b.ReportMetric(float64(len(reps)), "faults/op")
}

// BenchmarkBenchWrite measures netlist emission (I/O path sanity).
func BenchmarkBenchWrite(b *testing.B) {
	c, err := bmark.Load("s1423")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := limscan.WriteBench(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransitionFsim measures transition-fault simulation of a full
// session (dynamic per-cycle activation on top of the bit-parallel core).
func BenchmarkTransitionFsim(b *testing.B) {
	c, tests := sessionFor(b, "s298", 16, 8)
	universe := fault.TransitionUniverse(c)
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fault.NewSet(universe)
		if _, err := s.Run(tests, fs, fsim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStafanAnalyze measures the statistical fault analysis pass.
func BenchmarkStafanAnalyze(b *testing.B) {
	c, err := bmark.Load("s1196")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := stafan.Analyze(c, 64*64, 1); a == nil {
			b.Fatal("nil analysis")
		}
	}
}

// BenchmarkMISRFeed measures signature-register throughput.
func BenchmarkMISRFeed(b *testing.B) {
	m := misr.MustNew(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Feed(uint64(i) * 0x9E3779B97F4A7C15)
	}
}
