package fsim

import (
	"fmt"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// runSession simulates one session under explicit Options (with an
// observer attached so detection sites are populated) and returns the
// stats and final fault states.
func runSession(t *testing.T, c *circuit.Circuit, reps []fault.Fault, tests []scan.Test, o Options) (RunStats, []fault.Status) {
	t.Helper()
	fs := fault.NewSet(reps)
	o.Obs = obs.New(nil, nil)
	stats, err := New(c).Run(tests, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]fault.Status, len(fs.State))
	copy(states, fs.State)
	return stats, states
}

func diffStates(t *testing.T, c *circuit.Circuit, reps []fault.Fault, label string, got, want []fault.Status) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: fault %s state %v, want %v", label, reps[i].Pretty(c), got[i], want[i])
		}
	}
}

// Forced kernels for the differential tests: each compares the two
// kernels explicitly, never through the choice Run would make (which
// would compare the pattern-parallel kernel with itself on scan-free
// sessions).
var (
	fp1 = Options{Workers: 1, kernel: kernelFault}
	pp1 = Options{Workers: 1, kernel: kernelPattern}
	pp4 = Options{Workers: 4, kernel: kernelPattern}
)

// TestParallelPatternMatchesFaultParallelBmarks is the kernel
// differential gate: on every registered benchmark circuit, the
// pattern-parallel kernel — serial and sharded across 4 workers — must
// reproduce the fault-parallel RunStats struct (detections, batch count,
// cycle cost, per-site attribution) and the per-fault detection states
// exactly. The "Parallel" name puts it under `make paradiff`, so it also
// runs under -race at GOMAXPROCS 1 and 4.
func TestParallelPatternMatchesFaultParallelBmarks(t *testing.T) {
	for _, name := range bmark.Names() {
		spec, _ := bmark.Info(name)
		if testing.Short() && spec.Gates > 2000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := bmark.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			reps, _ := fault.Collapse(c, fault.Universe(c))
			n, length := sessionDims(len(c.Gates))
			tests := randomTests(c, n, length, true, spec.Seed^0xA5A5)
			base, baseStates := runSession(t, c, reps, tests, fp1)
			cases := []struct {
				label string
				o     Options
			}{
				{"pp/w1", pp1},
				{"pp/w4", pp4},
			}
			for _, tc := range cases {
				stats, states := runSession(t, c, reps, tests, tc.o)
				if stats != base {
					t.Errorf("%s stats = %+v, want %+v", tc.label, stats, base)
				}
				diffStates(t, c, reps, tc.label, states, baseStates)
			}
		})
	}
}

// TestParallelPatternAgainstReference closes the differential triangle:
// the pattern-parallel kernel must agree fault by fault with the naive
// scalar oracle (the fault-parallel kernel's agreement with the same
// oracle is TestDifferentialAgainstReference).
func TestParallelPatternAgainstReference(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, withScans := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			tests := randomTests(c, 4, 6, withScans, seed)
			fs := fault.NewSet(reps)
			if _, err := New(c).Run(tests, fs, pp1); err != nil {
				t.Fatal(err)
			}
			for i, f := range reps {
				want := refDetects(c, tests, f)
				got := fs.State[i] == fault.Detected
				if got != want {
					t.Errorf("scans=%v seed=%d fault %s: pattern-parallel=%v reference=%v",
						withScans, seed, f.Pretty(c), got, want)
				}
			}
		}
	}
}

// TestParallelPatternOddCounts sweeps session sizes around the lane-word
// boundaries — 1, 63, 64, 65 and 130 tests — so partially filled words,
// exactly full words and multi-group sessions all hit the differential.
func TestParallelPatternOddCounts(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, n := range []int{1, 63, 64, 65, 130} {
		if testing.Short() && n > 64 {
			continue
		}
		tests := randomTests(c, n, 2, true, uint64(n))
		base, baseStates := runSession(t, c, reps, tests, fp1)
		stats, states := runSession(t, c, reps, tests, pp1)
		if stats != base {
			t.Errorf("n=%d stats = %+v, want %+v", n, stats, base)
		}
		diffStates(t, c, reps, "odd-count", states, baseStates)
	}
}

// TestParallelPatternZeroTests covers the empty-session corner: the
// fault-parallel kernel still scans out the reset state (so a stuck-at-1
// flip-flop output is detectable with zero tests), and the
// pattern-parallel kernel must reproduce that verdict exactly.
func TestParallelPatternZeroTests(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	base, baseStates := runSession(t, c, reps, nil, fp1)
	if base.Detected == 0 {
		t.Fatalf("oracle expectation broken: zero-test session detected nothing (want stuck-at-1 flip-flop outputs)")
	}
	stats, states := runSession(t, c, reps, nil, pp1)
	if stats != base {
		t.Errorf("zero-test stats = %+v, want %+v", stats, base)
	}
	diffStates(t, c, reps, "zero-tests", states, baseStates)
}

// partialPlan scans all but the last state variable of c, and
// partialTests resizes tests' scan-in vectors to its shorter chain.
func partialPlan(c *circuit.Circuit) scan.Plan {
	plan := scan.Plan{Total: c.NumSV()}
	for p := 0; p < c.NumSV()-1; p++ {
		plan.Chain = append(plan.Chain, p)
	}
	return plan
}

func partialTests(tests []scan.Test, plan scan.Plan) []scan.Test {
	for i := range tests {
		si := logic.NewVec(plan.Len())
		for b := 0; b < si.Len(); b++ {
			si.Set(b, tests[i].SI.Get(b))
		}
		tests[i].SI = si
		for u, sh := range tests[i].Shift {
			if sh > plan.Len() {
				tests[i].Shift[u] = plan.Len()
				tests[i].Fill[u] = tests[i].Fill[u][:plan.Len()]
			}
		}
	}
	return tests
}

// TestParallelPatternRejections pins the limits of the pattern-parallel
// kernel: forced onto a partial scan plan, transition faults or MISR
// compaction, Run refuses rather than simulate inexactly.
func TestParallelPatternRejections(t *testing.T) {
	c, err := bmark.Load("s344")
	if err != nil {
		t.Fatal(err)
	}
	plan := partialPlan(c)
	s, err := NewWithPlan(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := partialTests(randomTests(c, 1, 2, false, 9), plan)
	if _, err := s.Run(tests, fault.NewSet(reps), pp1); err == nil {
		t.Error("pattern-parallel kernel accepted a partial scan plan, want error")
	}

	tfs := fault.NewSet(fault.TransitionUniverse(c))
	if _, err := New(c).Run(randomTests(c, 1, 2, false, 9), tfs, pp1); err == nil {
		t.Error("pattern-parallel kernel accepted transition faults, want error")
	}

	misr := pp1
	misr.MISRDegree = 16
	if _, err := New(c).Run(randomTests(c, 1, 2, false, 9), fault.NewSet(reps), misr); err == nil {
		t.Error("pattern-parallel kernel accepted MISR compaction, want error")
	}
}

// TestParallelPatternMetrics checks that the fsim_mode gauge reports the
// kernel that ran, forced either way.
func TestParallelPatternMetrics(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, tc := range []struct {
		o    Options
		mode float64
	}{
		{fp1, 0},
		{pp1, 1},
	} {
		reg := obs.NewRegistry()
		fs := fault.NewSet(reps)
		tc.o.Obs = obs.New(reg, nil)
		if _, err := New(c).Run(randomTests(c, 2, 2, true, 3), fs, tc.o); err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("fsim_mode").Value(); got != tc.mode {
			t.Errorf("kernel %d: fsim_mode = %v, want %v", tc.o.kernel, got, tc.mode)
		}
	}
}

// TestKernelChoice pins the rule Run uses to pick a kernel, read back
// through the fsim_mode gauge: pattern-parallel exactly for a full scan
// plan, stuck-at faults, exact comparison, no limited-scan shift (an
// explicit all-zero schedule counts as none) and at least
// minPatternLanes tests per pattern group; fault-parallel for every
// other combination, for sessions that fill too few lanes and for
// sessions with no fault left to simulate.
func TestKernelChoice(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	trans := fault.TransitionUniverse(c)
	for _, full := range []bool{true, false} {
		for _, stuckAt := range []bool{true, false} {
			for _, misr := range []bool{false, true} {
				for _, shifts := range []string{"none", "zero", "limited"} {
					name := fmt.Sprintf("full=%v/stuck-at=%v/misr=%v/shift=%s", full, stuckAt, misr, shifts)
					t.Run(name, func(t *testing.T) {
						s := New(c)
						tests := randomTests(c, minPatternLanes, 4, shifts == "limited", 5)
						if shifts == "zero" {
							for i := range tests {
								tests[i].Shift = make([]int, tests[i].Len())
								tests[i].Fill = make([][]uint8, tests[i].Len())
							}
						}
						if !full {
							plan := partialPlan(c)
							if s, err = NewWithPlan(c, plan); err != nil {
								t.Fatal(err)
							}
							tests = partialTests(tests, plan)
						}
						faults := reps
						if !stuckAt {
							faults = trans
						}
						reg := obs.NewRegistry()
						reg.Gauge("fsim_mode").Set(-1) // Run must overwrite it
						o := Options{Workers: 1, Obs: obs.New(reg, nil)}
						if misr {
							o.MISRDegree = 16
						}
						if _, err := s.Run(tests, fault.NewSet(faults), o); err != nil {
							t.Fatal(err)
						}
						want := 0.0
						if full && stuckAt && !misr && shifts != "limited" {
							want = 1
						}
						if got := reg.Gauge("fsim_mode").Value(); got != want {
							t.Errorf("fsim_mode = %v, want %v", got, want)
						}
					})
				}
			}
		}
	}

	// Lane fill and an empty session, on the otherwise eligible shape.
	mixed := randomTests(c, 2*minPatternLanes, 1, false, 6)
	for i := 1; i < len(mixed); i += 2 {
		mixed[i] = randomTests(c, 1, 2, false, uint64(i))[0]
	}
	done := fault.NewSet(reps)
	for i := range done.State {
		done.State[i] = fault.Detected
	}
	doneTrans := fault.NewSet(trans)
	for i := range doneTrans.State {
		doneTrans.State[i] = fault.Detected
	}
	for _, tc := range []struct {
		name  string
		tests []scan.Test
		fs    *fault.Set
		want  float64
	}{
		{"no tests", nil, fault.NewSet(reps), 0},
		{"one test", randomTests(c, 1, 4, false, 5), fault.NewSet(reps), 0},
		{"one lane short", randomTests(c, minPatternLanes-1, 4, false, 5), fault.NewSet(reps), 0},
		{"exactly full", randomTests(c, minPatternLanes, 4, false, 5), fault.NewSet(reps), 1},
		{"alternating lengths", mixed, fault.NewSet(reps), 0},
		{"no faults left", randomTests(c, 64, 4, false, 5), done, 0},
		{"no transition faults left", randomTests(c, 64, 4, false, 5), doneTrans, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			reg.Gauge("fsim_mode").Set(-1)
			if _, err := New(c).Run(tc.tests, tc.fs, Options{Workers: 1, Obs: obs.New(reg, nil)}); err != nil {
				t.Fatal(err)
			}
			if got := reg.Gauge("fsim_mode").Value(); got != tc.want {
				t.Errorf("fsim_mode = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPPGroups pins the pattern-grouping rules: consecutive same-shape
// tests pack together, shape changes and the lane width split groups, and
// a nil Shift schedule groups with an explicit all-zero one.
func TestPPGroups(t *testing.T) {
	mk := func(frames int, shift []int) scan.Test {
		return scan.Test{T: make([]logic.Vec, frames), Shift: shift}
	}
	tests := []scan.Test{
		mk(2, nil),
		mk(2, []int{0, 0}), // same effective shape as nil
		mk(2, []int{0, 3}), // schedule change splits
		mk(3, nil),         // length change splits
	}
	gs := ppGroups(tests, 64)
	want := [][2]int{{0, 2}, {2, 3}, {3, 4}}
	if len(gs) != len(want) {
		t.Fatalf("ppGroups = %d groups, want %d", len(gs), len(want))
	}
	for i, g := range gs {
		if g.lo != want[i][0] || g.hi != want[i][1] {
			t.Errorf("group %d = [%d,%d), want [%d,%d)", i, g.lo, g.hi, want[i][0], want[i][1])
		}
	}

	many := make([]scan.Test, 70)
	for i := range many {
		many[i] = mk(1, nil)
	}
	gs = ppGroups(many, 64)
	if len(gs) != 2 || gs[0].hi != 64 || gs[1].lo != 64 || gs[1].hi != 70 {
		t.Errorf("lane cap: groups = %+v, want [0,64) and [64,70)", gs)
	}
}
