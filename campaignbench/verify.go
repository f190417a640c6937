package main

import (
	"fmt"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/logic"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// checkResult replays a campaign's final test program — TS0, then each
// selected TS(I,D1) in selection order — as separate sessions on a
// fresh collapsed fault set with a fresh simulator, and fails unless
// every session detects and costs what the result claims. Sessions the
// campaign tried but did not select detected nothing, so leaving them
// out cannot change the fault set. The replay marks no fault
// untestable, so a fault classification wrongly called untestable and
// the program detects also shows up as a mismatch.
func checkResult(c *circuit.Circuit, plan scan.Plan, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	cfg := res.Config
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	if len(fs.Faults) != res.TotalFaults {
		return fmt.Errorf("result has %d faults, collapsing gives %d", res.TotalFaults, len(fs.Faults))
	}
	sim, err := fsim.NewWithPlan(c, plan)
	if err != nil {
		return err
	}
	ts0 := core.GenerateTS0WithPlan(c, plan, cfg)
	st, err := sim.Run(ts0, fs, fsim.Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("replaying TS0: %w", err)
	}
	if st.Detected != res.InitialDetected || st.Cycles != res.InitialCycles {
		return fmt.Errorf("TS0 replay detects %d in %d cycles, result says %d in %d",
			st.Detected, st.Cycles, res.InitialDetected, res.InitialCycles)
	}
	detected, cycles := st.Detected, st.Cycles
	for _, p := range res.Pairs {
		ts := core.InsertLimitedScansWithPlan(c, plan, ts0, p.I, p.D1, cfg)
		st, err := sim.Run(ts, fs, fsim.Options{Workers: 1})
		if err != nil {
			return fmt.Errorf("replaying TS(%d,%d): %w", p.I, p.D1, err)
		}
		if st.Detected != p.Detected || st.Cycles != p.Cycles {
			return fmt.Errorf("TS(%d,%d) replay detects %d in %d cycles, result says %d in %d",
				p.I, p.D1, st.Detected, st.Cycles, p.Detected, p.Cycles)
		}
		detected += st.Detected
		cycles += st.Cycles
	}
	if detected != res.Detected || cycles != res.TotalCycles {
		return fmt.Errorf("replayed program detects %d in %d cycles, result says %d in %d",
			detected, cycles, res.Detected, res.TotalCycles)
	}
	if res.Detected+res.Untestable > res.TotalFaults {
		return fmt.Errorf("%d detected plus %d untestable exceed %d faults",
			res.Detected, res.Untestable, res.TotalFaults)
	}
	return nil
}

// untestablePatterns is how many random full-scan patterns each
// untestable verdict is checked against.
const untestablePatterns = 1 << 16

// checkUntestable simulates every fault in faults against n random
// full-scan patterns (scan in a random state, apply one random input
// vector, capture, scan out) drawn from seed, and returns the faults a
// pattern detects: each one is a classification that called a testable
// fault untestable. Under partial scan the verdicts are still full-scan
// verdicts, so the check always uses full scan.
func checkUntestable(c *circuit.Circuit, faults []fault.Fault, n int, seed uint64) ([]fault.Fault, error) {
	if len(faults) == 0 {
		return nil, nil
	}
	fs := fault.NewSet(faults)
	sim := fsim.New(c)
	rng := splitmix(seed)
	const perSession = 4096
	for done := 0; done < n; done += perSession {
		tests := make([]scan.Test, perSession)
		for i := range tests {
			si := logic.NewVec(c.NumSV())
			for b := 0; b < c.NumSV(); b++ {
				si.Set(b, uint8(rng.next()&1))
			}
			v := logic.NewVec(c.NumPI())
			for b := 0; b < c.NumPI(); b++ {
				v.Set(b, uint8(rng.next()&1))
			}
			tests[i] = scan.Test{SI: si, T: []logic.Vec{v}}
		}
		if _, err := sim.Run(tests, fs, fsim.Options{Workers: 1}); err != nil {
			return nil, err
		}
	}
	var bad []fault.Fault
	for i, st := range fs.State {
		if st == fault.Detected {
			bad = append(bad, fs.Faults[i])
		}
	}
	return bad, nil
}

// verifyUntestable runs checkUntestable on every verdict the pass saw,
// with patterns from a seed derived from, but not equal to, the run's.
func (tp *tracedPass) verifyUntestable(o *outcome, circuitName string, seed uint64) {
	c, err := bmark.Load(circuitName)
	if err != nil {
		o.fail("loading %s: %v", circuitName, err)
		return
	}
	faults := tp.untestableFaults()
	start := tp.rec.Now()
	bad, err := checkUntestable(c, faults, untestablePatterns, deriveSeed(seed, -1))
	tp.rec.Track(trackVerify).Add("verify", "untestable_check", start, tp.rec.Now()-start,
		trace.KV{K: "faults", V: int64(len(faults))}, trace.KV{K: "patterns", V: untestablePatterns})
	if err != nil {
		o.fail("untestable check: %v", err)
	}
	for _, f := range bad {
		o.fail("fault %s was classified untestable but a random pattern detects it", f.Pretty(c))
	}
}

// rng is SplitMix64, the benchmark's own generator, so the inputs it
// draws do not change when the program's generators do.
type rng struct{ s uint64 }

func splitmix(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// deriveSeed gives operation k of a run seeded with seed its own seed.
func deriveSeed(seed uint64, k int) uint64 {
	r := splitmix(seed ^ uint64(k)*0xD1B54A32D192ED03)
	s := r.next()
	if s == 0 {
		s = 1
	}
	return s
}
