package fsim

// An independent, deliberately naive scalar fault simulator used as a
// differential-testing oracle for the bit-parallel implementation. It
// keeps explicit good/faulty state vectors, evaluates gates one machine
// at a time, and performs scan shifts positionally.

import (
	"testing"

	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/scan"
)

// refMachine is one machine (good or faulty) of the reference simulator.
type refMachine struct {
	c     *circuit.Circuit
	f     *fault.Fault // nil for the good machine
	state logic.Vec
	val   []uint8
}

func newRefMachine(c *circuit.Circuit, f *fault.Fault) *refMachine {
	return &refMachine{c: c, f: f, state: logic.NewVec(c.NumSV()), val: make([]uint8, c.NumGates())}
}

func (m *refMachine) isStuckFF(pos int) (uint8, bool) {
	if m.f == nil || m.f.Pin != fault.Stem {
		return 0, false
	}
	g := &m.c.Gates[m.f.Gate]
	if g.Type != circuit.DFF {
		return 0, false
	}
	for p, id := range m.c.DFFs {
		if id == m.f.Gate && p == pos {
			return m.f.Stuck, true
		}
	}
	return 0, false
}

func (m *refMachine) forceStuckFFs() {
	for pos := 0; pos < m.state.Len(); pos++ {
		if v, ok := m.isStuckFF(pos); ok {
			m.state.Set(pos, v)
		}
	}
}

// shift performs one scan shift and returns the observed bit.
func (m *refMachine) shift(fill uint8) uint8 {
	out := m.state.ShiftRight(fill)
	m.forceStuckFFs()
	return out
}

// in returns the value gate id sees on pin, with branch-fault injection.
func (m *refMachine) in(id, pin int) uint8 {
	v := m.val[m.c.Gates[id].Fanin[pin]]
	if m.f != nil && m.f.Gate == id && m.f.Pin == pin {
		v = m.f.Stuck
	}
	return v
}

// step applies one PI vector and captures the next state.
func (m *refMachine) step(vec logic.Vec) (po logic.Vec) {
	c := m.c
	for i, id := range c.Inputs {
		m.val[id] = vec.Get(i)
		if m.f != nil && m.f.Gate == id && m.f.Pin == fault.Stem {
			m.val[id] = m.f.Stuck
		}
	}
	for pos, id := range c.DFFs {
		m.val[id] = m.state.Get(pos)
	}
	for _, id := range c.EvalOrder() {
		g := &c.Gates[id]
		var v uint8
		switch g.Type {
		case circuit.And, circuit.Nand:
			v = 1
			for pin := range g.Fanin {
				v &= m.in(id, pin)
			}
			if g.Type == circuit.Nand {
				v ^= 1
			}
		case circuit.Or, circuit.Nor:
			for pin := range g.Fanin {
				v |= m.in(id, pin)
			}
			if g.Type == circuit.Nor {
				v ^= 1
			}
		case circuit.Xor, circuit.Xnor:
			for pin := range g.Fanin {
				v ^= m.in(id, pin)
			}
			if g.Type == circuit.Xnor {
				v ^= 1
			}
		case circuit.Not:
			v = m.in(id, 0) ^ 1
		case circuit.Buf:
			v = m.in(id, 0)
		case circuit.Const1:
			v = 1
		}
		if m.f != nil && m.f.Gate == id && m.f.Pin == fault.Stem {
			v = m.f.Stuck
		}
		m.val[id] = v
	}
	po = logic.NewVec(c.NumPO())
	for i, id := range c.Outputs {
		po.Set(i, m.val[id])
	}
	next := logic.NewVec(c.NumSV())
	for pos, id := range c.DFFs {
		d := c.Gates[id].Fanin[0]
		v := m.val[d]
		if m.f != nil && m.f.Gate == id && m.f.Pin == 0 {
			v = m.f.Stuck
		}
		next.Set(pos, v)
	}
	m.state = next
	m.forceStuckFFs()
	return po
}

// refDetects runs the full session (the same protocol as Simulator.Run)
// for a single fault and reports whether it is detected.
func refDetects(c *circuit.Circuit, tests []scan.Test, f fault.Fault) bool {
	good := newRefMachine(c, nil)
	bad := newRefMachine(c, &f)
	bad.forceStuckFFs()
	nsv := c.NumSV()
	for ti := range tests {
		t := &tests[ti]
		for k := nsv - 1; k >= 0; k-- {
			og := good.shift(t.SI.Get(k))
			ob := bad.shift(t.SI.Get(k))
			if ti > 0 && og != ob {
				return true
			}
		}
		for u := 0; u < len(t.T); u++ {
			if t.Shift != nil {
				for k := 0; k < t.Shift[u]; k++ {
					if good.shift(t.Fill[u][k]) != bad.shift(t.Fill[u][k]) {
						return true
					}
				}
			}
			pg := good.step(t.T[u])
			pb := bad.step(t.T[u])
			if !pg.Equal(pb) {
				return true
			}
		}
	}
	for k := 0; k < nsv; k++ {
		if good.shift(0) != bad.shift(0) {
			return true
		}
	}
	return false
}

// randomTests builds a deterministic pseudo-random test session.
func randomTests(c *circuit.Circuit, n, length int, withScans bool, seed uint64) []scan.Test {
	rng := seed
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	bit := func() uint8 { return uint8(next() & 1) }
	var tests []scan.Test
	for i := 0; i < n; i++ {
		t := scan.Test{SI: logic.NewVec(c.NumSV())}
		for b := 0; b < c.NumSV(); b++ {
			t.SI.Set(b, bit())
		}
		for u := 0; u < length; u++ {
			v := logic.NewVec(c.NumPI())
			for b := 0; b < c.NumPI(); b++ {
				v.Set(b, bit())
			}
			t.T = append(t.T, v)
		}
		if withScans {
			t.Shift = make([]int, length)
			t.Fill = make([][]uint8, length)
			for u := 1; u < length; u++ {
				if next()%3 == 0 {
					sh := int(next() % uint64(c.NumSV()+1))
					t.Shift[u] = sh
					t.Fill[u] = make([]uint8, sh)
					for k := range t.Fill[u] {
						t.Fill[u][k] = bit()
					}
				}
			}
		}
		tests = append(tests, t)
	}
	return tests
}

// TestDifferentialAgainstReference cross-checks the fault-parallel
// kernel against the naive scalar oracle for every collapsed fault of
// s27, with and without limited scan operations. The kernel is forced:
// Run would pick the pattern-parallel one for the scan-free sessions.
func TestDifferentialAgainstReference(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, withScans := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			tests := randomTests(c, 4, 6, withScans, seed)
			fs := fault.NewSet(reps)
			s := New(c)
			if _, err := s.Run(tests, fs, Options{kernel: kernelFault}); err != nil {
				t.Fatal(err)
			}
			for i, f := range reps {
				want := refDetects(c, tests, f)
				got := fs.State[i] == fault.Detected
				if got != want {
					t.Errorf("scans=%v seed=%d fault %s: parallel=%v reference=%v",
						withScans, seed, f.Pretty(c), got, want)
				}
			}
		}
	}
}

// TestDifferentialMultiOutput repeats the differential check on a
// multi-output circuit with XOR gates and fanout.
func TestDifferentialMultiOutput(t *testing.T) {
	b := circuit.NewBuilder("mo")
	for _, in := range []string{"A", "B", "C"} {
		b.AddInput(in)
	}
	b.AddGate("Q0", circuit.DFF, "D0")
	b.AddGate("Q1", circuit.DFF, "D1")
	b.AddGate("Q2", circuit.DFF, "D2")
	b.AddGate("Q3", circuit.DFF, "D3")
	b.AddGate("x1", circuit.Xor, "A", "Q0")
	b.AddGate("n1", circuit.Nand, "B", "Q1", "x1")
	b.AddGate("o1", circuit.Or, "C", "Q2")
	b.AddGate("D0", circuit.Xnor, "n1", "o1")
	b.AddGate("D1", circuit.Nor, "x1", "Q3")
	b.AddGate("D2", circuit.And, "n1", "n1")
	b.AddGate("D3", circuit.Buf, "o1")
	b.AddGate("Z0", circuit.Not, "D0")
	b.AddGate("Z1", circuit.Xor, "D1", "D2")
	b.MarkOutput("Z0")
	b.MarkOutput("Z1")
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	u := fault.Universe(c)
	for _, withScans := range []bool{false, true} {
		tests := randomTests(c, 5, 5, withScans, 42)
		fs := fault.NewSet(u)
		s := New(c)
		if _, err := s.Run(tests, fs, Options{}); err != nil {
			t.Fatal(err)
		}
		for i, f := range u {
			want := refDetects(c, tests, f)
			got := fs.State[i] == fault.Detected
			if got != want {
				t.Errorf("scans=%v fault %s: parallel=%v reference=%v",
					withScans, f.Pretty(c), got, want)
			}
		}
	}
}
