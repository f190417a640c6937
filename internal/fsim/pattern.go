package fsim

import (
	"fmt"

	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/scan"
)

// Pattern-parallel single-stuck-fault simulation (PPSFP).
//
// The fault-parallel kernel (runBatch) packs 63 faults and the good
// machine into one word and replays the whole session once per batch, so
// every batch pays for every test's scan shifts and full-circuit
// evaluations. The pattern-parallel kernel inverts the packing: up to
// 64 tests live one-per-lane in a logic.W64 word, the
// fault-free session is simulated once and its complete value trace
// recorded, and each fault is then propagated as a *difference* against
// that trace — an event-driven pass that touches only the gates whose
// values the fault actually changes. Detection is the fault-free-vs-
// faulty XOR mask at each observation site, so site attribution and the
// per-fault verdicts are bit-exact.
//
// Equivalence with the fault-parallel session (the argument DESIGN.md
// spells out, enforced by TestParallelPatternMatchesFaultParallel* and
// FuzzPPSFP):
//
//  1. Under a full scan plan the post-scan-in state is history-free:
//     scanning in SI leaves exactly SI, and a stuck flip-flop output at
//     chain position p leaves SI below p and the stuck value at and
//     above p (every bit at or above p passed through it). The scan-in
//     is therefore skipped analytically.
//  2. The bits observed during a complete scan operation are
//     fill-independent: the j-th observed bit is the pre-scan value of
//     chain position m-j (or the stuck value where a stuck flip-flop
//     intervenes), and incoming fill bits need more than m shifts to
//     reach the scan output. The fault-parallel session observes test
//     i's final state while scanning in test i+1; each pattern lane
//     instead observes its own final scan-out over fill 0 and sees the
//     identical stream.
//  3. Fault-parallel observations are test-contiguous: all of test i's
//     observations (limited scans and POs in frame order, then its
//     scan-out) precede test i+1's. A fault's first divergence is hence
//     the lowest diverged lane of the first diverged pattern group, at
//     that lane's first in-session observation site — which is exactly
//     what runFault tracks.
//
// Tests pack into groups of consecutive tests sharing a shape (length
// and limited-scan schedule); each group gets one fault-free trace.
// Batch geometry, merge order and early-exit verdicts are untouched, so
// stats, fault states, reports and checkpoints are byte-identical to
// the fault-parallel kernel at any worker count.

// ppTraceBudget caps the bytes of fault-free trace prebuilt and shared
// across workers. Sessions whose traces would exceed it fall back to a
// per-worker single-group trace rebuilt on group switch — same results,
// bounded memory.
const ppTraceBudget = 256 << 20

// patternUnsupported reports why the pattern-parallel kernel cannot
// simulate a session exactly, or nil if it can. rem indexes the faults
// that will actually be simulated.
func (s *Simulator) patternUnsupported(faults []fault.Fault, rem []int, opts Options) error {
	if !s.plan.IsFull() {
		return fmt.Errorf("fsim: the pattern-parallel kernel requires a full scan plan (%d of %d flip-flops scanned)",
			s.plan.Len(), s.plan.Total)
	}
	if opts.MISRDegree > 0 {
		return fmt.Errorf("fsim: the pattern-parallel kernel compares exactly (a MISR signature has no per-pattern XOR mask)")
	}
	for _, fi := range rem {
		if faults[fi].Model != fault.StuckAt {
			return fmt.Errorf("fsim: the pattern-parallel kernel simulates stuck-at faults only (fault %v is %v)",
				faults[fi], faults[fi].Model)
		}
	}
	return nil
}

// newPatternEngine builds the pattern-parallel engine for a session,
// refusing sessions the kernel cannot simulate exactly.
func (s *Simulator) newPatternEngine(tests []scan.Test, faults []fault.Fault, rem []int, opts Options) (*ppEngine, error) {
	if err := s.patternUnsupported(faults, rem, opts); err != nil {
		return nil, err
	}
	return newPPEngine(s, tests), nil
}

// ppEngine is the session state shared read-only by every worker:
// netlist tables, the pattern grouping and the fault-free traces.
type ppEngine struct {
	c     *circuit.Circuit
	tests []scan.Test
	m     int // chain length (== N_SV under a full plan)
	depth int

	dffNode []int32   // chain position -> flip-flop gate ID
	dsrc    []int32   // chain position -> gate ID captured at functional clocks
	posOf   []int32   // gate ID -> chain position (-1 for non-flip-flops)
	sinks   [][]int32 // gate ID -> chain positions it feeds (capture fan-in)
	isPO    []bool    // gate ID -> is a primary output

	groups []ppGroup
	traces []*ppTrace // prebuilt per group; nil when over ppTraceBudget
}

// ppGroup is a maximal run of consecutive same-shape tests, capped at the
// lane width. Lane l carries test lo+l.
type ppGroup struct {
	lo, hi int
	frames int
	shift  []int // effective limited-scan schedule (nil: none)
}

func newPPEngine(s *Simulator, tests []scan.Test) *ppEngine {
	c := s.c
	m := s.plan.Len()
	e := &ppEngine{
		c:       c,
		tests:   tests,
		m:       m,
		depth:   c.Depth(),
		dffNode: make([]int32, m),
		dsrc:    make([]int32, m),
		posOf:   make([]int32, c.NumGates()),
		sinks:   make([][]int32, c.NumGates()),
		isPO:    make([]bool, c.NumGates()),
	}
	for i := range e.posOf {
		e.posOf[i] = -1
	}
	for p, statePos := range s.plan.Chain {
		id := c.DFFs[statePos]
		src := c.Gates[id].Fanin[0]
		e.dffNode[p] = int32(id)
		e.dsrc[p] = int32(src)
		e.posOf[id] = int32(p)
		e.sinks[src] = append(e.sinks[src], int32(p))
	}
	for _, id := range c.Outputs {
		e.isPO[id] = true
	}
	e.groups = ppGroups(tests, logic.W64Lanes)

	// Prebuild the traces once, shared read-only across workers, unless
	// the session is too large to hold them all — then each worker
	// rebuilds one group's trace at a time.
	var words int64
	for _, g := range e.groups {
		words += int64(g.frames) * int64(e.c.NumGates())
		words += int64(g.frames+1) * int64(e.m)
		for u := 0; u < g.frames; u++ {
			if g.shift != nil {
				words += int64(g.shift[u])
			}
		}
	}
	if words*(logic.W64Lanes/8) <= ppTraceBudget {
		val := make([]logic.W64, e.c.NumGates())
		e.traces = make([]*ppTrace, len(e.groups))
		for i, g := range e.groups {
			e.traces[i] = e.buildTrace(g, val)
		}
	}
	return e
}

// shiftAt is a test's effective limited-scan schedule (nil Shift means no
// shifts anywhere — the same shape as an explicit all-zero schedule).
func shiftAt(t *scan.Test, u int) int {
	if t.Shift == nil {
		return 0
	}
	return t.Shift[u]
}

func sameShape(a, b *scan.Test) bool {
	if a.Len() != b.Len() {
		return false
	}
	for u := 0; u < a.Len(); u++ {
		if shiftAt(a, u) != shiftAt(b, u) {
			return false
		}
	}
	return true
}

// ppGroups chunks consecutive same-shape tests into lane-width groups.
func ppGroups(tests []scan.Test, lanes int) []ppGroup {
	var gs []ppGroup
	for i := 0; i < len(tests); {
		j := i + 1
		for j < len(tests) && j-i < lanes && sameShape(&tests[i], &tests[j]) {
			j++
		}
		g := ppGroup{lo: i, hi: j, frames: tests[i].Len()}
		if tests[i].Shift != nil {
			g.shift = make([]int, g.frames)
			for u := range g.shift {
				g.shift[u] = tests[i].Shift[u]
			}
		}
		gs = append(gs, g)
		i = j
	}
	return gs
}

// ppTrace is one group's fault-free trace: everything the event-driven
// fault pass needs to read good values without re-simulating.
type ppTrace struct {
	// frameVals[u][id] is every signal's value during frame u (flip-flop
	// entries hold the post-shift state the frame evaluated from).
	frameVals [][]logic.W64
	// statePost[0] is the packed scan-in state; statePost[u+1] the state
	// after frame u's capture (so statePost[u] is the state entering
	// frame u's limited scan).
	statePost [][]logic.W64
	// fill[u] holds frame u's packed limited-scan fill bits.
	fill [][]logic.W64
}

// buildTrace simulates one group's fault-free session, packing test lo+l
// into lane l. val is gate-count scratch.
func (e *ppEngine) buildTrace(g ppGroup, val []logic.W64) *ppTrace {
	c := e.c
	m := e.m
	nl := g.hi - g.lo
	tr := &ppTrace{
		frameVals: make([][]logic.W64, g.frames),
		statePost: make([][]logic.W64, g.frames+1),
		fill:      make([][]logic.W64, g.frames),
	}
	// Complete scan-in, analytically: the state is exactly the packed SI.
	state := make([]logic.W64, m)
	for p := 0; p < m; p++ {
		var pw logic.W64
		for l := 0; l < nl; l++ {
			if e.tests[g.lo+l].SI.Get(p) != 0 {
				pw = pw.WithLane(l)
			}
		}
		state[p] = pw
	}
	tr.statePost[0] = append([]logic.W64(nil), state...)
	for u := 0; u < g.frames; u++ {
		if S := groupShift(g, u); S > 0 {
			fw := make([]logic.W64, S)
			for j := 0; j < S; j++ {
				var pw logic.W64
				for l := 0; l < nl; l++ {
					if e.tests[g.lo+l].Fill[u][j] != 0 {
						pw = pw.WithLane(l)
					}
				}
				fw[j] = pw
			}
			tr.fill[u] = fw
			// S scan shifts: position p takes the value S below it, the
			// lowest S positions take the fill bits (last fed lands at 0).
			for p := m - 1; p >= S; p-- {
				state[p] = state[p-S]
			}
			for p := 0; p < S && p < m; p++ {
				state[p] = fw[S-1-p]
			}
		}
		for i, id := range c.Inputs {
			var pw logic.W64
			for l := 0; l < nl; l++ {
				if e.tests[g.lo+l].T[u].Get(i) != 0 {
					pw = pw.WithLane(l)
				}
			}
			val[id] = pw
		}
		for p := 0; p < m; p++ {
			val[e.dffNode[p]] = state[p]
		}
		e.evalGood(val)
		tr.frameVals[u] = append([]logic.W64(nil), val...)
		for p := 0; p < m; p++ {
			state[p] = val[e.dsrc[p]]
		}
		tr.statePost[u+1] = append([]logic.W64(nil), state...)
	}
	return tr
}

func groupShift(g ppGroup, u int) int {
	if g.shift == nil {
		return 0
	}
	return g.shift[u]
}

// evalGood evaluates the combinational core fault-free over 64 pattern
// lanes (the pattern-lane twin of sim.Evaluator's plain evaluation).
func (e *ppEngine) evalGood(val []logic.W64) {
	const ones = ^logic.W64(0)
	gs := e.c.Gates
	for _, id := range e.c.EvalOrder() {
		gate := &gs[id]
		var w logic.W64
		switch gate.Type {
		case circuit.And, circuit.Nand:
			w = ones
			for _, fi := range gate.Fanin {
				w = w & val[fi]
			}
			if gate.Type == circuit.Nand {
				w = ^w
			}
		case circuit.Or, circuit.Nor:
			for _, fi := range gate.Fanin {
				w = w | val[fi]
			}
			if gate.Type == circuit.Nor {
				w = ^w
			}
		case circuit.Xor, circuit.Xnor:
			for _, fi := range gate.Fanin {
				w = w ^ val[fi]
			}
			if gate.Type == circuit.Xnor {
				w = ^w
			}
		case circuit.Not:
			w = ^val[gate.Fanin[0]]
		case circuit.Buf:
			w = val[gate.Fanin[0]]
		case circuit.Const0:
			// zero
		case circuit.Const1:
			w = ones
		default:
			panic(fmt.Sprintf("fsim: gate %q of type %s in evaluation order", gate.Name, gate.Type))
		}
		val[id] = w
	}
}

// ppFaultKind classifies a stuck-at fault by how its difference enters
// the circuit (the pattern-parallel mirror of installFault).
type ppFaultKind uint8

const (
	ppSourceStem   ppFaultKind = iota // primary-input output stuck
	ppGateStem                        // combinational gate output stuck
	ppGatePin                         // gate input (branch) stuck
	ppStateStuck                      // flip-flop output stuck: lives in the ring diff
	ppCaptureStuck                    // flip-flop input stuck: forced at capture
)

type ppFault struct {
	kind ppFaultKind
	gate int
	pin  int
	pos  int       // chain position for the flip-flop kinds
	sv   logic.W64 // stuck value spread across all lanes
}

// ppWorker is one goroutine's private kernel state.
type ppWorker struct {
	e *ppEngine

	// Per-frame event state, validity tracked by epoch stamps so nothing
	// is cleared between frames or faults.
	epoch   uint64
	diff    []logic.W64 // node -> faulty XOR fault-free, valid when stamp == epoch
	stamp   []uint64    // node -> epoch of diff
	inBkt   []uint64    // gate -> epoch when already queued
	buckets [][]int32   // level -> queued gates
	minLvl  int
	maxLvl  int
	active  []int32 // nodes with a nonzero diff this frame
	poHit   []int32 // subset of active that are primary outputs

	// Scan-chain state difference, as a rotating ring mirroring the
	// fault-parallel simulator's: chain position p lives in slot
	// (rhead+p) mod m, so a scan shift is a head rotation. Only dirty
	// (nonzero) slots are ever touched.
	ring       []logic.W64
	rhead      int
	isDirty    []bool
	dirtySlots []int32 // may hold stale entries; isDirty is authoritative
	dirtyCount int

	// Per-group session accumulators.
	laneMask  logic.W64
	diverged  logic.W64
	siteFirst [numSites]logic.W64
	stopEarly bool

	// Lazy trace scratch for sessions over ppTraceBudget.
	val     []logic.W64
	lt      *ppTrace
	ltGroup int
}

func (e *ppEngine) newWorker() *ppWorker {
	ng := e.c.NumGates()
	return &ppWorker{
		e:       e,
		diff:    make([]logic.W64, ng),
		stamp:   make([]uint64, ng),
		inBkt:   make([]uint64, ng),
		buckets: make([][]int32, e.depth+1),
		ring:    make([]logic.W64, e.m),
		isDirty: make([]bool, e.m),
		ltGroup: -1,
	}
}

func (w *ppWorker) traceFor(gi int) *ppTrace {
	if w.e.traces != nil {
		return w.e.traces[gi]
	}
	if w.ltGroup != gi {
		if w.val == nil {
			w.val = make([]logic.W64, w.e.c.NumGates())
		}
		w.lt = w.e.buildTrace(w.e.groups[gi], w.val)
		w.ltGroup = gi
	}
	return w.lt
}

// runBatch simulates every fault of the batch, one at a time across all
// pattern lanes, and assembles the identical detection mask and per-site
// first-divergence masks the fault-parallel runBatch publishes — so the
// shared mergeBatch fold downstream cannot tell the kernels apart.
func (w *ppWorker) runBatch(faults []fault.Fault, batch []int, opts Options, sites *[numSites]logic.Word) logic.Word {
	var det logic.Word
	w.stopEarly = sites == nil && !opts.NoEarlyExit
	for j, fi := range batch {
		f := w.classify(faults[fi])
		var firstDiv logic.W64
		var firstSite [numSites]logic.W64
		got := false
		if len(w.e.groups) == 0 {
			w.runEmptySession(f)
			got = w.diverged != 0
			firstDiv, firstSite = w.diverged, w.siteFirst
		}
		for gi := range w.e.groups {
			w.runFault(w.e.groups[gi], w.traceFor(gi), f)
			if !got && w.diverged != 0 {
				// The first diverged group decides the verdict: its lanes
				// are the earliest tests (observation order is
				// test-contiguous in the fault-parallel session).
				got = true
				firstDiv, firstSite = w.diverged, w.siteFirst
				if !opts.NoEarlyExit {
					break
				}
			}
		}
		if !got {
			continue
		}
		det |= logic.Lane(j + 1)
		if sites == nil {
			continue
		}
		lane := firstDiv.LowestSet()
		for site := 0; site < numSites; site++ {
			if firstSite[site].Get(lane) != 0 {
				sites[site] |= logic.Lane(j + 1)
				break
			}
		}
	}
	return det
}

func (w *ppWorker) classify(f fault.Fault) ppFault {
	pf := ppFault{gate: f.Gate, pin: f.Pin}
	if f.Stuck != 0 {
		pf.sv = ^logic.W64(0)
	}
	g := &w.e.c.Gates[f.Gate]
	switch {
	case g.Type == circuit.DFF && f.Pin == fault.Stem:
		pf.kind = ppStateStuck
		pf.pos = int(w.e.posOf[f.Gate])
	case g.Type == circuit.DFF:
		pf.kind = ppCaptureStuck
		pf.pos = int(w.e.posOf[f.Gate])
	case g.Type == circuit.PI && f.Pin == fault.Stem:
		pf.kind = ppSourceStem
	case f.Pin == fault.Stem:
		pf.kind = ppGateStem
	default:
		pf.kind = ppGatePin
	}
	return pf
}

// runFault replays one group's session for one fault as a difference
// against the fault-free trace, leaving the lanes that diverged and their
// first sites in w.diverged / w.siteFirst.
func (w *ppWorker) runFault(g ppGroup, tr *ppTrace, f ppFault) {
	w.laneMask = logic.LanesBelow(g.hi - g.lo)
	w.diverged = 0
	w.siteFirst = [numSites]logic.W64{}
	w.clearRing()

	m := w.e.m
	// Analytic scan-in (equivalence point 1): no difference survives a
	// complete scan except a stuck flip-flop output, which corrupts its
	// own position and everything that shifted past it.
	if f.kind == ppStateStuck {
		for p := f.pos; p < m; p++ {
			w.setRingPos(p, tr.statePost[0][p]^f.sv)
		}
	}
	for u := 0; u < g.frames; u++ {
		if S := groupShift(g, u); S > 0 {
			if w.scanOp(S, tr.statePost[u], tr.fill[u], siteLimitedScan, f) {
				return
			}
		}
		w.frame(u, tr, f)
		if w.stopEarly && w.diverged != 0 {
			return
		}
		w.capture(u, tr, f)
	}
	// Final complete scan-out over fill 0 (equivalence point 2: the
	// fault-parallel session observes the same stream while scanning in
	// the next test, or at the session end).
	w.scanOp(m, tr.statePost[g.frames], nil, siteScanOut, f)
}

// runEmptySession mirrors a session with no tests: the fault-parallel
// runBatch still scans out the reset (all-zero) state, so a stuck-at-1
// flip-flop output is observable even then. Single machine, lane 0.
func (w *ppWorker) runEmptySession(f ppFault) {
	w.laneMask = logic.LanesBelow(1)
	w.diverged = 0
	w.siteFirst = [numSites]logic.W64{}
	w.clearRing()
	if f.kind != ppStateStuck || w.e.m == 0 {
		return
	}
	// reset zeroes every lane, then pins the stuck position.
	w.setRingPos(f.pos, f.sv)
	w.scanOp(w.e.m, nil, nil, siteScanOut, f)
}

// scanOp performs S scan shifts on the difference ring: each shift
// observes the slot leaving the chain, rotates the head, and re-pins a
// stuck flip-flop output against the fault-free trajectory (pre is the
// state entering the operation, fill the packed incoming bits; both may
// be nil, meaning all-zero — the final scan-out). Returns true when the
// early exit fired.
func (w *ppWorker) scanOp(S int, pre, fill []logic.W64, site int, f ppFault) bool {
	m := w.e.m
	if m == 0 || S == 0 {
		return false
	}
	hasStuck := f.kind == ppStateStuck
	if w.dirtyCount == 0 && !hasStuck {
		// Nothing dirty and nothing re-pinning: the operation only moves
		// agreeing values past the scan output.
		w.rhead = ((w.rhead-S)%m + m) % m
		return false
	}
	for j := 1; j <= S; j++ {
		out := w.rhead - 1
		if out < 0 {
			out += m
		}
		if w.isDirty[out] {
			w.observe(site, w.ring[out])
			w.ring[out] = 0
			w.isDirty[out] = false
			w.dirtyCount--
		}
		// The vacated slot becomes position 0; its fill difference is 0
		// (fill bits agree across the good and faulty machines).
		w.rhead = out
		if hasStuck {
			// Fault-free value at the stuck position after j shifts: the
			// bit j below it before the operation, or an incoming fill bit.
			var good logic.W64
			if f.pos >= j {
				if pre != nil {
					good = pre[f.pos-j]
				}
			} else if fill != nil {
				good = fill[j-1-f.pos]
			}
			w.setRingPos(f.pos, good^f.sv)
		} else if w.dirtyCount == 0 {
			w.rhead = ((w.rhead-(S-j))%m + m) % m
			break
		}
		if w.stopEarly && w.diverged != 0 {
			return true
		}
	}
	return false
}

// frame runs one event-driven difference pass: seed the state and fault
// differences, propagate through the levelized buckets (each gate
// evaluated at most once, after all its fan-ins settled), then observe
// the primary outputs that changed.
func (w *ppWorker) frame(u int, tr *ppTrace, f ppFault) {
	w.epoch++
	w.active = w.active[:0]
	w.poHit = w.poHit[:0]
	w.minLvl, w.maxLvl = len(w.buckets), -1

	if w.dirtyCount > 0 {
		for _, slot := range w.dirtySlots {
			if !w.isDirty[slot] {
				continue
			}
			p := int(slot) - w.rhead
			if p < 0 {
				p += w.e.m
			}
			w.stampNode(w.e.dffNode[p], w.ring[slot])
		}
	}
	switch f.kind {
	case ppSourceStem:
		if d := tr.frameVals[u][f.gate] ^ f.sv; d != 0 {
			w.stampNode(int32(f.gate), d)
		}
	case ppGateStem, ppGatePin:
		w.push(int32(f.gate))
	}
	for lvl := w.minLvl; lvl <= w.maxLvl; lvl++ {
		b := w.buckets[lvl]
		for i := 0; i < len(b); i++ {
			w.evalDiff(int(b[i]), u, tr, f)
		}
		w.buckets[lvl] = b[:0]
	}
	for _, id := range w.poHit {
		w.observe(sitePO, w.diff[id])
	}
}

// stampNode records a nonzero difference on a node and schedules its
// combinational fanout (flip-flop fanouts are handled at capture).
func (w *ppWorker) stampNode(id int32, d logic.W64) {
	w.stamp[id] = w.epoch
	w.diff[id] = d
	w.active = append(w.active, id)
	if w.e.isPO[id] {
		w.poHit = append(w.poHit, id)
	}
	gs := w.e.c.Gates
	for _, fo := range gs[id].Fanout {
		if gs[fo].Type != circuit.DFF {
			w.push(int32(fo))
		}
	}
}

func (w *ppWorker) push(id int32) {
	if w.inBkt[id] == w.epoch {
		return
	}
	w.inBkt[id] = w.epoch
	lvl := w.e.c.Gates[id].Level
	w.buckets[lvl] = append(w.buckets[lvl], id)
	if lvl < w.minLvl {
		w.minLvl = lvl
	}
	if lvl > w.maxLvl {
		w.maxLvl = lvl
	}
}

// in reads a fan-in's faulty value: the trace value XOR its difference,
// if one was stamped this frame.
func (w *ppWorker) in(fi int, fv []logic.W64) logic.W64 {
	v := fv[fi]
	if w.stamp[fi] == w.epoch {
		v = v ^ w.diff[fi]
	}
	return v
}

// evalDiff re-evaluates one scheduled gate against the faulty fan-in
// values and stamps it if its output actually changed.
func (w *ppWorker) evalDiff(id int, u int, tr *ppTrace, f ppFault) {
	fv := tr.frameVals[u]
	gate := &w.e.c.Gates[id]
	var out logic.W64
	switch {
	case f.kind == ppGateStem && f.gate == id:
		out = f.sv
	case f.kind == ppGatePin && f.gate == id:
		out = w.evalGatePin(gate, fv, f)
	default:
		out = w.evalGateDiff(gate, fv)
	}
	if d := out ^ fv[id]; d != 0 {
		w.stampNode(int32(id), d)
	}
}

func (w *ppWorker) evalGateDiff(gate *circuit.Gate, fv []logic.W64) logic.W64 {
	var out logic.W64
	switch gate.Type {
	case circuit.And, circuit.Nand:
		out = ^out
		for _, fi := range gate.Fanin {
			out = out & w.in(fi, fv)
		}
		if gate.Type == circuit.Nand {
			out = ^out
		}
	case circuit.Or, circuit.Nor:
		for _, fi := range gate.Fanin {
			out = out | w.in(fi, fv)
		}
		if gate.Type == circuit.Nor {
			out = ^out
		}
	case circuit.Xor, circuit.Xnor:
		for _, fi := range gate.Fanin {
			out = out ^ w.in(fi, fv)
		}
		if gate.Type == circuit.Xnor {
			out = ^out
		}
	case circuit.Not:
		out = ^w.in(gate.Fanin[0], fv)
	case circuit.Buf:
		out = w.in(gate.Fanin[0], fv)
	case circuit.Const0:
		// zero
	case circuit.Const1:
		out = ^out
	default:
		panic(fmt.Sprintf("fsim: gate %q of type %s scheduled in difference pass", gate.Name, gate.Type))
	}
	return out
}

// evalGatePin evaluates the faulty gate of a branch fault: the stuck pin
// reads the stuck value, every other pin its faulty fan-in.
func (w *ppWorker) evalGatePin(gate *circuit.Gate, fv []logic.W64, f ppFault) logic.W64 {
	pin := func(i int) logic.W64 {
		if i == f.pin {
			return f.sv
		}
		return w.in(gate.Fanin[i], fv)
	}
	var out logic.W64
	switch gate.Type {
	case circuit.And, circuit.Nand:
		out = ^out
		for i := range gate.Fanin {
			out = out & pin(i)
		}
		if gate.Type == circuit.Nand {
			out = ^out
		}
	case circuit.Or, circuit.Nor:
		for i := range gate.Fanin {
			out = out | pin(i)
		}
		if gate.Type == circuit.Nor {
			out = ^out
		}
	case circuit.Xor, circuit.Xnor:
		for i := range gate.Fanin {
			out = out ^ pin(i)
		}
		if gate.Type == circuit.Xnor {
			out = ^out
		}
	case circuit.Not:
		out = ^pin(0)
	case circuit.Buf:
		out = pin(0)
	default:
		panic(fmt.Sprintf("fsim: branch fault on gate %q of type %s", gate.Name, gate.Type))
	}
	return out
}

// capture advances the difference ring across a functional clock: every
// flip-flop takes its capture source's difference (usually zero — old
// ring differences die unless re-fed), then the flip-flop fault, if any,
// re-pins its position against the fault-free next state.
func (w *ppWorker) capture(u int, tr *ppTrace, f ppFault) {
	if w.dirtyCount > 0 {
		for _, slot := range w.dirtySlots {
			if w.isDirty[slot] {
				w.ring[slot] = 0
				w.isDirty[slot] = false
			}
		}
		w.dirtyCount = 0
	}
	w.dirtySlots = w.dirtySlots[:0]
	for _, id := range w.active {
		for _, p := range w.e.sinks[id] {
			w.setRingPos(int(p), w.diff[id])
		}
	}
	if f.kind == ppCaptureStuck || f.kind == ppStateStuck {
		w.setRingPos(f.pos, tr.statePost[u+1][f.pos]^f.sv)
	}
}

func (w *ppWorker) setRingPos(p int, d logic.W64) {
	slot := w.rhead + p
	if slot >= w.e.m {
		slot -= w.e.m
	}
	if d == 0 {
		if w.isDirty[slot] {
			w.ring[slot] = d
			w.isDirty[slot] = false
			w.dirtyCount--
		}
		return
	}
	w.ring[slot] = d
	if !w.isDirty[slot] {
		w.isDirty[slot] = true
		w.dirtyCount++
		w.dirtySlots = append(w.dirtySlots, int32(slot))
	}
}

func (w *ppWorker) clearRing() {
	for _, slot := range w.dirtySlots {
		if w.isDirty[slot] {
			w.ring[slot] = 0
			w.isDirty[slot] = false
		}
	}
	w.dirtySlots = w.dirtySlots[:0]
	w.dirtyCount = 0
	w.rhead = 0
}

// observe folds one observed difference word into the session verdict:
// lanes diverging for the first time credit this site (within a lane,
// observations arrive in the fault-parallel session's order).
func (w *ppWorker) observe(site int, d logic.W64) {
	d = d & w.laneMask
	if d == 0 {
		return
	}
	newly := d &^ w.diverged
	if newly == 0 {
		return
	}
	w.siteFirst[site] = w.siteFirst[site] | newly
	w.diverged = w.diverged | newly
}
