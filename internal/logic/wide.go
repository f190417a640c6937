package logic

import "math/bits"

// W64 is a 64-lane pattern batch: the fault simulator's pattern-parallel
// kernel (PPSFP) packs one test pattern per lane and simulates a single
// fault across all of them at once. It is a distinct named type rather
// than an alias of Word because a pattern lane and a fault lane must
// never be confused: Word packs 63 faults plus the good machine, a W64
// packs only tests. The lane-wise connectives are Go's bit operators.
type W64 uint64

// W64Lanes is the number of lanes in a W64.
const W64Lanes = 64

// Get extracts lane i as 0 or 1. Callers must keep 0 <= i < W64Lanes.
func (w W64) Get(i int) uint8 { return uint8((w >> uint(i&63)) & 1) }

// WithLane returns the word with lane i additionally set.
func (w W64) WithLane(i int) W64 { return w | W64(1)<<uint(i&63) }

// LowestSet returns the index of the lowest set lane, or -1 if none.
func (w W64) LowestSet() int {
	if w == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(w))
}

// LanesBelow returns a word with lanes 0..n-1 set.
func LanesBelow(n int) W64 {
	if n <= 0 {
		return 0
	}
	if n >= W64Lanes {
		return ^W64(0)
	}
	return W64(1)<<uint(n) - 1
}
