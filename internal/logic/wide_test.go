package logic

import "testing"

// TestLanesW64 exercises the W64 lane helpers against a scalar reference
// over all 64 lanes.
func TestLanesW64(t *testing.T) {
	var zero W64
	if zero.LowestSet() != -1 {
		t.Fatalf("LowestSet(zero) = %d, want -1", zero.LowestSet())
	}
	if ones := ^zero; ones.LowestSet() != 0 {
		t.Fatalf("LowestSet(ones) = %d, want 0", ones.LowestSet())
	}

	// A pseudo-random lane pattern built lane by lane.
	var a W64
	abits := make([]uint8, W64Lanes)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < W64Lanes; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		abits[i] = uint8(x & 1)
		if abits[i] == 1 {
			a = a.WithLane(i)
		}
	}
	for i := 0; i < W64Lanes; i++ {
		if a.Get(i) != abits[i] {
			t.Fatalf("WithLane/Get mismatch at lane %d", i)
		}
	}

	// LowestSet on a single high lane, and LanesBelow at every boundary.
	for _, i := range []int{0, 1, 32, 63} {
		if got := zero.WithLane(i).LowestSet(); got != i {
			t.Fatalf("LowestSet(lane %d) = %d", i, got)
		}
	}
	for _, cut := range []int{-1, 0, 1, 63, 64, 65} {
		m := LanesBelow(cut)
		for i := 0; i < W64Lanes; i++ {
			want := uint8(0)
			if i < cut {
				want = 1
			}
			if m.Get(i) != want {
				t.Fatalf("LanesBelow(%d) lane %d = %d, want %d", cut, i, m.Get(i), want)
			}
		}
	}
}
