package fsim

import (
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/fault"
)

// BenchmarkKernelFaultParallel and BenchmarkKernelPatternParallel time
// the two kernels on the same TS0-shaped session (256 scan-free random
// tests of 8 vectors on s1196) at one worker — the session shape Run
// hands to the pattern-parallel kernel. `make benchgate` runs the pair
// and requires the pattern-parallel kernel to be at least 2x faster.
func BenchmarkKernelFaultParallel(b *testing.B) { benchKernel(b, kernelFault) }

// BenchmarkKernelPatternParallel is the pattern-parallel half of the pair.
func BenchmarkKernelPatternParallel(b *testing.B) { benchKernel(b, kernelPattern) }

func benchKernel(b *testing.B, k kernel) {
	c, err := bmark.Load("s1196")
	if err != nil {
		b.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 256, 8, false, 1196)
	s := New(c)
	o := Options{Workers: 1, kernel: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(tests, fault.NewSet(reps), o); err != nil {
			b.Fatal(err)
		}
	}
}
