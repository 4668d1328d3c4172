package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// TestBlockedReductionsDeterministic is the core determinism contract: the
// blocked reductions are a function of their operands — BlockSize partials,
// each summed left to right, folded in block order — at lengths that are and
// are not block-aligned. The bits are the ones the kernels produced when a
// worker pool could still run the blocks (recorded at the last commit that
// had one, for these operands): every residual hash of a system beyond
// BlockSize rows depends on them.
func TestBlockedReductionsDeterministic(t *testing.T) {
	for _, want := range []struct {
		n         int
		dot, norm uint64
	}{
		{BlockSize + 1, 0xc048e1bb7d3ea431, 0x40b036d06ede405f},
		{2 * BlockSize, 0xc05cf47c20f836f2, 0x40c071b80fc54a56},
		{100003, 0xc07780432c96215a, 0x40f8790e08edcfd8},
	} {
		a := randSlice(want.n, 1)
		b := randSlice(want.n, 2)
		if got := math.Float64bits(DotBlocked(a, b)); got != want.dot {
			t.Errorf("n=%d: DotBlocked = %#x, want %#x", want.n, got, want.dot)
		}
		if got := math.Float64bits(Norm2SqBlocked(a)); got != want.norm {
			t.Errorf("n=%d: Norm2SqBlocked = %#x, want %#x", want.n, got, want.norm)
		}

		// The definition, spelled out: plain sums of the blocks, in order.
		var dot, norm float64
		for lo := 0; lo < want.n; lo += BlockSize {
			hi := min(lo+BlockSize, want.n)
			dot += Dot(a[lo:hi], b[lo:hi])
			norm += Norm2Sq(a[lo:hi])
		}
		if math.Float64bits(dot) != want.dot || math.Float64bits(norm) != want.norm {
			t.Errorf("n=%d: block-order fold of the plain kernels gives %#x, %#x", want.n, math.Float64bits(dot), math.Float64bits(norm))
		}
	}
}

// TestSingleBlockMatchesPlainKernels pins the small-vector identity the TMR
// tests and the solvers rely on: under one block the blocked kernels are the
// plain kernels, bit for bit.
func TestSingleBlockMatchesPlainKernels(t *testing.T) {
	for _, n := range []int{1, BlockSize - 1, BlockSize} {
		a := randSlice(n, 3)
		b := randSlice(n, 4)
		if DotBlocked(a, b) != Dot(a, b) {
			t.Fatalf("n=%d: single-block DotBlocked must equal plain Dot", n)
		}
		if Norm2SqBlocked(a) != Norm2Sq(a) {
			t.Fatalf("n=%d: single-block Norm2SqBlocked must equal plain Norm2Sq", n)
		}
	}
}

func TestPoolKernelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotBlocked must panic on length mismatch")
		}
	}()
	DotBlocked(make([]float64, 3), make([]float64, 4))
}
