// Package vec provides the dense vector kernels used by the iterative
// solvers in this repository: dot products, axpy updates, norms and
// element-wise helpers.
//
// All kernels operate on []float64 and panic on length mismatches, mirroring
// the contract of the BLAS level-1 routines they stand in for. Each kernel
// has a documented flop count (see Flops*) so the simulation clock in
// internal/sim can convert operations into model time units.
package vec

import (
	"fmt"
	"math"
)

// checkLen panics if the two vectors have different lengths. The solvers
// never mix lengths, so a mismatch is a programming error, not a runtime
// condition to recover from.
func checkLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec.%s: length mismatch %d != %d", op, len(a), len(b)))
	}
}

// MaxAbsDiff returns max |aᵢ − bᵢ|, a convenient convergence/corruption metric.
func MaxAbsDiff(a, b []float64) float64 {
	checkLen("MaxAbsDiff", a, b)
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Dot returns the inner product aᵀb.
func Dot(a, b []float64) float64 {
	checkLen("Dot", a, b)
	var s float64
	for i, ai := range a {
		s += ai * b[i]
	}
	return s
}

// Axpy computes y ← y + alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	checkLen("Axpy", x, y)
	for i, xi := range x {
		y[i] += alpha * xi
	}
}

// AxpyTo computes dst ← y + alpha*x without modifying y. dst may alias y or x.
func AxpyTo(dst []float64, alpha float64, x, y []float64) {
	checkLen("AxpyTo", x, y)
	checkLen("AxpyTo", dst, y)
	for i := range dst {
		dst[i] = y[i] + alpha*x[i]
	}
}

// Xpay computes y ← x + alpha*y in place (used for the CG direction update
// p ← r + beta*p).
func Xpay(alpha float64, x, y []float64) {
	checkLen("Xpay", x, y)
	for i, xi := range x {
		y[i] = xi + alpha*y[i]
	}
}

// Norm2 returns the Euclidean norm ‖a‖₂. It guards against overflow by
// scaling, like the reference BLAS dnrm2.
func Norm2(a []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range a {
		if v == 0 {
			continue
		}
		av := math.Abs(v)
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Norm2Sq returns ‖a‖₂² as a plain sum of squares (no overflow guard); this
// is the quantity the CG recurrences actually use.
func Norm2Sq(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return s
}

// Norm1 returns the 1-norm Σ|aᵢ|.
func Norm1(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-norm max|aᵢ|.
func NormInf(a []float64) float64 {
	var m float64
	for _, v := range a {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Sum returns Σaᵢ.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// WeightedSum returns Σ wᵢ aᵢ for arbitrary weights. It is the building block
// of the ABFT checksum rows.
func WeightedSum(w, a []float64) float64 {
	checkLen("WeightedSum", w, a)
	var s float64
	for i, v := range a {
		s += w[i] * v
	}
	return s
}

// Scale computes a ← alpha*a in place.
func Scale(alpha float64, a []float64) {
	for i := range a {
		a[i] *= alpha
	}
}

// Copy copies src into dst.
func Copy(dst, src []float64) {
	checkLen("Copy", dst, src)
	copy(dst, src)
}

// Clone returns a newly allocated copy of a.
func Clone(a []float64) []float64 {
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// Sub computes dst ← a − b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", a, b)
	checkLen("Sub", dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Add computes dst ← a + b. dst may alias a or b.
func Add(dst, a, b []float64) {
	checkLen("Add", a, b)
	checkLen("Add", dst, a)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Fill sets every element of a to v.
func Fill(a []float64, v float64) {
	for i := range a {
		a[i] = v
	}
}

// Zero sets every element of a to 0.
func Zero(a []float64) { Fill(a, 0) }

// Equal reports whether a and b are element-wise identical (bit-for-bit,
// except that NaN==NaN is considered true so corrupted states compare sanely).
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// Flop counts for the kernels above, in floating point operations, as used
// by the cost model. n is the vector length.

// FlopsDot is the flop count of Dot on length-n vectors.
func FlopsDot(n int) int64 { return 2 * int64(n) }

// FlopsAxpy is the flop count of Axpy on length-n vectors.
func FlopsAxpy(n int) int64 { return 2 * int64(n) }

// FlopsNorm2 is the flop count of Norm2 on a length-n vector.
func FlopsNorm2(n int) int64 { return 2 * int64(n) }
