// Package vec provides the dense vector kernels used by the iterative
// solvers in this repository: dot products, axpy updates, norms and
// element-wise helpers.
//
// All kernels operate on []float64 and panic on length mismatches, mirroring
// the contract of the BLAS level-1 routines they stand in for.
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

// Sub computes dst ← a − b. dst may alias a or b.
func Sub(dst, a, b []float64) {
	checkLen("Sub", a, b)
	checkLen("Sub", dst, a)
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}
