package abft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/checksum"
	"repro/internal/sparse"
)

// patterned returns an n×n matrix of a set diagonal and 0 to perRow further
// nonzeros a row, with values drawn by val(i) for row i.
func patterned(rng *rand.Rand, n, perRow int, val func(i int) float64) *sparse.CSR {
	a := &sparse.CSR{Rows: n, Cols: n, Rowidx: make([]int, n+1)}
	for i := 0; i < n; i++ {
		a.Colid = append(a.Colid, i)
		for k := rng.Intn(perRow + 1); k > 0; k-- {
			a.Colid = append(a.Colid, rng.Intn(n))
		}
		a.Rowidx[i+1] = len(a.Colid)
	}
	a.Val = make([]float64, len(a.Colid))
	for i := 0; i < n; i++ {
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			a.Val[k] = val(i)
		}
	}
	return a
}

// drawn returns n values of val.
func drawn(n int, val func() float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = val()
	}
	return v
}

// pick returns a random element of vs.
func pick(rng *rand.Rand, vs ...float64) float64 { return vs[rng.Intn(len(vs))] }

// operandFamilies are the fault-free operands that come closest to Eq. (9)'s
// bound: every one is a clean product that must not be flagged.
var operandFamilies = []struct {
	name  string
	build func(rng *rand.Rand, n int) (*sparse.CSR, []float64)
}{
	{"badly scaled rows", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return rng.NormFloat64() })
		for i := 0; i < n; i++ {
			s := math.Pow(10, float64(rng.Intn(41)-20))
			for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
				a.Val[k] *= s
			}
		}
		return a, drawn(n, rng.NormFloat64)
	}},
	{"cancelling row sums", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		// Rows of ±M pairs over an x of ones plus noise: y is what is left
		// of products a million times larger.
		a := patterned(rng, n, 6, func(int) float64 { return 0 })
		for i := 0; i < n; i++ {
			m := math.Pow(10, float64(6+rng.Intn(7)))
			for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
				if a.Val[k] = m; (k-a.Rowidx[i])%2 == 1 {
					a.Val[k] = -m
				}
			}
		}
		return a, drawn(n, func() float64 { return 1 + 1e-9*rng.NormFloat64() })
	}},
	{"1e+150 magnitudes", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return 1e150 * rng.NormFloat64() })
		return a, drawn(n, func() float64 { return 1e150 * rng.NormFloat64() })
	}},
	{"1e-150 magnitudes", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return 1e-150 * rng.NormFloat64() })
		return a, drawn(n, func() float64 { return 1e-150 * rng.NormFloat64() })
	}},
	{"mixed 1e±150 magnitudes", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return pick(rng, 1e150, 1, 1e-150) * rng.NormFloat64() })
		return a, drawn(n, func() float64 { return pick(rng, 1e150, 1, 1e-150) * rng.NormFloat64() })
	}},
	{"subnormals among normals", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		val := func() float64 { return pick(rng, 5e-324, 1e-310, 1) * rng.NormFloat64() }
		a := patterned(rng, n, 6, func(int) float64 { return val() })
		return a, drawn(n, val)
	}},
	{"subnormal matrix", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return 1e-310 * rng.NormFloat64() })
		return a, drawn(n, rng.NormFloat64)
	}},
	{"subnormal x", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return rng.NormFloat64() })
		return a, drawn(n, func() float64 { return 1e-310 * rng.NormFloat64() })
	}},
	{"all-zero x", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := patterned(rng, n, 6, func(int) float64 { return rng.NormFloat64() })
		return a, drawn(n, func() float64 { return pick(rng, 0, math.Copysign(0, -1)) })
	}},
	{"zero-column-sum Laplacian", func(rng *rand.Rand, n int) (*sparse.CSR, []float64) {
		a := sparse.RandomGraphLaplacian(n, min(4, n-1), 0, rng.Int63())
		if rng.Intn(2) == 0 {
			return a, drawn(n, func() float64 { return 1 }) // its null space: y is zero
		}
		return a, drawn(n, rng.NormFloat64)
	}},
}

// TestNoFalsePositivesAdversarialFamilies is guarantee 3 on the tolerance
// every product runs: for each family, sizes on and off the sampling stride
// and both modes, a fault-free product passes Verify, its input passes a
// guard's Check, and the worst defect over its exact Eq. (9) tolerance is
// logged (go test -v shows the margins).
func TestNoFalsePositivesAdversarialFamilies(t *testing.T) {
	for fi, fam := range operandFamilies {
		worst := 0.0
		for _, n := range []int{2, 17, 64, 200, 333} {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(int64(fi)*1000 + int64(n)*10 + seed))
				a, x := fam.build(rng, n)
				for _, mode := range []Mode{Detect, DetectCorrect} {
					p := NewProtected(a, mode)
					if p.CS.Err != nil {
						t.Fatalf("%s, n=%d seed %d: %v", fam.name, n, seed, p.CS.Err)
					}
					xRef := checksum.NewVector(x)
					y := make([]float64, n)
					sr := p.MulVec(y, x)
					d, tol := exactTolerances(p, y, x, xRef)
					for k := range d {
						if d[k] != 0 {
							worst = math.Max(worst, math.Abs(d[k])/tol[k])
						}
					}
					if out := p.Verify(y, x, xRef, sr); out.Detected {
						t.Errorf("%s, n=%d seed %d, %v: clean product flagged %+v (defects %v, tolerances %v)",
							fam.name, n, seed, mode, out, d, tol)
					}
					if out := NewGuard(x, mode).Check(x); out.Detected {
						t.Errorf("%s, n=%d seed %d, %v: clean vector flagged %+v", fam.name, n, seed, mode, out)
					}
				}
			}
		}
		t.Logf("%-26s worst |defect|/tolerance %.3g", fam.name, worst)
	}
}
