package precond

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vec"
)

func TestJacobi(t *testing.T) {
	a := sparse.Tridiag(4, 2, -1)
	m, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("Jacobi nnz = %d, want 4", m.NNZ())
	}
	for i := 0; i < 4; i++ {
		if m.At(i, i) != 0.5 {
			t.Fatalf("M[%d][%d] = %v, want 0.5", i, i, m.At(i, i))
		}
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	a := sparse.Dense(2, 2, []float64{0, 1, 1, 0})
	if _, err := Jacobi(a); err == nil {
		t.Fatal("expected zero-diagonal error")
	}
}

func TestJacobiNonSquare(t *testing.T) {
	a := sparse.Dense(2, 3, make([]float64, 6))
	if _, err := Jacobi(a); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestNeumannTwoTermsSymmetric(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 60, Density: 0.1, DiagShift: 1, Seed: 3})
	m, err := Neumann(a)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(1e-14) {
		t.Fatal("two-term Neumann of symmetric A must be symmetric")
	}
}

func TestNeumannImprovesOverJacobi(t *testing.T) {
	// ‖I − M·A‖ should shrink going from Jacobi (one term) to two terms on
	// a diagonally dominant matrix. Measure via the residual of applying M to random
	// vectors: ‖M·A·v − v‖ / ‖v‖.
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 80, Density: 0.08, DiagShift: 2, Seed: 5})
	resid := func(m *sparse.CSR) float64 {
		n := a.Rows
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%7) - 3
		}
		av := make([]float64, n)
		mav := make([]float64, n)
		a.MulVec(av, v)
		m.MulVec(mav, av)
		vec.Sub(mav, mav, v)
		return vec.Norm2(mav) / vec.Norm2(v)
	}
	m1, _ := Jacobi(a)
	m2, _ := Neumann(a)
	r1, r2 := resid(m1), resid(m2)
	if r2 >= r1 {
		t.Fatalf("two-term residual %v not below one-term %v", r2, r1)
	}
}

func TestNeumannDefaultTerms(t *testing.T) {
	a := sparse.Tridiag(4, 2, -1)
	m, err := Neumann(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() <= 4 {
		t.Fatal("two-term Neumann should have off-diagonal entries")
	}
}

// entrywiseNeumann is the two-term assembly Neumann replaced, at the drop
// tolerance 0 every caller ran: it buffers the nonzeros, finds their
// largest magnitude and keeps the diagonal and every entry at or above
// 0 × that.
func entrywiseNeumann(a *sparse.CSR) *sparse.CSR {
	n := a.Rows
	d := a.Diag()
	type entry struct {
		i, j int
		v    float64
	}
	var entries []entry
	maxAbs := 0.0
	for i := 0; i < n; i++ {
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			j := a.Colid[k]
			v := -a.Val[k] / (d[i] * d[j])
			if i == j {
				v += 2 / d[i]
			}
			if v != 0 {
				entries = append(entries, entry{i, j, v})
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
		}
	}
	thresh := 0 * maxAbs
	c := sparse.NewCOO(n, n)
	for _, e := range entries {
		if e.i == e.j || math.Abs(e.v) >= thresh {
			c.Add(e.i, e.j, e.v)
		}
	}
	return c.ToCSR()
}

// TestNeumannMatchesEntrywiseAssembly holds Neumann, which adds each
// nonzero straight to its COO, to the buffered assembly it replaced:
// the same Rowidx, Colid and Val bits on generated operands and on one
// whose rows list their columns out of order, with an explicit zero and a
// duplicate entry.
func TestNeumannMatchesEntrywiseAssembly(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"poisson2d": sparse.Poisson2D(7, 5),
		"poisson3d": sparse.Poisson3D(4, 3, 5),
		"tridiag":   sparse.Tridiag(9, 4, -1.5),
		"unordered": {
			Rows: 4, Cols: 4,
			Rowidx: []int{0, 3, 5, 9, 11},
			Colid:  []int{2, 1, 0, 1, 0, 3, 2, 0, 2, 3, 2},
			Val:    []float64{-0.5, -1, 4, 3, -1, -0.25, 5, 0, 0.125, 6, -0.25},
		},
	}
	for _, n := range []int{1, 2, 7, 60, 300} {
		for _, density := range []float64{0.01, 0.1, 0.5} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("randomspd n=%d density=%g seed=%d", n, density, seed)
				mats[name] = sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: density, DiagShift: 0.5, Seed: seed})
			}
		}
	}
	for name, a := range mats {
		got, err := Neumann(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := entrywiseNeumann(a)
		if !slices.Equal(got.Rowidx, want.Rowidx) || !slices.Equal(got.Colid, want.Colid) {
			t.Fatalf("%s: pattern differs from the entrywise assembly", name)
		}
		for k := range want.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("%s: Val[%d] = %v, want %v", name, k, got.Val[k], want.Val[k])
			}
		}
	}
}
