package precond

import (
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

func TestNeumannOneTermIsJacobi(t *testing.T) {
	a := sparse.Tridiag(5, 2, -1)
	m1, err := Neumann(a, NeumannOptions{Terms: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := Jacobi(a)
	if !m1.Equal(j) {
		t.Fatal("one-term Neumann must equal Jacobi")
	}
}

func TestNeumannTwoTermsSymmetric(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 60, Density: 0.1, DiagShift: 1, Seed: 3})
	m, err := Neumann(a, NeumannOptions{Terms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(1e-14) {
		t.Fatal("two-term Neumann of symmetric A must be symmetric")
	}
}

func TestNeumannImprovesOverJacobi(t *testing.T) {
	// ‖I − M·A‖ should shrink going from 1 to 2 terms on a diagonally
	// dominant matrix. Measure via the residual of applying M to random
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
	m1, _ := Neumann(a, NeumannOptions{Terms: 1})
	m2, _ := Neumann(a, NeumannOptions{Terms: 2})
	r1, r2 := resid(m1), resid(m2)
	if r2 >= r1 {
		t.Fatalf("two-term residual %v not below one-term %v", r2, r1)
	}
}

func TestNeumannDropTol(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 60, Density: 0.1, DiagShift: 1, Seed: 7})
	full, _ := Neumann(a, NeumannOptions{Terms: 2})
	dropped, _ := Neumann(a, NeumannOptions{Terms: 2, DropTol: 0.5})
	if dropped.NNZ() >= full.NNZ() {
		t.Fatalf("drop tolerance did not sparsify: %d vs %d", dropped.NNZ(), full.NNZ())
	}
	// Diagonal must be preserved regardless of dropping.
	for i := 0; i < 60; i++ {
		if dropped.At(i, i) == 0 {
			t.Fatalf("diagonal entry %d dropped", i)
		}
	}
}

func TestNeumannBadTerms(t *testing.T) {
	a := sparse.Tridiag(4, 2, -1)
	if _, err := Neumann(a, NeumannOptions{Terms: 3}); err == nil {
		t.Fatal("expected error for unsupported term count")
	}
}

func TestNeumannDefaultTerms(t *testing.T) {
	a := sparse.Tridiag(4, 2, -1)
	m, err := Neumann(a, NeumannOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() <= 4 {
		t.Fatal("default (2-term) Neumann should have off-diagonal entries")
	}
}
