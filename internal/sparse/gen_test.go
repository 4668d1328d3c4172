package sparse

import (
	"math"
	"testing"
)

func TestPoisson2DStructure(t *testing.T) {
	m := Poisson2D(4, 5)
	if m.Rows != 20 || m.Cols != 20 {
		t.Fatalf("dimensions %dx%d", m.Rows, m.Cols)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("Poisson2D must be symmetric")
	}
	if !isDiagDominant(m) {
		t.Error("Poisson2D must be diagonally dominant")
	}
	// Interior point has 5 nonzeros, corner has 3.
	nnzRow := func(i int) int { return m.Rowidx[i+1] - m.Rowidx[i] }
	if nnzRow(0) != 3 {
		t.Errorf("corner row nnz = %d, want 3", nnzRow(0))
	}
	// Row for grid point (1,1) = 1*5+1 = 6 is interior.
	if nnzRow(6) != 5 {
		t.Errorf("interior row nnz = %d, want 5", nnzRow(6))
	}
}

func TestPoisson3DStructure(t *testing.T) {
	m := Poisson3D(3, 3, 3)
	if m.Rows != 27 {
		t.Fatalf("rows = %d", m.Rows)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) || !isDiagDominant(m) {
		t.Error("Poisson3D must be symmetric diagonally dominant")
	}
	// Center point (1,1,1) has 7 nonzeros.
	center := (1*3+1)*3 + 1
	if got := m.Rowidx[center+1] - m.Rowidx[center]; got != 7 {
		t.Errorf("center row nnz = %d, want 7", got)
	}
}

func TestTridiag(t *testing.T) {
	m := Tridiag(5, 2, -1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 13 {
		t.Fatalf("nnz = %d, want 13", m.NNZ())
	}
	if m.At(2, 2) != 2 || m.At(2, 3) != -1 || m.At(2, 0) != 0 {
		t.Fatal("wrong entries")
	}
}

func TestRandomGraphLaplacianZeroColSums(t *testing.T) {
	m := RandomGraphLaplacian(50, 4, 0, 7)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("Laplacian must be symmetric")
	}
	// The defining property for the shifted-checksum discussion: every
	// column of a combinatorial Laplacian sums to zero.
	for j, s := range colSums(m) {
		if s != 0 {
			t.Fatalf("column %d sums to %v, want 0", j, s)
		}
	}
}

func TestRandomGraphLaplacianShifted(t *testing.T) {
	m := RandomGraphLaplacian(30, 4, 0.5, 7)
	if !isDiagDominant(m) {
		t.Error("shifted Laplacian must be strictly diag dominant")
	}
	for j, s := range colSums(m) {
		if math.Abs(s-0.5) > 1e-12 {
			t.Fatalf("column %d sums to %v, want 0.5", j, s)
		}
	}
}

func TestRandomGraphLaplacianDeterministic(t *testing.T) {
	a := RandomGraphLaplacian(40, 4, 0, 3)
	b := RandomGraphLaplacian(40, 4, 0, 3)
	if !a.Equal(b) {
		t.Fatal("generator is not deterministic for equal seeds")
	}
}

// TestRandomGraphLaplacianDegreeBound: a degree the graph cannot have is a
// panic, not an endless search for edges that do not exist; degree n−1 is
// the complete graph.
func TestRandomGraphLaplacianDegreeBound(t *testing.T) {
	for _, c := range [][2]int{{2, 4}, {5, 6}, {7, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n = %d, degree %d: no panic", c[0], c[1])
				}
			}()
			RandomGraphLaplacian(c[0], c[1], 0, 1)
		}()
	}
	if m := RandomGraphLaplacian(7, 6, 0, 1); m.NNZ() != 7*7 {
		t.Errorf("n = 7, degree 6: %d nonzeros, want the complete graph's 49", m.NNZ())
	}
}

func TestRandomSPD(t *testing.T) {
	m := RandomSPD(RandomSPDOptions{N: 200, Density: 0.05, DiagShift: 1, Seed: 1})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Error("RandomSPD must be symmetric")
	}
	if !isDiagDominant(m) {
		t.Error("RandomSPD must be strictly diagonally dominant")
	}
	// Density should be in the right ballpark (within 3x either way — the
	// generator rounds the per-row count).
	d := m.Density()
	if d < 0.05/3 || d > 0.05*3 {
		t.Errorf("density = %v, want ≈ 0.05", d)
	}
}

func TestRandomSPDDeterministic(t *testing.T) {
	opt := RandomSPDOptions{N: 100, Density: 0.03, DiagShift: 0.5, Seed: 42}
	if !RandomSPD(opt).Equal(RandomSPD(opt)) {
		t.Fatal("RandomSPD not deterministic")
	}
}

func TestDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dense(2, 2, []float64{1})
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 1, 5)
	m := c.ToCSR()
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2 (duplicates merged)", m.NNZ())
	}
	if m.At(0, 0) != 3 {
		t.Fatalf("At(0,0) = %v, want 3", m.At(0, 0))
	}
}

func TestCOOSortedColumns(t *testing.T) {
	c := NewCOO(1, 5)
	c.Add(0, 4, 1)
	c.Add(0, 0, 1)
	c.Add(0, 2, 1)
	m := c.ToCSR()
	for k := 1; k < m.NNZ(); k++ {
		if m.Colid[k-1] >= m.Colid[k] {
			t.Fatal("columns not sorted within row")
		}
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}
