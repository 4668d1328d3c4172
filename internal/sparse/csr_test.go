package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fixture: the 3x3 matrix
//
//	[ 2 -1  0]
//	[-1  2 -1]
//	[ 0 -1  2]
func tri3() *CSR { return Tridiag(3, 2, -1) }

func TestCSRValidateOK(t *testing.T) {
	m := tri3()
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.NNZ() != 7 {
		t.Fatalf("NNZ = %d, want 7", m.NNZ())
	}
	if m.MemoryWords() != 7+7+4 {
		t.Fatalf("MemoryWords = %d", m.MemoryWords())
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"rowidx0", func(m *CSR) { m.Rowidx[0] = 1 }},
		{"rowidxLast", func(m *CSR) { m.Rowidx[m.Rows] = 99 }},
		{"rowidxDecreasing", func(m *CSR) { m.Rowidx[1] = m.Rowidx[2] + 1 }},
		{"colidNegative", func(m *CSR) { m.Colid[0] = -1 }},
		{"colidTooBig", func(m *CSR) { m.Colid[0] = m.Cols }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tri3()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted corrupted matrix")
			}
		})
	}
}

func TestMulVec(t *testing.T) {
	m := tri3()
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(y, x)
	want := []float64{0, 0, 4} // [2-2, -1+4-3, -2+6]
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

func TestMulVecRowRobust(t *testing.T) {
	m := tri3()
	x := []float64{1, 2, 3}
	for i := 0; i < 3; i++ {
		y := make([]float64, 3)
		m.MulVec(y, x)
		if got := m.MulVecRowRobust(i, x); got != y[i] {
			t.Fatalf("MulVecRowRobust(%d) = %v, want %v", i, got, y[i])
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := tri3()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MulVec(make([]float64, 2), make([]float64, 3))
}

func TestNorms(t *testing.T) {
	m := Dense(2, 2, []float64{1, -2, 3, 4})
	if got := m.Norm1(); got != 6 { // col sums |1|+|3|=4, |2|+|4|=6
		t.Errorf("Norm1 = %v, want 6", got)
	}
}

// colSums returns the vector of column sums cⱼ = Σᵢ aᵢⱼ, i.e. the unshifted
// ones-weighted checksum row of the matrix.
func colSums(m *CSR) []float64 {
	sums := make([]float64, m.Cols)
	for k, v := range m.Val {
		sums[m.Colid[k]] += v
	}
	return sums
}

// isDiagDominant reports whether |aᵢᵢ| ≥ Σ_{j≠i} |aᵢⱼ| for all rows, with
// strict inequality in at least one row. Together with symmetry and positive
// diagonal this certifies positive definiteness of the generated test
// matrices.
func isDiagDominant(m *CSR) bool {
	strict := false
	for i := 0; i < m.Rows; i++ {
		var off, diag float64
		for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
			if m.Colid[k] == i {
				diag = math.Abs(m.Val[k])
			} else {
				off += math.Abs(m.Val[k])
			}
		}
		if diag < off {
			return false
		}
		if diag > off {
			strict = true
		}
	}
	return strict
}

func TestColSumsDiagAt(t *testing.T) {
	m := tri3()
	cs := colSums(m)
	want := []float64{1, 0, 1}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("ColSums = %v, want %v", cs, want)
		}
	}
	d := m.Diag()
	for i := range d {
		if d[i] != 2 {
			t.Fatalf("Diag = %v", d)
		}
	}
	if m.At(0, 1) != -1 || m.At(0, 2) != 0 {
		t.Fatal("At wrong")
	}
}

func TestCloneCopyEqual(t *testing.T) {
	m := tri3()
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("Clone not Equal")
	}
	c.Val[0] = 42
	if m.Equal(c) {
		t.Fatal("Equal missed value diff")
	}
	if m.Val[0] == 42 {
		t.Fatal("Clone shares Val array")
	}
	m.CopyFrom(c)
	if !m.Equal(c) {
		t.Fatal("CopyFrom did not restore equality")
	}
}

func TestEqualNaN(t *testing.T) {
	m := tri3()
	c := m.Clone()
	m.Val[0] = math.NaN()
	c.Val[0] = math.NaN()
	if !m.Equal(c) {
		t.Fatal("Equal should treat NaN == NaN")
	}
}

func TestSymmetryChecks(t *testing.T) {
	if !tri3().IsSymmetric(0) {
		t.Error("tridiag should be symmetric")
	}
	if Dense(2, 2, []float64{1, 2, 0, 3}).IsSymmetric(0) {
		t.Error("upper triangular is not symmetric")
	}
	if !isDiagDominant(tri3()) {
		t.Error("tridiag(2,-1) should be weakly diag dominant with strict rows")
	}
}

func TestFlopsMulVec(t *testing.T) {
	if tri3().FlopsMulVec() != 14 {
		t.Fatal("FlopsMulVec wrong")
	}
}

func TestDensity(t *testing.T) {
	m := tri3()
	if got := m.Density(); math.Abs(got-7.0/9.0) > 1e-15 {
		t.Fatalf("Density = %v", got)
	}
}

// Property: MulVec agrees with a naive dense multiply on random matrices.
func TestMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		dense := make([]float64, n*n)
		for i := range dense {
			if rng.Float64() < 0.3 {
				dense[i] = rng.NormFloat64()
			}
		}
		m := Dense(n, n, dense)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		m.MulVec(y, x)
		for i := 0; i < n; i++ {
			var want float64
			for j := 0; j < n; j++ {
				want += dense[i*n+j] * x[j]
			}
			if math.Abs(want-y[i]) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
