package checksum

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestGamma(t *testing.T) {
	g := Gamma(100)
	want := 100 * 0x1p-53 / (1 - 100*0x1p-53)
	if g != want {
		t.Fatalf("Gamma(100) = %v, want %v", g, want)
	}
	if Gamma(10) >= Gamma(20) {
		t.Fatal("Gamma must be increasing")
	}
}

func TestSums(t *testing.T) {
	s1, s2 := Sums([]float64{10, 20, 30})
	if s1 != 60 {
		t.Errorf("s1 = %v, want 60", s1)
	}
	if s2 != 10+40+90 {
		t.Errorf("s2 = %v, want 140", s2)
	}
}

func TestSumsInt(t *testing.T) {
	s1, s2 := sumsInt([]int{1, 2, 3})
	if s1 != 6 || s2 != 1+4+9 {
		t.Fatalf("sumsInt = %v, %v", s1, s2)
	}
}

func TestNewMatrixChecksums(t *testing.T) {
	// A = [2 -1 0; -1 2 -1; 0 -1 2]
	a := sparse.Tridiag(3, 2, -1)
	m := NewMatrix(a)
	// Column sums: [1, 0, 1]; weighted (1,2,3) column sums:
	// col0: 1*2 + 2*(-1) = 0; col1: 1*(-1)+2*2+3*(-1) = 0; col2: 2*(-1)+3*2 = 4.
	wantC1 := []float64{1, 0, 1}
	wantC2 := []float64{0, 0, 4}
	for j := range wantC1 {
		if m.C1[j] != wantC1[j] {
			t.Fatalf("C1 = %v, want %v", m.C1, wantC1)
		}
		if m.C2[j] != wantC2[j] {
			t.Fatalf("C2 = %v, want %v", m.C2, wantC2)
		}
	}
	// AbsC1: column sums of |A|: [3, 4, 3].
	if m.AbsC1[1] != 4 {
		t.Fatalf("AbsC1 = %v", m.AbsC1)
	}
	// Rowidx = [0 1 4 7] → wait: Tridiag(3) rowidx is [0,2,5,7].
	cr1, cr2 := sumsInt(a.Rowidx)
	if m.CR1 != cr1 || m.CR2 != cr2 {
		t.Fatal("Rowidx checksums wrong")
	}
	// Shift: norm1 = 4, k = 5, and C1[j]+k ∈ {6,5,6} all nonzero.
	if m.K != 5 {
		t.Fatalf("K = %v, want 5", m.K)
	}
	for j := range m.C1 {
		if m.C1[j]+m.K == 0 {
			t.Fatal("shifted checksum has a zero column")
		}
	}
}

func TestShiftKHandlesZeroColumnSums(t *testing.T) {
	// Graph Laplacians have exactly zero column sums: the motivating case.
	a := sparse.RandomGraphLaplacian(60, 4, 0, 5)
	m := NewMatrix(a)
	for j := range m.C1 {
		if m.C1[j] != 0 {
			t.Fatalf("Laplacian column %d sum = %v, want 0", j, m.C1[j])
		}
		if m.C1[j]+m.K == 0 {
			t.Fatal("shift failed to clear zero column")
		}
	}
}

// TestShiftKAdversarial: the shift is a closed form of ‖A‖₁, whatever its
// magnitude. From 2⁵³ on, adding 1 to the norm no longer changes it, and the
// loop that used to search for a shift never returned once a column summed to
// −‖A‖₁ — the 1×1 matrix [−1e20] did it.
func TestShiftKAdversarial(t *testing.T) {
	for _, norm1 := range []float64{0, 1.5, 1<<53 - 1, 1 << 53, 1e20, math.MaxFloat64 / 2} {
		k, err := ShiftK(norm1)
		if err != nil {
			t.Fatalf("ShiftK(%g): %v", norm1, err)
		}
		// The two extreme column sums a matrix of that norm can have.
		if -norm1+k == 0 || norm1+k == 0 || !(k > norm1) {
			t.Fatalf("ShiftK(%g) = %g collides with a column of that magnitude", norm1, k)
		}
	}
	m := NewMatrix(sparse.Dense(1, 1, []float64{-1e20}))
	if m.Err != nil || m.C1[0]+m.K == 0 {
		t.Fatalf("[-1e20]: K = %g, Err = %v", m.K, m.Err)
	}
}

// TestNoRepresentableShift: a norm that is not finite — or too large to
// double — is the typed error, and travels with the encoding.
func TestNoRepresentableShift(t *testing.T) {
	for _, norm1 := range []float64{math.Inf(1), math.NaN(), math.MaxFloat64} {
		if _, err := ShiftK(norm1); !errors.Is(err, ErrNoShift) {
			t.Fatalf("ShiftK(%g): err = %v, want ErrNoShift", norm1, err)
		}
	}
	for _, val := range [][]float64{
		{math.NaN(), 1, 1, 2},      // the NaN column comes before a finite one
		{math.Inf(-1), 0, 0, 1},    // an infinite entry
		{1e308, 0, -1e308, 0},      // finite entries, a column that overflows
		{1, 0, 0, math.MaxFloat64}, // a norm whose double overflows
	} {
		m := NewMatrix(sparse.Dense(2, 2, val))
		if !errors.Is(m.Err, ErrNoShift) {
			t.Fatalf("%v: Err = %v (‖A‖₁ = %g), want ErrNoShift", val, m.Err, m.Norm1)
		}
		// Reusing the storage for a matrix that has an encoding clears it.
		if m = NewMatrixInto(m, sparse.Dense(2, 2, []float64{1, 2, 3, 4})); m.Err != nil || m.K != 7 {
			t.Fatalf("re-encoding after %v: K = %g, Err = %v", val, m.K, m.Err)
		}
	}
}

func TestNewMatrixRequiresSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(sparse.Dense(2, 3, make([]float64, 6)))
}

// eq7Tolerance is the componentwise rounding tolerance of the paper's Eq. (7)
// for the weight row r ∈ {1, 2}, computed from A itself,
//
//	2 γ_{2n} Σ_j (|w_r|ᵀ|A|)_j·|x_j|   (+ 2 γ_{2n} |k| Σ_j |x_j| for row 1)
//
// the row-1 term covering the shift. No product runs it: it is the tight
// reference the identities below are held to, and the bound Eq. (9) must
// dominate.
func eq7Tolerance(a *sparse.CSR, m *Matrix, r int, x []float64) float64 {
	absW := make([]float64, a.Cols) // |w_r|ᵀ|A|
	for i := 0; i < a.Rows; i++ {
		w := 1.0
		if r == 2 {
			w = float64(i + 1)
		}
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			absW[a.Colid[k]] += w * math.Abs(a.Val[k])
		}
	}
	var s, sx float64
	for j, xj := range x {
		s += absW[j] * math.Abs(xj)
		sx += math.Abs(xj)
	}
	if r == 1 {
		s += math.Abs(m.K) * sx
	}
	return 2 * Gamma(2*m.N) * s
}

// Property: checksum identity w_rᵀ(Ax) == C_rᵀx holds to within the
// componentwise tolerance for random matrices and vectors (fault-free).
func TestChecksumIdentityWithinTolerance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		a := sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.2, DiagShift: 1, Seed: seed})
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		m := NewMatrix(a)
		y := make([]float64, n)
		a.MulVec(y, x)

		s1, s2 := Sums(y)
		var c1x, c2x float64
		for j := range x {
			c1x += m.C1[j] * x[j]
			c2x += m.C2[j] * x[j]
		}
		if math.Abs(s1-c1x) > eq7Tolerance(a, m, 1, x) {
			return false
		}
		return math.Abs(s2-c2x) <= eq7Tolerance(a, m, 2, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shifted identity (paper Theorem 1, condition i) holds:
// (C1+k)ᵀx == Σy + k·Σx within tolerance.
func TestShiftedChecksumIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		a := sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.3, DiagShift: 1, Seed: seed + 1})
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		m := NewMatrix(a)
		y := make([]float64, n)
		a.MulVec(y, x)
		var lhs float64
		for j := range x {
			lhs += (m.C1[j] + m.K) * x[j]
		}
		sy, _ := Sums(y)
		sx, _ := Sums(x)
		rhs := sy + m.K*sx
		return math.Abs(lhs-rhs) <= eq7Tolerance(a, m, 1, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// toleranceNorm is the norm-based tolerance of the paper's Eq. (9),
//
//	2 γ_{2n} n ‖w_r‖∞ ‖A‖₁ ‖x‖∞
//
// with ‖w1‖∞ = 1 and ‖w2‖∞ = n, which the componentwise Eq. (7) never
// exceeds.
func toleranceNorm(m *Matrix, r int, normXInf float64) float64 {
	wInf := 1.0
	if r == 2 {
		wInf = float64(m.N)
	}
	base := 2 * Gamma(2*m.N) * float64(m.N) * wInf * m.Norm1 * normXInf
	if r == 1 {
		base += 2 * Gamma(2*m.N) * float64(m.N) * math.Abs(m.K) * normXInf
	}
	return base
}

func TestToleranceNormDominatesComponent(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 100, Density: 0.05, DiagShift: 1, Seed: 4})
	m := NewMatrix(a)
	x := make([]float64, 100)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var nx float64
	for _, v := range x {
		if av := math.Abs(v); av > nx {
			nx = av
		}
	}
	for r := 1; r <= 2; r++ {
		comp := eq7Tolerance(a, m, r, x)
		norm := toleranceNorm(m, r, nx)
		if comp > norm {
			t.Fatalf("row %d: component tolerance %v exceeds norm tolerance %v", r, comp, norm)
		}
	}
}

func TestVectorChecksumDefect(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	c := NewVector(v)
	d1, d2 := c.Defect(v)
	if d1 != 0 || d2 != 0 {
		t.Fatalf("clean defect = (%v,%v)", d1, d2)
	}
	// Corrupt index 2 by +5: defects must be (-5, -(2+1)*5).
	v[2] += 5
	d1, d2 = c.Defect(v)
	if d1 != -5 || d2 != -15 {
		t.Fatalf("defect = (%v,%v), want (-5,-15)", d1, d2)
	}
	// Localisation: ratio gives the 1-based position.
	if pos := d2 / d1; pos != 3 {
		t.Fatalf("position ratio = %v, want 3", pos)
	}
}

func TestVectorTolerance(t *testing.T) {
	v := []float64{1, -1, 1}
	t1, t2 := VectorTolerance(v)
	if t1 <= 0 || t2 <= 0 {
		t.Fatal("tolerances must be positive for nonzero vectors")
	}
	if t2 <= t1 {
		t.Fatal("row-2 tolerance must exceed row-1 for increasing weights")
	}
}

// TestRunningMatchesSums pins the two fused forms to the loops they replace:
// a vector fed to Running in uneven blocks has the sums of one index-weighted
// pass (float64(i+1), converted per element), and DefectTolerance returns
// what Defect and VectorTolerance return, bit for bit, for either row count.
func TestRunningMatchesSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 7, 512, 1000, 5000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 1e3
		}
		var w1, w2 float64
		for i, x := range v {
			w1 += x
			w2 += float64(i+1) * x
		}
		for rows := 1; rows <= 2; rows++ {
			var r Running
			for lo := 0; lo < n; {
				hi := min(lo+1+rng.Intn(600), n)
				r.Add(v[lo:hi], rows)
				lo = hi
			}
			want := Vector{S1: w1, S2: w2}
			if rows == 1 {
				want.S2 = 0
			}
			if got := (Vector{S1: r.S1, S2: r.S2}); got != want || NewVectorRows(v, rows) != want || r.N != n {
				t.Fatalf("n=%d rows=%d: blocks sum to %v (N=%v), one pass to %v", n, rows, got, r.N, want)
			}

			ref := Vector{S1: 3, S2: -4}
			d1, d2, t1, t2 := ref.DefectTolerance(v, rows)
			wd1, wd2 := ref.Defect(v)
			wt1, wt2 := VectorTolerance(v)
			if rows == 1 {
				wd2, wt2 = 0, 0
			}
			if d1 != wd1 || d2 != wd2 || t1 != wt1 || t2 != wt2 {
				t.Fatalf("n=%d rows=%d: DefectTolerance = (%v %v %v %v), two passes give (%v %v %v %v)",
					n, rows, d1, d2, t1, t2, wd1, wd2, wt1, wt2)
			}
		}
	}
}

func TestNewMatrixIntoReusesAndMatches(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	fresh := NewMatrix(a)
	reused := NewMatrixInto(NewMatrix(sparse.Poisson2D(10, 10)), a)
	if &reused.C1[0] == &fresh.C1[0] {
		t.Fatal("test bug: expected distinct storage")
	}
	for j := range fresh.C1 {
		if fresh.C1[j] != reused.C1[j] || fresh.C2[j] != reused.C2[j] ||
			fresh.AbsC1[j] != reused.AbsC1[j] {
			t.Fatalf("column %d: reused encode differs from fresh", j)
		}
	}
	if fresh.K != reused.K || fresh.Norm1 != reused.Norm1 || fresh.CR1 != reused.CR1 || fresh.CR2 != reused.CR2 {
		t.Fatal("scalar encoding differs between fresh and reused")
	}
	// Rows too short for a's dimension get fresh storage.
	small := NewMatrix(sparse.Poisson2D(4, 4))
	grown := NewMatrixInto(small, a)
	if grown.N != a.Rows || len(grown.C1) != a.Rows {
		t.Fatalf("mis-sized reuse: N=%d len=%d", grown.N, len(grown.C1))
	}
}

// TestNewMatrixIntoAfterALargerEncoding holds the reuse by capacity: an
// encoding of a larger matrix re-encodes a smaller one in its own storage,
// bit for bit as a fresh NewMatrix does.
func TestNewMatrixIntoAfterALargerEncoding(t *testing.T) {
	a := sparse.Poisson2D(10, 10)
	fresh := NewMatrix(a)
	big := NewMatrix(sparse.Poisson2D(20, 20))
	row := &big.C1[0]
	m := NewMatrixInto(big, a)
	if m != big || &m.C1[0] != row {
		t.Fatal("a larger encoding's storage was not reused")
	}
	if m.N != a.Rows || len(m.C1) != a.Rows || len(m.C2) != a.Rows || len(m.AbsC1) != a.Rows {
		t.Fatalf("N=%d, rows of %d, %d, %d; want %d", m.N, len(m.C1), len(m.C2), len(m.AbsC1), a.Rows)
	}
	bits := math.Float64bits
	for j := range fresh.C1 {
		if bits(fresh.C1[j]) != bits(m.C1[j]) || bits(fresh.C2[j]) != bits(m.C2[j]) || bits(fresh.AbsC1[j]) != bits(m.AbsC1[j]) {
			t.Fatalf("column %d: re-encoded in a larger encoding's storage, it differs from fresh", j)
		}
	}
	if bits(fresh.K) != bits(m.K) || bits(fresh.Norm1) != bits(m.Norm1) || bits(fresh.CR1) != bits(m.CR1) ||
		bits(fresh.CR2) != bits(m.CR2) || fresh.Err != m.Err {
		t.Fatal("scalar encoding differs from fresh")
	}
}
