// Package checksum implements the weighted checksum encodings of the
// paper's Section 3.2: column checksums of a CSR matrix under the weight
// rows w1 = (1, …, 1) and w2 = (1, 2, …, n), the shift constant k that
// eliminates zero checksum columns (the paper's fix for matrices such as
// graph Laplacians, where Shantharam et al.'s scheme breaks down), row
// pointer checksums, and the floating-point comparison tolerances of
// Theorem 2.
//
// The two-row encoding is what enables forward recovery: a single error at
// position d produces checksum defects (δ, d·δ), so the ratio of the second
// defect to the first localises the error and the first defect is the
// correction value.
package checksum

import (
	"errors"
	"math"

	"repro/internal/sparse"
)

// Unit roundoff of IEEE-754 binary64.
const u = 0x1p-53

// Gamma returns γ_m = m·u / (1 − m·u), the standard rounding-error constant
// of Higham's analysis (paper Theorem 2 uses γ_{2n}).
func Gamma(m int) float64 {
	mu := float64(m) * u
	return mu / (1 - mu)
}

// Sums returns the two weighted sums of v under the implicit weight rows
// w1 = ones and w2 = (1, 2, …, n): s1 = Σ vᵢ and s2 = Σ (i+1)·vᵢ.
func Sums(v []float64) (s1, s2 float64) {
	var r Running
	r.Add(v, 2)
	return r.S1, r.S2
}

// Running is Sums part-way through a vector: the sums of the prefix read so
// far and its length. Feeding a vector to Add block by block, in index
// order, performs the additions of one Sums call over the whole vector in
// the same order, so the result is the same bit for bit. The zero value is
// the empty prefix.
type Running struct {
	S1, S2 float64
	N      int // elements read; the next one weighs N+1 in row 2
}

// Add extends the prefix by v. rows is 2 for both sums, or 1 to leave S2
// alone (single-row detection never reads it).
func (r *Running) Add(v []float64, rows int) {
	s1 := r.S1
	if rows == 1 {
		for _, x := range v {
			s1 += x
		}
	} else {
		s2, w := r.S2, r.N+1
		for i, x := range v {
			s1 += x
			s2 += float64(w+i) * x
		}
		r.S2 = s2
	}
	r.S1 = s1
	r.N += len(v)
}

// sumsInt is Sums for integer arrays (used for the Rowidx pointers). The
// values are accumulated in float64; row pointers are ≤ nnz ≤ 2^40 in any
// realistic matrix, far below the 2^53 exact-integer range of float64.
func sumsInt(v []int) (s1, s2 float64) {
	for i, x := range v {
		s1 += float64(x)
		s2 += float64(i+1) * float64(x)
	}
	return s1, s2
}

// Matrix holds the reliable checksum encoding of a CSR matrix. It is
// computed once per matrix (ComputeChecksums in the paper's Algorithm 2) and
// reused across every protected SpMxV, which is what makes the per-product
// overhead O(n) rather than O(nnz).
type Matrix struct {
	N int // matrix dimension (square)

	// C1, C2 are the unshifted column checksums C_r[j] = Σᵢ w_r[i]·A[i][j].
	C1, C2 []float64

	// AbsC1 holds the column sums of |A|: ‖A‖₁ is their maximum, and the
	// decoders bound a repaired value's rounding by them.
	AbsC1 []float64

	// K is the shift constant: C1[j] + K ≠ 0 for every column j, so errors
	// striking x are detectable even in zero-sum columns (paper Theorem 1,
	// condition 1).
	K float64

	// CR1, CR2 are the weighted checksums of the Rowidx array.
	CR1, CR2 float64

	// Norm1 is ‖A‖₁, retained for the norm-based tolerance (paper Eq. (9)).
	Norm1 float64

	// Err is ErrNoShift when A has no encoding, and nil otherwise. The
	// constructors keep their one result, so the verdict travels with the
	// encoding; nothing else of a Matrix whose Err is set may be used.
	Err error
}

// ErrNoShift reports a matrix whose ‖A‖₁ is not finite — an entry is NaN or
// ±Inf, or a column's absolute sum overflows: no finite shift K clears every
// column (Theorem 1, condition 1), and no checksum of such a matrix compares
// with anything.
var ErrNoShift = errors.New("checksum: no representable shift")

// NewMatrix computes the checksum encoding of A. A must be square: the
// solvers only protect square systems.
//
// The encoder tolerates a structurally corrupted representation — clamped
// row-pointer ranges, skipped out-of-range column indices — because a caller
// without a valid copy re-encodes a live matrix (abft.Protected.Reencode),
// which can carry a *latent* corruption whose numerical effect was below the
// detection tolerance (e.g. an out-of-range Colid on a tiny value).
// Re-encoding such a matrix simply adopts the harmless perturbation as the
// new reference.
func NewMatrix(a *sparse.CSR) *Matrix {
	return NewMatrixInto(nil, a)
}

// NewMatrixInto recomputes the checksum encoding of a into m, reusing its
// checksum rows when the dimension matches; a nil or mis-sized m gets fresh
// storage, so a warm workspace arms solve after solve without allocating.
// The accumulation order is identical to a fresh NewMatrix, so the encoding
// is bitwise the same either way.
func NewMatrixInto(m *Matrix, a *sparse.CSR) *Matrix {
	if a.Rows != a.Cols {
		panic("checksum: NewMatrix requires a square matrix")
	}
	n := a.Rows
	nnz := len(a.Val)
	if m == nil || len(m.C1) != n {
		m = &Matrix{
			N:     n,
			C1:    make([]float64, n),
			C2:    make([]float64, n),
			AbsC1: make([]float64, n),
		}
	} else {
		m.N = n
		m.Norm1 = 0
		for j := 0; j < n; j++ {
			m.C1[j], m.C2[j], m.AbsC1[j] = 0, 0, 0
		}
	}
	for i := 0; i < n; i++ {
		w2 := float64(i + 1)
		lo, hi := a.Rowidx[i], a.Rowidx[i+1]
		if lo < 0 {
			lo = 0
		}
		if hi > nnz {
			hi = nnz
		}
		for k := lo; k < hi; k++ {
			j := a.Colid[k]
			if uint(j) >= uint(n) {
				continue
			}
			v := a.Val[k]
			m.C1[j] += v
			m.C2[j] += w2 * v
			m.AbsC1[j] += math.Abs(v)
		}
	}
	m.CR1, m.CR2 = sumsInt(a.Rowidx)
	for _, s := range m.AbsC1 {
		if s > m.Norm1 || s != s { // a NaN column makes the norm NaN, and it stays
			m.Norm1 = s
		}
	}
	m.K, m.Err = ShiftK(m.Norm1)
	return m
}

// ShiftK returns a shift constant k such that c + k ≠ 0 for every column sum
// c of a matrix whose 1-norm is norm1. No column sum exceeds ‖A‖₁ in
// magnitude — in floating point too: the sums of a column and of its absolute
// values are accumulated in the same order, and rounding is monotone — so any
// k > ‖A‖₁ works. Below 2⁵³ that is ‖A‖₁ + 1, the shift every encoding has
// always had; from there on adding 1 no longer changes the number, and
// 2·‖A‖₁ leaves c + k ≥ ‖A‖₁ > 0. A norm that is not finite, or whose double
// is not, has no shift: ErrNoShift.
func ShiftK(norm1 float64) (float64, error) {
	k := norm1 + 1
	if norm1 >= 1<<53 {
		k = 2 * norm1
	}
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return 0, ErrNoShift
	}
	return k, nil
}

// Vector holds the reliable two-row checksum of a dense vector, refreshed
// whenever the vector is (re)written by a verified operation. It is the
// uniform extension of the paper's x-protection (auxiliary copy x′ and
// checksum c_x) to all solver vectors; see abft.VectorGuard.
type Vector struct {
	S1, S2 float64
}

// NewVector checksums v.
func NewVector(v []float64) Vector { return NewVectorRows(v, 2) }

// NewVectorRows checksums v under the first rows weight rows (1 or 2); with
// one row S2 is left zero.
func NewVectorRows(v []float64, rows int) Vector {
	var r Running
	r.Add(v, rows)
	return Vector{S1: r.S1, S2: r.S2}
}

// Defect returns the checksum defects (d1, d2) of v against the recorded
// sums: dᵣ = Sᵣ − wᵣᵀv. A single error of value δ at index i produces
// (δ, (i+1)·δ) up to rounding.
func (c Vector) Defect(v []float64) (d1, d2 float64) {
	s1, s2 := Sums(v)
	return c.S1 - s1, c.S2 - s2
}

// VectorTolerance returns the rounding tolerance for comparing a length-n
// vector's running checksum against a stored one: 2 γ_n Σ|vᵢ| for row 1 and
// 2 γ_n Σ (i+1)|vᵢ| for row 2 (both returned).
func VectorTolerance(v []float64) (t1, t2 float64) {
	var a1, a2 float64
	for i, x := range v {
		ax := math.Abs(x)
		a1 += ax
		a2 += float64(i+1) * ax
	}
	g := 2 * Gamma(len(v))
	return g * a1, g * a2
}

// DefectTolerance is Defect and VectorTolerance in one pass over v: the four
// accumulators keep the summation order of the two separate loops, so every
// returned value is the same bit for bit (the row-2 weight is a running
// float here: integers below 2^53 are exact in float64, so it is the number
// a conversion of the index gives). With rows == 1 only the first row is
// computed and d2, t2 are zero.
func (c Vector) DefectTolerance(v []float64, rows int) (d1, d2, t1, t2 float64) {
	g := 2 * Gamma(len(v))
	var s1, s2, a1, a2 float64
	if rows == 1 {
		for _, x := range v {
			s1 += x
			a1 += math.Abs(x)
		}
		return c.S1 - s1, 0, g * a1, 0
	}
	var w float64
	for _, x := range v {
		w++
		ax := math.Abs(x)
		s1 += x
		s2 += w * x
		a1 += ax
		a2 += w * ax
	}
	return c.S1 - s1, c.S2 - s2, g * a1, g * a2
}
