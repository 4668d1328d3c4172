// Package sparse implements the sparse-matrix substrate for the resilient
// solvers: a CSR (compressed sparse row) matrix type, a COO assembly helper,
// test-problem generators (Poisson stencils, graph Laplacians, banded random
// SPD matrices) and Matrix Market I/O.
//
// The CSR layout follows the paper exactly: three arrays Val (nonzero
// values), Colid (column index of each nonzero) and Rowidx (n+1 row
// pointers). The ABFT scheme in internal/abft protects precisely these three
// arrays, so they are exported fields rather than hidden behind accessors.
package sparse

import (
	"fmt"
	"math"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i owns the nonzero range Val[Rowidx[i]:Rowidx[i+1]], with column
// indices Colid[Rowidx[i]:Rowidx[i+1]]. Invariants (checked by Validate):
// Rowidx is non-decreasing, Rowidx[0]==0, Rowidx[Rows]==len(Val),
// len(Val)==len(Colid), and every Colid entry is in [0, Cols).
type CSR struct {
	Rows, Cols int
	Val        []float64
	Colid      []int
	Rowidx     []int

	// plan caches NNZ-balanced partition plans for MulVecParallel
	// (see partition.go). It is derived data — never serialised, never
	// compared — and CopyFrom invalidates it.
	plan planCache
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Density returns nnz / (rows*cols).
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// MemoryWords returns the number of machine words occupied by the matrix
// representation (Val + Colid + Rowidx), the quantity M entering the fault
// rate λ = α/M in the paper's experiments.
func (m *CSR) MemoryWords() int {
	return len(m.Val) + len(m.Colid) + len(m.Rowidx)
}

// Validate checks the CSR structural invariants and returns a descriptive
// error for the first violation found.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.Rowidx) != m.Rows+1 {
		return fmt.Errorf("sparse: len(Rowidx)=%d, want rows+1=%d", len(m.Rowidx), m.Rows+1)
	}
	if len(m.Val) != len(m.Colid) {
		return fmt.Errorf("sparse: len(Val)=%d != len(Colid)=%d", len(m.Val), len(m.Colid))
	}
	if m.Rowidx[0] != 0 {
		return fmt.Errorf("sparse: Rowidx[0]=%d, want 0", m.Rowidx[0])
	}
	if m.Rowidx[m.Rows] != len(m.Val) {
		return fmt.Errorf("sparse: Rowidx[rows]=%d, want nnz=%d", m.Rowidx[m.Rows], len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.Rowidx[i] > m.Rowidx[i+1] {
			return fmt.Errorf("sparse: Rowidx decreases at row %d (%d > %d)", i, m.Rowidx[i], m.Rowidx[i+1])
		}
	}
	for k, c := range m.Colid {
		if c < 0 || c >= m.Cols {
			return fmt.Errorf("sparse: Colid[%d]=%d out of range [0,%d)", k, c, m.Cols)
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix. The resilient drivers take their
// working copy with it, so that faults strike the copy and a rollback can
// restore it from the caller's matrix (CopyFrom).
func (m *CSR) Clone() *CSR {
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Val:    make([]float64, len(m.Val)),
		Colid:  make([]int, len(m.Colid)),
		Rowidx: make([]int, len(m.Rowidx)),
	}
	copy(out.Val, m.Val)
	copy(out.Colid, m.Colid)
	copy(out.Rowidx, m.Rowidx)
	return out
}

// CopyFrom restores the receiver's arrays from src without reallocating.
// Panics if the shapes differ; rollback only ever restores like for like.
func (m *CSR) CopyFrom(src *CSR) {
	if m.Rows != src.Rows || m.Cols != src.Cols || len(m.Val) != len(src.Val) {
		panic("sparse: CopyFrom shape mismatch")
	}
	copy(m.Val, src.Val)
	copy(m.Colid, src.Colid)
	copy(m.Rowidx, src.Rowidx)
	// The restored Rowidx may differ from the one the cached partition
	// plans were balanced for (a rollback can undo a repaired pointer).
	m.invalidatePlans()
}

// Equal reports whether two matrices are structurally and numerically
// identical (NaNs compare equal to NaNs).
func (m *CSR) Equal(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || len(m.Val) != len(o.Val) || len(m.Rowidx) != len(o.Rowidx) {
		return false
	}
	for i := range m.Rowidx {
		if m.Rowidx[i] != o.Rowidx[i] {
			return false
		}
	}
	for i := range m.Colid {
		if m.Colid[i] != o.Colid[i] {
			return false
		}
	}
	for i := range m.Val {
		if m.Val[i] != o.Val[i] && !(math.IsNaN(m.Val[i]) && math.IsNaN(o.Val[i])) {
			return false
		}
	}
	return true
}

// MulVec computes y ← Ax. y must have length Rows and x length Cols; y may
// not alias x.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	m.mulRows(y, x, 0, m.Rows)
}

// mulRows is the strict product over rows [r0, r1): MulVec's body and the
// pool products' range.
func (m *CSR) mulRows(y, x []float64, r0, r1 int) {
	val, col, rowidx := m.Hoist()
	lo, his := rowidx[r0], rowidx[r0+1:r1+1]
	y = y[r0:][:len(his)]
	for i, hi := range his {
		y[i] = rowDot(val, col, x, lo, hi)
		lo = hi
	}
}

// MulVecBlock computes ys[j] ← A·xs[j] for every lane j. Lanes are taken
// four at a time: one pass over a row's nonzeros loads each Val[k] and
// Colid[k] once and feeds four independent sums (rowDot4), so four lanes
// cost well under four products — the sums' add chains overlap instead of
// queueing one behind the other. The lanes left over (k mod 4) go through
// the single-lane loop. Every lane is accumulated left-to-right exactly as
// MulVec would, so each output vector is bitwise identical to k separate
// MulVec calls. No scratch is needed — the kernel allocates nothing.
func (m *CSR) MulVecBlock(ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic(fmt.Sprintf("sparse: MulVecBlock: %d outputs for %d inputs", len(ys), len(xs)))
	}
	for j := range xs {
		if len(xs[j]) != m.Cols || len(ys[j]) != m.Rows {
			panic(fmt.Sprintf("sparse: MulVecBlock dimensions: A is %dx%d, len(xs[%d])=%d, len(ys[%d])=%d",
				m.Rows, m.Cols, j, len(xs[j]), j, len(ys[j])))
		}
	}
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		m.mulVec4(ys[j:j+4], xs[j:j+4])
	}
	for ; j < len(xs); j++ {
		m.mulRows(ys[j], xs[j], 0, m.Rows)
	}
}

// mulVec4 is MulVec for exactly four lanes of checked lengths.
func (m *CSR) mulVec4(ys, xs [][]float64) {
	val, col, rowidx := m.Hoist()
	x0, x1, x2, x3 := Lanes4(xs, m.Cols)
	lo, his := rowidx[0], rowidx[1:]
	y0, y1, y2, y3 := Lanes4(ys, len(his))
	for i, hi := range his {
		y0[i], y1[i], y2[i], y3[i] = rowDot4(val, col, x0, x1, x2, x3, lo, hi)
		lo = hi
	}
}

// MulVecRobust computes y ← Ax tolerating a corrupted representation: row
// pointer ranges are clamped to the valid nonzero range and out-of-range
// column indices contribute nothing. The resilient drivers use it so that a
// bit flip in Colid or Rowidx perturbs the result (to be caught by the
// verification mechanism) instead of crashing the process.
func (m *CSR) MulVecRobust(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecRobust dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	m.mulRowsRobust(y, x, 0, m.Rows)
}

// mulRowsRobust is the robust product over rows [r0, r1): MulVecRobust's
// body and the pool products' range.
func (m *CSR) mulRowsRobust(y, x []float64, r0, r1 int) {
	val, col, rowidx := m.Hoist()
	lo, his := rowidx[r0], rowidx[r0+1:r1+1]
	y = y[r0:][:len(his)]
	for i, hi := range his {
		y[i] = RowDotRobust(val, col, x, lo, hi)
		lo = hi
	}
}

// MulVecRowRobust recomputes the single output entry
// yᵢ = Σ_k Val[k]·x[Colid[k]] for row i over a possibly corrupted
// representation: the row's range is clamped and out-of-range column indices
// contribute nothing, exactly as in MulVecRobust. The ABFT correction step
// uses it to repair corrupted rows without redoing the whole product.
func (m *CSR) MulVecRowRobust(i int, x []float64) float64 {
	val, col, rowidx := m.Hoist()
	return RowDotRobust(val, col, x, rowidx[i], rowidx[i+1])
}

// Norm1 returns ‖A‖₁ = max_j Σᵢ |aᵢⱼ| (maximum absolute column sum), the
// norm entering the Theorem-2 rounding tolerance.
func (m *CSR) Norm1() float64 {
	colSums := make([]float64, m.Cols)
	for k, v := range m.Val {
		colSums[m.Colid[k]] += math.Abs(v)
	}
	var max float64
	for _, s := range colSums {
		if s > max {
			max = s
		}
	}
	return max
}

// Diag returns the diagonal entries of the matrix (zero where no stored
// diagonal entry exists). Used by the Jacobi preconditioner.
func (m *CSR) Diag() []float64 {
	return m.diagInto(make([]float64, m.Rows))
}

// diagInto fills d (length Rows) with the diagonal entries and returns it.
func (m *CSR) diagInto(d []float64) []float64 {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("sparse: diagInto scratch length %d, want %d", len(d), m.Rows))
	}
	rowidx, colid, val := m.Rowidx, m.Colid, m.Val
	for i := range d {
		d[i] = 0
		for k := rowidx[i]; k < rowidx[i+1]; k++ {
			if colid[k] == i {
				d[i] = val[k] // the first stored (i, i) entry
				break
			}
		}
	}
	return d
}

// At returns A[i,j] by scanning row i. It is O(row nnz) and intended for
// tests and error decoding, not inner loops.
func (m *CSR) At(i, j int) float64 {
	for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
		if m.Colid[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// IsSymmetric reports whether A equals Aᵀ up to tol in absolute value.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
			j := m.Colid[k]
			if math.Abs(m.Val[k]-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FlopsMulVec returns the flop count of one SpMxV (a multiply and an add per
// stored nonzero), used by the cost model: Titer is dominated by this.
func (m *CSR) FlopsMulVec() int64 { return 2 * int64(m.NNZ()) }
