package sparse

import (
	"fmt"
)

// COO accumulates matrix entries in coordinate (triplet) form and converts
// them to CSR. Duplicate entries at the same (i,j) are summed, matching the
// Matrix Market convention for assembled finite-element matrices.
type COO struct {
	rows, cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty rows×cols triplet accumulator.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols}
}

// newCOOCap is NewCOO with room for capacity entries, for generators that
// know their entry count up front.
func newCOOCap(rows, cols, capacity int) *COO {
	return &COO{rows: rows, cols: cols,
		I: make([]int, 0, capacity), J: make([]int, 0, capacity), V: make([]float64, 0, capacity)}
}

// Add appends the entry A[i,j] += v. Panics on out-of-range indices: the
// generators are deterministic, so this is a programming error.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// ToCSR converts the accumulated triplets into a CSR matrix with sorted
// column indices per row and duplicates summed, in the order they were
// added: duplicates whose sum is inexact give the same bits on every run.
// Entries that sum exactly to zero are kept (the structure may be
// meaningful, e.g. for checksums of pattern-symmetric matrices).
//
// The triplets are bucketed by row with a counting sort whose cursors live
// in Rowidx — the one allocation sized by a dimension, which bounds what
// ReadMatrixMarket can be made to allocate — and each row is then sorted by
// column, stably.
func (c *COO) ToCSR() *CSR {
	m := &CSR{Rows: c.rows, Cols: c.cols, Rowidx: make([]int, c.rows+1)}
	if len(c.V) == 0 {
		return m
	}
	for _, i := range c.I {
		m.Rowidx[i+1]++
	}
	for i := 0; i < c.rows; i++ {
		m.Rowidx[i+1] += m.Rowidx[i]
	}
	// Rowidx[i] is row i's cursor; once every entry is placed it holds the
	// row's end.
	colid, val := make([]int, len(c.V)), make([]float64, len(c.V))
	for k, i := range c.I {
		p := m.Rowidx[i]
		m.Rowidx[i] = p + 1
		colid[p], val[p] = c.J[k], c.V[k]
	}
	var rs rowSorter
	w, start := 0, 0
	for i := 0; i < c.rows; i++ {
		end := m.Rowidx[i]
		m.Rowidx[i] = w
		rs.sort(colid[start:end], val[start:end])
		for k := start; k < end; {
			j, v := colid[k], val[k]
			for k++; k < end && colid[k] == j; k++ {
				v += val[k]
			}
			colid[w], val[w] = j, v
			w++
		}
		start = end
	}
	m.Rowidx[c.rows] = w
	m.Colid, m.Val = colid[:w], val[:w]
	return m
}

// shortRow is the longest row rowSorter sorts by insertion; longer rows are
// sorted in runs of this length and merged.
const shortRow = 32

// rowSorter sorts one row's (column, value) pairs by column, stably. Its
// scratch, used for rows longer than shortRow, is kept for the next row.
type rowSorter struct {
	col []int
	val []float64
}

func (rs *rowSorter) sort(col []int, val []float64) {
	n := len(col)
	if n <= shortRow {
		insertionSortRow(col, val)
		return
	}
	for lo := 0; lo < n; lo += shortRow {
		hi := min(lo+shortRow, n)
		insertionSortRow(col[lo:hi], val[lo:hi])
	}
	if len(rs.col) < n {
		rs.col, rs.val = make([]int, n), make([]float64, n)
	}
	src, srcV, dst, dstV := col, val, rs.col[:n], rs.val[:n]
	for width := shortRow; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			a, b, k := lo, mid, lo
			for ; a < mid && b < hi; k++ {
				if src[b] < src[a] {
					dst[k], dstV[k] = src[b], srcV[b]
					b++
				} else {
					dst[k], dstV[k] = src[a], srcV[a]
					a++
				}
			}
			copy(dst[k:], src[a:mid])
			copy(dstV[k:], srcV[a:mid])
			k += mid - a
			copy(dst[k:], src[b:hi])
			copy(dstV[k:], srcV[b:hi])
		}
		src, srcV, dst, dstV = dst, dstV, src, srcV
	}
	if &src[0] != &col[0] {
		copy(col, src)
		copy(val, srcV)
	}
}

// insertionSortRow sorts a short row by column, stably.
func insertionSortRow(col []int, val []float64) {
	for a := 1; a < len(col); a++ {
		j, v := col[a], val[a]
		b := a
		for ; b > 0 && col[b-1] > j; b-- {
			col[b], val[b] = col[b-1], val[b-1]
		}
		col[b], val[b] = j, v
	}
}
