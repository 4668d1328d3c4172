package sparse

// This file holds the one row loop under every sparse product in the
// repository — the products of this package and abft.Protected's. It comes
// in a strict and a robust flavour, each for one lane and for four lanes at
// once. The accumulation
//
//	s += val[k] * x[col[k]]
//
// appears here and nowhere else.
//
// The callers hoist the matrix arrays into locals before their loop over
// the rows (Go does no loop-invariant code motion: a loop written over
// m.Val[k] reloads the slice header through the matrix pointer and checks
// both Val and Colid for every nonzero) and pass them in; the functions are
// small enough to be inlined, across packages too, so the arrays stay in
// registers and a nonzero costs the lookup in x and no other check: the
// strict flavour validates a row's range once, the robust one's clamp proves
// it and its column guard is the lookup's check. The count of checks the
// compiler leaves is pinned by TestBoundsCheckBudget.
//
// Every flavour accumulates a row left to right into a single sum per lane,
// starting from +0: a product is bit-identical whichever caller computes it,
// and lane j of a four-lane call is bit-identical to the single-lane call on
// x_j. Nothing here may reassociate a row.

// Hoist returns the matrix arrays as the row loops want them: col re-sliced
// to len(val), so that one check of k covers both, and rowidx to the Rows+1
// pointers a product reads. It panics on a matrix whose arrays are shorter
// than its shape says — a state no fault in the paper's model produces (bit
// flips strike the contents of the arrays, not their headers).
func (m *CSR) Hoist() (val []float64, col []int, rowidx []int) {
	val = m.Val
	return val, m.Colid[:len(val)], m.Rowidx[:m.Rows+1]
}

// rowDot returns Σ val[k]·x[col[k]] over k in [lo, hi): the strict row loop.
// It panics on a non-empty range that leaves the arrays — checked once for
// the row, which frees the loop of a check per nonzero — and on a column
// outside x, which is how the unprotected products report a corrupted
// matrix. col must have the length of val (see Hoist).
func rowDot(val []float64, col []int, x []float64, lo, hi int) (s float64) {
	if lo >= hi {
		return 0
	}
	if lo < 0 || hi > len(val) {
		panic("sparse: row pointers outside the matrix arrays")
	}
	for k := lo; k < hi; k++ {
		s += val[k] * x[col[k]]
	}
	return s
}

// rowDot4 is rowDot for four lanes in one pass over the row: val[k] and
// col[k] are loaded once, under rowDot's one check of the range, and feed
// four independent sums. The lanes must have equal lengths, and the compiler
// must know it (see Lanes4) for the lookup in the first to cover the others.
func rowDot4(val []float64, col []int, x0, x1, x2, x3 []float64, lo, hi int) (s0, s1, s2, s3 float64) {
	if lo >= hi {
		return 0, 0, 0, 0
	}
	if lo < 0 || hi > len(val) {
		panic("sparse: row pointers outside the matrix arrays")
	}
	for k := lo; k < hi; k++ {
		v, ind := val[k], col[k]
		s0 += v * x0[ind]
		s1 += v * x1[ind]
		s2 += v * x2[ind]
		s3 += v * x3[ind]
	}
	return s0, s1, s2, s3
}

// Lanes4 unpacks the four lanes of a rowDot4 or RowDotRobust4 call, each
// re-sliced to n so that the compiler knows they have one length and the
// check of a column against the first lane covers the other three. Every
// lane must hold exactly n elements (outputs: at least n): the callers check
// that before they take the four-lane path.
func Lanes4(vs [][]float64, n int) (v0, v1, v2, v3 []float64) {
	return vs[0][:n], vs[1][:n], vs[2][:n], vs[3][:n]
}

// RowDotRobust is the robust row loop: the range is clamped to the arrays
// and a column outside x contributes nothing, so a bit flip in Rowidx or
// Colid perturbs the sum — for the checksum tests to catch — instead of
// crashing the process. col must have the length of val (see Hoist).
func RowDotRobust(val []float64, col []int, x []float64, lo, hi int) float64 {
	lo, hi = max(lo, 0), min(hi, len(val))
	var s float64
	for k := lo; k < hi; k++ {
		if ind := col[k]; uint(ind) < uint(len(x)) {
			s += val[k] * x[ind]
		}
	}
	return s
}

// RowDotRobust4 is RowDotRobust for four lanes in one pass over the row,
// under one clamp and one column guard. The lanes must have equal lengths,
// and the compiler must know it for the guard to cover all four.
func RowDotRobust4(val []float64, col []int, x0, x1, x2, x3 []float64, lo, hi int) (s0, s1, s2, s3 float64) {
	lo, hi = max(lo, 0), min(hi, len(val))
	for k := lo; k < hi; k++ {
		if ind := col[k]; uint(ind) < uint(len(x0)) {
			v := val[k]
			s0 += v * x0[ind]
			s1 += v * x1[ind]
			s2 += v * x2[ind]
			s3 += v * x3[ind]
		}
	}
	return s0, s1, s2, s3
}
