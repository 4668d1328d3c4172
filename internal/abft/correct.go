package abft

import (
	"math"

	"repro/internal/checksum"
)

// This file implements the forward-recovery decoders of the paper's
// Section 3.2 (procedure CorrectErrors of Algorithm 2). Each decoder
// locates a single error from the two-row checksum defects, repairs the
// corrupted word in place, recomputes the affected part of the product and
// re-verifies the full test battery once. A failed re-verification means
// the single-error assumption was violated and the caller must fall back on
// its valid copy of the data. Every repair of a matrix word ends in finish,
// which holds it against that copy when the wrapper knows one, and starts
// with own, so that no decoder writes the caller's copy itself.

// exceeds reports whether a defect is beyond its tolerance. Non-finite
// defects (a bit flip in an exponent can turn a value into ±Inf or NaN,
// which poisons every sum it enters) always count as detections: a plain
// |d| > tol comparison is false for NaN and would mask the error.
func exceeds(d, tol float64) bool {
	return math.IsNaN(d) || math.IsInf(d, 0) || math.Abs(d) > tol
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// correctRowidx repairs a single corrupted row pointer. The defect pair is
// (−δ, −(j+1)·δ) for a corruption of +δ at index j, so j is recovered from
// the ratio and δ from the first component. Only rows j−1 and j are
// affected by a row-pointer move, so only those two output entries need to
// be recomputed (the paper recomputes the same neighbourhood).
func (p *Protected) correctRowidx(y, x []float64, xRef checksum.Vector, dr1, dr2 float64) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}
	if dr1 == 0 {
		// S1 untouched but S2 defective: impossible for a single error.
		return fail
	}
	pos1, ok := nearestInt(dr2 / dr1)
	if !ok {
		return fail
	}
	j := pos1 - 1 // weights are 1-based
	if j < 0 || j >= len(p.A.Rowidx) {
		return fail
	}
	delta, ok := nearestInt(dr1)
	if !ok {
		return fail
	}
	p.own()
	p.A.Rowidx[j] += delta
	return p.finish(y, x, xRef, ClassRowidx, j, j)
}

// correctX repairs a single corrupted entry of the input vector. The defect
// pair against the reliable reference is (−δ, −(d+1)·δ); after repairing
// x[d] the product is recomputed in full (the paper subtracts δ·A[:,d],
// which is the same O(nnz) cost through column access in CSR).
func (p *Protected) correctX(y, x []float64, xRef checksum.Vector, dxp1, dxp2 float64) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}
	if dxp1 == 0 {
		return fail
	}
	pos1, ok := nearestInt(dxp2 / dxp1)
	if !ok {
		return fail
	}
	d := pos1 - 1
	if d < 0 || d >= len(x) {
		return fail
	}
	// Reconstruct the original entry by exclusion from the reference sum:
	// robust to corruption deltas that dwarf the original value (see
	// VectorGuard.correct for the rounding argument).
	var rest float64
	for i, v := range x {
		if i != d {
			rest += v
		}
	}
	if !finite(rest) {
		return fail
	}
	x[d] = xRef.S1 - rest
	sr := p.MulVec(y, x)
	out := p.verify(y, x, xRef, sr, false)
	if out.Detected {
		p.stats.FalseCorrect++
		return fail
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}

// correctMatrixOrComputation distinguishes and repairs a single error in the
// computation of y, in Val or in Colid, following the paper's case analysis
// on the number of nonzero columns of C̃ = C − C′ where C′ = WᵀÃ is the
// checksum recomputed from the live (possibly corrupted) matrix:
//
//	zC̃ = 0 → the matrix is intact: the error is in y[d]; recompute it.
//	zC̃ = 1 → a Val entry in row d, column f is corrupted (or a Colid entry
//	          was knocked out of range, losing its column contribution).
//	zC̃ = 2 → a Colid entry moved a value from one column to the other.
//	zC̃ > 2 → more than one error: uncorrectable.
//
// C′ is recomputed with exactly the accumulation order of
// checksum.NewMatrix, so intact columns compare bit-identical and the
// zero-column count needs no tolerance.
func (p *Protected) correctMatrixOrComputation(y, x []float64, xRef checksum.Vector, dx1, dx2 float64) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}

	cp1, cp2 := p.recomputeColChecksums()
	var diffCols []int
	for j := 0; j < p.CS.N; j++ {
		if p.CS.C1[j] != cp1[j] || p.CS.C2[j] != cp2[j] {
			diffCols = append(diffCols, j)
			if len(diffCols) > 2 {
				return fail
			}
		}
	}

	// Locate the affected row from the defect ratio where possible; with
	// non-finite defects fall back to scanning for the poisoned entry.
	d := -1
	if finite(dx1) && finite(dx2) && dx1 != 0 {
		if pos1, ok := nearestInt(dx2 / dx1); ok {
			d = pos1 - 1
		}
	}

	switch len(diffCols) {
	case 0:
		// Pure computation error: the matrix is intact, so the defect lives
		// in y. If the ratio did not localise it (non-finite defects), scan
		// y for a single non-finite entry.
		if d < 0 || d >= p.A.Rows {
			d = singleNonFinite(y)
			if d < 0 {
				return fail
			}
		}
		return p.finish(y, x, xRef, ClassComputation, -1, d)

	case 1:
		f := diffCols[0]
		ct1 := p.CS.C1[f] - cp1[f]
		ct2 := p.CS.C2[f] - cp2[f]
		// The column defect ratio localises the row even when the dx ratio
		// could not (e.g. NaN poisoning of the weighted sums of y).
		if finite(ct1) && finite(ct2) && ct1 != 0 {
			if rowPos, ok := nearestInt(ct2 / ct1); ok {
				rd := rowPos - 1
				if d >= 0 && rd != d && finite(dx1) {
					return fail // inconsistent localisations ⇒ multi-error
				}
				d = rd
			}
		}
		if d < 0 || d >= p.A.Rows {
			// Non-finite Val entry: locate it by scanning row ranges.
			if k, row := p.singleNonFiniteVal(); k >= 0 {
				if p.A.Colid[k] != f {
					return fail
				}
				p.own()
				p.A.Val[k] = p.CS.C1[f] - p.colSumExcluding(f, k)
				return p.finish(y, x, xRef, ClassVal, k, row)
			}
			return fail
		}
		// Val repair: find the entry of row d at column f and reconstruct it
		// from the reliable column checksum by exclusion (robust to any
		// corruption magnitude, including Inf/NaN).
		for k := p.A.Rowidx[d]; k < p.A.Rowidx[d+1]; k++ {
			if p.A.Colid[k] == f {
				p.own()
				p.A.Val[k] = p.CS.C1[f] - p.colSumExcluding(f, k)
				return p.finish(y, x, xRef, ClassVal, k, d)
			}
		}
		// No such entry: the column contribution was lost entirely, which
		// happens when a Colid entry was corrupted to an out-of-range value.
		// Restore the first out-of-range index in row d to column f.
		for k := p.A.Rowidx[d]; k < p.A.Rowidx[d+1]; k++ {
			if c := p.A.Colid[k]; c < 0 || c >= p.A.Cols {
				p.own()
				p.A.Colid[k] = f
				return p.finish(y, x, xRef, ClassColid, k, d)
			}
		}
		return fail

	case 2:
		if d < 0 || d >= p.A.Rows {
			return fail
		}
		f1, f2 := diffCols[0], diffCols[1]
		// A value moved between the two columns within row d. Try each
		// candidate position: tentatively move it back, recompute the row
		// and re-verify; revert on failure. Floating-point rounding makes
		// checksum-arithmetic validation unreliable, so the re-verification
		// is the arbiter.
		for k := p.A.Rowidx[d]; k < p.A.Rowidx[d+1]; k++ {
			cur := p.A.Colid[k]
			var oth int
			switch cur {
			case f1:
				oth = f2
			case f2:
				oth = f1
			default:
				continue
			}
			p.own()
			p.A.Colid[k] = oth
			oldY := y[d]
			if out := p.finish(y, x, xRef, ClassColid, k, d); out.Corrected {
				return out
			}
			p.A.Colid[k] = cur // revert and try the next candidate
			y[d] = oldY
		}
		return fail

	default:
		return fail
	}
}

// finish closes a repair of class cls affecting row d of the product: a
// decoder has rewritten word k of the array cls names (Val, Colid or Rowidx),
// or located a computation error and rewritten nothing (k unused). The word
// is first held against the valid copy: an index must equal it; a value
// reconstructed by exclusion must agree with it within the rounding of the
// two column sums it is the difference of — Eq. (7)'s 2γ₂ₙ on the column's
// mass AbsC1 — and then takes its bits, so that the repaired matrix is again
// the one CS was derived from. A word the valid copy contradicts was
// mislocated, or shares its checksum with a second error: not a repair.
// Then the rows the word feeds are recomputed — row d, and the row before a
// moved row pointer — and the full battery re-verifies once.
func (p *Protected) finish(y, x []float64, xRef checksum.Vector, cls ErrorClass, k, d int) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}
	if v := p.Valid; v != nil {
		switch cls {
		case ClassVal:
			bound := 2 * checksum.Gamma(2*p.CS.N) * p.CS.AbsC1[p.A.Colid[k]]
			if !(math.Abs(p.A.Val[k]-v.Val[k]) <= bound) {
				return fail
			}
			p.own()
			p.A.Val[k] = v.Val[k]
		case ClassColid:
			if p.A.Colid[k] != v.Colid[k] {
				return fail
			}
		case ClassRowidx:
			if p.A.Rowidx[k] != v.Rowidx[k] {
				return fail
			}
		}
	}
	if cls == ClassRowidx && d > 0 {
		y[d-1] = p.A.MulVecRowRobust(d-1, x)
	}
	if d < p.A.Rows {
		y[d] = p.A.MulVecRowRobust(d, x)
	}
	sr := p.recomputeRowSums()
	if out := p.verify(y, x, xRef, sr, false); out.Detected {
		p.stats.FalseCorrect++
		return fail
	}
	return Outcome{Detected: true, Corrected: true, Class: cls}
}

// own gives the wrapper a private copy of Valid before a decoder writes a
// word of A, if A is Valid itself: a wrapper armed over the caller's
// read-only matrix reads it in place until then. The copy is made in spare,
// which reallocates only to grow, and a caller drops it by setting A back to
// Valid.
func (p *Protected) own() {
	if p.Valid == nil || p.A != p.Valid {
		return
	}
	p.spare.CopyFrom(p.Valid)
	p.A = &p.spare
}

// repairNonFiniteX restores a single non-finite entry of x from the
// reference checksum: the original value is S1ref − Σ_{i≠d} xᵢ. Returns
// false when the corruption is not a unique non-finite entry.
func (p *Protected) repairNonFiniteX(y, x []float64, xRef checksum.Vector) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}
	d := suspectIndex(x)
	if d < 0 {
		return fail
	}
	var rest float64
	for i, v := range x {
		if i != d {
			rest += v
		}
	}
	if !finite(rest) {
		return fail
	}
	x[d] = xRef.S1 - rest
	sr := p.MulVec(y, x)
	out := p.verify(y, x, xRef, sr, false)
	if out.Detected {
		p.stats.FalseCorrect++
		return fail
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}

// singleNonFinite returns the index of the unique non-finite entry of v, or
// -1 if there is none or more than one.
func singleNonFinite(v []float64) int {
	idx := -1
	for i, x := range v {
		if !finite(x) {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	return idx
}

// suspectIndex locates the entry to blame when the checksum defects are
// non-finite: the unique non-finite entry if there is one, otherwise a
// huge-but-finite entry whose *weighted* sum overflowed (e.g. an entry of
// −1.5e308 stays finite while (i+1)·(−1.5e308) is −Inf). Returns -1 when no
// single culprit stands out.
func suspectIndex(v []float64) int {
	if d := singleNonFinite(v); d >= 0 {
		return d
	}
	best, bi := 0.0, -1
	for i, x := range v {
		if a := math.Abs(x); a > best {
			best, bi = a, i
		}
	}
	if best > 1e200 {
		return bi
	}
	return -1
}

// singleNonFiniteVal returns the position k and row of the unique
// non-finite Val entry, or (-1, -1).
func (p *Protected) singleNonFiniteVal() (k, row int) {
	k, row = -1, -1
	a := p.A
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.Rowidx[i], a.Rowidx[i+1]
		if lo < 0 {
			lo = 0
		}
		if hi > len(a.Val) {
			hi = len(a.Val)
		}
		for kk := lo; kk < hi; kk++ {
			if !finite(a.Val[kk]) {
				if k >= 0 {
					return -1, -1
				}
				k, row = kk, i
			}
		}
	}
	return k, row
}

// colSumExcluding returns Σ over row entries with column f of Val, skipping
// position exclude — used to reconstruct a poisoned Val entry from the
// reliable column checksum.
func (p *Protected) colSumExcluding(f, exclude int) float64 {
	a := p.A
	var s float64
	for k, c := range a.Colid {
		if k != exclude && c == f {
			s += a.Val[k]
		}
	}
	return s
}

// recomputeRowSums rebuilds the runtime Rowidx checksums from the live
// array.
func (p *Protected) recomputeRowSums() RowSums {
	var sr RowSums
	for idx, v := range p.A.Rowidx {
		sr = sr.plus(idx, v)
	}
	return sr
}

// recomputeColChecksums rebuilds C′ = WᵀÃ from the live matrix with the
// same accumulation order as checksum.NewMatrix, so that on intact columns
// the recomputed sums are bit-identical to the reliable ones and the
// comparison needs no tolerance. Out-of-range column indices are skipped
// (their contribution is lost, surfacing as a single-column defect).
func (p *Protected) recomputeColChecksums() ([]float64, []float64) {
	n := p.CS.N
	if len(p.cPrime1) != n {
		p.cPrime1 = make([]float64, n)
		p.cPrime2 = make([]float64, n)
	}
	cp1, cp2 := p.cPrime1, p.cPrime2
	for j := 0; j < n; j++ {
		cp1[j] = 0
		cp2[j] = 0
	}
	a := p.A
	for i := 0; i < a.Rows; i++ {
		w2 := float64(i + 1)
		lo, hi := a.Rowidx[i], a.Rowidx[i+1]
		if lo < 0 {
			lo = 0
		}
		if hi > len(a.Val) {
			hi = len(a.Val)
		}
		for k := lo; k < hi; k++ {
			j := a.Colid[k]
			if uint(j) >= uint(n) {
				continue
			}
			v := a.Val[k]
			cp1[j] += v
			cp2[j] += w2 * v
		}
	}
	return cp1, cp2
}
