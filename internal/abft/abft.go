// Package abft implements the paper's Algorithm 2: an ABFT-protected sparse
// matrix–vector product over CSR storage that detects up to two silent
// errors and corrects a single one striking
//
//   - the Val array (a nonzero value),
//   - the Colid array (a column index),
//   - the Rowidx array (a row pointer),
//   - the input vector x, or
//   - the computation of y = Ax itself (equivalently, the output y).
//
// Detection compares three families of checksums (paper Theorem 1):
//
//	(iii) the running weighted sum sr of the Rowidx entries touched during
//	      the product against the reliable checksum cr;
//	(i)   the weighted sums of y against the reliable column checksums
//	      applied to x (defects dx);
//	(ii)  the weighted sums of x against the reliable reference captured
//	      when x was last verified (defects dx′ — the paper uses the
//	      auxiliary copy x′ and the shifted checksum c for the same purpose).
//
// Under the two-row weighting W = [1 … 1; 1 2 … n], a single error of value
// δ at position d produces the defect pair (δ, (d+1)·δ), so the position is
// the ratio of the defects and the value is the first defect: that is the
// forward-recovery decoder implemented in correct.go.
//
// The package also provides VectorGuard (vector.go), the uniform extension
// of the x-protection to the other solver vectors, and the paper's shifted
// no-copy detection test (ShiftedTest) that works even for matrices with
// zero column sums such as graph Laplacians.
//
// A guarded vector is held to its reference wherever a verified kernel reads
// it: as the input of a protected product (Verify's test (ii)), as an operand
// of an element-wise update (VectorGuard.Linear, which verifies z ← a + α·b
// by the linearity of the checksum and so reads a and b against their
// references at the point of use), or in a pass of its own
// (VectorGuard.Check). A product's output takes its reference from the sums
// Verify read off it (OutputSums), an update's output from the sums the update
// accumulated, so no vector is re-read to capture one. Between two such
// kernels nothing holds a vector to anything: a dot product or a norm, a
// hand-written loop (BiCGstab's direction update) and the convergence tests
// read memory as it is. A word struck in such a window is still detected by
// the next verified kernel that reads the vector, but whatever was computed
// from it in between is not; internal/tmr's package doc lists those reads
// and what the resilient drivers do about each.
//
// Selective reliability: everything stored inside Protected and VectorGuard
// (checksum rows, cr, k, tolerances) lives in "reliable" memory and is never
// struck by the fault injector, matching the paper's model.
//
// A flip below the comparison tolerance of Eq. (9) — a low mantissa bit of a
// Val entry — passes every test: the paper's accepted false negative, harmless
// to the iteration. It stays in the live matrix, though, and the decoder of
// correct.go compares recomputed column checksums with the reliable ones bit
// for bit, so when the next error arrives it sees one column too many and
// cannot name a single error. Nothing here undoes such a flip; the caller
// does, the next time it restores the live matrix from its valid copy — the
// resilient drivers do so when a verdict comes back ClassMultiple (the
// re-read of core/engine.go) and on every rollback.
package abft

import (
	"math"

	"repro/internal/checksum"
	"repro/internal/sparse"
)

// Mode selects the protection level.
type Mode int

const (
	// Detect uses a single checksum row: any single error is detected but
	// cannot be located, so the caller must roll back (ABFT-Detection).
	Detect Mode = iota
	// DetectCorrect uses two checksum rows: up to two errors are detected
	// and a single error is located and repaired in place, enabling forward
	// recovery (ABFT-Correction).
	DetectCorrect
)

// String returns the scheme name used in reports.
func (m Mode) String() string {
	if m == Detect {
		return "abft-detect"
	}
	return "abft-correct"
}

// ErrorClass classifies where a detected error struck.
type ErrorClass int

// Error classes reported by Verify.
const (
	ClassNone        ErrorClass = iota
	ClassComputation            // the product itself (an entry of y)
	ClassVal                    // a matrix nonzero value
	ClassColid                  // a matrix column index
	ClassRowidx                 // a matrix row pointer
	ClassX                      // the input vector
	ClassMultiple               // more than one error (uncorrectable)
)

// String returns a short label for the class.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassComputation:
		return "computation"
	case ClassVal:
		return "Val"
	case ClassColid:
		return "Colid"
	case ClassRowidx:
		return "Rowidx"
	case ClassX:
		return "x"
	case ClassMultiple:
		return "multiple"
	default:
		return "unknown"
	}
}

// Outcome reports the result of a protected product's verification.
type Outcome struct {
	// Detected is true when any checksum test failed.
	Detected bool
	// Corrected is true when the error was repaired in place (forward
	// recovery). Only possible in DetectCorrect mode for single errors.
	Corrected bool
	// Class is the located error class (best effort; ClassMultiple when the
	// defects are inconsistent with a single error).
	Class ErrorClass
}

// Stats accumulates verification outcomes over a protected matrix lifetime.
type Stats struct {
	Products     int64 // protected products performed
	Detections   int64 // products with at least one failed test
	Corrections  int64 // single errors repaired forward
	Rollbacks    int64 // detections left to the caller (uncorrectable or Detect mode)
	PerClass     [ClassMultiple + 1]int64
	FalseCorrect int64 // corrections whose re-verification failed (counted as rollbacks too)
	Encodings    int64 // O(nnz) builds of the checksum encoding, the arming one included
}

// TolerancePolicy selects how the rounding tolerances of the checksum
// comparisons are computed.
type TolerancePolicy int

const (
	// TolNorm uses the paper's Eq. (9): a norm bound whose matrix part is
	// precomputed once, so each verification costs only the max-norms of x
	// and y. Looser (more false negatives on low-order bit flips, which the
	// paper shows are harmless) but cheap — this is the default, matching
	// the paper's choice and its cost model.
	TolNorm TolerancePolicy = iota
	// TolComponent uses the componentwise bound of Eq. (7) with
	// precomputed |w|ᵀ|A| rows: tighter by orders of magnitude but costs an
	// extra O(n) pass per verification. Used by the ablation experiments.
	TolComponent
)

// Protected wraps a live (corruptible) CSR matrix with its reliable
// checksum encoding.
type Protected struct {
	// A is the live matrix: the fault injector strikes its arrays directly.
	A *sparse.CSR
	// CS is the reliable checksum encoding computed from A when it was known
	// to be good. Its Err is set when A has none (‖A‖₁ not finite): such a
	// wrapper protects nothing and its products must not be run.
	CS *checksum.Matrix
	// Valid, when set, is the read-only matrix A was copied from before the
	// wrapper was armed — the paper's valid copy, which no fault strikes. The
	// decoders finish every matrix repair against it (correct.go), so a
	// repaired A holds its bits and CS, derived from those bits, goes on
	// describing A without a Reencode. Nil for a wrapper armed over the only
	// copy there is; Renew clears it.
	Valid *sparse.CSR

	mode   Mode
	policy TolerancePolicy
	stats  Stats

	// Precomputed norm-tolerance factors (TolNorm): tol = factor · ‖·‖∞.
	tolX1Fac, tolX2Fac float64 // × ‖x‖∞, covers C_rᵀx rounding incl. shift
	tolY1Fac, tolY2Fac float64 // × ‖y‖∞, covers w_rᵀy rounding
	tolP1Fac, tolP2Fac float64 // × ‖x‖∞, covers the reference-sum defects

	// ySums and xSums are w_rᵀy and w_rᵀx as the last pass of defects summed
	// them.
	ySums, xSums checksum.Vector

	// scratch for correction (avoid per-verify allocations)
	cPrime1, cPrime2 []float64
}

// positionEps is the integer-proximity threshold for the position ratios of
// the decoders (paper Section 3.2).
const positionEps = 1e-8

// tolSafety widens the Eq. (9) norm bound: the bound tracks the dominant
// rounding terms but can be undercut by ~20%% in edge regimes (observed near
// CG convergence, where the defect is pure accumulated rounding on a tiny
// iterate); the safety factor converts those marginal cases into the
// harmless-false-negative bucket instead of spurious detections.
const tolSafety = 4

// NewProtected computes the checksum encoding of a (assumed fault-free at
// this moment) and returns the protected wrapper with the TolNorm policy.
func NewProtected(a *sparse.CSR, mode Mode) *Protected {
	p := &Protected{
		A:    a,
		mode: mode,
	}
	p.encode()
	return p
}

// Renew re-targets a protected wrapper at a (possibly different) live
// matrix, resetting mode, policy, tolerances and statistics to the state a
// fresh NewProtected would produce while reusing the checksum storage.
// Workspaces use it so repeated protected solves allocate nothing.
func (p *Protected) Renew(a *sparse.CSR, mode Mode) {
	p.A = a
	p.Valid = nil
	p.mode = mode
	p.policy = TolNorm
	p.stats = Stats{}
	p.encode()
}

// Reencode rebuilds the reliable checksum encoding from the live matrix. A
// caller without a valid copy runs it after a forward repair of the matrix:
// an entry reconstructed by exclusion matches the original only to rounding,
// so the bitwise C == C′ identity used by the error decoder must be
// re-anchored on the repaired matrix. With Valid set a repair leaves the
// original's bits and there is nothing to re-anchor.
func (p *Protected) Reencode() { p.encode() }

// encode derives the checksum encoding and the norm-tolerance factors from
// the live matrix.
func (p *Protected) encode() {
	p.stats.Encodings++
	p.CS = checksum.NewMatrixInto(p.CS, p.A)
	n := float64(p.CS.N)
	g := tolSafety * 2 * checksum.Gamma(2*p.CS.N)
	p.tolX1Fac = g * n * (p.CS.Norm1 + math.Abs(p.CS.K))
	p.tolX2Fac = g * n * n * p.CS.Norm1
	p.tolY1Fac = g * n
	p.tolY2Fac = g * n * n
	p.tolP1Fac = g * n
	p.tolP2Fac = g * n * n
}

// SetPolicy selects the tolerance policy (TolNorm by default).
func (p *Protected) SetPolicy(policy TolerancePolicy) { p.policy = policy }

// Stats returns a copy of the accumulated statistics.
func (p *Protected) Stats() Stats { return p.stats }

// RowSums holds the runtime Rowidx counters accumulated during a product
// (the paper's sr), to be passed to Verify.
type RowSums struct {
	S1, S2 float64
}

// MulVec computes y ← Ax over the possibly corrupted arrays with the
// runtime Rowidx checksums fused into the product traversal (the separate
// O(n) pass over Rowidx is gone; each entry is accumulated exactly once, in
// index order, so sr is bitwise identical to the unfused two-pass code). It
// never panics on corrupted indices: out-of-range row pointers are clamped
// and out-of-range column indices contribute nothing — the checksum tests
// flag the corruption afterwards.
//
// The output checksums are deliberately NOT fused into the product: the
// defect tests must re-read y at verification time, because the window
// between the product and its verification is part of the protection
// contract — a memory fault striking y (or a deferred computation-error
// injection) in that window must be caught by Verify, and sums captured at
// product time would silently absorb it. Verify instead reads y and x side
// by side in one loop (see defects).
func (p *Protected) MulVec(y, x []float64) RowSums {
	val, col, rowidx := p.A.Hoist()
	lo, his := rowidx[0], rowidx[1:]
	y = y[:len(his):len(y)] // panics on a y shorter than Rows, spare capacity or not
	sr := RowSums{}.plus(0, lo)
	for i, hi := range his {
		y[i] = sparse.RowDotRobust(val, col, x, lo, hi)
		sr = sr.plus(i+1, hi)
		lo = hi
	}
	return sr
}

// plus returns sr extended by the row pointer at index i, as read. (By value:
// a pointer receiver would pin the caller's sums to the stack, and a store
// and reload per row is what a five-nonzero row cannot hide.)
func (sr RowSums) plus(i, ptr int) RowSums {
	fv := float64(ptr)
	return RowSums{S1: sr.S1 + fv, S2: sr.S2 + float64(i+1)*fv}
}

// MulVecBlock computes ys[j] ← A·xs[j] for every lane over the possibly
// corrupted arrays, with the runtime Rowidx checksums fused in. Lanes are
// taken four at a time: one pass over a row's nonzeros loads each Val[k] and
// Colid[k] once, under one clamp and one column guard, and feeds four
// independent sums (sparse.RowDotRobust4); the lanes left over (k mod 4) —
// and all of them from the first four whose lengths differ — go through
// MulVec. Each lane accumulates left-to-right with MulVec's clamping
// and column-index guards, and every pass accumulates the row pointers in
// MulVec's index order, so every output lane and the returned sr are bitwise
// identical to k separate MulVec calls (sr depends only on Rowidx, so the
// passes agree and any one of them serves all lanes). The per-lane output
// checksums are, as in MulVec, deliberately NOT captured here: each lane's
// Verify must re-read its y so the window between product and verification
// stays protected.
func (p *Protected) MulVecBlock(ys, xs [][]float64) RowSums {
	if len(xs) == 0 {
		return p.recomputeRowSums()
	}
	var sr RowSums
	j := 0
	for ; j+4 <= len(xs) && p.fourLanes(ys[j:j+4], xs[j:j+4]); j += 4 {
		sr = p.mulVec4(ys[j:j+4], xs[j:j+4])
	}
	for ; j < len(xs); j++ {
		sr = p.MulVec(ys[j], xs[j])
	}
	return sr
}

// fourLanes reports whether four lanes can share a pass: inputs of one
// length — one column guard then covers all four — and outputs that hold a
// product. Lanes that differ go through MulVec one by one, which guards and
// bounds-checks each on its own.
func (p *Protected) fourLanes(ys, xs [][]float64) bool {
	for j := range xs {
		if len(xs[j]) != len(xs[0]) || len(ys[j]) < p.A.Rows {
			return false
		}
	}
	return true
}

// mulVec4 is MulVec for exactly four lanes that fourLanes accepted.
func (p *Protected) mulVec4(ys, xs [][]float64) RowSums {
	val, col, rowidx := p.A.Hoist()
	lo, his := rowidx[0], rowidx[1:]
	x0, x1, x2, x3 := sparse.Lanes4(xs, len(xs[0]))
	y0, y1, y2, y3 := sparse.Lanes4(ys, len(his))
	sr := RowSums{}.plus(0, lo)
	for i, hi := range his {
		y0[i], y1[i], y2[i], y3[i] = sparse.RowDotRobust4(val, col, x0, x1, x2, x3, lo, hi)
		sr = sr.plus(i+1, hi)
		lo = hi
	}
	return sr
}

// defects computes the dx and dx′ defect pairs and their tolerances.
//
//	dx[r]  = w_rᵀ y − C_rᵀ x        (error in A or in the computation)
//	dxp[r] = w_rᵀ xRef − w_rᵀ x     (error in x relative to its reference)
//
// This is the fused verification kernel: the weighted sums of y, C₁ᵀx, C₂ᵀx
// and the reference sums of x come from ONE loop that reads y and x side by
// side — a sum is a serial chain of additions, so the chains of y and those
// of x overlap instead of queueing — and what the tolerances need from a
// second one: under TolComponent the six rounding masses, under TolNorm the
// two max-norms, and those only for a defect that needs them (normTolerances).
// Each accumulator keeps the exact summation order of its former standalone
// loop, so every defect and tolerance — and therefore every detection
// outcome — is bitwise unchanged. y and x must have the matrix dimension
// (checksum.Matrix is square).
//
// In Detect mode only the first row is computed — ABFT-Detection is the
// single-checksum scheme, FlopsVerify prices it so and verify reads nothing
// else — and the row-2 results are zero.
func (p *Protected) defects(y, x []float64, xRef checksum.Vector) (dx1, dx2, tolx1, tolx2, dxp1, dxp2, tolp1, tolp2 float64) {
	if p.mode == Detect {
		dx1, tolx1, dxp1, tolp1 = p.defectsRow1(y, x, xRef)
		return
	}
	n := p.CS.N
	y, x = sized(y, n), sized(x, n)
	c1, c2 := sized(p.CS.C1, n), sized(p.CS.C2, n)

	var sy1, sy2, c1x, c2x, sx1, sx2 float64
	for i, v := range y {
		xj, w := x[i], float64(i+1)
		sy1 += v
		sy2 += w * v
		c1x += c1[i] * xj
		c2x += c2[i] * xj
		sx1 += xj
		sx2 += w * xj
	}
	p.ySums, p.xSums = checksum.Vector{S1: sy1, S2: sy2}, checksum.Vector{S1: sx1, S2: sx2}
	dx1 = sy1 - c1x
	dx2 = sy2 - c2x
	dxp1 = xRef.S1 - sx1
	dxp2 = xRef.S2 - sx2

	if p.policy == TolComponent {
		// Componentwise bound (paper Eq. (7)) plus the rounding mass of the
		// weighted sums of y — the same quantities ToleranceComponentBoth,
		// roundTolY and VectorTolerance produce.
		absC1, absC2 := sized(p.CS.AbsC1, n), sized(p.CS.AbsC2, n)
		var ay1, ay2, ac1, ac2, ax1, ax2 float64
		for i, v := range y {
			av, ax, w := math.Abs(v), math.Abs(x[i]), float64(i+1)
			ay1 += av
			ay2 += w * av
			ac1 += absC1[i] * ax
			ac2 += absC2[i] * ax
			ax1 += ax
			ax2 += w * ax
		}
		gM := 2 * checksum.Gamma(2*n)
		gV := 2 * checksum.Gamma(n)
		tolx1 = gM*(ac1+math.Abs(p.CS.K)*ax1) + gV*ay1
		tolx2 = gM*ac2 + gV*ay2
		tolp1 = gV * ax1
		tolp2 = gV * ax2
		return
	}
	tolx1, tolx2, tolp1, tolp2 = p.normTolerances(y, x, dx1, dx2, dxp1, dxp2)
	return
}

// defectsRow1 is the first row of defects: the same accumulators in the same
// order, without their row-2 companions.
func (p *Protected) defectsRow1(y, x []float64, xRef checksum.Vector) (dx1, tolx1, dxp1, tolp1 float64) {
	n := p.CS.N
	y, x = sized(y, n), sized(x, n)
	c1 := sized(p.CS.C1, n)

	var sy1, c1x, sx1 float64
	for i, v := range y {
		xj := x[i]
		sy1 += v
		c1x += c1[i] * xj
		sx1 += xj
	}
	p.ySums, p.xSums = checksum.Vector{S1: sy1}, checksum.Vector{S1: sx1}
	dx1 = sy1 - c1x
	dxp1 = xRef.S1 - sx1

	if p.policy == TolComponent {
		absC1 := sized(p.CS.AbsC1, n)
		var ay1, ac1, ax1 float64
		for i, v := range y {
			ax := math.Abs(x[i])
			ay1 += math.Abs(v)
			ac1 += absC1[i] * ax
			ax1 += ax
		}
		gV := 2 * checksum.Gamma(n)
		tolx1 = 2*checksum.Gamma(2*n)*(ac1+math.Abs(p.CS.K)*ax1) + gV*ay1
		tolp1 = gV * ax1
		return
	}
	tolx1, _, tolp1, _ = p.normTolerances(y, x, dx1, 0, dxp1, 0)
	return
}

// normStride is the sampling stride of normTolerances' first tier.
const normStride = 16

// normTolerances returns tolerances under which the four defects get the
// verdict of TolNorm (paper Eq. (9): precomputed matrix factors times ‖x‖∞
// and ‖y‖∞). The verdict comes first, the norms on demand: the factors are
// non-negative and rounding is monotone, so Eq. (9) evaluated at LOWER bounds
// of the two norms — the largest magnitude in a strided sample — is a lower
// bound of the exact tolerance, and a finite defect within the lower bound is
// within the exact one. A fault-free product's defects are rounding noise,
// orders of magnitude below either, and are cleared by the sample; only when
// some defect is not (an error, or an operand whose magnitude the sample
// misses) are the exact max-norms taken and the exact tolerances returned.
// Either way exceeds decides on the returned values what it would decide on
// the exact ones. A defect of a row the caller does not compute is passed
// as 0.
func (p *Protected) normTolerances(y, x []float64, dx1, dx2, dxp1, dxp2 float64) (tolx1, tolx2, tolp1, tolp2 float64) {
	for _, stride := range [2]int{normStride, 1} {
		normX, normY := maxAbsEvery(stride, x), maxAbsEvery(stride, y)
		tolx1 = p.tolX1Fac*normX + p.tolY1Fac*normY
		tolx2 = p.tolX2Fac*normX + p.tolY2Fac*normY
		tolp1 = p.tolP1Fac * normX
		tolp2 = p.tolP2Fac * normX
		if within(dx1, tolx1) && within(dx2, tolx2) && within(dxp1, tolp1) && within(dxp2, tolp2) {
			break
		}
	}
	return
}

// within reports a finite defect no larger than tol: the negation of exceeds,
// except that it is false where tol is NaN.
func within(d, tol float64) bool { return finite(d) && math.Abs(d) <= tol }

// sized returns v, known to hold exactly n elements — so that one loop can
// index several vectors under one bound — and panics on any other length.
func sized(v []float64, n int) []float64 {
	if len(v) != n {
		panic("abft: a vector's length differs from the matrix dimension")
	}
	return v
}

// maxAbsEvery returns the largest magnitude among every stride-th element of
// v, NaNs skipped: ‖v‖∞ at stride 1, a lower bound of it at any other.
func maxAbsEvery(stride int, v []float64) (m float64) {
	for i := 0; i < len(v); i += stride {
		m = maxAbs(m, v[i])
	}
	return m
}

// maxAbs returns max(m, |v|), a NaN v leaving m as it is.
func maxAbs(m, v float64) float64 {
	if v > m {
		return v
	}
	if -v > m {
		return -v
	}
	return m
}

// roundTolY bounds the rounding of the weighted sum of y itself.
func roundTolY(y []float64, row int) float64 {
	var s float64
	for i, v := range y {
		av := math.Abs(v)
		if row == 2 {
			av *= float64(i + 1)
		}
		s += av
	}
	return 2 * checksum.Gamma(len(y)) * s
}

// Verify runs the checksum tests on a completed product and, in
// DetectCorrect mode, attempts forward recovery of a single error. xRef is
// the reliable checksum of x captured when x was last known good (the
// paper's auxiliary copy x′ serves this role). On successful correction the
// corrupted array (A, x or y) has been repaired in place.
func (p *Protected) Verify(y, x []float64, xRef checksum.Vector, sr RowSums) Outcome {
	p.stats.Products++
	out := p.verify(y, x, xRef, sr, true)
	if out.Detected {
		p.stats.Detections++
		p.stats.PerClass[out.Class]++
		if out.Corrected {
			p.stats.Corrections++
		} else {
			p.stats.Rollbacks++
		}
	}
	return out
}

// OutputSums returns the checksum of y that the last Verify judged, under the
// rows of the mode (S2 is zero in Detect mode): the sums of its final pass
// over y, taken after any repair, in the index order of checksum.NewVectorRows
// and so with its bits. After a Verify that reported no error, or corrected
// one, it is the reference y carries into whatever reads it next (see
// VectorGuard.Linear) — no second pass over y, and no window between the
// verification and the capture.
func (p *Protected) OutputSums() checksum.Vector { return p.ySums }

// InputSums is OutputSums for the input x. A Verify that reported no error,
// or corrected one, has accepted x as it stands: within Eq. (9)'s tolerance of
// the reference it was given — the paper's harmless false negative, if a flip
// hides there — or rebuilt to the rounding of an exclusion. A caller that goes
// on holding x to a reference, under a tolerance tighter than Eq. (9)'s, adopts
// these sums as that reference, or the difference Verify accepted is found
// again by every later check.
func (p *Protected) InputSums() checksum.Vector { return p.xSums }

// verify implements one detection/correction pass. allowRepair guards the
// recursion: after a repair we re-verify once, and a second failure means
// multiple errors struck.
func (p *Protected) verify(y, x []float64, xRef checksum.Vector, sr RowSums, allowRepair bool) Outcome {
	// Test (iii): Rowidx checksums — exact integer comparison.
	dr1 := p.CS.CR1 - sr.S1
	dr2 := p.CS.CR2 - sr.S2
	if dr1 != 0 || dr2 != 0 {
		if p.mode == Detect || !allowRepair {
			cls := ClassRowidx
			if !allowRepair {
				cls = ClassMultiple
			}
			return Outcome{Detected: true, Class: cls}
		}
		return p.correctRowidx(y, x, xRef, dr1, dr2)
	}

	// Tests (i)/(ii): column checksum defects. Non-finite defects (Inf/NaN
	// poisoning from exponent-bit flips) always count as detections.
	dx1, dx2, tolx1, tolx2, dxp1, dxp2, tolp1, tolp2 := p.defects(y, x, xRef)
	dxBad := exceeds(dx1, tolx1) || (p.mode == DetectCorrect && exceeds(dx2, tolx2))
	dxpBad := exceeds(dxp1, tolp1) || (p.mode == DetectCorrect && exceeds(dxp2, tolp2))

	switch {
	case !dxBad && !dxpBad:
		return Outcome{}
	case p.mode == Detect || !allowRepair:
		cls := ClassComputation
		if dxpBad {
			cls = ClassX
		}
		if dxBad && dxpBad {
			cls = ClassMultiple
		}
		return Outcome{Detected: true, Class: cls}
	case dxpBad && !finite(dxp1):
		// A non-finite entry of x poisons the dx sums too; repair x from
		// the reference checksum before judging the rest.
		return p.repairNonFiniteX(y, x, xRef)
	case dxBad && dxpBad:
		// A single finite error cannot fail both families: x errors leave y
		// consistent with the corrupted x; matrix/computation errors leave
		// x consistent with its reference.
		return Outcome{Detected: true, Class: ClassMultiple}
	case dxpBad:
		return p.correctX(y, x, xRef, dxp1, dxp2)
	default:
		return p.correctMatrixOrComputation(y, x, xRef, dx1, dx2)
	}
}

// nearestInt returns the nearest integer to v and whether v is close enough
// to it to be trusted as an error position. Positions are integers spaced 1
// apart, so the absolute floor of 0.05 tolerates rounding noise on small
// defects; a mislocated repair is caught by the mandatory re-verification,
// which turns it into a rollback rather than a silent corruption.
func nearestInt(v float64) (int, bool) {
	r := math.Round(v)
	if math.Abs(v-r) > math.Max(positionEps*math.Abs(v), 0.05) {
		return 0, false
	}
	if math.Abs(r) > 1e15 {
		return 0, false
	}
	return int(r), true
}

// ShiftedTest implements the paper's no-reference detection test (Theorem 1
// conditions i–ii) using the shifted checksum c = C1 + k and the auxiliary
// copy xPrime of x:
//
//	(i)  (C1+k)ᵀ x  == Σy + k·Σx
//	(ii) (C1+k)ᵀ x′ == Σy + k·Σx
//
// The shift k makes errors striking x detectable even in columns whose
// unshifted checksum is zero (e.g. every column of a graph Laplacian).
// It returns true when both tests pass within the rounding tolerance.
func (p *Protected) ShiftedTest(y, x, xPrime []float64) bool {
	sy, _ := checksum.Sums(y)
	sx, _ := checksum.Sums(x)
	k := p.CS.K
	rhs := sy + k*sx

	var lhs, lhsPrime float64
	for j := range x {
		c := p.CS.C1[j] + k
		lhs += c * x[j]
		lhsPrime += c * xPrime[j]
	}
	tol := p.CS.ToleranceComponent(1, x) + roundTolY(y, 1) + 2*checksum.Gamma(len(x))*math.Abs(k)*sumAbs(x)
	tolPrime := p.CS.ToleranceComponent(1, xPrime) + roundTolY(y, 1) + 2*checksum.Gamma(len(x))*math.Abs(k)*sumAbs(xPrime)
	return math.Abs(lhs-rhs) <= tol && math.Abs(lhsPrime-rhs) <= tolPrime
}

func sumAbs(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// FlopsMulVec returns the flop count of the protected product itself
// (identical to the plain product plus the O(n) sr accumulation).
func (p *Protected) FlopsMulVec() int64 {
	return p.A.FlopsMulVec() + 4*int64(len(p.A.Rowidx))
}

// FlopsVerify returns the per-product verification overhead in flops:
// roughly 3 length-n weighted sums per checksum row (Σy, Cᵀx, tolerance
// pass) plus the x-reference defects. Detect mode uses one row,
// DetectCorrect two — the paper's O(kn) overhead.
func (p *Protected) FlopsVerify() int64 {
	n := int64(p.CS.N)
	rows := int64(1)
	if p.mode == DetectCorrect {
		rows = 2
	}
	return rows * 8 * n
}
