package abft

import (
	"math"

	"repro/internal/checksum"
)

// VectorGuard is the reliable checksum shadow of a solver vector. It
// generalises the paper's protection of the SpMxV input x (auxiliary copy
// x′ plus checksum c_x) uniformly to the other iteration vectors (r and x in
// CG): the reference is captured — in reliable mode, as the paper assumes
// for all checksum operations — whenever the vector is rewritten by a
// verified operation, and checked at each verification point. A single
// memory fault between capture and check is detected (Detect mode) or
// located and repaired in place (DetectCorrect mode).
//
// A Detect guard keeps one checksum row, as ABFT-Detection does everywhere
// else: the S2 of its reference is zero and never read.
type VectorGuard struct {
	ref  checksum.Vector
	mode Mode
}

// NewGuard captures the checksum of v, assumed fault-free at this moment.
func NewGuard(v []float64, mode Mode) *VectorGuard {
	g := &VectorGuard{mode: mode}
	g.Refresh(v)
	return g
}

// Rows is the number of checksum rows the guard keeps: 1 in Detect mode, 2
// in DetectCorrect.
func (g *VectorGuard) Rows() int {
	if g.mode == DetectCorrect {
		return 2
	}
	return 1
}

// Refresh re-captures the checksum after a verified write of v, by reading
// v back.
func (g *VectorGuard) Refresh(v []float64) { g.ref = checksum.NewVectorRows(v, g.Rows()) }

// Install adopts ref as the reference: the checksum of the guarded vector
// under the guard's Rows, taken by the operation that wrote it (see
// tmr.Executor.AxpyGuarded), so the vector is not re-read and no fault can
// slip in between the write and the capture.
func (g *VectorGuard) Install(ref checksum.Vector) { g.ref = ref }

// Reset re-arms the guard over a new vector and mode, as a fresh NewGuard
// would (workspace reuse).
func (g *VectorGuard) Reset(v []float64, mode Mode) {
	g.mode = mode
	g.Refresh(v)
}

// Ref returns the current reference checksum (used by Protected.Verify for
// the SpMxV input).
func (g *VectorGuard) Ref() checksum.Vector { return g.ref }

// Check verifies v against the reference. The verdict comes first: a vector
// nothing struck sums to the very bits the reference holds — Install's are
// those of a re-read (checksum.NewVectorRows) — and a defect of exactly zero
// exceeds no tolerance, so none is computed. Only a nonzero or non-finite
// defect pays for the pass that judges it (checksum.Vector.DefectTolerance,
// the same sums again beside their rounding masses). In DetectCorrect mode a
// single corrupted entry is then located from the defect ratio and repaired
// in place (including Inf/NaN poisoning, reconstructed from the first
// checksum row).
func (g *VectorGuard) Check(v []float64) Outcome {
	sums := checksum.NewVectorRows(v, g.Rows())
	if g.ref.S1-sums.S1 == 0 && (g.mode == Detect || g.ref.S2-sums.S2 == 0) {
		return Outcome{}
	}
	d1, d2, t1, t2 := g.ref.DefectTolerance(v, g.Rows())
	bad := exceeds(d1, t1) || (g.mode == DetectCorrect && exceeds(d2, t2))
	if !bad {
		return Outcome{}
	}
	if g.mode == Detect {
		return Outcome{Detected: true, Class: ClassX}
	}
	return g.correct(v, d1, d2)
}

func (g *VectorGuard) correct(v []float64, d1, d2 float64) Outcome {
	fail := Outcome{Detected: true, Class: ClassMultiple}

	d := -1
	if !finite(d1) || !finite(d2) {
		// A poisoned entry (Inf/NaN) cannot be located from the ratio; scan.
		d = suspectIndex(v)
	} else {
		if d1 == 0 {
			return fail
		}
		pos := d2 / d1 // (d+1) for a single error at index d
		r := math.Round(pos)
		if math.Abs(pos-r) > math.Max(1e-8*math.Abs(pos), 0.05) {
			return fail
		}
		d = int(r) - 1
	}
	if d < 0 || d >= len(v) {
		return fail
	}
	// Reconstruct the original entry from the first checksum row by
	// exclusion. This is exact to within Σ|vᵢ| rounding regardless of the
	// corruption magnitude; the naive repair v[d] += d1 loses the original
	// value entirely when the corruption delta dwarfs it (a high exponent
	// bit flip turns an O(1) entry into O(1e19): the ulp of the delta is
	// then larger than the value being restored).
	var rest float64
	for i, x := range v {
		if i != d {
			rest += x
		}
	}
	if !finite(rest) {
		return fail
	}
	v[d] = g.ref.S1 - rest
	return g.recheck(v)
}

func (g *VectorGuard) recheck(v []float64) Outcome {
	d1, d2, t1, t2 := g.ref.DefectTolerance(v, 2)
	if exceeds(d1, t1) || exceeds(d2, t2) {
		return Outcome{Detected: true, Class: ClassMultiple}
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}
