package abft

import (
	"math"

	"repro/internal/checksum"
)

// VectorGuard is the reliable checksum shadow of a solver vector. It
// generalises the paper's protection of the SpMxV input x (auxiliary copy
// x′ plus checksum c_x) uniformly to the other iteration vectors: the
// reference is captured — in reliable mode, as the paper assumes for all
// checksum operations — whenever the vector is rewritten by a verified
// operation (Install, Linear), and the vector is held to it wherever a
// verified kernel reads it (Protected.Verify, Linear) or in a pass of its own
// (Check). A single memory fault between capture and check is detected
// (Detect mode) or located and repaired (DetectCorrect mode).
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
// under the guard's Rows, taken by the operation that wrote or verified it
// (see Protected.OutputSums), so the vector is not re-read and no fault can
// slip in between that operation and the capture.
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

// Linear verifies the element-wise update z ← a + α·b by the method the
// paper applies to the product: a checksum is linear, so wᵣᵀz must equal
// wᵣᵀa + α·wᵣᵀb. got is the checksum of z the update accumulated as it wrote
// it (tmr.Executor.AxpyGuarded and its siblings), aRef and bRef are the
// references of the operands — a guard's Ref, taken before this call when z
// aliases the operand — and z may alias a or b, not both. The update read the
// operands' memory and the expectation is built from their references, so one
// comparison covers the arithmetic of the update, a word of a or b that
// changed since its reference was taken, and — when z is an operand in turn —
// a word of z that changes after this call.
//
// The comparison tolerates the rounding of the three sums and of the update
// itself, a bound of Eq. (7)'s family: 2γₙ₊₂ Σᵢ wᵢ(|aᵢ| + |α·bᵢ| + |zᵢ|), plus
// what products that underflow can lose. The verdict comes first, as in Check:
// a defect of exactly zero is clean, and so is one within the bound taken over
// a strided sample of z alone — a lower bound of the tolerance; only a larger
// or non-finite defect pays for the pass that computes the masses. On a clean
// verdict got becomes the reference of z: the computed sums, not the expected
// ones, so no rounding builds up from update to update.
//
// A defect beyond the tolerance is one detected error. In Detect mode that is
// all: the caller rolls back. In DetectCorrect mode the pair (δ, (d+1)·δ)
// names element d of z — whichever of a_d, b_d or the arithmetic produced it —
// which is rebuilt by exclusion from the expected checksum; the repaired z is
// summed again, held to the expectation once more, and those sums become its
// reference. A struck operand word is not repaired here: it stays detectable
// against its own reference until something rewrites it.
func (g *VectorGuard) Linear(z []float64, got checksum.Vector, a []float64, aRef checksum.Vector, alpha float64, b []float64, bRef checksum.Vector) Outcome {
	rows := g.Rows()
	want := checksum.Vector{S1: aRef.S1 + alpha*bRef.S1}
	if rows == 2 {
		want.S2 = aRef.S2 + alpha*bRef.S2
	}
	g.ref = got
	d1, d2 := want.S1-got.S1, want.S2-got.S2
	if d1 == 0 && d2 == 0 {
		return Outcome{}
	}
	if t1, t2 := linearSample(z, rows); covers(d1, t1) && covers(d2, t2) {
		return Outcome{}
	}
	if t1, t2 := linearTolerance(z, a, alpha, b, rows, -1); covers(d1, t1) && covers(d2, t2) {
		return Outcome{}
	}
	if g.mode == Detect {
		return Outcome{Detected: true, Class: ClassX}
	}
	fail := Outcome{Detected: true, Class: ClassMultiple}
	d := locate(z, d1, d2)
	if d < 0 || !rebuild(z, d, want.S1) {
		return fail
	}
	g.ref = checksum.NewVector(z)
	if t1, t2 := linearTolerance(z, a, alpha, b, rows, d); !covers(want.S1-g.ref.S1, t1) || !covers(want.S2-g.ref.S2, t2) {
		return fail
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}

// covers reports a finite defect within a finite tolerance. Masses that
// overflow bound nothing: a single flip of a top exponent bit puts an element
// near 2¹⁰²³, and a tolerance of +Inf must not wave its defect through.
func covers(d, tol float64) bool { return within(d, tol) && !math.IsInf(tol, 1) }

// linearSample is Linear's tolerance with only every normStride-th element of
// z in the masses: a lower bound of linearTolerance, with room to spare — the
// masses of a and α·b together are at least that of z, so the full bound is
// at least twice this one and the rounding of the sums cannot close the gap.
// With one row the second tolerance is zero, as its defect is.
func linearSample(z []float64, rows int) (t1, t2 float64) {
	var m1, m2 float64
	for i := 0; i < len(z); i += normStride {
		m := math.Abs(z[i])
		m1 += m
		m2 += float64(i+1) * m
	}
	g := 2 * checksum.Gamma(len(z)+2)
	if rows == 1 {
		return g * m1, 0
	}
	return g * m1, g * m2
}

// linearTolerance is Linear's tolerance in full, from the vectors as the
// update left them; with one row the second tolerance is zero. An operand
// that z overwrote is bounded element by element through the update itself:
// |aᵢ| ≤ |zᵢ| + |α·bᵢ| and |α·bᵢ| ≤ |zᵢ| + |aᵢ| up to one rounding, which the
// factor 2 absorbs. After a repair the operand words at the rebuilt index are
// suspect — one of them may be what was struck, and still is — so that
// element enters through z alone, as addends that do not cancel (rebuilt < 0
// when nothing was). The last term is the absolute error of products that
// underflow, which no relative bound covers: half a denormal unit per element.
func linearTolerance(z, a []float64, alpha float64, b []float64, rows, rebuilt int) (t1, t2 float64) {
	overA, overB := sameVector(z, a), sameVector(z, b)
	var m1, m2 float64
	for i, v := range z {
		mz, ma, mb := math.Abs(v), math.Abs(a[i]), math.Abs(alpha*b[i])
		switch {
		case i == rebuilt:
			ma, mb = mz, mz
		case overA:
			ma = mz + mb
		case overB:
			mb = mz + ma
		}
		m := mz + ma + mb
		m1 += m
		m2 += float64(i+1) * m
	}
	n := float64(len(z))
	g, tiny := 2*checksum.Gamma(len(z)+2), (n+2)*0x1p-1074
	if rows == 1 {
		return g*m1 + tiny, 0
	}
	return g*m1 + tiny, g*m2 + n*tiny
}

// sameVector reports whether u and v are one vector in memory.
func sameVector(u, v []float64) bool { return len(u) > 0 && &u[0] == &v[0] }

func (g *VectorGuard) correct(v []float64, d1, d2 float64) Outcome {
	if d := locate(v, d1, d2); d >= 0 && rebuild(v, d, g.ref.S1) {
		return g.recheck(v)
	}
	return Outcome{Detected: true, Class: ClassMultiple}
}

// locate returns the index of the single entry of v that the defect pair
// (d1, d2) = (δ, (d+1)·δ) blames, or -1 when the pair names none.
func locate(v []float64, d1, d2 float64) int {
	d := -1
	if !finite(d1) || !finite(d2) {
		// A poisoned entry (Inf/NaN) cannot be located from the ratio; scan.
		d = suspectIndex(v)
	} else {
		if d1 == 0 {
			return -1
		}
		pos := d2 / d1 // (d+1) for a single error at index d
		r := math.Round(pos)
		if math.Abs(pos-r) > math.Max(1e-8*math.Abs(pos), 0.05) {
			return -1
		}
		d = int(r) - 1
	}
	if d < 0 || d >= len(v) {
		return -1
	}
	return d
}

// rebuild reconstructs v[d] by exclusion from s1, the first-row checksum v
// should have, and reports whether the other entries allowed it. This is
// exact to within Σ|vᵢ| rounding regardless of the corruption magnitude; the
// naive repair v[d] += d1 loses the original value entirely when the
// corruption delta dwarfs it (a high exponent bit flip turns an O(1) entry
// into O(1e19): the ulp of the delta is then larger than the value being
// restored).
func rebuild(v []float64, d int, s1 float64) bool {
	var rest float64
	for i, x := range v {
		if i != d {
			rest += x
		}
	}
	if !finite(rest) {
		return false
	}
	v[d] = s1 - rest
	return true
}

func (g *VectorGuard) recheck(v []float64) Outcome {
	d1, d2, t1, t2 := g.ref.DefectTolerance(v, 2)
	if exceeds(d1, t1) || exceeds(d2, t2) {
		return Outcome{Detected: true, Class: ClassMultiple}
	}
	return Outcome{Detected: true, Corrected: true, Class: ClassX}
}
