package abft

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/sparse"
)

// harness bundles a protected matrix with a fresh input and reference.
type harness struct {
	p    *Protected
	x    []float64
	xRef checksum.Vector
	y    []float64
	orig *sparse.CSR // pristine copy for restoration checks
}

func newHarness(t *testing.T, n int, mode Mode, seed int64) *harness {
	t.Helper()
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.1, DiagShift: 1, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1000))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return &harness{
		p:    NewProtected(a, mode),
		x:    x,
		xRef: checksum.NewVector(x),
		y:    make([]float64, n),
		orig: a.Clone(),
	}
}

func TestNormPolicyCleanPasses(t *testing.T) {
	h := newHarness(t, 80, DetectCorrect, 41)
	if out := h.run(); out.Detected {
		t.Fatalf("Eq. (9) false positive: %+v", out)
	}
}

func TestNormPolicyCatchesSignificantErrors(t *testing.T) {
	h := newHarness(t, 80, DetectCorrect, 42)
	h.p.A.Val[10] = bitflip.Float64(h.p.A.Val[10], 62) // exponent: huge change
	out := h.run()
	if !out.Detected || !out.Corrected {
		t.Fatalf("Eq. (9) missed a significant Val error: %+v", out)
	}
	h.checkClean(t)
}

func TestNormPolicyFalseNegativesAreHarmless(t *testing.T) {
	// A flip of a low mantissa bit may fall under the Eq. (9) tolerance:
	// the paper accepts these because the perturbation is below rounding
	// scale. Verify the undetected case really is harmless — and a detected
	// one repaired.
	for _, c := range []struct {
		n, k int
		seed int64
		bit  uint
	}{
		{80, 5, 43, 2},   // last ulps
		{50, 17, 20, 20}, // mid-mantissa: escapes Eq. (9) at this size
	} {
		h := newHarness(t, c.n, DetectCorrect, c.seed)
		k := c.k % len(h.p.A.Val)
		orig := h.p.A.Val[k]
		h.p.A.Val[k] = bitflip.Float64(orig, c.bit)
		out := h.run()
		if out.Detected {
			if !out.Corrected || out.Class != ClassVal {
				t.Fatalf("bit %d: detected but not repaired: %+v", c.bit, out)
			}
			h.checkClean(t)
			continue
		}
		if math.Abs(h.p.A.Val[k]-orig) > 1e-9*(1+math.Abs(orig)) {
			t.Fatalf("bit %d: undetected flip was not small", c.bit)
		}
	}
}

// run performs the protected product and verification.
func (h *harness) run() Outcome {
	sr := h.p.MulVec(h.y, h.x)
	return h.p.Verify(h.y, h.x, h.xRef, sr)
}

// runCorrupt performs the product, applies corrupt to the state (inputs
// were already corruptible before the product; pass pre=true corruption via
// corruptPre), then verifies.
func (h *harness) runWithPostCorrupt(corrupt func()) Outcome {
	sr := h.p.MulVec(h.y, h.x)
	if corrupt != nil {
		corrupt()
	}
	return h.p.Verify(h.y, h.x, h.xRef, sr)
}

func (h *harness) checkClean(t *testing.T) {
	t.Helper()
	// After a correction the matrix must match the pristine copy to within
	// last-ulp rounding of the repairs.
	if len(h.p.A.Val) != len(h.orig.Val) {
		t.Fatal("matrix shape changed")
	}
	for k := range h.p.A.Val {
		if d := math.Abs(h.p.A.Val[k] - h.orig.Val[k]); d > 1e-9*(1+math.Abs(h.orig.Val[k])) {
			t.Fatalf("Val[%d] = %v, want %v", k, h.p.A.Val[k], h.orig.Val[k])
		}
		if h.p.A.Colid[k] != h.orig.Colid[k] {
			t.Fatalf("Colid[%d] = %d, want %d", k, h.p.A.Colid[k], h.orig.Colid[k])
		}
	}
	for i := range h.p.A.Rowidx {
		if h.p.A.Rowidx[i] != h.orig.Rowidx[i] {
			t.Fatalf("Rowidx[%d] = %d, want %d", i, h.p.A.Rowidx[i], h.orig.Rowidx[i])
		}
	}
	// And y must equal the true product.
	want := make([]float64, len(h.y))
	h.orig.MulVec(want, h.x)
	for i := range want {
		if d := math.Abs(h.y[i] - want[i]); d > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("y[%d] = %v, want %v", i, h.y[i], want[i])
		}
	}
}

func TestCleanProductPasses(t *testing.T) {
	for _, mode := range []Mode{Detect, DetectCorrect} {
		h := newHarness(t, 60, mode, 1)
		out := h.run()
		if out.Detected {
			t.Fatalf("mode %v: false positive on clean product: %+v", mode, out)
		}
	}
}

func TestNoFalsePositivesManyRuns(t *testing.T) {
	// The Theorem-2 tolerance must never flag a fault-free product, for
	// varied matrices and inputs (paper Section 5.1).
	for seed := int64(0); seed < 25; seed++ {
		h := newHarness(t, 40+int(seed)*7, DetectCorrect, seed)
		if out := h.run(); out.Detected {
			t.Fatalf("seed %d: false positive %+v", seed, out)
		}
	}
}

func TestNoFalsePositivesLaplacian(t *testing.T) {
	// Zero-column-sum matrices exercise the shifted checksum logic.
	a := sparse.RandomGraphLaplacian(80, 4, 0, 3)
	p := NewProtected(a, DetectCorrect)
	x := make([]float64, 80)
	rng := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 80)
	sr := p.MulVec(y, x)
	if out := p.Verify(y, x, checksum.NewVector(x), sr); out.Detected {
		t.Fatalf("false positive on Laplacian: %+v", out)
	}
}

// --- single-error correction, one test per error class ---

func TestCorrectValError(t *testing.T) {
	// Bit 20 at this size falls under Eq. (9): the false-negative case of
	// TestNormPolicyFalseNegativesAreHarmless.
	for _, bit := range []uint{40, 51, 55, 61, 63} {
		h := newHarness(t, 50, DetectCorrect, int64(bit))
		k := 17 % len(h.p.A.Val)
		h.p.A.Val[k] = bitflip.Float64(h.p.A.Val[k], bit)
		out := h.run()
		if !out.Detected || !out.Corrected {
			t.Fatalf("bit %d: Val error not corrected: %+v", bit, out)
		}
		if out.Class != ClassVal {
			t.Fatalf("bit %d: class = %v, want Val", bit, out.Class)
		}
		h.checkClean(t)
	}
}

func TestCorrectValErrorNaN(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 5)
	h.p.A.Val[3] = math.NaN()
	out := h.run()
	if !out.Corrected || out.Class != ClassVal {
		t.Fatalf("NaN Val not corrected: %+v", out)
	}
	h.checkClean(t)
}

func TestCorrectColidInRange(t *testing.T) {
	// Flip a low bit so the corrupted index stays in range: the zC̃ == 2
	// path of the decoder.
	for seed := int64(0); seed < 10; seed++ {
		h := newHarness(t, 64, DetectCorrect, seed)
		a := h.p.A
		// Find an entry whose bit-1 flip stays in range and lands on a
		// column not already present in the row.
		fixed := false
		for k := range a.Colid {
			nc := bitflip.Int(a.Colid[k], 1)
			if nc < 0 || nc >= a.Cols || nc == a.Colid[k] {
				continue
			}
			row := rowOf(a, k)
			if hasCol(a, row, nc) {
				continue
			}
			a.Colid[k] = nc
			fixed = true
			break
		}
		if !fixed {
			t.Fatal("no suitable Colid flip found")
		}
		out := h.run()
		if !out.Corrected || out.Class != ClassColid {
			t.Fatalf("seed %d: in-range Colid error: %+v", seed, out)
		}
		h.checkClean(t)
	}
}

func TestCorrectColidOutOfRange(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 7)
	a := h.p.A
	k := 11 % len(a.Colid)
	a.Colid[k] = bitflip.Int(a.Colid[k], 25) // way out of range
	out := h.run()
	if !out.Corrected || out.Class != ClassColid {
		t.Fatalf("out-of-range Colid error: %+v", out)
	}
	h.checkClean(t)
}

func TestCorrectRowidxError(t *testing.T) {
	for _, idx := range []int{0, 10, 25, 50} {
		for _, bit := range []uint{0, 2, 5, 20} {
			h := newHarness(t, 50, DetectCorrect, int64(idx)*31+int64(bit))
			a := h.p.A
			a.Rowidx[idx] = bitflip.Int(a.Rowidx[idx], bit)
			out := h.run()
			if !out.Corrected || out.Class != ClassRowidx {
				t.Fatalf("idx %d bit %d: Rowidx error: %+v", idx, bit, out)
			}
			h.checkClean(t)
		}
	}
}

func TestCorrectXError(t *testing.T) {
	for _, bit := range []uint{30, 50, 55, 62, 63} {
		h := newHarness(t, 50, DetectCorrect, int64(bit)+100)
		h.x[13] = bitflip.Float64(h.x[13], bit)
		out := h.run()
		if !out.Corrected || out.Class != ClassX {
			t.Fatalf("bit %d: x error: %+v", bit, out)
		}
		h.checkClean(t)
	}
}

func TestCorrectXErrorNaN(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 9)
	h.x[20] = math.NaN()
	out := h.run()
	if !out.Corrected || out.Class != ClassX {
		t.Fatalf("NaN x error: %+v", out)
	}
	h.checkClean(t)
}

func TestCorrectComputationError(t *testing.T) {
	// Corrupt y after the product: a computation error.
	for _, bit := range []uint{30, 50, 62, 63} {
		h := newHarness(t, 50, DetectCorrect, int64(bit)+200)
		out := h.runWithPostCorrupt(func() {
			h.y[7] = bitflip.Float64(h.y[7], bit)
		})
		if !out.Corrected || out.Class != ClassComputation {
			t.Fatalf("bit %d: computation error: %+v", bit, out)
		}
		h.checkClean(t)
	}
}

func TestCorrectComputationErrorNaN(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 11)
	out := h.runWithPostCorrupt(func() { h.y[31] = math.Inf(1) })
	if !out.Corrected || out.Class != ClassComputation {
		t.Fatalf("Inf computation error: %+v", out)
	}
	h.checkClean(t)
}

// --- detection-only mode ---

func TestDetectModeDetectsButDoesNotCorrect(t *testing.T) {
	corruptions := []struct {
		name string
		do   func(h *harness)
	}{
		{"Val", func(h *harness) { h.p.A.Val[5] = bitflip.Float64(h.p.A.Val[5], 60) }},
		{"Rowidx", func(h *harness) { h.p.A.Rowidx[8] = bitflip.Int(h.p.A.Rowidx[8], 3) }},
		{"x", func(h *harness) { h.x[9] = bitflip.Float64(h.x[9], 61) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 50, Detect, 31)
			c.do(h)
			out := h.run()
			if !out.Detected {
				t.Fatal("error not detected")
			}
			if out.Corrected {
				t.Fatal("Detect mode must not correct")
			}
		})
	}
}

// --- double errors: detected, not corrected (rollback signal) ---

func TestDoubleErrorsDetectedNotCorrected(t *testing.T) {
	cases := []struct {
		name string
		do   func(h *harness)
	}{
		{"twoVal", func(h *harness) {
			h.p.A.Val[3] = bitflip.Float64(h.p.A.Val[3], 58)
			h.p.A.Val[40] = bitflip.Float64(h.p.A.Val[40], 58)
		}},
		{"valAndX", func(h *harness) {
			h.p.A.Val[3] = bitflip.Float64(h.p.A.Val[3], 58)
			h.x[5] = bitflip.Float64(h.x[5], 58)
		}},
		{"twoRowidx", func(h *harness) {
			h.p.A.Rowidx[4] = bitflip.Int(h.p.A.Rowidx[4], 2)
			h.p.A.Rowidx[20] = bitflip.Int(h.p.A.Rowidx[20], 3)
		}},
		{"twoX", func(h *harness) {
			h.x[5] = bitflip.Float64(h.x[5], 59)
			h.x[25] = bitflip.Float64(h.x[25], 59)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 50, DetectCorrect, 77)
			c.do(h)
			out := h.run()
			if !out.Detected {
				t.Fatal("double error not detected")
			}
			if out.Corrected {
				t.Fatal("double error must not be reported corrected")
			}
		})
	}
}

// --- statistics ---

func TestStatsAccumulate(t *testing.T) {
	h := newHarness(t, 40, DetectCorrect, 13)
	h.run() // clean
	h.p.A.Val[2] = bitflip.Float64(h.p.A.Val[2], 60)
	h.run() // corrected
	s := h.p.Stats()
	if s.Products != 2 || s.Detections != 1 || s.Corrections != 1 || s.Rollbacks != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Double error → rollback.
	h.p.A.Val[2] = bitflip.Float64(h.p.A.Val[2], 60)
	h.x[1] = bitflip.Float64(h.x[1], 60)
	h.run()
	s = h.p.Stats()
	if s.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1 (stats %+v)", s.Rollbacks, s)
	}
}

// --- the paper's shifted no-copy test ---

func TestShiftedTestCleanPasses(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 17)
	h.p.MulVec(h.y, h.x)
	xPrime := append([]float64(nil), h.x...)
	if !h.p.ShiftedTest(h.y, h.x, xPrime) {
		t.Fatal("shifted test false positive on clean product")
	}
}

func TestShiftedTestCatchesXErrorInZeroSumColumn(t *testing.T) {
	// On a graph Laplacian every unshifted column checksum is zero, so the
	// unshifted test cᵀx = Σy cannot see an error in x — the shift fixes
	// exactly this (paper Section 3.2).
	a := sparse.RandomGraphLaplacian(60, 4, 0, 21)
	p := NewProtected(a, DetectCorrect)
	rng := rand.New(rand.NewSource(22))
	x := make([]float64, 60)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xPrime := append([]float64(nil), x...)
	y := make([]float64, 60)

	// Corrupt x AFTER taking the pristine copy, then compute y from the
	// corrupted x (memory fault before the product).
	x[10] += 3.5
	p.MulVec(y, x)

	// Unshifted comparison: C1ᵀx′ vs Σy. C1 is all zeros, so both sides
	// see no difference from the x corruption → undetectable.
	var c1xp float64
	for j := range xPrime {
		c1xp += p.CS.C1[j] * xPrime[j]
	}
	// The shifted test must detect it.
	if p.ShiftedTest(y, x, xPrime) {
		t.Fatal("shifted test missed an x error in a zero-sum column")
	}
}

func TestShiftedTestCatchesValError(t *testing.T) {
	h := newHarness(t, 50, DetectCorrect, 23)
	h.p.A.Val[4] = bitflip.Float64(h.p.A.Val[4], 60)
	h.p.MulVec(h.y, h.x)
	xPrime := append([]float64(nil), h.x...)
	if h.p.ShiftedTest(h.y, h.x, xPrime) {
		t.Fatal("shifted test missed a Val error")
	}
}

// --- flop accounting ---

func TestFlopCounts(t *testing.T) {
	h := newHarness(t, 30, DetectCorrect, 29)
	if h.p.FlopsMulVec() <= h.p.A.FlopsMulVec() {
		t.Fatal("protected product must cost more than the plain one")
	}
	det := NewProtected(h.orig.Clone(), Detect)
	if det.FlopsVerify() >= h.p.FlopsVerify() {
		t.Fatal("Detect verification must be cheaper than DetectCorrect")
	}
}

// --- helpers ---

func rowOf(a *sparse.CSR, k int) int {
	for i := 0; i < a.Rows; i++ {
		if k >= a.Rowidx[i] && k < a.Rowidx[i+1] {
			return i
		}
	}
	return -1
}

func hasCol(a *sparse.CSR, row, col int) bool {
	for k := a.Rowidx[row]; k < a.Rowidx[row+1]; k++ {
		if a.Colid[k] == col {
			return true
		}
	}
	return false
}

func TestModeString(t *testing.T) {
	if Detect.String() != "abft-detect" || DetectCorrect.String() != "abft-correct" {
		t.Fatal("mode names wrong")
	}
	if ClassVal.String() != "Val" || ClassNone.String() != "none" {
		t.Fatal("class names wrong")
	}
}

// TestHugeNormArmsAndVerifies: arming used to search for the shift in a loop
// that never ended once ‖A‖₁ ≥ 2⁵³ and a column summed to −‖A‖₁. The wrapper
// must come back, protect the operand like any other — a clean product passes,
// a struck x is caught through the shifted column — and report a matrix that
// has no encoding as the typed error.
func TestHugeNormArmsAndVerifies(t *testing.T) {
	p := NewProtected(sparse.Dense(1, 1, []float64{-1e20}), DetectCorrect)
	if err := p.CS.Err; err != nil {
		t.Fatal(err)
	}
	x, y := []float64{3}, make([]float64, 1)
	xRef := checksum.NewVector(x)
	if out := p.Verify(y, x, xRef, p.MulVec(y, x)); out.Detected || y[0] != -3e20 {
		t.Fatalf("clean product: %+v, y = %v", out, y)
	}
	x[0] = 4
	if out := p.Verify(y, x, xRef, p.MulVec(y, x)); !out.Corrected || x[0] != 3 || y[0] != -3e20 {
		t.Fatalf("struck x: %+v, x = %v, y = %v", out, x, y)
	}
	if !p.ShiftedTest(y, x, x) {
		t.Fatal("shifted test rejects the clean product")
	}

	for _, v := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		p.Renew(sparse.Dense(1, 1, []float64{v}), Detect)
		if !errors.Is(p.CS.Err, checksum.ErrNoShift) {
			t.Fatalf("[%g]: Err = %v, want ErrNoShift", v, p.CS.Err)
		}
	}
	if p.Renew(sparse.Dense(1, 1, []float64{2}), Detect); p.CS.Err != nil {
		t.Fatalf("re-armed over [2]: %v", p.CS.Err)
	}
}
