package abft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitflip"
	"repro/internal/checksum"
)

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 5
	}
	return v
}

func TestGuardCleanPasses(t *testing.T) {
	v := randVec(100, 1)
	g := NewGuard(v, DetectCorrect)
	if out := g.Check(v); out.Detected {
		t.Fatalf("false positive: %+v", out)
	}
}

func TestGuardDetectsSingleError(t *testing.T) {
	v := randVec(100, 2)
	g := NewGuard(v, Detect)
	v[37] = bitflip.Float64(v[37], 60)
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("detect mode: %+v", out)
	}
}

func TestGuardCorrectsSingleError(t *testing.T) {
	for _, bit := range []uint{40, 52, 58, 62, 63} {
		v := randVec(100, 3)
		orig := append([]float64(nil), v...)
		g := NewGuard(v, DetectCorrect)
		v[71] = bitflip.Float64(v[71], bit)
		out := g.Check(v)
		if !out.Detected || !out.Corrected {
			t.Fatalf("bit %d: %+v", bit, out)
		}
		if d := math.Abs(v[71] - orig[71]); d > 1e-9*(1+math.Abs(orig[71])) {
			t.Fatalf("bit %d: repaired value %v, want %v", bit, v[71], orig[71])
		}
	}
}

func TestGuardCorrectsNaN(t *testing.T) {
	v := randVec(64, 4)
	orig := v[10]
	g := NewGuard(v, DetectCorrect)
	v[10] = math.NaN()
	out := g.Check(v)
	if !out.Corrected {
		t.Fatalf("NaN not corrected: %+v", out)
	}
	if math.Abs(v[10]-orig) > 1e-9*(1+math.Abs(orig)) {
		t.Fatalf("repaired %v, want %v", v[10], orig)
	}
}

func TestGuardCorrectsInf(t *testing.T) {
	v := randVec(64, 5)
	orig := v[0]
	g := NewGuard(v, DetectCorrect)
	v[0] = math.Inf(-1)
	if out := g.Check(v); !out.Corrected {
		t.Fatalf("Inf not corrected: %+v", out)
	}
	if math.Abs(v[0]-orig) > 1e-9*(1+math.Abs(orig)) {
		t.Fatal("bad repair")
	}
}

func TestGuardDoubleErrorUncorrectable(t *testing.T) {
	v := randVec(100, 6)
	g := NewGuard(v, DetectCorrect)
	v[3] += 7
	v[90] -= 2
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("double error: %+v", out)
	}
}

func TestGuardDoubleNaNUncorrectable(t *testing.T) {
	v := randVec(50, 7)
	g := NewGuard(v, DetectCorrect)
	v[1] = math.NaN()
	v[2] = math.NaN()
	out := g.Check(v)
	if !out.Detected || out.Corrected {
		t.Fatalf("double NaN: %+v", out)
	}
}

func TestGuardRefresh(t *testing.T) {
	v := randVec(50, 8)
	g := NewGuard(v, DetectCorrect)
	v[9] = 123 // legitimate rewrite
	g.Refresh(v)
	if out := g.Check(v); out.Detected {
		t.Fatalf("refresh did not absorb the write: %+v", out)
	}
}

// Property: any significant single-entry corruption of a random vector is
// corrected back to the original value (within rounding).
func TestGuardCorrectionProperty(t *testing.T) {
	f := func(seed int64, idxRaw uint16, delta float64) bool {
		if delta != delta || math.IsInf(delta, 0) {
			return true
		}
		n := 20 + int(idxRaw)%80
		idx := int(idxRaw) % n
		v := randVec(n, seed)
		// Significant relative to the tolerance: scale the perturbation.
		if math.Abs(delta) < 1e-3 {
			delta = math.Copysign(1e-3+math.Abs(delta), delta+1)
		}
		orig := v[idx]
		g := NewGuard(v, DetectCorrect)
		v[idx] += delta
		out := g.Check(v)
		if !out.Corrected {
			return false
		}
		return math.Abs(v[idx]-orig) <= 1e-6*(1+math.Abs(orig))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// linearUpdate is z ← a + alpha·b with the checksum of z as the fused kernel
// of internal/tmr accumulates it (the bits of a re-read).
func linearUpdate(z, a []float64, alpha float64, b []float64, rows int) checksum.Vector {
	for i := range z {
		z[i] = a[i] + alpha*b[i]
	}
	return checksum.NewVectorRows(z, rows)
}

// TestLinearHoldsAnUpdateToItsOperands walks VectorGuard.Linear through every
// aliasing of z ← a + α·b: a clean update passes and its sums become the
// reference; a word of either operand struck after its reference was taken —
// the one the update overwrites included — is detected by one row and, with
// two, the element it fed is rebuilt; two struck words are not a repair.
func TestLinearHoldsAnUpdateToItsOperands(t *testing.T) {
	const n, alpha = 200, -0.375
	for _, alias := range []string{"fresh", "a", "b"} {
		for _, mode := range []Mode{Detect, DetectCorrect} {
			for strikes := 0; strikes <= 2; strikes++ {
				for _, struckA := range []bool{true, false} {
					a, b := randVec(n, 11), randVec(n, 12)
					z := make([]float64, n)
					switch alias {
					case "a":
						z = a
					case "b":
						z = b
					}
					g := NewGuard(z, mode)
					rows := g.Rows()
					aRef, bRef := checksum.NewVectorRows(a, rows), checksum.NewVectorRows(b, rows)
					clean := make([]float64, n)
					linearUpdate(clean, a, alpha, b, rows)

					struck := b
					if struckA {
						struck = a
					}
					// Two strikes whose defect ratio, 86.045, passes for a position:
					// only the re-check after the rebuild tells them from one error.
					for k := 0; k < strikes; k++ {
						struck[40+90*k] += 3 + 0.006*float64(k)
					}
					got := linearUpdate(z, a, alpha, b, rows)
					out := g.Linear(z, got, a, aRef, alpha, b, bRef)
					what := fmt.Sprintf("z aliases %s, %v, %d strikes (in a: %v)", alias, mode, strikes, struckA)
					switch {
					case strikes == 0:
						if out.Detected || g.Ref() != got {
							t.Fatalf("%s: %+v, reference %v, update returned %v", what, out, g.Ref(), got)
						}
					case mode == Detect || strikes == 2:
						if !out.Detected || out.Corrected {
							t.Fatalf("%s: %+v, want detected and not corrected", what, out)
						}
					default:
						if !out.Corrected || g.Ref() != checksum.NewVector(z) {
							t.Fatalf("%s: %+v, reference %v", what, out, g.Ref())
						}
						for i := range z {
							if math.Abs(z[i]-clean[i]) > 1e-12 || (i != 40 && z[i] != clean[i]) {
								t.Fatalf("%s: z[%d] = %v, pristine %v", what, i, z[i], clean[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestLinearEdgeMagnitudes: what must never pass, and what must never be
// flagged. A flip of the top exponent bit takes an element near 2¹⁰²³, where
// the rounding masses overflow — a tolerance of +Inf clears nothing; NaN and
// Inf are detections and, alone in the vector, repaired. Addends that cancel
// to nothing leave a defect the size of the operands' rounding, which only
// the full tolerance covers; zeros and denormals leave none.
func TestLinearEdgeMagnitudes(t *testing.T) {
	const n = 64
	{
		// One row, in place, off the sample's stride: sums and defect stay
		// finite, the masses do not.
		a, b := randVec(n, 21), randVec(n, 22)
		g := NewGuard(a, Detect)
		aRef, bRef := g.Ref(), checksum.NewVectorRows(b, 1)
		a[9] = bitflip.Float64(0.75, 62)
		if out := g.Linear(a, linearUpdate(a, a, 2, b, 1), a, aRef, 2, b, bRef); !out.Detected {
			t.Fatalf("an element of %g passed under one row", a[9])
		}
	}
	for _, poison := range []float64{bitflip.Float64(0.75, 62), math.NaN(), math.Inf(-1)} {
		for _, inPlace := range []bool{true, false} {
			a, b := randVec(n, 21), randVec(n, 22)
			z := make([]float64, n)
			if inPlace {
				z = a
			}
			g := NewGuard(z, DetectCorrect)
			aRef, bRef := checksum.NewVector(a), checksum.NewVector(b)
			want := a[9] + 2*b[9]
			a[9] = poison
			out := g.Linear(z, linearUpdate(z, a, 2, b, 2), a, aRef, 2, b, bRef)
			if !out.Corrected || math.Abs(z[9]-want) > 1e-12 {
				t.Fatalf("a[9] = %g (in place: %v): %+v, z[9] = %v, want %v", poison, inPlace, out, z[9], want)
			}
		}
	}

	a, b := randVec(n, 23), make([]float64, n)
	for i := range a {
		a[i] *= 1e9
		b[i] = a[i] / 3
	}
	g := NewGuard(a, DetectCorrect)
	aRef, bRef := g.Ref(), checksum.NewVector(b)
	if out := g.Linear(a, linearUpdate(a, a, -3, b, 2), a, aRef, -3, b, bRef); out.Detected {
		t.Fatalf("cancelling addends: false positive %+v", out)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, -3e-320} {
		for i := range a {
			a[i], b[i] = v, -v
		}
		g.Refresh(a)
		aRef, bRef = g.Ref(), checksum.NewVector(b)
		if out := g.Linear(a, linearUpdate(a, a, 0.3, b, 2), a, aRef, 0.3, b, bRef); out.Detected {
			t.Fatalf("all %g: false positive %+v", v, out)
		}
	}
}

// TestVerifyKeepsTheOutputsChecksum: the sums Verify reads off y are those of
// a re-read, after a repair too, so y needs no pass of its own to become an
// operand with a reference.
func TestVerifyKeepsTheOutputsChecksum(t *testing.T) {
	for _, mode := range []Mode{Detect, DetectCorrect} {
		h := newHarness(t, 80, mode, 31)
		rows := 1 + int(mode)
		if out := h.p.Verify(h.y, h.x, h.xRef, h.p.MulVec(h.y, h.x)); out.Detected {
			t.Fatalf("%v: clean product: %+v", mode, out)
		}
		if got, want := h.p.OutputSums(), checksum.NewVectorRows(h.y, rows); got != want {
			t.Fatalf("%v: OutputSums %v, re-reading y gives %v", mode, got, want)
		}
		if mode == Detect {
			continue
		}
		sr := h.p.MulVec(h.y, h.x)
		h.y[17] += 1e3
		if out := h.p.Verify(h.y, h.x, h.xRef, sr); !out.Corrected {
			t.Fatalf("struck y: %+v", out)
		}
		if got, want := h.p.OutputSums(), checksum.NewVector(h.y); got != want {
			t.Fatalf("after the repair: OutputSums %v, re-reading y gives %v", got, want)
		}
	}
}
