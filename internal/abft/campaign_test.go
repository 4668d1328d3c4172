package abft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/sparse"
)

// TestRandomSingleFaultCampaign fires hundreds of random single bit flips —
// uniformly over Val, Colid, Rowidx, x and y, like the paper's injector —
// at protected products and requires that every flip is either corrected,
// flagged for rollback, or provably harmless (below the detection
// tolerance with a negligible effect on the product).
func TestRandomSingleFaultCampaign(t *testing.T) {
	const trials = 400
	rng := rand.New(rand.NewSource(99))

	var corrected, rolledBack, undetected, harmlessMiss int
	for trial := 0; trial < trials; trial++ {
		n := 30 + rng.Intn(50)
		a := sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.15, DiagShift: 1, Seed: int64(trial)})
		p := NewProtected(a, DetectCorrect)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xRef := checksum.NewVector(x)
		y := make([]float64, n)
		truth := make([]float64, n)
		aClean := a.Clone()
		aClean.MulVec(truth, x)
		xClean := append([]float64(nil), x...)

		// Choose a target uniformly over the words.
		nnz := a.NNZ()
		total := nnz*2 + len(a.Rowidx) + 2*n // Val, Colid, Rowidx, x, y
		w := rng.Intn(total)
		postCompute := false
		switch {
		case w < nnz:
			a.Val[w] = bitflip.Float64(a.Val[w], uint(rng.Intn(64)))
		case w < 2*nnz:
			a.Colid[w-nnz] = bitflip.Int(a.Colid[w-nnz], uint(rng.Intn(25)))
		case w < 2*nnz+len(a.Rowidx):
			a.Rowidx[w-2*nnz] = bitflip.Int(a.Rowidx[w-2*nnz], uint(rng.Intn(25)))
		case w < 2*nnz+len(a.Rowidx)+n:
			x[w-2*nnz-len(a.Rowidx)] = bitflip.Float64(x[w-2*nnz-len(a.Rowidx)], uint(rng.Intn(64)))
		default:
			postCompute = true
		}

		sr := p.MulVec(y, x)
		if postCompute {
			i := w - 2*nnz - len(a.Rowidx) - n
			y[i] = bitflip.Float64(y[i], uint(rng.Intn(64)))
		}
		out := p.Verify(y, x, xRef, sr)

		switch {
		case out.Corrected:
			corrected++
			// After correction the product must be (approximately) right.
			for i := range truth {
				if diff := abs(y[i] - truth[i]); diff > 1e-6*(1+abs(truth[i])) {
					t.Fatalf("trial %d: corrected but y[%d]=%v want %v", trial, i, y[i], truth[i])
				}
			}
		case out.Detected:
			rolledBack++
		default:
			undetected++
			// An undetected flip must be harmless: the product and the
			// state must be near the truth (the paper's false negatives —
			// low-order mantissa flips below the rounding tolerance).
			ok := true
			for i := range truth {
				if abs(y[i]-truth[i]) > 1e-4*(1+abs(truth[i])) {
					ok = false
					break
				}
			}
			for i := range x {
				if abs(x[i]-xClean[i]) > 1e-4*(1+abs(xClean[i])) {
					ok = false
				}
			}
			if !ok {
				harmlessMiss++
			}
		}
	}

	t.Logf("campaign: %d corrected, %d rollback, %d undetected (harmless), %d harmful misses",
		corrected, rolledBack, undetected, harmlessMiss)
	if corrected == 0 {
		t.Fatal("campaign exercised no corrections")
	}
	if harmlessMiss > 0 {
		t.Fatalf("%d harmful undetected faults", harmlessMiss)
	}
	// Forward recovery is the whole point: most single faults must be
	// corrected rather than rolled back.
	if float64(corrected) < 0.5*float64(corrected+rolledBack) {
		t.Fatalf("only %d/%d detected faults corrected", corrected, corrected+rolledBack)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// twoPassCheck is VectorGuard.Check as it was before the passes were fused:
// Defect, then VectorTolerance, each its own traversal, both rows whatever
// the mode. The repair itself is the guard's own; it did not change.
func twoPassCheck(g *VectorGuard, v []float64) Outcome {
	d1, d2 := g.ref.Defect(v)
	t1, t2 := checksum.VectorTolerance(v)
	bad := exceeds(d1, t1) || (g.mode == DetectCorrect && exceeds(d2, t2))
	if !bad {
		return Outcome{}
	}
	if g.mode == Detect {
		return Outcome{Detected: true, Class: ClassX}
	}
	return g.correct(v, d1, d2)
}

// TestGuardCampaignSinglePassMatchesTwoPass runs the fault campaign of
// TestRandomSingleFaultCampaign — uniform random single bit flips — against
// guarded vectors, in both modes, and requires of the single-pass Check the
// outcome and the repaired bits of the two-pass computation, and of its
// fused accumulators the bits of the separate loops on every vector either
// of them reads.
func TestGuardCampaignSinglePassMatchesTwoPass(t *testing.T) {
	const trials = 2000
	rng := rand.New(rand.NewSource(99))

	sameAccumulators := func(trial int, ref checksum.Vector, v []float64, rows int) {
		t.Helper()
		d1, d2, t1, t2 := ref.DefectTolerance(v, rows)
		wd1, wd2 := ref.Defect(v)
		wt1, wt2 := checksum.VectorTolerance(v)
		if rows == 1 {
			wd2, wt2 = 0, 0
		}
		got, want := [4]float64{d1, d2, t1, t2}, [4]float64{wd1, wd2, wt1, wt2}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d: one pass computes %v, two passes %v", trial, got, want)
			}
		}
	}

	var detected, corrected int
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(700)
		clean := make([]float64, n)
		for i := range clean {
			clean[i] = rng.NormFloat64() * 5
		}
		for _, mode := range []Mode{Detect, DetectCorrect} {
			g := NewGuard(clean, mode)
			if g.Ref() != checksum.NewVectorRows(clean, g.Rows()) {
				t.Fatalf("trial %d: reference is not the checksum of the vector", trial)
			}
			one := append([]float64(nil), clean...)
			if trial%10 != 0 { // every tenth trial stays fault-free
				i := rng.Intn(n)
				one[i] = bitflip.Float64(one[i], uint(rng.Intn(64)))
			}
			two := append([]float64(nil), one...)
			sameAccumulators(trial, g.Ref(), one, g.Rows())

			got, want := g.Check(one), twoPassCheck(g, two)
			if got != want {
				t.Fatalf("trial %d, %v: single pass %+v, two passes %+v", trial, mode, got, want)
			}
			for i := range one {
				if math.Float64bits(one[i]) != math.Float64bits(two[i]) {
					t.Fatalf("trial %d, %v: repairs differ at %d: %v vs %v", trial, mode, i, one[i], two[i])
				}
			}
			// The repaired vector is what the re-verification read.
			sameAccumulators(trial, g.Ref(), one, 2)
			if got.Detected {
				detected++
			}
			if got.Corrected {
				corrected++
			}
		}
	}
	if detected == 0 || corrected == 0 {
		t.Fatalf("campaign exercised %d detections, %d corrections", detected, corrected)
	}
}
