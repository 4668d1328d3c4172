package abft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitflip"
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
