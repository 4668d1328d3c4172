package harness

import (
	"math"
	"testing"
)

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if mean(xs) != 2.5 {
		t.Fatal("mean wrong")
	}
	if math.Abs(stdDev(xs)-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("stdDev = %v", stdDev(xs))
	}
	if mean(nil) != 0 || stdDev([]float64{1}) != 0 {
		t.Fatal("degenerate stats wrong")
	}
	m, ci := meanCI(xs)
	if m != 2.5 || ci <= 0 {
		t.Fatal("meanCI wrong")
	}
}
