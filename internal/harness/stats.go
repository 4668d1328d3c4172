package harness

import "math"

// mean returns the arithmetic mean of xs (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdDev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func stdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// meanCI returns the mean and the half-width of its 95% normal confidence
// interval.
func meanCI(xs []float64) (m, halfWidth float64) {
	m = mean(xs)
	if len(xs) < 2 {
		return m, 0
	}
	halfWidth = 1.96 * stdDev(xs) / math.Sqrt(float64(len(xs)))
	return m, halfWidth
}

// LogSpace returns k points logarithmically spaced between lo and hi
// inclusive.
func LogSpace(lo, hi float64, k int) []float64 {
	if k <= 1 {
		return []float64{lo}
	}
	out := make([]float64, k)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		t := float64(i) / float64(k-1)
		out[i] = math.Exp(llo + t*(lhi-llo))
	}
	return out
}
