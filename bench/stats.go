package main

import (
	"math"
	"sort"
)

// sortedCopy returns v ascending without touching the caller's slice.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty set, which the report prints with n=0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank q-th percentile (0 < q ≤ 100) of an
// ascending sample: always an observed value.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// percentileLadder lists the tail percentiles the report may quote.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile is the highest rung of the ladder that still has at
// least ten samples beyond it — above that a "percentile" is one or two
// outliers. 0 means not even the median qualifies (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		rank := int(math.Ceil(q/100*float64(n) - 1e-9)) // nearest rank, proof against 99.9/100·10000 = 9990.000000000002
		if n-rank >= 10 {
			best = q
		}
	}
	return best
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method the driver uses), so a spread computed here is the spread the
// driver will compute.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// quartileSpread is the interquartile distance as a share of the median.
func quartileSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
