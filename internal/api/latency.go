package api

import (
	"math"
	"sort"
)

// LatencySummary is the shared latency digest of a sample set: mean,
// nearest-rank tail percentiles and the maximum, in milliseconds. resload
// reports one per run.
type LatencySummary struct {
	Count  int     `json:"count,omitempty"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// SummarizeLatencies digests a sample set (milliseconds). The slice is
// sorted in place.
func SummarizeLatencies(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return LatencySummary{
		Count:  len(ms),
		MeanMs: sum / float64(len(ms)),
		P50Ms:  NearestRank(ms, 0.50),
		P90Ms:  NearestRank(ms, 0.90),
		P99Ms:  NearestRank(ms, 0.99),
		P999Ms: NearestRank(ms, 0.999),
		MaxMs:  ms[len(ms)-1],
	}
}

// NearestRank returns the q-th percentile of an ascending-sorted sample
// by the nearest-rank method: the smallest element with at least q·n
// samples at or below it. Ceil (not round) is the textbook definition —
// with 26 samples, p90 is element ⌈0.9·26⌉ = 24, not 23 — and it
// guarantees the result is always an observed sample.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
