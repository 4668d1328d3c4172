package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a minimal metrics surface rendered in the Prometheus text
// exposition format (version 0.0.4): counters, gauges and fixed-bucket
// histograms, no labels except a histogram's le. Counters and gauges are
// registered as CounterFunc/GaugeFunc closures over counters the service
// already maintains, so exposition never double-counts and costs nothing
// off the scrape path.
type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	metrics []metricEntry
}

type metricEntry struct {
	name, help, kind string
	value            func() float64 // counter and gauge kinds
	hist             *Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) register(e metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic("obs: duplicate metric " + e.name)
	}
	r.names[e.name] = true
	r.metrics = append(r.metrics, e)
}

// CounterFunc registers a monotonic counter read from fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(metricEntry{name: name, help: help, kind: "counter", value: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metricEntry{name: name, help: help, kind: "gauge", value: fn})
}

// defBuckets are the default latency buckets in seconds, spanning
// sub-millisecond warm solves to multi-second cold ones.
var defBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram. Observe is lock-free (atomic
// bucket counters, CAS-accumulated sum) so it can sit on request paths.
type Histogram struct {
	upper   []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Histogram registers a histogram with the given upper bucket bounds
// (nil selects defBuckets). Bounds are sorted; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = defBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	h := &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper))}
	r.register(metricEntry{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// formatValue renders a sample the way Prometheus expects: integers
// bare, floats in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	metrics := append([]metricEntry(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.hist != nil:
			cum, count := int64(0), m.hist.count.Load()
			for i, ub := range m.hist.upper {
				cum += m.hist.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatValue(ub), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, count)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatValue(math.Float64frombits(m.hist.sumBits.Load())))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, count)
		default:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(m.value()))
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
