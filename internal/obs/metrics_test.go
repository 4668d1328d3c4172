package obs

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_mapped_total", "Mapped counter.", func() float64 { return 42 })
	r.GaugeFunc("test_depth", "Queue depth.", func() float64 { return 3.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5) // beyond last bucket: only +Inf

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE test_mapped_total counter",
		"test_mapped_total 42",
		"# TYPE test_depth gauge",
		"test_depth 3.5",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if got := h.count.Load(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := math.Float64frombits(h.sumBits.Load()); got < 5.10 || got > 5.11 {
		t.Fatalf("Sum = %v, want ~5.105", got)
	}
}

// TestExpositionParses walks every line of a populated exposition and
// checks it is well-formed Prometheus text format: comments are HELP or
// TYPE, samples are "name[{le="..."}] value" with a parseable float.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("a_total", "A.", func() float64 { return 1 })
	r.GaugeFunc("b", "B.", func() float64 { return 0.25 })
	r.Histogram("c_seconds", "C.", nil).Observe(0.002)

	var b strings.Builder
	r.WriteTo(&b)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("no sample value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if name == "" {
			t.Fatalf("empty metric name: %q", line)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("unparseable value %q in %q", val, line)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") || !strings.Contains(name, `le="`) {
				t.Fatalf("bad label set: %q", line)
			}
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_seconds", "", []float64{1, 2, 3})
	for i := 0; i < 6; i++ {
		h.Observe(float64(i) * 0.7) // 0, .7, 1.4, 2.1, 2.8, 3.5
	}
	var b strings.Builder
	r.WriteTo(&b)
	text := b.String()
	for _, want := range []string{
		`cum_seconds_bucket{le="1"} 2`,
		`cum_seconds_bucket{le="2"} 3`,
		`cum_seconds_bucket{le="3"} 5`,
		`cum_seconds_bucket{le="+Inf"} 6`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in\n%s", want, text)
		}
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("h_total", "H.", func() float64 { return 3 })

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 3") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics: %d, want 405", rec.Code)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("dup_total", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "", func() float64 { return 0 })
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{0: "0", 7: "7", 3.5: "3.5", 0.001: "0.001"}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
