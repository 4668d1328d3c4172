package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g: the highest percentile with at least ten samples beyond it", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{10, 1}, {50, 5}, {90, 9}, {95, 10}, {100, 10}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g (nearest rank)", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an even count = %g, want the mean of the middle two, 4", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := quartileSpread([]float64{10, 20, 30, 40, 50}); got != 1 {
		t.Errorf("quartileSpread = %g, want (45-15)/30", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 60, Parent: 0},
		{Name: "inner", Start: 20, End: 30, Parent: 1},
		{Name: "inner", Start: 25, End: 50, Parent: 1},    // overlaps its sibling: covered once
		{Name: "verify", Start: 90, End: 120, Parent: 0},  // runs past its parent: clipped
		{Name: "reported", Start: 55, End: 58, Parent: 1}, // inside call
	}
	want := []int64{
		100 - 50 - 10, // op: minus call [10,60] and verify clipped to [90,100]
		50 - 30 - 3,   // call: minus the union [20,50] and [55,58]
		10, 25, 30, 3,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := byLayer(spans)
	if rows[0].Name != "op" || rows[0].SelfNs != 40 {
		t.Errorf("byLayer does not lead with the largest self time: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Name == "inner" && (r.Count != 2 || r.TotalNs != 35 || r.SelfNs != 35) {
			t.Errorf("inner folded to %+v, want 2 spans, 35 ns", r)
		}
	}
}

// timed fabricates a successful sample of the given round that took ms.
func timed(o *op, round int, ms float64, hit bool) sample {
	start := time.Unix(1000, 0)
	return sample{Op: o, Round: round, Start: start, End: start.Add(time.Duration(ms * 1e6)), CacheHit: hit}
}

func TestEndToEndAggregation(t *testing.T) {
	prot := single(kindSolve, "stencil", "cg", abftCorrection, 0, trialSeed)
	plain := single(kindSolve, "stencil", "cg", unprotected, 0, trialSeed)
	batch := single(kindBatch, "denserow", "cg", abftCorrection, 0, trialSeed)
	batch.Seeds, batch.RHS = []int64{1, 1, 1, 1}, batchRHSSeeds
	lone := single(kindSolve, "denserow", "pcg", abftCorrection, 0, trialSeed) // no unprotected twin
	var samples []sample
	for round, ms := range [][4]float64{{30, 10, 80, 40}, {36, 12, 88, 44}, {45, 9, 80, 40}} {
		samples = append(samples, timed(&prot, round, ms[0], false), timed(&plain, round, ms[1], false),
			timed(&batch, round, ms[2], false), timed(&lone, round, ms[3], false))
	}
	failed := timed(&prot, 1, 1, false)
	failed.Failed = true
	samples = append(samples, failed)

	res := endToEnd(samples, 1, []float64{3, 1, 2})
	near := func(res results, name string, want float64) {
		t.Helper()
		if got := res[name].V; math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s = %.12g, want %.12g", name, got, want)
		}
	}
	// Per round, protected time over 1 + 4 + 1 right-hand sides: 150/6,
	// 168/6, 165/6 ms; the median round is the third.
	near(res, "time_to_solution_ms", 165.0/6)
	// Only stencil/cg has a twin — 30/10, 36/12, 45/9: the batch and the lone
	// cell stay out of the ratio.
	near(res, "protection_overhead_ratio", 3)
	// One caller, 7 right-hand sides per round over 160, 180 and 174 ms.
	near(res, "solves_per_s", 7/0.174)
	// Every successful operation, sorted: 9 10 12 30 36 40 40 44 45 80 80 88.
	near(res, "latency_p50_ms", 40)
	near(res, "latency_p95_ms", 88)
	near(res, "setup_s", 2)
	near(res, failedShare, 1.0/13)

	// Two callers answer twice the right-hand sides in the same wall time;
	// what one caller observes per operation does not change.
	two := endToEnd(samples, 2, []float64{1})
	near(two, "solves_per_s", 2*7/0.174)
	near(two, "latency_p50_ms", 40)

	// Requests of one matrix that hit and missed the cache are different
	// work: each outcome pairs with its own twin. Two inline matrices are
	// never twins.
	ip, iu, other := inlineOp(0, abftCorrection), inlineOp(0, unprotected), inlineOp(2, unprotected)
	cached := []sample{timed(&ip, 0, 4, true), timed(&iu, 0, 2, true), timed(&ip, 0, 9, false), timed(&iu, 0, 6, false), timed(&other, 0, 1, false)}
	near(endToEnd(cached, 1, []float64{1}), "protection_overhead_ratio", 13.0/8)
	if got := endToEnd([]sample{timed(&ip, 0, 4, false), timed(&other, 0, 1, false)}, 1, []float64{1})["protection_overhead_ratio"]; got.V != 0 {
		t.Errorf("a protected operation without a twin in its round gave an overhead of %g, want none", got.V)
	}
}

func TestTimesAreReportedAtYardstickSpeed(t *testing.T) {
	y := newYardstick()
	if ratio, n := y.ratio(); ratio != 1 || n != 0 {
		t.Errorf("without readings the ratio is %g (%d readings), want 1", ratio, n)
	}
	y.tick()
	y.tick() // not due yet
	if _, n := y.ratio(); n != 1 {
		t.Errorf("two ticks within %v took %d readings, want 1", yardstickEvery, n)
	}
	(*yardstick)(nil).tick()
	y.ns = []float64{3e6, 1.5e6, 1.875e6} // the median reading is 1.25× nominal
	res := results{}
	res.set("latency_p50_ms", 50, 1)
	res.set("setup_s", 2.5, 1)
	res.set("sparse.mulvec_ns.large", 1000, 1)
	res.set("solves_per_s", 80, 1)
	res.set("sparse.mulvec_gbps_computed.large", 4, 1)
	res.set("core.model_over_wall_ratio.abft-correction", 0.8, 1)
	res.set("protection_overhead_ratio", 1.6, 1)
	res.set("peak_rss_mb", 48, 1)
	res.set("core.checkpoints", 7, 1)
	res.finish(y)
	for name, want := range map[string]float64{
		"latency_p50_ms": 40, "setup_s": 2, "sparse.mulvec_ns.large": 800, // times shrink
		"solves_per_s": 100, "sparse.mulvec_gbps_computed.large": 5, "core.model_over_wall_ratio.abft-correction": 1, // rates grow
		"protection_overhead_ratio": 1.6, "peak_rss_mb": 48, "core.checkpoints": 7, // the rest stays
		"bench.yardstick_ratio": 1.25,
	} {
		if got := res[name].V; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s at a ratio of 1.25 = %g, want %g", name, got, want)
		}
	}
}

// countingEngine records how often each operation was executed.
type countingEngine struct {
	mu   sync.Mutex
	seen map[*op]int
}

func (e *countingEngine) prepare([]op) error { return nil }
func (e *countingEngine) exec(o *op, _ *tracer, _, _ int) sample {
	e.mu.Lock()
	e.seen[o]++
	e.mu.Unlock()
	return sample{Op: o, Start: time.Now(), End: time.Now()}
}
func (e *countingEngine) counters() (*tierCounters, error) { return &tierCounters{}, nil }
func (e *countingEngine) close()                           {}

func TestDriveRunsEveryOperationOfEveryRoundOnce(t *testing.T) {
	w := workloadByName("serve_warm")
	for _, callers := range []int{1, 2, 4} {
		e := &countingEngine{seen: map[*op]int{}}
		rounds := map[int][]op{}
		var mu sync.Mutex
		samples := drive(e, segment{rounds: 3, callers: callers, round: func(r int) []op {
			ops := w.Round(1, r)
			mu.Lock()
			rounds[r] = ops
			mu.Unlock()
			return ops
		}})
		if len(samples) != 3*240 {
			t.Fatalf("%d callers: %d samples, want 3 rounds of 240", callers, len(samples))
		}
		for i := range samples {
			s := &samples[i]
			if want := &rounds[i/240][i%240]; s.Op != want || s.Round != i/240 {
				t.Fatalf("%d callers: sample %d is %s of round %d, want operation %d of round %d", callers, i, s.Op, s.Round, i%240, i/240)
			}
			if e.seen[s.Op] != 1 {
				t.Fatalf("%d callers: %s executed %d times", callers, s.Op, e.seen[s.Op])
			}
		}
	}
	// On the clock, a segment ends with the round in which its time ran out.
	e := &countingEngine{seen: map[*op]int{}}
	samples := drive(e, segment{length: time.Nanosecond, callers: 2, round: func(r int) []op { return w.Round(1, r) }})
	if len(samples) != 240 {
		t.Errorf("a segment whose time is up after the first operation ran %d operations, want one whole round", len(samples))
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "solves_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		d      metricDef
		change []float64
		want   verdict
	}{
		{"same", lower, []float64{100, 100, 101, 99, 100}, within},
		{"worse inside the bound", lower, []float64{108, 109, 107, 108, 110}, within},
		{"worse beyond the bound", lower, []float64{115, 116, 114, 115, 117}, regression},
		{"lower throughput beyond the bound", higher, []float64{85, 86, 84, 85, 87}, regression},
		{"higher throughput", higher, []float64{115, 116, 114, 115, 117}, within},
		{"too scattered to say", lower, []float64{80, 130, 95, 140, 100}, unresolved},
		{"scattered but better every time", lower, []float64{40, 70, 55, 90, 45}, within},
	} {
		if got, _, _ := judge(tc.d, steady, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// One failed operation in one run of ten is a rise of failed_share, however
// the medians read.
func TestCompareCountsEveryFailure(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failedInLast int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			rec := record{Workload: "solve_clean", Attempted: 100, Metrics: map[string]recorded{"setup_s": {Value: 1, Unit: "s", N: 3}}}
			if i == 9 {
				rec.Failed = failedInLast
			}
			if err := writeJSONLine(path, os.O_APPEND, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	clean, broken := write("parent.jsonl", 0), write("change.jsonl", 1)
	if rc := compareFiles(clean, clean); rc != 0 {
		t.Errorf("a file against itself: exit code %d, want 0", rc)
	}
	if rc := compareFiles(clean, broken); rc != 1 {
		t.Errorf("one failure in a thousand operations: exit code %d, want 1", rc)
	}
}

func opStrings(ops []op) []string {
	out := make([]string, len(ops))
	for i := range ops {
		out[i] = ops[i].String()
	}
	return out
}

func TestRoundsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		for r := 0; r < 3; r++ {
			a, b, other := opStrings(w.Round(7, r)), opStrings(w.Round(7, r)), opStrings(w.Round(8, r))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s round %d: the same seed gave two different operation lists", w.Name, r)
			}
			if reflect.DeepEqual(a, other) {
				t.Errorf("%s round %d: seeds 7 and 8 gave the same operation list", w.Name, r)
			}
			if next := opStrings(w.Round(7, r+1)); reflect.DeepEqual(a, next) {
				t.Errorf("%s: rounds %d and %d are in the same order", w.Name, r, r+1)
			}
			// Whatever the order, a round holds the same work: the amount of
			// work in a run must not depend on its seed.
			if w.Name != "serve_mixed" { // its inline draws differ by design, their count does not
				sort.Strings(a)
				sort.Strings(other)
				if !reflect.DeepEqual(a, other) {
					t.Errorf("%s round %d: seeds 7 and 8 hold different work", w.Name, r)
				}
			} else if len(a) != len(other) {
				t.Errorf("serve_mixed round %d: %d operations under seed 7, %d under seed 8", r, len(a), len(other))
			}
		}
		// Every operation of any round is among the lanes set-up prepares.
		lanes := map[string]bool{}
		for _, o := range w.allLanes() {
			for i := range o.Seeds {
				lanes[o.laneKey(i)] = true
			}
		}
		for _, o := range w.Round(3, 5) {
			for i := range o.Seeds {
				if !lanes[o.laneKey(i)] {
					t.Errorf("%s: %s is issued but set-up prepares no reference for it", w.Name, &o)
				}
			}
		}
	}
	if n := len(workloadByName("solve_clean").Round(1, 0)); n != 22 {
		t.Errorf("solve_clean holds %d cells, want 22", n)
	}
	if n := len(workloadByName("solve_faulty").Round(1, 0)); n != 16*3+6 {
		t.Errorf("solve_faulty holds %d solves, want 16 protected cells × 3 injector seeds + 6 references", n)
	}
}

// smokeOps is a short stretch of each workload that still touches every
// kind of operation it has.
func smokeOps(w *workload) []op {
	pick := func(ops []op, want map[opKind]int) []op {
		var out []op
		for _, o := range ops {
			// stencil solves are a quarter the cost of denserow ones
			if want[o.Kind] > 0 && o.Matrix != "denserow" {
				want[o.Kind]--
				out = append(out, o)
			}
		}
		return out
	}
	switch w.Name {
	case "serve_warm":
		return w.Round(1, 0)[:48]
	case "serve_mixed":
		return pick(w.Round(1, 0), map[opKind]int{kindInline: 6, kindBatch: 2, kindStream: 2})
	case "solve_faulty":
		return pick(w.Round(1, 0), map[opKind]int{kindSolve: 8})
	}
	return pick(w.Round(1, 0), map[opKind]int{kindSolve: 6})
}

// runSmoke sets a workload up for ops alone, runs them twice (the second
// pass is checked against the first) and returns the second pass with the
// counters the tiers moved by over it.
func runSmoke(t *testing.T, w *workload, ops []op, tr *tracer) ([]sample, tierCounters) {
	t.Helper()
	e := newEngine(w, environment{Seed: 1}, tr)
	if err := e.prepare(ops); err != nil {
		t.Fatalf("%s: set-up: %v", w.Name, err)
	}
	defer e.close()
	seg := segment{rounds: 1, round: func(int) []op { return ops }, callers: w.callers()}
	warm := drive(e, seg)
	before, err := e.counters()
	if err != nil {
		t.Fatal(err)
	}
	seg.tr = tr
	samples := drive(e, seg)
	after, err := e.counters()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(warm, samples...) {
		if s.Failed {
			t.Errorf("%s: %s failed: %s", w.Name, s.Op, s.Why)
		}
	}
	return samples, after.minus(before)
}

// countMetrics are the ledger rows that are counts of what the operations
// did: they must repeat exactly for a seed. The cache's and the queue's own
// counts (hits, evictions, coalesced requests) are left out: with two callers
// they depend on the order in which requests arrive.
func countMetrics(samples []sample, delta tierCounters) map[string]float64 {
	res := results{}
	workloadLayers(res, samples, samples, nil, delta)
	counts := map[string]float64{}
	for _, d := range perLayerMetrics {
		switch {
		case strings.HasPrefix(d.Name, "server.cache_"), d.Name == "server.coalesced_mean":
		case d.Unit == "count", d.Name == "core.reexecuted_iter_ratio", d.Name == "router.busiest_shard_share":
			counts[d.Name] = res[d.Name].V
		}
	}
	return counts
}

func TestSmokeEveryWorkloadAndCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		ops := smokeOps(w)
		tr := newTracer()
		first, d1 := runSmoke(t, w, ops, tr)
		second, d2 := runSmoke(t, w, ops, nil)
		if len(first) != len(ops) || len(second) != len(ops) {
			t.Fatalf("%s: ran %d and %d of %d operations", w.Name, len(first), len(second), len(ops))
		}
		a, b := countMetrics(first, d1), countMetrics(second, d2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: count metrics differ between two runs of one seed:\n%v\n%v", w.Name, a, b)
		}
		if a["core.iterations_useful"] == 0 {
			t.Errorf("%s: no iterations counted", w.Name)
		}
		switch w.Name {
		case "solve_faulty":
			if a["core.faults_injected"] == 0 || a["core.detections"] == 0 || a["core.checkpoints"] == 0 {
				t.Errorf("solve_faulty injected, detected or checkpointed nothing: %v", a)
			}
		case "solve_clean":
			if a["core.checkpoints"] != 0 || a["core.detections"] != 0 {
				t.Errorf("solve_clean took checkpoints or detected faults: %v", a)
			}
		default:
			if got := a["router.routed"]; got != float64(len(ops)) {
				t.Errorf("%s: router counted %g requests for %d operations", w.Name, got, len(ops))
			}
			buffered := 0 // streams pass through the router frame by frame, digest-checked by the client instead
			for _, o := range ops {
				if o.Kind != kindStream {
					buffered++
				}
			}
			if a["router.failovers"] != 0 || a["router.corrupt_responses"] != 0 || a["router.digest_verified"] != float64(buffered) {
				t.Errorf("%s: failovers, corrupt or unverified responses among %d buffered: %v", w.Name, buffered, a)
			}
		}
		// The traced pass recorded one op span per operation, each with the
		// call into the layer beneath it as a child.
		spans := tr.snapshot()
		kids := map[string]int{}
		for _, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %s was never closed", w.Name, s.Name)
			}
			if s.Parent >= 0 {
				kids[spans[s.Parent].Name+">"+s.Name]++
			}
		}
		want := "bench.op>harness.solvewith"
		if w.Serve {
			want = "bench.op>client.op"
			if kids["client.op>http.roundtrip"] != len(ops) || kids["http.roundtrip>server.solve"] != len(ops) {
				t.Errorf("%s: round trips and reported solves under client.op: %v", w.Name, kids)
			}
		}
		if kids[want] != len(ops) || kids["bench.op>bench.verify"] != len(ops) {
			t.Errorf("%s: want %d of %s and of bench.verify, got %v", w.Name, len(ops), want, kids)
		}
	}
}

func TestWrongAnswerIsCaught(t *testing.T) {
	w := workloadByName("serve_warm")
	ops := w.Round(1, 0)[:2]
	e := &serveEngine{seed: 1}
	if err := e.prepare(ops); err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.refs[ops[0].laneKey(0)] = "fnv1a:0000000000000000"
	if s := e.exec(&ops[0], nil, -1, 0); !s.Failed || !strings.Contains(s.Why, "residual_hash") {
		t.Errorf("a response whose hash differs from the reference passed: failed=%v why=%q", s.Failed, s.Why)
	}
	if s := e.exec(&ops[1], nil, -1, 1); s.Failed {
		t.Errorf("an untouched lane failed: %s", s.Why)
	}
	stranger := single(kindSingle, "p64", "cg", "abft-detection", 0, trialSeed)
	if s := e.exec(&stranger, nil, -1, 2); !s.Failed {
		t.Error("an operation set-up holds no reference for passed verification")
	}
}

// benchmarkJSON is the driver's contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) || len(perLayerMetrics) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d (at most 128)", len(bj.PerLayer), len(perLayerMetrics))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
	}
}
