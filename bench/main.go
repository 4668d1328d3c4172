// Command bench is this repository's benchmark: four named workloads, the
// end-to-end metrics a user of the solvers or the solve service sees, and a
// per-layer ledger taken by timing calls into each module's public functions
// from here. See README.md in this directory for the glossary; BENCHMARK.json
// at the repository root is the contract the driver runs it by.
//
//	go run ./bench -workload solve_clean -seed 1 -seconds 10            # end-to-end metrics
//	go run ./bench -workload serve_warm  -seed 1 -seconds 10 -trace 1   # every metric, per-layer ledger
//	go run ./bench -compare a.jsonl b.jsonl                             # two sets of -out records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// setupRepeats is how many complete set-ups an untraced run performs;
// setup_s is their median.
const setupRepeats = 3

// environment is recorded with every run: numbers from different machines
// or toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func captureEnv(seed int64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the toolchain stamped into the binary, "unknown"
// where it stamped none (a checkout that is not a git repository, such as
// the driver's).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// record is one run as -out appends it and -compare reads it back.
type record struct {
	Env       environment         `json:"env"`
	Workload  string              `json:"workload"`
	Trace     bool                `json:"trace"`
	Seconds   int                 `json:"seconds"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]recorded `json:"metrics"`
}

type recorded struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: solve_clean, solve_faulty, serve_warm or serve_mixed")
		seed     = fs.Int64("seed", 1, "workload seed: round order and the inline working set")
		seconds  = fs.Int("seconds", 16, "how long the untraced run measures (whole rounds until this much wall time has passed)")
		trace    = fs.Int("trace", 0, "1 = traced run: kernel probes, then the workload at fixed length untraced and traced; prints every metric")
		out      = fs.String("out", "", "append this run's record (one JSON line) to the file, for -compare")
		traceOut = fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.json)")
		compare  = fs.Bool("compare", false, "compare two files of -out records: bench -compare parent.jsonl change.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files of -out records")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", w.Name, w.Why)
		}
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	env := captureEnv(*seed)
	fmt.Printf("bench %s seed=%d seconds=%d trace=%d\n", w.Name, *seed, *seconds, *trace)
	fmt.Printf("  why: %s\n", w.Why)
	fmt.Printf("  env: nproc=%d GOMAXPROCS=%d cpu=%q %s %s commit=%s\n",
		env.NProc, env.GOMAXPROCS, env.CPUModel, env.GoVersion, env.OSArch, env.Commit)

	var (
		res     results
		defs    []metricDef
		samples []sample
		err     error
	)
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.Name, *seed))
		}
		res, samples, err = runTraced(w, env, path)
		defs = perLayerMetrics
	} else {
		res, samples, err = runUntraced(w, env, time.Duration(*seconds)*time.Second)
		defs = endToEndMetrics
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if miss := res.missing(defs); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "bench: metrics not measured: %s\n", strings.Join(miss, ", "))
		return 1
	}

	failed := 0
	for i := range samples {
		if samples[i].Failed {
			if failed++; failed <= 5 {
				fmt.Printf("  FAILED %s: %s\n", samples[i].Op, samples[i].Why)
			}
		}
	}
	fmt.Printf("\noperations: %d attempted, %d failed\n", len(samples), failed)

	if *out != "" {
		rec := record{Env: env, Workload: w.Name, Trace: *trace == 1, Seconds: *seconds,
			Attempted: len(samples), Failed: failed, Metrics: map[string]recorded{}}
		for name, v := range res {
			rec.Metrics[name] = recorded{Value: v.V, Unit: unitOf(name), N: v.N}
		}
		if err := writeJSONLine(*out, os.O_APPEND, rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}

	line := resultLine{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]reported{}}
	for _, d := range defs {
		line.Metrics[d.Name] = reported{Value: res[d.Name].V, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	if failed > 0 {
		return 1
	}
	return 0
}

func newEngine(w *workload, env environment, tr *tracer) engine {
	if w.Serve {
		return &serveEngine{seed: env.Seed, tr: tr}
	}
	return &solveEngine{}
}

// callers is the number of closed-loop callers that drive the workload.
func (w *workload) callers() int {
	if w.Serve {
		return serveCallers()
	}
	return 1
}

// setUp does everything that precedes the first timed operation: inputs,
// reference solves, listeners, and the warm-up rounds that fill workspaces
// and caches. It returns the engine ready to measure and the warm-up
// samples (verified like any other).
func setUp(w *workload, env environment, tr *tracer, yard *yardstick) (engine, []sample, error) {
	e := newEngine(w, env, tr)
	if err := e.prepare(w.allLanes()); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	ops := w.warmup()
	warm := drive(e, segment{rounds: 1, round: func(int) []op { return ops }, callers: w.callers(), yard: yard})
	return e, warm, nil
}

// runUntraced is the run end-to-end metrics come from: set up (three
// times, for a median set-up time), then measure for the given time with
// nothing recording spans.
func runUntraced(w *workload, env environment, length time.Duration) (results, []sample, error) {
	var (
		e      engine
		all    []sample
		setups []float64
		yard   = newYardstick()
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var warm []sample
		var err error
		if e, warm, err = setUp(w, env, nil, yard); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		all = append(all, warm...)
	}
	defer e.close()
	runtime.GC()
	samples := drive(e, segment{round: w.rounds(env.Seed), length: length, callers: w.callers(), yard: yard})
	res := endToEnd(samples, w.callers(), setups)
	res.finish(yard)
	res.print("end-to-end (untraced)", reportMetrics)
	fmt.Printf("  %d caller(s), closed loop; times are wall times as the caller observed them, at yardstick speed:\n"+
		"  the yardstick ran at %.3f× its nominal time (%d readings), and a time × that is the wall time as measured\n",
		w.callers(), res["bench.yardstick_ratio"].V, res["bench.yardstick_ratio"].N)
	fmt.Printf("  latency percentiles quoted up to p%g: the highest with at least ten of the %d samples beyond it\n",
		highestPercentile(len(samples)), len(samples))
	return res, append(all, samples...), nil
}

// runTraced is the run the per-layer ledger comes from: the kernel probes,
// then the workload at a fixed number of rounds twice over the same
// operations — first untraced, then with a span around every call the
// benchmark makes into a layer. Counts are taken over the fixed untraced
// half.
func runTraced(w *workload, env environment, tracePath string) (results, []sample, error) {
	tr := newTracer()
	yard := newYardstick()
	res := results{}
	if err := runProbes(res, tr, yard); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	t0 := time.Now()
	e, warm, err := setUp(w, env, tr, yard)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	setup := time.Since(t0).Seconds()
	before, err := e.counters()
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	seg := segment{round: w.rounds(env.Seed), rounds: w.TraceRounds, callers: w.callers(), yard: yard}
	untraced := drive(e, seg)
	after, err := e.counters()
	if err != nil {
		return nil, nil, err
	}
	seg.tr = tr
	traced := drive(e, seg)
	spans := tr.snapshot()
	workloadLayers(res, untraced, traced, spans, after.minus(before))

	for name, v := range endToEnd(untraced, w.callers(), []float64{setup}) {
		res[name] = v
	}
	res.finish(yard)
	res.print(fmt.Sprintf("end-to-end (the untraced half, %d rounds; regression checks use the -trace 0 run)", w.TraceRounds), reportMetrics)
	res.print("per-layer ledger", perLayerMetrics)
	printSelfTimes(spans)
	printReconciliation(w, res)
	if err := writeJSONLine(tracePath, os.O_TRUNC, traceFile{Env: env, Workload: w.Name, Seed: env.Seed, Spans: spans}); err != nil {
		return nil, nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("\n%d spans written to %s\n", len(spans), tracePath)
	return res, append(append(warm, untraced...), traced...), nil
}

// finish files the run's yardstick ratio and puts every time the run
// measured at yardstick speed.
func (r results) finish(yard *yardstick) {
	ratio, readings := yard.ratio()
	r.atYardstickSpeed(ratio)
	r.set("bench.yardstick_ratio", ratio, readings)
}

// printSelfTimes is the trace folded by span name: where the traced half's
// time went, each layer net of the layers it called.
func printSelfTimes(spans []span) {
	fmt.Printf("\nself time by span (a span's duration minus what its children cover)\n")
	fmt.Printf("  %-44s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, row := range byLayer(spans) {
		fmt.Printf("  %-44s %8d %12.3f %12.3f\n", row.Name, row.Count, float64(row.TotalNs)/1e6, float64(row.SelfNs)/1e6)
	}
}

// printReconciliation sets the ledger against the end-to-end number it
// should add up to, and prints what is left over.
func printReconciliation(w *workload, res results) {
	fmt.Printf("\nreconciliation\n")
	if w.Serve {
		// The probe rows price a small cache-resident request for a named
		// matrix: they add up only to a workload made of those.
		for _, o := range w.warmup() {
			if o.Kind != kindSingle {
				fmt.Printf("  not every request of %s is a single solve on a named matrix, which is what the probe rows price:\n"+
					"  see server.{inline,batch,stream}_ms_p50 and the self times above\n", w.Name)
				return
			}
		}
		parts := []struct {
			name string
			ms   float64
		}{
			{"bench.client_self_us", res["bench.client_self_us"].V / 1e3},
			{"router.forward_us.mock_spec", res["router.forward_us.mock_spec"].V / 1e3},
			{"server.overhead_us.warm", res["server.overhead_us.warm"].V / 1e3},
			{"server.queue_ms_p50", res["server.queue_ms_p50"].V},
			{"server.solve_ms_p50", res["server.solve_ms_p50"].V},
		}
		sum := 0.0
		for _, p := range parts {
			fmt.Printf("  %-44s %10.4f ms\n", p.name, p.ms)
			sum += p.ms
		}
		p50 := res["latency_p50_ms"].V
		fmt.Printf("  %-44s %10.4f ms\n", "sum of the rows above", sum)
		fmt.Printf("  %-44s %10.4f ms\n", "latency_p50_ms", p50)
		fmt.Printf("  %-44s %10.4f ms (%.1f%% of latency_p50_ms)\n", "residual", p50-sum, 100*(p50-sum)/p50)
		fmt.Printf("  the residual is client encode/decode, loopback and scheduling; it can be negative, because the probe rows were taken with one\n" +
			"  request in flight and a median of sums is not the sum of medians\n")
		return
	}
	for _, r := range replayed {
		iter, kernels := res["core.iter_ns."+r.scheme].V, res["core.kernel_sum_ns."+r.name].V
		fmt.Printf("  cg on stencil, %-12s iter %9.0f ns = kernels %9.0f ns + unattributed %9.0f ns (share %.3f)\n",
			r.name+":", iter, kernels, iter-kernels, res["core.unattributed_share."+r.name].V)
	}
}
