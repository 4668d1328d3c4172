package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric of the contract. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step); the bound is
// the share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them. An operation is one solve call (solve
// workloads) or one request (serve workloads); a protected operation runs
// any scheme but unprotected. Times are wall times as the caller observed
// them, at yardstick speed (yardstick.go); measure.go has the formulas.
var endToEndMetrics = []metricDef{
	// Time of a round's protected operations ÷ their right-hand sides,
	// median over rounds (a round of a solve workload is one pass).
	{"time_to_solution_ms", "ms", "lower", 0.20},
	// Time of a round's protected operations ÷ time of the round's
	// fault-free unprotected operations of the same kind × matrix × solver:
	// the paper's normalisation, machine-independent. Median over rounds.
	{"protection_overhead_ratio", "ratio", "lower", 0.25},
	// Right-hand sides solved and verified per second of the callers' wall
	// time (a k=4 batch counts 4), median over rounds.
	{"solves_per_s", "1/s", "higher", 0.20},
	// Caller-observed wall of one operation — request build to verified
	// decode, or the harness.SolveWith call: percentiles over the run's
	// operations.
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	// VmHWM when the run ends.
	{"peak_rss_mb", "MiB", "lower", 0.25},
	// Everything before the first timed operation, median of setupRepeats
	// complete set-ups in one run.
	{"setup_s", "s", "lower", 0.25},
}

// failedShare is the eighth end-to-end metric: failed ÷ attempted, bound 0
// (any rise is a regression). It is always 0 on a healthy commit, so the
// driver reads it from the result line's "failed" and "attempted" instead of
// from BENCHMARK.json's end_to_end list, which takes no metric that reads 0.
const failedShare = "failed_share"

// reportMetrics is what a run prints and -compare judges: the end-to-end
// metrics and failed_share.
var reportMetrics = append(append([]metricDef(nil), endToEndMetrics...),
	metricDef{Name: failedShare, Unit: "ratio", Better: "lower"})

var (
	schemes4   = []string{unprotected, "online-detection", "abft-detection", abftCorrection}
	twoOperand = []string{"stencil", "denserow"}
	// replayed names the two CG iterations the probes replay through the
	// public kernels, with the scheme whose measured iteration each is set
	// against.
	replayed = []struct{ name, scheme string }{{"unprotected", unprotected}, {"abft", abftCorrection}}
)

// perLayerMetrics is the ledger: one block per module, a metric's layer being
// the first component of its name. Probe metrics time a
// module's public functions on fixed operands and read the same on every
// workload; the others are taken from the workload's own operations and
// read 0 with n=0 on a workload that does not exercise the layer.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(prefix string, suffixes []string) []string {
		out := make([]string, len(suffixes))
		for i, s := range suffixes {
			out[i] = prefix + "." + s
		}
		return out
	}

	// sparse
	add("ns", "lower", "sparse.mulvec_ns.stencil", "sparse.mulvec_ns.denserow", "sparse.mulvec_ns.large")
	add("GB/s", "higher", "sparse.mulvec_gbps_computed.large")
	add("ns", "lower", "sparse.mulvec_robust_ns.denserow")
	add("ratio", "higher", "sparse.mulvec_parallel_speedup.large")
	add("us", "lower", "sparse.fingerprint_us.inline")
	// vec, tmr
	add("ns", "lower", "vec.dot_ns", "vec.axpy_ns", "tmr.dot_ns", "tmr.axpy_ns")
	add("ratio", "lower", "tmr.over_plain_ratio")
	// abft, checksum
	add("ns", "lower", each("abft.mulvec_ns", twoOperand)...)
	add("ns", "lower", each("abft.verify_ns", twoOperand)...)
	add("ratio", "lower", each("abft.protected_over_plain_ratio", twoOperand)...)
	add("ns", "lower", "abft.guard_ns")
	add("us", "lower", "abft.correct_us", "checksum.encode_us.denserow")
	// checkpoint, fault, model, precond, pool
	add("us", "lower", "checkpoint.save_us.stencil", "checkpoint.save_us.denserow", "checkpoint.restore_us.denserow")
	add("ns", "lower", "fault.inject_ns")
	add("us", "lower", "model.optimal_intervals_us", "precond.jacobi_us.denserow")
	add("ns", "lower", "pool.dispatch_ns")
	// core, solver
	add("ms", "lower", each("core.solve_ms", schemes4)...)
	add("ms", "lower", each("core.solve_ms", solvers)...)
	add("ms", "lower", each("core.solve_ms", twoOperand)...)
	add("ns", "lower", each("core.iter_ns", schemes4)...)
	add("ratio", "lower", each("core.iter_over_spmv", schemes4)...)
	add("ns", "lower", "core.kernel_sum_ns.unprotected", "core.kernel_sum_ns.abft")
	add("ratio", "lower", "core.unattributed_share.unprotected", "core.unattributed_share.abft")
	add("sim_s/s", "higher", each("core.model_over_wall_ratio", protectedSchemes)...)
	add("count", "lower", "core.iterations_useful", "core.iterations_total")
	add("ratio", "lower", "core.reexecuted_iter_ratio")
	add("count", "lower", "core.detections", "core.corrections", "core.rollbacks", "core.checkpoints", "core.faults_injected")
	// harness
	add("us", "lower", "harness.solvewith_overhead_us")
	add("ms", "lower", "harness.build_ms.denserow")
	add("us", "lower", "harness.rhs_us")
	// api
	add("us", "lower", "api.encode_request_us.spec", "api.encode_request_us.inline",
		"api.decode_request_us.spec", "api.decode_request_us.inline",
		"api.writejson_us", "api.digest_us_per_kib", "api.decode_response_us", "api.sse_frame_us")
	// server
	add("us", "lower", "server.resolve_identity_us.spec", "server.resolve_identity_us.inline",
		"server.handler_us.warm", "server.overhead_us.warm")
	add("ms", "lower", "server.cache_fill_ms.inline", "server.queue_ms_p50", "server.solve_ms_p50",
		"server.inline_ms_p50", "server.batch_ms_p50", "server.stream_ms_p50")
	add("ratio", "higher", "server.cache_hit_ratio")
	add("count", "lower", "server.cache_evictions")
	add("count", "higher", "server.coalesced_mean")
	add("count", "lower", "server.rejected", "server.expired")
	// router
	add("us", "lower", "router.forward_us.mock_spec", "router.forward_us.mock_inline")
	add("ns", "lower", "router.ring_lookup_ns")
	add("ms", "lower", "router.added_p50_ms")
	add("count", "higher", "router.routed")
	add("count", "lower", "router.failovers", "router.retries_spent")
	add("count", "higher", "router.digest_verified")
	add("count", "lower", "router.corrupt_responses")
	add("ratio", "lower", "router.busiest_shard_share")
	// obs, client, bench
	add("ns", "lower", "obs.trace_cycle_ns")
	add("us", "lower", "obs.metrics_render_us", "obs.tracez_us")
	add("ms", "lower", "client.latency_p99_ms", "client.latency_max_ms")
	add("us", "lower", "bench.client_self_us")
	add("ratio", "lower", "bench.trace_overhead_ratio", "bench.yardstick_ratio")
	return defs
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V float64
	N int
}

// results maps metric names to what a run measured.
type results map[string]value

func (r results) set(name string, v float64, n int) { r[name] = value{v, n} }

// atYardstickSpeed rescales what a run measured to the yardstick's nominal
// speed (yardstick.go): times are divided by the run's ratio, rates per
// second multiplied by it. Ratios of two times, counts and sizes stay.
func (r results) atYardstickSpeed(ratio float64) {
	for name, v := range r {
		switch unit := unitOf(name); {
		case unit == "ns" || unit == "us" || unit == "ms" || unit == "s":
			r[name] = value{v.V / ratio, v.N}
		case strings.HasSuffix(unit, "/s"):
			r[name] = value{v.V * ratio, v.N}
		}
	}
}

// setNs files a duration measured in nanoseconds under the unit the metric
// is defined in.
func (r results) setNs(name string, ns float64, n int) {
	r.set(name, ns/nsPer(unitOf(name)), n)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{reportMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not defined")
}

func nsPer(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	case "s":
		return 1e9
	}
	panic("bench: " + unit + " is not a time unit")
}

// missing lists the metrics of defs that r does not hold: a run must report
// every metric of its mode.
func (r results) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes one line per metric: name, value, unit, sample count.
func (r results) print(title string, defs []metricDef) {
	fmt.Printf("\n%s\n", title)
	for _, d := range defs {
		v, ok := r[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-44s %14.6g %-6s n=%d\n", d.Name, v.V, d.Unit, v.N)
	}
}
