package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// div is a ÷ b, and 0 where there is nothing to divide by: a row without
// samples reads 0 with n=0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// twinKey names the fault-free unprotected operations a protected one is
// normalised by: same kind, matrix (inline ones by content), solver and —
// for requests — the cache outcome the response reported, so that a miss is
// set against a miss.
func twinKey(s *sample) string {
	key := s.Op.group()
	if s.CacheHit {
		key += "/hit"
	}
	return key
}

// roundRates are the rates and ratios of one round's successful operations.
type roundRates struct {
	timeToSolutionNs, overhead, solvesPerS float64
	protRHS                                int
}

// ratesOf computes one round.
//
//	time_to_solution    = Σ time of the protected operations ÷ their right-hand sides
//	protection_overhead = Σ time of the protected operations ÷ Σ (their right-hand sides ×
//	                      time per right-hand side of the round's fault-free unprotected
//	                      operations with the same twinKey); a protected operation whose
//	                      twin the round does not hold stays out of both sums
//	solves_per_s        = right-hand sides ÷ (Σ time of the operations ÷ callers): in a closed
//	                      loop that is right-hand sides per second of wall time, less the
//	                      benchmark's own time between operations (verification)
func ratesOf(round []*sample, callers int) roundRates {
	type sum struct{ ns, rhs float64 }
	twin := map[string]sum{}
	for _, s := range round {
		if !s.Op.protected() {
			t := twin[twinKey(s)]
			twin[twinKey(s)] = sum{t.ns + s.ns(), t.rhs + float64(len(s.Op.Seeds))}
		}
	}
	var protNs, pairedNs, baseNs, allNs float64
	var protRHS, allRHS int
	for _, s := range round {
		t, rhs := s.ns(), len(s.Op.Seeds)
		allNs += t
		allRHS += rhs
		if !s.Op.protected() {
			continue
		}
		protNs += t
		protRHS += rhs
		if base, ok := twin[twinKey(s)]; ok {
			pairedNs += t
			baseNs += float64(rhs) * base.ns / base.rhs
		}
	}
	return roundRates{
		timeToSolutionNs: div(protNs, float64(protRHS)),
		overhead:         div(pairedNs, baseNs),
		solvesPerS:       div(float64(callers*allRHS), allNs/1e9),
		protRHS:          protRHS,
	}
}

// endToEnd computes the end-to-end metrics of one measured segment. Rates
// and ratios are computed per round (a pass, for solve workloads) and
// reported as the median over rounds; latencies are percentiles of the
// successful operations' own times. Failed operations enter failed_share
// alone — any of them fails the run. All times are wall times as the caller
// observed them.
func endToEnd(samples []sample, callers int, setups []float64) results {
	res := results{}
	var rounds [][]*sample
	var lat []float64
	for i := range samples {
		s := &samples[i]
		if s.Failed {
			continue
		}
		for len(rounds) <= s.Round {
			rounds = append(rounds, nil)
		}
		rounds[s.Round] = append(rounds[s.Round], s)
		lat = append(lat, s.ns())
	}
	var tts, overhead, sps []float64
	protRHS := 0
	for _, round := range rounds {
		r := ratesOf(round, callers)
		tts, overhead, sps = append(tts, r.timeToSolutionNs), append(overhead, r.overhead), append(sps, r.solvesPerS)
		protRHS += r.protRHS
	}
	sort.Float64s(lat)
	res.setNs("time_to_solution_ms", median(tts), protRHS)
	res.set("protection_overhead_ratio", median(overhead), protRHS)
	res.set("solves_per_s", median(sps), len(lat))
	res.setNs("latency_p50_ms", percentile(lat, 50), len(lat))
	res.setNs("latency_p95_ms", percentile(lat, 95), len(lat))
	res.set("peak_rss_mb", peakRSSMiB(), 1)
	res.set("setup_s", median(setups), len(setups))
	res.set(failedShare, div(float64(len(samples)-len(lat)), float64(len(samples))), len(samples))
	return res
}

// peakRSSMiB is the process's peak resident set (VmHWM), or what the Go
// runtime has obtained from the OS where /proc does not say.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// workloadLayers fills the per-layer metrics that come from the workload's
// own operations: per-cell walls and solver counters (core), response fields
// and statusz deltas (server, router), caller-side latency (client) and the
// instrument's own cost (bench). A layer the workload does not exercise
// reads 0 with n=0.
func workloadLayers(res results, untraced, traced []sample, spans []span, d tierCounters) {
	var recs []solveRec  // every right-hand side solved
	var timed []solveRec // the single solves that succeeded
	for i := range untraced {
		s := &untraced[i]
		recs = append(recs, s.Recs...)
		if s.Op.Kind != kindBatch && !s.Failed {
			timed = append(timed, s.Recs[0])
		}
	}
	pick := func(keep func(*solveRec) bool) []solveRec {
		var out []solveRec
		for i := range timed {
			if keep(&timed[i]) {
				out = append(out, timed[i])
			}
		}
		return out
	}
	ms := func(rs []solveRec) []float64 {
		out := make([]float64, len(rs))
		for i := range rs {
			out[i] = rs[i].Ns / 1e6
		}
		return out
	}
	for _, sch := range schemes4 {
		of := pick(func(r *solveRec) bool { return r.Scheme == sch })
		res.set("core.solve_ms."+sch, median(ms(of)), len(of))

		// The measured iteration the replayed kernel sum is set against:
		// plain CG on the stencil operand.
		ref := pick(func(r *solveRec) bool { return r.Scheme == sch && r.Solver == "cg" && r.Matrix == "stencil" })
		var ns, sim float64
		var iters int64
		for _, r := range ref {
			ns += r.Ns
			iters += r.Total
		}
		iterNs := div(ns, float64(iters))
		res.set("core.iter_ns."+sch, iterNs, int(iters))
		res.set("core.iter_over_spmv."+sch, div(iterNs, res["sparse.mulvec_ns.stencil"].V), int(iters))

		if sch != unprotected {
			ns = 0
			for _, r := range of {
				ns += r.Ns
				sim += r.SimTime
			}
			res.set("core.model_over_wall_ratio."+sch, div(sim, ns/1e9), len(of))
		}
	}
	for _, sv := range solvers {
		of := pick(func(r *solveRec) bool { return r.Solver == sv })
		res.set("core.solve_ms."+sv, median(ms(of)), len(of))
	}
	for _, m := range twoOperand {
		of := pick(func(r *solveRec) bool { return r.Matrix == m })
		res.set("core.solve_ms."+m, median(ms(of)), len(of))
	}
	// By construction iter_ns = kernel_sum_ns + unattributed time; the share
	// is reported, not hidden.
	for _, r := range replayed {
		iter := res["core.iter_ns."+r.scheme]
		share := 0.0
		if iter.V > 0 {
			share = 1 - res["core.kernel_sum_ns."+r.name].V/iter.V
		}
		res.set("core.unattributed_share."+r.name, share, iter.N)
	}
	var c solveRec
	for _, r := range recs {
		c.Useful += r.Useful
		c.Total += r.Total
		c.Detections += r.Detections
		c.Corrections += r.Corrections
		c.Rollbacks += r.Rollbacks
		c.Checkpoints += r.Checkpoints
		c.Faults += r.Faults
	}
	n := len(recs)
	res.set("core.iterations_useful", float64(c.Useful), n)
	res.set("core.iterations_total", float64(c.Total), n)
	res.set("core.reexecuted_iter_ratio", div(float64(c.Total-c.Useful), float64(c.Useful)), n)
	res.set("core.detections", float64(c.Detections), n)
	res.set("core.corrections", float64(c.Corrections), n)
	res.set("core.rollbacks", float64(c.Rollbacks), n)
	res.set("core.checkpoints", float64(c.Checkpoints), n)
	res.set("core.faults_injected", float64(c.Faults), n)

	// server, router: what the responses and the tiers' own counters say.
	var queue, solve, coalesced []float64
	byKind := map[opKind][]float64{}
	var lat []float64
	for i := range untraced {
		s := &untraced[i]
		if s.Failed {
			continue
		}
		lat = append(lat, s.ns()/1e6)
		byKind[s.Op.Kind] = append(byKind[s.Op.Kind], s.ns()/1e6)
		if s.Op.Kind == kindSolve {
			continue
		}
		queue, solve = append(queue, s.QueueMs), append(solve, s.SolveMs)
		coalesced = append(coalesced, float64(s.Coalesced))
	}
	res.set("server.queue_ms_p50", median(queue), len(queue))
	res.set("server.solve_ms_p50", median(solve), len(solve))
	res.set("server.inline_ms_p50", median(byKind[kindInline]), len(byKind[kindInline]))
	res.set("server.batch_ms_p50", median(byKind[kindBatch]), len(byKind[kindBatch]))
	res.set("server.stream_ms_p50", median(byKind[kindStream]), len(byKind[kindStream]))
	total := 0.0
	for _, v := range coalesced {
		total += v
	}
	res.set("server.coalesced_mean", div(total, float64(len(coalesced))), len(coalesced))
	lookups := int(d.Hits + d.Misses)
	res.set("server.cache_hit_ratio", div(float64(d.Hits), float64(lookups)), lookups)
	res.set("server.cache_evictions", float64(d.Evictions), lookups)
	res.set("server.rejected", float64(d.Rejected), lookups)
	res.set("server.expired", float64(d.Expired), lookups)
	routed := int(d.Routed)
	res.set("router.routed", float64(d.Routed), routed)
	res.set("router.failovers", float64(d.Failovers), routed)
	res.set("router.retries_spent", float64(d.Retries), routed)
	res.set("router.digest_verified", float64(d.DigestVerified), routed)
	res.set("router.corrupt_responses", float64(d.Corrupt), routed)
	var busiest, all int64
	for _, v := range d.ShardRouted {
		busiest, all = max(busiest, v), all+v
	}
	res.set("router.busiest_shard_share", div(float64(busiest), float64(all)), int(all))

	// client, bench.
	sort.Float64s(lat)
	res.set("client.latency_p99_ms", percentile(lat, 99), len(lat))
	res.set("client.latency_max_ms", percentile(lat, 100), len(lat))
	self := selfOf(spans, "bench.op")
	res.setNs("bench.client_self_us", median(self), len(self))
	// Both halves ran the same rounds: what the spans cost is a round's time
	// traced over the same round's time untraced, median over rounds.
	roundNs := func(samples []sample) []float64 {
		var ns []float64
		for i := range samples {
			s := &samples[i]
			for len(ns) <= s.Round {
				ns = append(ns, 0)
			}
			ns[s.Round] += s.ns()
		}
		return ns
	}
	var ratios []float64
	plain := roundNs(untraced)
	for r, ns := range roundNs(traced) {
		if r < len(plain) && plain[r] > 0 {
			ratios = append(ratios, ns/plain[r])
		}
	}
	res.set("bench.trace_overhead_ratio", median(ratios), len(traced))
}
