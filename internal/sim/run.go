// Package sim implements the experiment campaigns that regenerate the
// paper's evaluation (Section 5): the Table 1 model-validation experiment
// and the Figure 1 fault-rate sweep over the synthetic counterpart of its
// nine-matrix UFL test suite (harness.PaperSuite). The campaigns are defined
// as internal/harness scenarios (see Figure1Scenarios and Table1Scenarios)
// and executed through the harness trial engine, so every cell is a named,
// seeded, reproducible record.
package sim

import (
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// AverageTimePool runs `reps` independent solves (distinct injector seeds),
// fanned out across the worker pool (nil runs them sequentially on the
// caller), and returns the mean simulated execution time and the raw
// samples. Runs that fail to converge are charged at their (large)
// accumulated time — exactly what an operator would experience — and
// counted. It is a thin veneer over the harness trial engine: each trial
// owns a fresh injector seeded deterministically by its index and samples
// land in per-trial slots, making mean, samples and the failure count
// identical for any worker count.
func AverageTimePool(p *pool.Pool, a *sparse.CSR, b []float64, scheme core.Scheme, alpha float64, s, d int, tol float64, baseSeed int64, reps int) (mean float64, samples []float64, failures int) {
	if reps < 0 {
		reps = 0
	}
	if reps == 0 {
		return 0, []float64{}, 0
	}
	sc := harness.Scenario{
		Solver: "cg", Scheme: harness.SchemeSlug(scheme),
		Alpha: alpha, S: s, D: d, Tol: tol,
		Reps: reps, Seed: baseSeed,
	}
	return harness.TrialsOn(p, a, b, sc)
}

// Progress is an optional hook the long-running experiments call with a
// human-readable status line; nil disables reporting.
type Progress func(format string, args ...any)

func report(p Progress, format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}
