// Package sim implements the experiment campaigns that regenerate the
// paper's evaluation (Section 5): the Table 1 model-validation experiment
// and the Figure 1 fault-rate sweep over the synthetic counterpart of its
// nine-matrix UFL test suite (harness.PaperSuite). The campaigns are defined
// as internal/harness scenarios (each config's cellScenario) and every cell
// runs through harness.RunOn, so each is a named, seeded, reproducible
// record.
package sim

// Progress is an optional hook the long-running experiments call with a
// human-readable status line; nil disables reporting.
type Progress func(format string, args ...any)

func report(p Progress, format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}
