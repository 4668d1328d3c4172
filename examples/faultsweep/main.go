// Faultsweep compares the three resilient schemes of the paper across a
// range of fault rates on one matrix of the test suite — a one-matrix
// version of the paper's Figure 1. The repetitions at each point fan out
// across the shared worker pool.
//
// Run with:
//
//	go run ./examples/faultsweep
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout, 24, 10); err != nil {
		fmt.Fprintf(os.Stderr, "faultsweep: %v\n", err)
		os.Exit(1)
	}
}

// run sweeps matrix #341 at the given downscale with reps repetitions per
// point. The smoke tests call it heavily downscaled with a single rep.
func run(w io.Writer, scale, reps int) error {
	sm, ok := harness.SuiteByID(341)
	if !ok {
		return fmt.Errorf("suite matrix 341 missing")
	}
	a := sm.Generate(scale) // nnz/row is preserved under downscaling
	b, _ := harness.RHS(a, 7)

	fmt.Fprintf(w, "matrix #%d at 1/%d scale: n=%d, nnz=%d\n\n", sm.ID, scale, a.Rows, a.NNZ())
	fmt.Fprintf(w, "%-14s %-20s %-20s %-20s\n", "MTBF (1/α)",
		core.OnlineDetection, core.ABFTDetection, core.ABFTCorrection)

	pl := pool.Default()
	for _, mtbf := range []float64{16, 50, 100, 1000, 10000} {
		fmt.Fprintf(w, "%-14.0f", mtbf)
		for _, scheme := range core.Schemes {
			mean, _, fails := sim.AverageTimePool(pl, a, b, scheme, 1/mtbf, 0, 0, 1e-8, 99, reps)
			marker := ""
			if fails > 0 {
				marker = "*"
			}
			fmt.Fprintf(w, " %-19s", fmt.Sprintf("%.4fs%s", mean, marker))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n(averages over %d runs; * marks runs that failed to converge)\n", reps)
	fmt.Fprintln(w, "Expected shape, as in the paper: ABFT-Correction wins at high")
	fmt.Fprintln(w, "fault rates by correcting forward instead of rolling back; at")
	fmt.Fprintln(w, "very low rates its extra checksums make it slightly slower.")
	return nil
}
