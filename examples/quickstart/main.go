// Quickstart: solve a 2D Poisson system with the ABFT-Correction resilient
// CG while silent errors strike the matrix and the solver vectors, and
// print what the protection machinery did.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func main() {
	// A 100×100 Poisson grid: the classic SPD test problem.
	if err := run(os.Stdout, 100); err != nil {
		log.Fatalf("solve failed: %v", err)
	}
}

// run solves the side×side Poisson system under fault injection and writes
// the report to w. The smoke tests call it with a tiny grid.
func run(w io.Writer, side int) error {
	a := sparse.Poisson2D(side, side)
	b, xTrue := harness.RHS(a, 1)

	// One expected silent error every 16 CG iterations — the fault rate of
	// the paper's Table 1.
	inj := fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 2024})

	x, st, err := core.Solve(a, b, core.Config{
		Scheme:    core.ABFTCorrection,
		Tol:       1e-10,
		Injectors: []*fault.Injector{inj},
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "solved %dx%d system (%d nonzeros) with %v\n",
		a.Rows, a.Cols, a.NNZ(), st.Scheme)
	fmt.Fprintf(w, "  iterations: %d useful, %d executed\n", st.UsefulIterations, st.TotalIterations)
	fmt.Fprintf(w, "  faults:     %d injected, %d detected\n", st.FaultsInjected, st.Detections)
	fmt.Fprintf(w, "  recovery:   %d corrected forward, %d rollbacks, %d matrix re-reads\n", st.Corrections, st.Rollbacks, st.Rereads)
	fmt.Fprintf(w, "  residual:   %.2e   solution error: %.2e\n",
		st.FinalResidual, vec.MaxAbsDiff(x, xTrue))
	fmt.Fprintf(w, "  model time: %.4f s (checkpoints: %d at interval s=%d)\n",
		st.SimTime, st.Checkpoints, st.S)
	return nil
}
