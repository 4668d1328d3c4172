// Precond demonstrates the extension the paper's conclusion calls for:
// protecting a *preconditioned* CG, where the preconditioner itself — an
// explicit sparse approximate inverse applied as an SpMxV — gets the same
// ABFT checksum protection as the system matrix, and both live in
// corruptible memory.
//
// Run with:
//
//	go run ./examples/precond
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Stdout, 4000); err != nil {
		fmt.Fprintf(os.Stderr, "precond: %v\n", err)
		os.Exit(1)
	}
}

// run solves one n×n SPD system under faults with two protected
// preconditioners. The smoke tests call it with a tiny n.
func run(w io.Writer, n int) error {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: n, Density: 0.005, Seed: 11})
	b, xTrue := harness.RHS(a, 11)

	jacobi, err := precond.Jacobi(a)
	if err != nil {
		return err
	}
	neumann, err := precond.Neumann(a, precond.NeumannOptions{Terms: 2})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "matrix: n=%d nnz=%d; Neumann approximate inverse: nnz=%d\n\n",
		a.Rows, a.NNZ(), neumann.NNZ())

	for _, pc := range []struct {
		name string
		m    *sparse.CSR
	}{{"Jacobi", jacobi}, {"Neumann-2", neumann}} {
		inj := fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 77})
		x, st, err := core.Solve(a, b, core.Config{
			Scheme:    core.ABFTCorrection,
			M:         pc.m,
			Tol:       1e-9,
			Injectors: []*fault.Injector{inj},
		})
		if err != nil {
			return fmt.Errorf("%s: %w", pc.name, err)
		}
		fmt.Fprintf(w, "%-10s iters=%-4d faults=%-3d corrected=%-3d rollbacks=%-2d residual=%.2e err=%.2e\n",
			pc.name, st.UsefulIterations, st.FaultsInjected, st.Corrections,
			st.Rollbacks, st.FinalResidual, vec.MaxAbsDiff(x, xTrue))
	}
	fmt.Fprintln(w, "\nBoth preconditioners are protected by the same checksum rows as A;")
	fmt.Fprintln(w, "faults striking the preconditioner arrays are corrected in place.")
	return nil
}
