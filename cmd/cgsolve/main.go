// Command cgsolve solves a sparse SPD linear system with one of the
// resilient CG schemes, optionally under silent-error injection, or with the
// unprotected baseline, fault-free, and reports the execution statistics.
//
// The matrix comes from a Matrix Market file (-matrix) or from a built-in
// generator (-gen poisson2d|poisson3d|tridiag|laplacian|randomspd|
// suite:<id>), resolved through the harness matrix-spec grammar. The
// right-hand side is manufactured from a random solution, so the reported
// solution error is exact.
//
// Examples:
//
//	cgsolve -gen poisson2d -n 10000 -scheme abft-correction -alpha 0.0625
//	cgsolve -matrix A.mtx -scheme online-detection -alpha 0.01 -seed 7
//	cgsolve -gen poisson2d -n 10000 -scheme unprotected
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "cgsolve: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cgsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		matrixPath = fs.String("matrix", "", "Matrix Market file with an SPD matrix")
		gen        = fs.String("gen", "poisson2d", "generator when -matrix is empty: poisson2d, poisson3d, tridiag, laplacian, randomspd, suite:<id>")
		n          = fs.Int("n", 10000, "target dimension for generated matrices")
		schemeName = fs.String("scheme", "abft-correction", "resilience scheme: online-detection, abft-detection, abft-correction, or unprotected (fault-free only)")
		alpha      = fs.Float64("alpha", 0, "expected silent errors per iteration (0 = fault-free)")
		tol        = fs.Float64("tol", 1e-8, "relative residual tolerance")
		s          = fs.Int("s", 0, "checkpoint interval in chunks (0 = model-optimal)")
		d          = fs.Int("d", 0, "verification interval in iterations, online scheme only (0 = model-optimal)")
		seed       = fs.Int64("seed", 1, "RNG seed for the fault injector and the manufactured solution")
		verbose    = fs.Bool("v", false, "trace detections, corrections and rollbacks")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	a, err := loadMatrix(*matrixPath, *gen, *n)
	if err != nil {
		return err
	}
	scheme, err := parseScheme(*schemeName)
	if err != nil {
		return err
	}
	if scheme == core.Unprotected && *alpha > 0 {
		return fmt.Errorf("the unprotected baseline cannot run under fault injection (-alpha %g)", *alpha)
	}

	b, xTrue := harness.RHS(a, *seed)
	cfg := core.Config{Scheme: scheme, S: *s, D: *d, Tol: *tol}
	if *alpha > 0 {
		cfg.Injectors = []*fault.Injector{fault.New(fault.Config{Alpha: *alpha, Seed: *seed})}
	}
	if *verbose {
		cfg.OnDetection = func(_ int, ev core.DetectionEvent) {
			how := "corrected forward"
			if ev.RolledBack {
				how = "rolled back"
			}
			fmt.Fprintf(stderr, "trace: it=%d detections=%d corrections=%d %s\n", ev.Iteration, ev.Detections, ev.Corrections, how)
		}
	}

	x, st, solveErr := core.Solve(a, b, cfg)
	fmt.Fprintf(stdout, "matrix:            %d x %d, %d nonzeros (%.2e density)\n", a.Rows, a.Cols, a.NNZ(), a.Density())
	fmt.Fprintf(stdout, "scheme:            %v (d=%d, s=%d)\n", st.Scheme, st.D, st.S)
	fmt.Fprintf(stdout, "converged:         %v\n", st.Converged)
	fmt.Fprintf(stdout, "useful iterations: %d (total executed %d)\n", st.UsefulIterations, st.TotalIterations)
	fmt.Fprintf(stdout, "faults injected:   %d\n", st.FaultsInjected)
	fmt.Fprintf(stdout, "detections:        %d (corrected %d, rollbacks %d, matrix re-reads %d)\n", st.Detections, st.Corrections, st.Rollbacks, st.Rereads)
	fmt.Fprintf(stdout, "checkpoints:       %d\n", st.Checkpoints)
	fmt.Fprintf(stdout, "model time:        %.4f s (iter %.4f, verif %.4f, ckpt %.4f, recovery %.4f)\n",
		st.SimTime, st.TimeIter, st.TimeVerif, st.TimeCkpt, st.TimeRecovery)
	fmt.Fprintf(stdout, "final residual:    %.3e (relative)\n", st.FinalResidual)
	fmt.Fprintf(stdout, "solution error:    %.3e (max abs vs manufactured solution)\n", vec.MaxAbsDiff(x, xTrue))
	return solveErr
}

// loadMatrix resolves -matrix / -gen through the harness matrix specs,
// keeping the historical laplacian parameters (shift 0.01, seed 42).
func loadMatrix(path, gen string, n int) (*sparse.CSR, error) {
	if path != "" {
		return harness.FileMatrixSpec(path).Build()
	}
	ms, err := harness.NewMatrixSpec(gen, n, 42)
	if err != nil {
		return nil, err
	}
	if ms.Gen == "laplacian" {
		ms.Shift = 0.01
	}
	return ms.Build()
}

// parseScheme resolves a scheme slug case-insensitively, so historical
// spellings like "ABFT-Correction" keep working.
func parseScheme(name string) (core.Scheme, error) {
	return harness.ParseScheme(strings.ToLower(name))
}
