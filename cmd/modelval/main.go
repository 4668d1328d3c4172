// Command modelval reproduces the paper's Table 1: for each suite matrix
// and both ABFT schemes, the model-chosen checkpoint interval s̃ against the
// empirically best s*, their average execution times, and the relative loss
// of trusting the model. Repetitions fan out across the worker pool
// (-workers).
//
// Example (fast, downscaled):
//
//	modelval -scale 32 -reps 10
//
// Full paper-scale reproduction (slow):
//
//	modelval -scale 1 -reps 50
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "modelval: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("modelval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Int("scale", 16, "matrix downscale factor (1 = full paper size)")
		reps     = fs.Int("reps", 50, "repetitions per (matrix, scheme, s) cell (the paper uses 50)")
		alpha    = fs.Float64("alpha", 1.0/16, "expected faults per iteration (the paper uses 1/16)")
		tol      = fs.Float64("tol", 1e-8, "solver tolerance")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		workers  = fs.Int("workers", 0, "worker pool size for the trial fan-out: 0 = GOMAXPROCS, 1 = sequential")
		matrices = fs.String("matrices", "", "comma-separated UFL ids (default: all nine)")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	suite, err := harness.SelectSuite(*matrices)
	if err != nil {
		return err
	}

	cfg := sim.Table1Config{
		Scale:   *scale,
		Reps:    *reps,
		Alpha:   *alpha,
		Tol:     *tol,
		Seed:    *seed,
		Workers: *workers,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	rows := sim.RunTable1(cfg, suite)
	return sim.WriteTable1(stdout, rows)
}
