// Command faultsim reproduces the paper's Figure 1: the average execution
// time of Online-Detection, ABFT-Detection and ABFT-Correction against the
// normalised mean time between failures, for each matrix of the test suite.
// The repetitions of each point fan out across the worker pool (-workers).
//
// Example (fast, downscaled):
//
//	faultsim -scale 32 -reps 10 -points 5
//
// Full paper-scale reproduction (slow), with the machine-readable harness
// records alongside the CSV:
//
//	faultsim -scale 1 -reps 50 -points 7 -csv figure1.csv -json figure1.json
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
		fmt.Fprintf(os.Stderr, "faultsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Int("scale", 16, "matrix downscale factor (1 = full paper size)")
		reps     = fs.Int("reps", 50, "repetitions per point (the paper uses 50)")
		points   = fs.Int("points", 7, "number of MTBF points in [1e2, 1e4]")
		tol      = fs.Float64("tol", 1e-8, "solver tolerance")
		seed     = fs.Int64("seed", 1, "base RNG seed")
		workers  = fs.Int("workers", 0, "worker pool size for the trial fan-out: 0 = GOMAXPROCS, 1 = sequential")
		csvPath  = fs.String("csv", "", "write CSV to this path (default: text to stdout only)")
		jsonPath = fs.String("json", "", "write the per-cell harness result records (JSON) to this path")
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

	cfg := sim.Figure1Config{
		Scale:   *scale,
		Reps:    *reps,
		MTBFs:   harness.LogSpace(1e2, 1e4, *points),
		Tol:     *tol,
		Seed:    *seed,
		Workers: *workers,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	series, records := sim.RunFigure1Results(cfg, suite)
	if err := sim.WriteFigure1Text(stdout, series); err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sim.WriteFigure1CSV(f, series); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := harness.WriteResults(f, records); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", *jsonPath)
	}
	return nil
}
