// Command resbench is the entry point of the scenario harness: it lists,
// filters, runs and aggregates the registered resilience scenarios and
// emits machine-readable result records (see internal/harness).
//
// List and filter the registry:
//
//	resbench -list
//	resbench -list -filter figure1
//
// Run scenarios (by exact name or by substring filter) and emit JSON:
//
//	resbench -run smoke/cg/abft-correction/poisson2d -json
//	resbench -filter smoke -workers 4 -out smoke.json
//
// Split a campaign across processes and merge the shard outputs:
//
//	resbench -filter figure1 -shard 0/2 -out shard0.json &
//	resbench -filter figure1 -shard 1/2 -out shard1.json &
//	wait; resbench -merge shard0.json,shard1.json -out figure1.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "resbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("resbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list matching scenarios instead of running them")
		filter   = fs.String("filter", "", "substring filter on scenario names and tags")
		runName  = fs.String("run", "", "run the scenario with this exact name")
		shard    = fs.String("shard", "", "run only the k-th of n round-robin shards (format k/n)")
		workers  = fs.Int("workers", 0, "worker pool size: 0 = GOMAXPROCS, 1 = sequential")
		seed     = fs.Int64("seed", 0, "override the scenario seeds (0 = keep)")
		reps     = fs.Int("reps", 0, "override the scenario repetitions (0 = keep)")
		baseline = fs.Bool("baseline", false, "force the unprotected reference solve on")
		jsonOut  = fs.Bool("json", false, "emit JSON records on stdout instead of the text summary")
		outPath  = fs.String("out", "", "also write the JSON records to this file")
		merge    = fs.String("merge", "", "merge these comma-separated shard output files instead of running")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	registerCampaigns()

	if *merge != "" {
		return mergeFiles(strings.Split(*merge, ","), *jsonOut, *outPath, stdout)
	}

	scenarios, err := selectScenarios(*runName, *filter, *shard)
	if err != nil {
		return err
	}
	if *list {
		return writeList(stdout, scenarios)
	}
	if *runName == "" && *filter == "" {
		return fmt.Errorf("nothing selected: use -run <name>, -filter <substr> or -list")
	}

	opts := harness.RunOptions{Workers: *workers, Seed: *seed, Reps: *reps, Baseline: *baseline}
	results := make([]harness.Result, 0, len(scenarios))
	var failed int
	for i, sc := range scenarios {
		if !*quiet {
			fmt.Fprintf(stderr, "resbench: [%d/%d] %s\n", i+1, len(scenarios), sc.Name)
		}
		res, err := harness.Run(sc, opts)
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "resbench: %s: %v\n", sc.Name, err)
			continue
		}
		results = append(results, res)
	}
	if err := emit(results, *jsonOut, *outPath, stdout); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed to run", failed, len(scenarios))
	}
	return nil
}

// registerCampaigns adds smoke-scale cells of the paper campaigns (Table 1
// and Figure 1 on two suite matrices) to the built-in catalog, so the CI
// perf job and local runs can drive them by name.
func registerCampaigns() {
	suite := smokeSuite()
	fig := sim.Figure1Config{Scale: 96, Reps: 2, MTBFs: harness.LogSpace(1e2, 1e4, 3), Seed: 1}
	for _, sc := range fig.Figure1Scenarios(suite) {
		harness.MustRegister(sc)
	}
	tab := sim.Table1Config{Scale: 96, Reps: 2, Seed: 1}
	for _, sc := range tab.Table1Scenarios(suite) {
		harness.MustRegister(sc)
	}
}

func smokeSuite() []harness.SuiteMatrix {
	var suite []harness.SuiteMatrix
	for _, id := range []int{341, 2213} {
		if sm, ok := harness.SuiteByID(id); ok {
			suite = append(suite, sm)
		}
	}
	return suite
}

func selectScenarios(runName, filter, shard string) ([]harness.Scenario, error) {
	if runName != "" {
		sc, ok := harness.Lookup(runName)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", runName)
		}
		return []harness.Scenario{sc}, nil
	}
	return harness.Shard(harness.Match(filter), shard)
}

func writeList(w io.Writer, scenarios []harness.Scenario) error {
	for _, sc := range scenarios {
		desc := sc.Description
		if desc == "" {
			desc = fmt.Sprintf("%s %s on %s, α=%g, reps=%d", sc.Solver, sc.Scheme, sc.Matrix, sc.Alpha, sc.Reps)
		}
		if _, err := fmt.Fprintf(w, "%-55s %s\n", sc.Name, desc); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d scenarios\n", len(scenarios))
	return err
}

func emit(results []harness.Result, jsonOut bool, outPath string, stdout io.Writer) error {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := harness.WriteResults(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if jsonOut {
		return harness.WriteResults(stdout, results)
	}
	for _, r := range results {
		if _, err := fmt.Fprintln(stdout, summarize(r)); err != nil {
			return err
		}
	}
	return nil
}

// summarize renders one human-readable line per record.
func summarize(r harness.Result) string {
	line := fmt.Sprintf("%-55s n=%-6d reps=%d conv=%d fail=%d iters=%.1f time=%.6g",
		r.Scenario.Name, r.Matrix.N, r.Reps, r.Converged, r.Failures,
		r.MeanUsefulIters, r.MeanSimTime)
	if r.BaselineTime > 0 {
		line += fmt.Sprintf(" overhead=%.2f%%", r.Overhead*100)
	}
	if r.FaultsInjected > 0 {
		line += fmt.Sprintf(" faults=%d det=%d corr=%d rb=%d",
			r.FaultsInjected, r.Detections, r.Corrections, r.Rollbacks)
	}
	return line + " " + r.ResidualHash
}

func mergeFiles(paths []string, jsonOut bool, outPath string, stdout io.Writer) error {
	var shards [][]harness.Result
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		rs, err := harness.ReadResults(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		shards = append(shards, rs)
	}
	merged, err := harness.Merge(shards...)
	if err != nil {
		return err
	}
	if !jsonOut && outPath == "" {
		jsonOut = true // merged records are JSON-shaped; default to emitting them
	}
	return emit(merged, jsonOut, outPath, stdout)
}
