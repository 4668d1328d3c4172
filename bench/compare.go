package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// readRecords loads a file of -out records (one JSON object per line) and
// keeps the untraced ones: end-to-end metrics always come from untraced
// runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// verdict of one workload × metric pair.
type verdict string

const (
	within     verdict = "ok"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved"
)

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies the benchmark's rule to one metric on one workload: the
// change's median may not be worse than the parent's by more than the
// bound; where either side's own run-to-run spread (interquartile distance
// over median) is wider than the bound the pair is unresolved — not
// unchanged — unless every run of the change reads better than every run of
// the parent.
func judge(d metricDef, parent, change []float64) (v verdict, delta, spread float64) {
	delta = worsening(d, median(parent), median(change))
	spread = max(quartileSpread(parent), quartileSpread(change))
	switch {
	case spread > d.Bound && !allBetter(d, parent, change):
		return unresolved, delta, spread
	case delta > d.Bound:
		return regression, delta, spread
	}
	return within, delta, spread
}

// allBetter reports whether every run of the change reads strictly better
// than every run of the parent.
func allBetter(d metricDef, parent, change []float64) bool {
	for _, p := range parent {
		for _, c := range change {
			if worsening(d, p, c) >= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// change, the spread and the bound, and returns 1 if anything regressed.
func compareFiles(parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("%s holds no untraced records", parentPath)
	}
	change, err2 := readRecords(changePath)
	if err2 == nil && len(change) == 0 {
		err2 = fmt.Errorf("%s holds no untraced records", changePath)
	}
	for _, e := range []error{err, err2} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", e)
			return 2
		}
	}
	// failedOf is failed ÷ attempted over all of a side's runs of the
	// workload together, so that a failure in one run of ten still shows.
	failedOf := func(recs []record, workload string) (share float64, runs int) {
		var failed, attempted int
		for _, r := range recs {
			if r.Workload == workload {
				failed, attempted, runs = failed+r.Failed, attempted+r.Attempted, runs+1
			}
		}
		return div(float64(failed), float64(attempted)), runs
	}
	values := func(recs []record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Printf("%-13s %-26s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse%", "spread%", "bound%", "verdict")
	bad, open := 0, 0
	for _, w := range workloads {
		for _, d := range endToEndMetrics {
			a, b := values(parent, w.Name, d.Name), values(change, w.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, delta, spread := judge(d, a, b)
			switch v {
			case regression:
				bad++
			case unresolved:
				open++
			}
			fmt.Printf("%-13s %-26s %12.6g %12.6g %+8.2f %8.2f %7.1f  %s (n=%d,%d)\n",
				w.Name, d.Name, median(a), median(b), 100*delta, 100*spread, 100*d.Bound, v, len(a), len(b))
		}
		// Any rise in the share of failed operations is a regression.
		a, na := failedOf(parent, w.Name)
		b, nb := failedOf(change, w.Name)
		if na > 0 && nb > 0 {
			v := within
			if b > a {
				v = regression
				bad++
			}
			fmt.Printf("%-13s %-26s %12.6g %12.6g %+8.2f %8s %7.1f  %s (n=%d,%d)\n",
				w.Name, failedShare, a, b, 100*(b-a), "-", 0.0, v, na, nb)
		}
	}
	fmt.Printf("\n%d regression(s), %d unresolved (spread wider than the bound: run more, do not read as unchanged)\n", bad, open)
	if bad > 0 {
		return 1
	}
	return 0
}
