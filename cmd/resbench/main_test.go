package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestListContainsCatalogAndCampaigns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{
		"smoke/cg/abft-correction/poisson2d",
		"figure1/m341/online-detection/mtbf100",
		"table1/m2213/abft-detection/model-s",
		"scenarios",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestListFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list", "-filter", "figure1/m2213"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stdout.String(), "smoke/") {
		t.Fatalf("filter leaked other scenarios:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "9 scenarios") {
		t.Fatalf("figure1/m2213 should expand to 3 schemes × 3 MTBFs:\n%s", stdout.String())
	}
}

func TestRunEmitsSchemaStableJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "smoke/cg/abft-correction/tridiag", "-json", "-q"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\nstderr: %s", err, stderr.String())
	}
	rs, err := harness.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("want 1 record, got %d", len(rs))
	}
	r := rs[0]
	if r.Schema != harness.SchemaVersion {
		t.Fatalf("schema %d, want %d", r.Schema, harness.SchemaVersion)
	}
	if r.Scenario.Name != "smoke/cg/abft-correction/tridiag" || r.Converged != 1 {
		t.Fatalf("unexpected record: %+v", r)
	}
	if r.ResidualHash == "" || r.BaselineTime <= 0 {
		t.Fatalf("record incomplete: %+v", r)
	}
}

// TestRunDeterministicAcrossWorkers pins the CLI-level determinism
// contract: -workers changes wall clock only, never the canonical record.
// The whole smoke tier runs sequentially and on four workers, and the two
// outputs must merge: harness.Merge refuses a scenario whose canonical
// records differ.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var outs []string
	for _, w := range []string{"1", "4"} {
		out := filepath.Join(dir, "smoke-w"+w+".json")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-filter", "smoke", "-q", "-workers", w, "-out", out}, &stdout, &stderr); err != nil {
			t.Fatalf("workers=%s: %v\nstderr: %s", w, err, stderr.String())
		}
		outs = append(outs, out)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-merge", strings.Join(outs, ","), "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("merging the 1- and 4-worker runs: %v", err)
	}
	merged, err := harness.ReadResults(&stdout)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sequential, err := harness.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential) < 2 || len(merged) != len(sequential) {
		t.Fatalf("merged %d records of a %d-scenario tier, want one per scenario", len(merged), len(sequential))
	}
}

// TestShardMergeRoundTrip splits the smoke tier across two shards, merges
// the outputs and checks the merged set matches an unsharded run.
func TestShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	shard0 := filepath.Join(dir, "s0.json")
	shard1 := filepath.Join(dir, "s1.json")
	full := filepath.Join(dir, "full.json")
	merged := filepath.Join(dir, "merged.json")

	for _, tc := range [][]string{
		{"-filter", "smoke/cg", "-shard", "0/2", "-q", "-out", shard0},
		{"-filter", "smoke/cg", "-shard", "1/2", "-q", "-out", shard1},
		{"-filter", "smoke/cg", "-q", "-out", full},
		{"-merge", shard0 + "," + shard1, "-out", merged},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", tc, err, stderr.String())
		}
	}

	read := func(path string) []harness.Result {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rs, err := harness.ReadResults(f)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	want, got := read(full), read(merged)
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	// The full run is already name-sorted (registry order), like the merge.
	for i := range want {
		a, _ := json.Marshal(want[i].Canonical())
		b, _ := json.Marshal(got[i].Canonical())
		if string(a) != string(b) {
			t.Fatalf("record %d differs between sharded and unsharded runs:\n%s\nvs\n%s", i, b, a)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{nil, "nothing selected"},
		{[]string{"-run", "no/such/scenario"}, "unknown scenario"},
		{[]string{"-filter", "smoke", "-shard", "9"}, "bad shard spec"},
		{[]string{"-merge", "/nonexistent/x.json"}, "no such file"},
		{[]string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestMergeRejectsConflicts(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	// Same scenario name, different deterministic content.
	write := func(path string, mean float64) {
		rs := []harness.Result{{
			Schema:      harness.SchemaVersion,
			Scenario:    harness.Scenario{Name: "x"},
			MeanSimTime: mean,
		}}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := harness.WriteResults(f, rs); err != nil {
			t.Fatal(err)
		}
	}
	write(a, 1)
	write(b, 2)
	var stdout, stderr bytes.Buffer
	err := run([]string{"-merge", a + "," + b}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "conflicting results") {
		t.Fatalf("conflicting merge error = %v", err)
	}
}
