package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestRunSmallSweep(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "fig1.csv")
	jsonPath := filepath.Join(dir, "fig1.json")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scale", "128", "-reps", "1", "-points", "2",
		"-matrices", "341", "-seed", "2", "-q", "-csv", csv, "-json", jsonPath,
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v) failed: %v", args, err)
	}
	if !strings.Contains(stdout.String(), "Matrix #341") {
		t.Fatalf("text output missing matrix header:\n%s", stdout.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "matrix,n,scheme,mtbf,mean_time,ci95,failures") {
		t.Fatalf("CSV header missing:\n%s", string(data[:min(len(data), 120)]))
	}
	// 1 matrix x 3 schemes x 2 points + header.
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n"); lines != 6 {
		t.Fatalf("CSV has %d data rows, want 6", lines)
	}
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := harness.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 6 {
		t.Fatalf("JSON has %d records, want one per cell (6)", len(records))
	}
	for _, r := range records {
		if r.Schema != harness.SchemaVersion || !strings.HasPrefix(r.Scenario.Name, "figure1/m341/") {
			t.Fatalf("unexpected record: %+v", r.Scenario)
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-matrices", "no-such"}, "bad matrix id"},
		{[]string{"-matrices", "123456"}, "unknown matrix id 123456"},
		{[]string{"-bogus-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) error = %v, want containing %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestSelectSuiteDefaultsToAllNine(t *testing.T) {
	suite, err := harness.SelectSuite("")
	if err != nil || len(suite) != 9 {
		t.Fatalf("SelectSuite(\"\") = %d matrices, err %v", len(suite), err)
	}
	suite, err = harness.SelectSuite("341, 2213")
	if err != nil || len(suite) != 2 || suite[0].ID != 341 || suite[1].ID != 2213 {
		t.Fatalf("SelectSuite subset = %v, err %v", suite, err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
