package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

func TestSuiteProperties(t *testing.T) {
	if len(harness.PaperSuite) != 9 {
		t.Fatalf("suite has %d matrices, the paper uses 9", len(harness.PaperSuite))
	}
	for _, sm := range harness.PaperSuite {
		if sm.N < 17456 || sm.N > 74752 {
			t.Errorf("#%d: n = %d outside the paper's range", sm.ID, sm.N)
		}
		if sm.Density >= 1e-2 {
			t.Errorf("#%d: density %v not below 1e-2", sm.ID, sm.Density)
		}
	}
}

func TestSuiteByID(t *testing.T) {
	m, ok := harness.SuiteByID(341)
	if !ok || m.N != 23052 {
		t.Fatal("harness.SuiteByID(341) wrong")
	}
	if _, ok := harness.SuiteByID(1); ok {
		t.Fatal("unknown id must return false")
	}
}

func TestGeneratePreservesRowProfile(t *testing.T) {
	sm := harness.PaperSuite[0] // #341: ~50 nnz/row
	full := float64(sm.N) * sm.Density
	a := sm.Generate(32)
	got := float64(a.NNZ()) / float64(a.Rows)
	if got < full/3 || got > full*3 {
		t.Fatalf("scaled nnz/row = %v, want ≈ %v", got, full)
	}
	if !a.IsSymmetric(0) {
		t.Fatal("generated matrix must be symmetric")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := harness.PaperSuite[3].Generate(64)
	b := harness.PaperSuite[3].Generate(64)
	if !a.Equal(b) {
		t.Fatal("suite generation not deterministic")
	}
}

func TestRHSDeterministic(t *testing.T) {
	a := harness.PaperSuite[8].Generate(64)
	b1, x1 := harness.RHS(a, 5)
	b2, x2 := harness.RHS(a, 5)
	for i := range b1 {
		if b1[i] != b2[i] || x1[i] != x2[i] {
			t.Fatal("RHS not deterministic")
		}
	}
}

func TestLogSpace(t *testing.T) {
	xs := harness.LogSpace(100, 10000, 3)
	want := []float64{100, 1000, 10000}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-9*want[i] {
			t.Fatalf("LogSpace = %v", xs)
		}
	}
	if len(harness.LogSpace(1, 10, 1)) != 1 {
		t.Fatal("k=1 must return single point")
	}
}

func TestAverageTimePaired(t *testing.T) {
	a := harness.PaperSuite[8].Generate(64)
	b, _ := harness.RHS(a, 2)
	m1, s1, _ := AverageTimePool(nil, a, b, core.ABFTDetection, 0.05, 5, 1, 1e-8, 7, 3)
	m2, s2, _ := AverageTimePool(nil, a, b, core.ABFTDetection, 0.05, 5, 1, 1e-8, 7, 3)
	if m1 != m2 || len(s1) != len(s2) {
		t.Fatal("AverageTimePool not deterministic for equal seeds")
	}
	if len(s1) != 3 {
		t.Fatalf("want 3 samples, got %d", len(s1))
	}
}

func TestSGridContainsModelValueAndNeighborhood(t *testing.T) {
	g := sGrid(12)
	has := func(v int) bool {
		for _, x := range g {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, v := range []int{1, 3, 6, 12, 24, 48} {
		if !has(v) {
			t.Fatalf("grid %v missing %d", g, v)
		}
	}
	for i := 1; i < len(g); i++ {
		if g[i-1] >= g[i] {
			t.Fatal("grid not sorted/deduped")
		}
	}
}

func TestRunTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 smoke is slow")
	}
	rows := RunTable1(Table1Config{Scale: 80, Reps: 3, Seed: 1}, harness.PaperSuite[8:9])
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Det.STilde < 1 || r.Cor.STilde < 1 {
		t.Fatalf("degenerate model intervals: %+v", r)
	}
	if r.Det.EtTilde <= 0 || r.Cor.EtStar <= 0 {
		t.Fatalf("missing execution times: %+v", r)
	}
	// By construction Et(s*) ≤ Et(s̃), so the loss is non-negative.
	if r.Det.LossPct < 0 || r.Cor.LossPct < 0 {
		t.Fatalf("negative loss: %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2213") {
		t.Fatal("table output missing matrix id")
	}
}

func TestRunFigure1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure1 smoke is slow")
	}
	series, _ := RunFigure1Results(Figure1Config{
		Scale: 80, Reps: 2, MTBFs: []float64{1e2, 1e4}, Seed: 2,
	}, harness.PaperSuite[8:9])
	if len(series) != 1 {
		t.Fatal("want 1 series")
	}
	s := series[0]
	for _, scheme := range core.Schemes {
		pts := s.Points[scheme]
		if len(pts) != 2 {
			t.Fatalf("%v: %d points", scheme, len(pts))
		}
		for _, p := range pts {
			if p.Mean <= 0 {
				t.Fatalf("%v: non-positive time %+v", scheme, p)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteFigure1CSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ABFT-Correction") {
		t.Fatal("CSV missing scheme name")
	}
	buf.Reset()
	if err := WriteFigure1Text(&buf, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Matrix #2213") {
		t.Fatal("text output missing matrix header")
	}
}
