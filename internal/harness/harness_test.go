package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/sparse"
)

func testScenario() Scenario {
	return Scenario{
		Name:   "test/cg/abft-correction/poisson2d",
		Matrix: MatrixSpec{Gen: "poisson2d", N: 400},
		Solver: "cg",
		Scheme: "abft-correction",
		Alpha:  1.0 / 32,
		Reps:   4,
		Seed:   7,
	}
}

// runOn builds the scenario's matrix and runs it sequentially.
func runOn(t *testing.T, sc Scenario) Result {
	t.Helper()
	a, err := sc.Matrix.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOn(nil, a, sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunOnDeterministicAcrossWorkers is the core harness guarantee: the
// canonical record (wall time excluded) is bitwise identical whether the
// scenario runs sequentially or fanned out across pools of any size. The
// "smoke" group holds the seven cells of the former smoke campaign; with
// the test scenario they cover every solver, every scheme, four generators,
// and faulty and fault-free runs.
func TestRunOnDeterministicAcrossWorkers(t *testing.T) {
	var cells []Scenario
	for _, scheme := range []string{"unprotected", "online-detection", "abft-detection", "abft-correction"} {
		alpha := 1.0 / 64
		if scheme == "unprotected" {
			alpha = 0
		}
		cells = append(cells, Scenario{
			Name:   "cg/" + scheme + "/poisson2d",
			Matrix: MatrixSpec{Gen: "poisson2d", N: 900},
			Solver: "cg",
			Scheme: scheme,
			Alpha:  alpha,
			Reps:   3,
			Seed:   1,
		})
	}
	cells = append(cells,
		Scenario{
			Name:    "pcg/abft-correction/suite2213",
			Matrix:  MatrixSpec{Gen: "suite", ID: 2213, Scale: 96},
			Solver:  "pcg",
			Precond: "jacobi",
			Scheme:  "abft-correction",
			Alpha:   1.0 / 32,
			Reps:    3,
			Seed:    1,
		},
		Scenario{
			Name:   "bicgstab/abft-detection/randomspd",
			Matrix: MatrixSpec{Gen: "randomspd", N: 600, Seed: 42},
			Solver: "bicgstab",
			Scheme: "abft-detection",
			Alpha:  1.0 / 64,
			Reps:   3,
			Seed:   1,
		},
		Scenario{
			Name:   "cg/abft-correction/tridiag",
			Matrix: MatrixSpec{Gen: "tridiag", N: 400},
			Solver: "cg",
			Scheme: "abft-correction",
			Reps:   1,
			Seed:   1,
		},
	)
	check := func(t *testing.T, sc Scenario) {
		t.Run(sc.Name, func(t *testing.T) {
			a, err := sc.Matrix.Build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunOn(nil, a, sc)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, _ := json.Marshal(want.Canonical())
			if want.Failures == want.Reps {
				t.Fatalf("degenerate scenario: every trial failed: %+v", want)
			}
			if want.ResidualHash == HashHistory(nil) {
				t.Fatal("residual hash must cover a non-empty history")
			}
			for _, workers := range []int{1, 2, 4} {
				p := pool.New(workers)
				got, err := RunOn(p, a, sc)
				p.Close()
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, _ := json.Marshal(got.Canonical())
				if string(gotJSON) != string(wantJSON) {
					t.Fatalf("workers=%d: canonical record diverged:\n%s\nvs sequential:\n%s",
						workers, gotJSON, wantJSON)
				}
			}
		})
	}
	check(t, testScenario())
	t.Run("smoke", func(t *testing.T) {
		for _, sc := range cells {
			check(t, sc)
		}
	})
}

// TestRunBuildsMatrixAndEchoesScenario checks the record RunOn assembles:
// header, scenario echo, matrix description, work accounting and wall time.
func TestRunBuildsMatrixAndEchoesScenario(t *testing.T) {
	sc := testScenario()
	sc.Reps = 2
	sc.Seed = 11
	a, err := sc.Matrix.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := pool.New(2)
	defer p.Close()
	res, err := RunOn(p, a, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.Seed != 11 || res.Scenario.Name != sc.Name {
		t.Fatalf("scenario not echoed: %+v", res.Scenario)
	}
	if res.Schema != SchemaVersion || res.Reps != 2 {
		t.Fatalf("record header wrong: %+v", res)
	}
	if res.Matrix.N != 400 || res.Matrix.NNZ == 0 || res.Matrix.Label != sc.Matrix.String() {
		t.Fatalf("matrix info missing: %+v", res.Matrix)
	}
	if res.FlopsPerIter <= 0 || res.MeanSimTime <= 0 {
		t.Fatalf("work accounting missing: %+v", res)
	}
	if res.WallSeconds <= 0 {
		t.Fatalf("wall time not measured: %+v", res)
	}
}

// TestSolverAxes runs every solver × scheme combination the drivers
// support on a tiny SPD matrix, fault-free, and checks convergence.
func TestSolverAxes(t *testing.T) {
	a := sparse.Tridiag(150, 2, -1)
	b, _ := RHS(a, 3)
	cases := []struct {
		solver, scheme string
	}{
		{"cg", "unprotected"},
		{"cg", "online-detection"},
		{"cg", "abft-detection"},
		{"cg", "abft-correction"},
		{"pcg", "unprotected"},
		{"pcg", "online-detection"},
		{"pcg", "abft-correction"},
		{"bicgstab", "unprotected"},
		{"bicgstab", "abft-detection"},
		{"bicgstab", "abft-correction"},
	}
	for _, tc := range cases {
		sc := Scenario{Solver: tc.solver, Scheme: tc.scheme, Tol: 1e-8}
		var hist []float64
		_, st, err := SolveWith(a, b, sc, 1, SolveOpts{OnIteration: func(_ int, rho float64) { hist = append(hist, rho) }})
		if err != nil {
			t.Errorf("%s/%s: %v", tc.solver, tc.scheme, err)
			continue
		}
		if !st.Converged || st.UsefulIterations == 0 {
			t.Errorf("%s/%s: not converged: %+v", tc.solver, tc.scheme, st)
		}
		if len(hist) == 0 {
			t.Errorf("%s/%s: no iteration history recorded", tc.solver, tc.scheme)
		}
		if st.FinalResidual > 1e-6 {
			t.Errorf("%s/%s: final residual %v", tc.solver, tc.scheme, st.FinalResidual)
		}
	}
}

// TestUnprotectedNeumannPCG pins the like-for-like baseline contract: the
// unprotected PCG reference uses the scenario's own preconditioner, so the
// Neumann axis must run (and converge) unprotected too.
func TestUnprotectedNeumannPCG(t *testing.T) {
	a := sparse.Tridiag(150, 2, -1)
	b, _ := RHS(a, 3)
	sc := Scenario{Solver: "pcg", Precond: "neumann", Scheme: "unprotected", Tol: 1e-8}
	_, st, err := SolveWith(a, b, sc, 1, SolveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("unprotected neumann PCG did not converge: %+v", st)
	}
}

// TestRHSSeedZeroIsHonoured guards the sentinel regression: a pinned
// right-hand-side seed of exactly 0 must be used, not silently replaced by
// the per-cell trial seed.
func TestRHSSeedZeroIsHonoured(t *testing.T) {
	sc := Scenario{Seed: 5}.WithRHSSeed(0)
	if got := sc.rhsSeed(); got != 0 {
		t.Fatalf("rhsSeed() = %d, want the pinned 0", got)
	}
	if got := (Scenario{Seed: 5}).rhsSeed(); got != 5 {
		t.Fatalf("unpinned rhsSeed() = %d, want the trial seed 5", got)
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Solver: "simplex"}, "unknown solver"},
		{Scenario{Scheme: "tmr-everything"}, "unknown scheme"},
		{Scenario{Scheme: "unprotected", Alpha: 0.1}, "cannot run under fault injection"},
		{Scenario{Solver: "bicgstab", Scheme: "online-detection"}, "ABFT schemes only"},
		{Scenario{Solver: "pcg", Precond: "ilu0"}, "unknown preconditioner"},
	}
	for _, tc := range cases {
		err := tc.sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want containing %q", tc.sc, err, tc.want)
		}
	}
	if err := (Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario must validate via defaults, got %v", err)
	}
}

func TestMatrixSpecs(t *testing.T) {
	for _, spec := range []MatrixSpec{
		{Gen: "poisson2d", N: 100},
		{Gen: "poisson3d", N: 64},
		{Gen: "tridiag", N: 50},
		{Gen: "laplacian", N: 60, Shift: 0.01, Seed: 42},
		{Gen: "randomspd", N: 80, Seed: 42},
		{Gen: "suite", ID: 2213, Scale: 96},
		{Gen: "suite", ID: 2213, N: 250},
	} {
		a, err := spec.Build()
		if err != nil {
			t.Errorf("%v: %v", spec, err)
			continue
		}
		if a.Rows == 0 || a.NNZ() == 0 {
			t.Errorf("%v: empty matrix", spec)
		}
		b, err := spec.Build()
		if err != nil || !a.Equal(b) {
			t.Errorf("%v: build not deterministic", spec)
		}
	}
	for _, spec := range []MatrixSpec{
		{},
		{Gen: "hilbert", N: 10},
		{Gen: "suite", ID: 1},
		{Gen: "file", Path: "/nonexistent/a.mtx"},
	} {
		if _, err := spec.Build(); err == nil {
			t.Errorf("%v: expected error", spec)
		}
	}
}

func TestNewMatrixSpec(t *testing.T) {
	if _, err := NewMatrixSpec("suite:abc", 0, 0); err == nil || !strings.Contains(err.Error(), "bad suite id") {
		t.Errorf("suite:abc error = %v", err)
	}
	if _, err := NewMatrixSpec("suite:9999", 0, 0); err == nil || !strings.Contains(err.Error(), "unknown suite matrix") {
		t.Errorf("suite:9999 error = %v", err)
	}
	if _, err := NewMatrixSpec("nonesuch", 10, 0); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Errorf("nonesuch error = %v", err)
	}
	ms, err := NewMatrixSpec("suite:341", 250, 0)
	if err != nil || ms.ID != 341 || ms.N != 250 {
		t.Errorf("suite:341 = %+v, %v", ms, err)
	}
}
