package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// This file holds the engine's Unprotected scheme — the denominator of every
// overhead the repository reports — to the textbook loops of internal/solver,
// and holds internal/solver to being nothing but that reference.

// unprotectedAs runs one solver kind on the engine's Unprotected scheme.
func unprotectedAs(kind string, a, m *sparse.CSR, b []float64, tol float64) ([]float64, core.Stats, error) {
	cfg := core.Config{Scheme: core.Unprotected, Tol: tol, MaxIters: 10 * a.Rows}
	switch kind {
	case "bicgstab":
		cfg.Recurrence = core.BiCGstab
	case "pcg":
		cfg.M = m
	}
	return core.Solve(a, b, cfg)
}

// referenceAs runs the same kind on the reference.
func referenceAs(kind string, a, m *sparse.CSR, b []float64, tol float64) solver.Result {
	switch kind {
	case "bicgstab":
		return solver.BiCGstab(a, b, tol, 10*a.Rows)
	case "pcg":
		return solver.CG(a, m, b, tol, 10*a.Rows)
	}
	return solver.CG(a, nil, b, tol, 10*a.Rows)
}

// relDiff is ‖x − y‖ / ‖y‖.
func relDiff(x, y []float64) float64 {
	var d, n float64
	for i := range y {
		d += (x[i] - y[i]) * (x[i] - y[i])
		n += y[i] * y[i]
	}
	return math.Sqrt(d / n)
}

// TestUnprotectedMatchesReferenceOnSuite is the differential property: on each
// of the nine suite matrices, every recurrence of the engine's Unprotected
// scheme takes the reference's number of iterations and ends on its x to
// 1e-10·‖x‖. The instances stay within one reduction block (n ≤ vec.BlockSize),
// where the engine's blocked sums and the reference's plain ones associate
// alike; beyond it the two are held to each other within one iteration of CG
// and the tolerance of the solve (BiCGstab's count is too erratic to pin
// across summation orders: ±8 % between right-hand sides alone).
func TestUnprotectedMatchesReferenceOnSuite(t *testing.T) {
	const tol = 1e-8
	for _, tier := range []struct {
		scale   int
		kinds   []string
		slack   int
		xWithin float64
	}{
		{24, []string{"cg", "pcg", "bicgstab"}, 0, 1e-10},
		{8, []string{"cg", "pcg"}, 1, 1e-6},
	} {
		for _, sm := range harness.PaperSuite {
			a := sm.Generate(tier.scale)
			b, _ := harness.RHS(a, int64(sm.ID))
			m, err := precond.Jacobi(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range tier.kinds {
				ref := referenceAs(kind, a, m, b, tol)
				x, st, err := unprotectedAs(kind, a, m, b, tol)
				if err != nil || !st.Converged || !ref.Converged {
					t.Errorf("matrix %d/%d %s: engine err=%v converged=%v, reference converged=%v", sm.ID, tier.scale, kind, err, st.Converged, ref.Converged)
					continue
				}
				if d := st.UsefulIterations - ref.Iterations; d < -tier.slack || d > tier.slack {
					t.Errorf("matrix %d/%d (n=%d) %s: %d iterations, reference %d", sm.ID, tier.scale, a.Rows, kind, st.UsefulIterations, ref.Iterations)
				}
				if d := relDiff(x, ref.X); !(d <= tier.xWithin) {
					t.Errorf("matrix %d/%d (n=%d) %s: ‖x − x_ref‖/‖x_ref‖ = %.3g", sm.ID, tier.scale, a.Rows, kind, d)
				}
			}
		}
	}
}

// TestReferenceStaysAReference walks the module's sources: no non-test file
// outside internal/harness and bench/ (which name solver.Workspace until the
// benchmark issue drops it) imports internal/solver, and internal/solver's own
// non-test files import nothing of this module but internal/sparse, for the
// CSR type — the oracle shares no arithmetic with what it judges.
//
// The same walk holds the one level of parallelism: the system is parallel
// over solves — campaign trials in internal/harness and internal/sim, the
// commands and examples that size their fan-out — and never inside one, so
// nothing a solve runs through (core, vec, tmr, abft, checksum, checkpoint)
// and nothing of the service (server, router, api) imports internal/pool.
// internal/sparse still does, for the one product bench/'s
// sparse.mulvec_parallel_speedup.large times, until that probe goes.
func TestReferenceStaysAReference(t *testing.T) {
	const ref, workers = "repro/internal/solver", "repro/internal/pool"
	fanOut := func(dir string) bool {
		switch dir {
		case "internal/sparse", "internal/harness", "internal/sim", "bench":
			return true
		}
		return strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			name, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case dir == "internal/solver":
				if strings.HasPrefix(name, "repro/") && name != "repro/internal/sparse" {
					t.Errorf("%s imports %s: the reference may share nothing but the CSR type", path, name)
				}
			case name == ref && dir != "internal/harness" && dir != "bench":
				t.Errorf("%s imports %s: only tests compare against the reference", path, name)
			case name == workers && !fanOut(dir):
				t.Errorf("%s imports %s: cores run solves, a solve runs on one core", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
