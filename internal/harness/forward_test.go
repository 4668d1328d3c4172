package harness

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// The tests of this file hold ABFT-Correction to the paper's Figure 1 at the
// rate of its Table 1 (α = 1/16): a single error costs a repair and not a
// rollback, so the scheme neither re-executes iterations nor runs longer than
// ABFT-Detection.

// forwardRun solves one injected cell the way the repo benchmark does: the
// right-hand side of seed 101, a Jacobi preconditioner for pcg, one warm
// workspace pair.
func forwardRun(t *testing.T, a *sparse.CSR, b []float64, ws *Workspaces, kind, scheme string, seed int64) core.Stats {
	t.Helper()
	sc := Scenario{Solver: kind, Scheme: scheme, Alpha: 1.0 / 16}
	_, st, err := SolveWith(a, b, sc, seed, SolveOpts{Ws: ws})
	if err != nil || !st.Converged {
		t.Fatalf("%s/%s/seed %d: err %v, stats %+v", kind, scheme, seed, err, st)
	}
	return st
}

func forwardOperand(t *testing.T, spec MatrixSpec) (*sparse.CSR, []float64) {
	t.Helper()
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RHS(a, 101)
	return a, b
}

// TestBenchmarkCellsStayForward runs the 18 ABFT-Correction cells of the repo
// benchmark's solve_faulty workload (bench/workloads.go: two operands × three
// solvers × injector seeds 11, 23, 37). Every error the injector draws there
// is a single error in its iteration or a matrix error the valid copy
// settles, so not one iteration is executed twice.
func TestBenchmarkCellsStayForward(t *testing.T) {
	ws := &Workspaces{Core: core.NewWorkspace(), Solver: solver.NewWorkspace()}
	var detections, corrections, rereads int64
	for _, spec := range []MatrixSpec{{Gen: "poisson2d", N: 4096}, {Gen: "suite", ID: 341, N: 2880}} {
		a, b := forwardOperand(t, spec)
		for _, kind := range []string{"cg", "pcg", "bicgstab"} {
			for _, seed := range []int64{11, 23, 37} {
				st := forwardRun(t, a, b, ws, kind, "abft-correction", seed)
				name := fmt.Sprintf("%v/%s/seed %d", spec, kind, seed)
				if st.Rollbacks != 0 || st.TotalIterations != int64(st.UsefulIterations) {
					t.Errorf("%s: %d rollbacks, %d total vs %d useful iterations (%d detections, %d corrections, %d re-reads)",
						name, st.Rollbacks, st.TotalIterations, st.UsefulIterations, st.Detections, st.Corrections, st.Rereads)
				}
				if st.Detections != st.Corrections {
					t.Errorf("%s: %d detections, %d corrected", name, st.Detections, st.Corrections)
				}
				detections, corrections, rereads = detections+st.Detections, corrections+st.Corrections, rereads+st.Rereads
			}
		}
	}
	t.Logf("18 cells: %d detections, %d corrections, %d of them by re-reading the matrix", detections, corrections, rereads)
	if detections == 0 || rereads == 0 {
		t.Error("the cells exercise no detection or no re-read: the scenario has drifted")
	}
}

// TestCorrectionNoSlowerThanDetection is Figure 1's ordering at α = 1/16 as a
// gate: over eight injector seeds, on a 5-nonzeros-per-row operand and a
// ≈ 50-per-row one, ABFT-Correction runs no more iterations and no more
// modeled time than ABFT-Detection, whichever recurrence is inside.
func TestCorrectionNoSlowerThanDetection(t *testing.T) {
	ws := &Workspaces{Core: core.NewWorkspace(), Solver: solver.NewWorkspace()}
	const seeds = 8
	for _, spec := range []MatrixSpec{{Gen: "poisson2d", N: 1024}, {Gen: "suite", ID: 341, N: 1440}} {
		a, b := forwardOperand(t, spec)
		for _, kind := range []string{"cg", "pcg", "bicgstab"} {
			var iters, sim [2]float64
			for i, scheme := range []string{"abft-detection", "abft-correction"} {
				for seed := int64(101); seed < 101+seeds; seed++ {
					st := forwardRun(t, a, b, ws, kind, scheme, seed)
					iters[i] += float64(st.TotalIterations) / seeds
					sim[i] += st.SimTime / seeds
				}
			}
			t.Logf("%v (%.0f nnz/row) %s: mean iterations %.1f detection, %.1f correction; mean model time %.4g s, %.4g s",
				spec, float64(a.NNZ())/float64(a.Rows), kind, iters[0], iters[1], sim[0], sim[1])
			if iters[1] > iters[0] {
				t.Errorf("%v/%s: ABFT-Correction runs %.1f iterations on average, ABFT-Detection %.1f", spec, kind, iters[1], iters[0])
			}
			if sim[1] > sim[0] {
				t.Errorf("%v/%s: ABFT-Correction's mean model time %.4g s, ABFT-Detection's %.4g s", spec, kind, sim[1], sim[0])
			}
		}
	}
}
