package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// This file pins the bitwise contract of the blocked multi-RHS tier on
// every matrix of the paper suite, exactly the way fused_test.go pins the
// pool products: a blocked product must produce each column's bits of the
// corresponding single-vector kernel, and a blocked solve must reproduce,
// per right-hand side, the exact residual history, statistics and outcome
// of solving that system alone — whatever the solver, scheme and fault rate.

func TestBlockedKernelsBitwiseOnSuite(t *testing.T) {
	const k = 4
	for id, a := range suiteInstances(t) {
		xs := make([][]float64, k)
		for j := range xs {
			xs[j] = randVec(a.Cols, int64(id)+int64(j)*977)
		}
		ysRef := make([][]float64, k)
		ys := make([][]float64, k)
		for j := range ys {
			ysRef[j] = make([]float64, a.Rows)
			ys[j] = make([]float64, a.Rows)
		}

		// Plain blocked product vs k single products.
		for j := range xs {
			a.MulVec(ysRef[j], xs[j])
		}
		a.MulVecBlock(ys, xs)
		for j := range xs {
			if !bitsEqual(ysRef[j], ys[j]) {
				t.Errorf("matrix %d: MulVecBlock column %d differs from MulVec", id, j)
			}
		}

		// Protected blocked product vs k protected single products: columns,
		// the shared Rowidx sums and the per-column verification outcome.
		p := abft.NewProtected(a, abft.DetectCorrect)
		var srRef abft.RowSums
		for j := range xs {
			srRef = p.MulVec(ysRef[j], xs[j])
		}
		sr := p.MulVecBlock(ys, xs)
		if math.Float64bits(sr.S1) != math.Float64bits(srRef.S1) || math.Float64bits(sr.S2) != math.Float64bits(srRef.S2) {
			t.Errorf("matrix %d: blocked RowSums (%v,%v) != single (%v,%v)", id, sr.S1, sr.S2, srRef.S1, srRef.S2)
		}
		for j := range xs {
			if !bitsEqual(ysRef[j], ys[j]) {
				t.Errorf("matrix %d: Protected.MulVecBlock column %d differs from Protected.MulVec", id, j)
			}
			ref := checksum.NewVector(xs[j])
			if out := p.Verify(ys[j], xs[j], ref, sr); out.Detected {
				t.Errorf("matrix %d: false positive verifying blocked column %d: %+v", id, j, out)
			}
		}
	}
}

// blockedSolvers are the solver axis of the bitwise table: every
// recurrence, PCG under both preconditioners.
var blockedSolvers = []harness.Scenario{
	{Solver: "cg"},
	{Solver: "pcg", Precond: "jacobi"},
	{Solver: "pcg", Precond: "neumann"},
	{Solver: "bicgstab"},
}

// blockedSchemes are the scheme axis: all four, wherever Scenario.Validate
// accepts them.
var blockedSchemes = []string{"unprotected", "online-detection", "abft-detection", "abft-correction"}

// checkBlockedLanes solves the systems bs under sc as one block and each one
// alone with SolveWith under the same seed, and reports every lane whose
// residual history, statistics or error differ from its block of one. It
// returns the block's statistics.
func checkBlockedLanes(t *testing.T, name string, a *sparse.CSR, bs [][]float64, sc harness.Scenario, seeds []int64, ws *core.Workspace) []core.Stats {
	t.Helper()
	k := len(bs)
	blockHists := make([][]float64, k)
	onIter := func(rhs, it int, rho float64) { blockHists[rhs] = append(blockHists[rhs], rho) }
	sts := make([]core.Stats, k)
	errs := make([]error, k)
	if _, err := harness.SolveBlockWith(a, bs, sc, seeds, harness.BlockOpts{Ws: ws, OnIteration: onIter}, sts, errs); err != nil {
		t.Fatalf("%s: SolveBlockWith: %v", name, err)
	}
	for j := 0; j < k; j++ {
		var seqHist []float64
		_, seqSt, seqErr := harness.SolveWith(a, bs[j], sc, seeds[j], harness.SolveOpts{
			OnIteration: func(_ int, rho float64) { seqHist = append(seqHist, rho) },
		})
		if !bitsEqual(blockHists[j], seqHist) {
			t.Errorf("%s rhs %d: blocked residual history differs from sequential (%d vs %d iters)",
				name, j, len(blockHists[j]), len(seqHist))
		}
		if sts[j] != seqSt {
			t.Errorf("%s rhs %d: blocked stats %+v != sequential %+v", name, j, sts[j], seqSt)
		}
		if (errs[j] == nil) != (seqErr == nil) || (errs[j] != nil && errs[j].Error() != seqErr.Error()) {
			t.Errorf("%s rhs %d: blocked err %v != sequential %v", name, j, errs[j], seqErr)
		}
	}
	return sts
}

// TestBlockedSolveBitwiseOnSuite: lane j of a blocked solve is its single
// solve, bit for bit, for every solver × scheme on the nine suite matrices
// fault-free — lanes sharing one live matrix, one encoding and the blocked
// products, four of them to a pass — and under injection on two of them,
// where every lane owns its matrices and its injector (seeds[j], as
// SolveWith draws it). The matrices are generated at scale 32, where most
// solves converge inside the budget.
func TestBlockedSolveBitwiseOnSuite(t *testing.T) {
	const k = 4
	faulty := map[int]bool{341: true, 2213: true}
	for _, sm := range harness.PaperSuite {
		id, a := sm.ID, sm.Generate(32)
		bs := make([][]float64, k)
		seeds := make([]int64, k)
		for j := range bs {
			bs[j], _ = harness.RHS(a, int64(id)+int64(j)*101)
			seeds[j] = int64(j + 1)
		}
		alphas := []float64{0}
		if faulty[id] {
			alphas = append(alphas, 1.0/16)
		}
		for _, solver := range blockedSolvers {
			for _, scheme := range blockedSchemes {
				for _, alpha := range alphas {
					sc := solver
					sc.Name, sc.Scheme, sc.Alpha, sc.MaxIters = "blocked", scheme, alpha, 150
					if sc.Validate() != nil {
						continue
					}
					name := fmt.Sprintf("matrix %d %s/%s/%s alpha=%g", id, sc.Solver, sc.Precond, scheme, alpha)
					checkBlockedLanes(t, name, a, bs, sc, seeds, nil)
				}
			}
		}
	}
}

// TestBlockedSolveFallbackBitwise pins, on a small Poisson system, the three
// axes the multi-RHS tier once served by k sequential solves — PCG, Online
// Detection and injected faults — now that the blocked driver runs them:
// every lane still reproduces its single solve exactly.
func TestBlockedSolveFallbackBitwise(t *testing.T) {
	a := sparse.Poisson2D(16, 16)
	const k = 2
	bs := make([][]float64, k)
	seeds := make([]int64, k)
	for j := range bs {
		bs[j], _ = harness.RHS(a, int64(j)*31)
		seeds[j] = int64(100 + j)
	}
	cases := []harness.Scenario{
		{Name: "fallback/pcg", Solver: "pcg", Scheme: "abft-correction"},
		{Name: "fallback/online", Solver: "cg", Scheme: "online-detection"},
		{Name: "fallback/faulty", Solver: "cg", Scheme: "abft-correction", Alpha: 0.2},
	}
	for _, sc := range cases {
		checkBlockedLanes(t, sc.Name, a, bs, sc, seeds, nil)
	}
}

// TestBlockedSolveReusedWorkspace pins that a warm block workspace
// reproduces the cold bits across repeated and width-varying blocks, each of
// another solver.
func TestBlockedSolveReusedWorkspace(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	ws := core.NewWorkspace()
	for i, k := range []int{3, 1, 4, 3, 2} {
		sc := blockedSolvers[i%len(blockedSolvers)]
		sc.Name, sc.Scheme = "blocked/reuse", "abft-correction"
		bs := make([][]float64, k)
		seeds := make([]int64, k)
		for j := range bs {
			bs[j], _ = harness.RHS(a, int64(j)*17)
			seeds[j] = int64(j)
		}
		name := fmt.Sprintf("k=%d %s/%s", k, sc.Solver, sc.Precond)
		for j, st := range checkBlockedLanes(t, name, a, bs, sc, seeds, ws) {
			if !st.Converged {
				t.Errorf("%s rhs %d: not converged", name, j)
			}
		}
	}
}
