package repro

import (
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
// corresponding single-vector kernel, and a blocked solve (k > 1) must
// reproduce, per right-hand side, the exact residual history, statistics
// and outcome of solving that system alone.

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

// blockedSchemes are the axis combinations the true blocked drivers cover;
// every other combination dispatches to bitwise-trivially-equal sequential
// solves (see TestBlockedSolveFallbackBitwise).
var blockedSchemes = []string{"unprotected", "abft-detection", "abft-correction"}

func TestBlockedSolveBitwiseOnSuite(t *testing.T) {
	const k = 3
	for id, a := range suiteInstances(t) {
		bs := make([][]float64, k)
		seeds := make([]int64, k)
		for j := range bs {
			bs[j], _ = harness.RHS(a, int64(id)+int64(j)*101)
			seeds[j] = int64(j + 1)
		}
		for _, scheme := range blockedSchemes {
			sc := harness.Scenario{Name: "blocked/" + scheme, Solver: "cg", Scheme: scheme, MaxIters: 150}

			blockHists := make([][]float64, k)
			onIter := func(rhs, it int, rho float64) { blockHists[rhs] = append(blockHists[rhs], rho) }
			sts := make([]core.Stats, k)
			errs := make([]error, k)
			if err := harness.SolveBlockWith(a, bs, sc, seeds, harness.BlockOpts{OnIteration: onIter}, sts, errs); err != nil {
				t.Fatalf("matrix %d %s: SolveBlockWith: %v", id, scheme, err)
			}

			for j := 0; j < k; j++ {
				var seqHist []float64
				_, seqSt, seqErr := harness.SolveWith(a, bs[j], sc, seeds[j], harness.SolveOpts{
					OnIteration: func(_ int, rho float64) { seqHist = append(seqHist, rho) },
				})
				if !bitsEqual(blockHists[j], seqHist) {
					t.Errorf("matrix %d %s rhs %d: blocked residual history differs from sequential (%d vs %d iters)",
						id, scheme, j, len(blockHists[j]), len(seqHist))
				}
				if sts[j] != seqSt {
					t.Errorf("matrix %d %s rhs %d: blocked stats %+v != sequential %+v", id, scheme, j, sts[j], seqSt)
				}
				if (errs[j] == nil) != (seqErr == nil) || (errs[j] != nil && errs[j].Error() != seqErr.Error()) {
					t.Errorf("matrix %d %s rhs %d: blocked err %v != sequential %v", id, scheme, j, errs[j], seqErr)
				}
			}
		}
	}
}

// TestBlockedSolveFallbackBitwise exercises the sequential-fallback
// dispatch (axes outside the blocked drivers' coverage) and pins that it,
// too, reproduces per-RHS sequential results exactly.
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
		blockHists := make([][]float64, k)
		onIter := func(rhs, it int, rho float64) { blockHists[rhs] = append(blockHists[rhs], rho) }
		sts := make([]core.Stats, k)
		errs := make([]error, k)
		if err := harness.SolveBlockWith(a, bs, sc, seeds, harness.BlockOpts{OnIteration: onIter}, sts, errs); err != nil {
			t.Fatalf("%s: SolveBlockWith: %v", sc.Name, err)
		}
		for j := 0; j < k; j++ {
			var seqHist []float64
			scj := sc
			scj.Seed = seeds[j]
			_, seqSt, seqErr := harness.SolveWith(a, bs[j], scj, seeds[j], harness.SolveOpts{
				OnIteration: func(_ int, rho float64) { seqHist = append(seqHist, rho) },
			})
			if !bitsEqual(blockHists[j], seqHist) {
				t.Errorf("%s rhs %d: fallback residual history differs from sequential", sc.Name, j)
			}
			if sts[j] != seqSt {
				t.Errorf("%s rhs %d: fallback stats differ", sc.Name, j)
			}
			if (errs[j] == nil) != (seqErr == nil) {
				t.Errorf("%s rhs %d: fallback err %v != sequential %v", sc.Name, j, errs[j], seqErr)
			}
		}
	}
}

// TestBlockedSolveReusedWorkspace pins that a warm BlockWorkspaces bundle
// reproduces the cold bits across repeated and width-varying blocks.
func TestBlockedSolveReusedWorkspace(t *testing.T) {
	a := sparse.Poisson2D(20, 20)
	ws := harness.NewBlockWorkspaces()
	sc := harness.Scenario{Name: "blocked/reuse", Solver: "cg", Scheme: "abft-correction"}
	for _, k := range []int{3, 1, 4, 3} {
		bs := make([][]float64, k)
		seeds := make([]int64, k)
		for j := range bs {
			bs[j], _ = harness.RHS(a, int64(j)*17)
			seeds[j] = int64(j)
		}
		hists := make([][]float64, k)
		onIter := func(rhs, it int, rho float64) { hists[rhs] = append(hists[rhs], rho) }
		sts := make([]core.Stats, k)
		errs := make([]error, k)
		if err := harness.SolveBlockWith(a, bs, sc, seeds, harness.BlockOpts{Ws: ws, OnIteration: onIter}, sts, errs); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for j := 0; j < k; j++ {
			var seqHist []float64
			_, _, err := harness.SolveWith(a, bs[j], sc, seeds[j], harness.SolveOpts{
				OnIteration: func(_ int, rho float64) { seqHist = append(seqHist, rho) },
			})
			if err != nil {
				t.Fatalf("k=%d rhs %d: sequential: %v", k, j, err)
			}
			if !bitsEqual(hists[j], seqHist) {
				t.Errorf("k=%d rhs %d: warm blocked history differs from sequential", k, j)
			}
			if !sts[j].Converged {
				t.Errorf("k=%d rhs %d: not converged", k, j)
			}
		}
	}
}
