package repro

import (
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

// This file is the allocation-regression gate of the zero-allocation kernel
// engine: the protected product + verification and the steady-state solver
// iterations (a warm workspace-carrying solve) must not touch the heap.
// testing.AllocsPerRun reports average allocations per call, so any
// per-iteration allocation sneaking back into a hot path fails these tests
// deterministically.

// allocMatrix is a suite-shaped SPD test system, large enough that every
// kernel takes its real path but small enough for fast runs.
func allocMatrix(tb testing.TB) (*sparse.CSR, []float64) {
	tb.Helper()
	a := sparse.Poisson2D(24, 24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up: workspaces, lazy scratch, encodings
	if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
		t.Errorf("%s: %v allocs/op in steady state, want 0", name, allocs)
	}
}

func TestZeroAllocProtectedMulVecVerify(t *testing.T) {
	a, b := allocMatrix(t)
	for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
		p := abft.NewProtected(a, mode)
		x := b
		ref := checksum.NewVector(x)
		y := make([]float64, a.Rows)
		assertZeroAllocs(t, "Protected.MulVec+Verify/"+mode.String(), func() {
			sr := p.MulVec(y, x)
			if out := p.Verify(y, x, ref, sr); out.Detected {
				t.Fatal("false positive")
			}
		})
	}
}

func TestZeroAllocProtectedReencode(t *testing.T) {
	a, _ := allocMatrix(t)
	p := abft.NewProtected(a, abft.DetectCorrect)
	assertZeroAllocs(t, "Protected.Reencode", p.Reencode)
}

func TestZeroAllocVectorGuard(t *testing.T) {
	_, b := allocMatrix(t)
	g := abft.NewGuard(b, abft.DetectCorrect)
	assertZeroAllocs(t, "VectorGuard.Check+Refresh", func() {
		if out := g.Check(b); out.Detected {
			t.Fatal("false positive")
		}
		g.Refresh(b)
	})
}

// TestZeroAllocSolverSteadyState is the unprotected baseline's gate: the
// engine's Unprotected scheme, every recurrence, on a warm workspace.
func TestZeroAllocSolverSteadyState(t *testing.T) {
	a, b := allocMatrix(t)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scheme: core.Unprotected, Tol: 1e-8, Ws: core.NewWorkspace()}
	pcg, bicg := cfg, cfg
	pcg.M, bicg.Recurrence = m, core.BiCGstab

	cases := []struct {
		name string
		run  func() ([]float64, core.Stats, error)
	}{
		{"CG", func() ([]float64, core.Stats, error) { return core.Solve(a, b, cfg) }},
		{"PCG", func() ([]float64, core.Stats, error) { return core.Solve(a, b, pcg) }},
		{"BiCGstab", func() ([]float64, core.Stats, error) { return core.Solve(a, b, bicg) }},
	}
	for _, tc := range cases {
		assertZeroAllocs(t, "core.Unprotected/"+tc.name, func() {
			if _, st, err := tc.run(); err != nil || !st.Converged {
				t.Fatalf("%s: err=%v converged=%v", tc.name, err, st.Converged)
			}
		})
	}
}

// TestZeroAllocCoreSolveSteadyState gates the block of one under the three
// resilient schemes and every recurrence that runs under each, on one warm
// workspace.
func TestZeroAllocCoreSolveSteadyState(t *testing.T) {
	a, b := allocMatrix(t)
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	for _, scheme := range []core.Scheme{core.ABFTDetection, core.ABFTCorrection, core.OnlineDetection} {
		cfg := core.Config{Scheme: scheme, Tol: 1e-8, S: 4, D: 2, Ws: ws}
		pcg, bicg := cfg, cfg
		pcg.M, bicg.Recurrence = m, core.BiCGstab
		cases := map[string]core.Config{"CG": cfg, "PCG": pcg, "BiCGstab": bicg}
		if scheme == core.OnlineDetection {
			delete(cases, "BiCGstab") // refused: Chen's tests are CG's
		}
		for name, cfg := range cases {
			assertZeroAllocs(t, "core.Solve/"+scheme.String()+"/"+name, func() {
				if _, st, err := core.Solve(a, b, cfg); err != nil || !st.Converged {
					t.Fatalf("%v %s: err=%v converged=%v", scheme, name, err, st.Converged)
				}
			})
		}
	}
}

func TestZeroAllocBlockedSolvers(t *testing.T) {
	a, b := allocMatrix(t)
	const k = 3
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, len(b))
		for i := range b {
			bs[j][i] = b[i] + float64(j)
		}
	}

	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}

	ws := core.NewWorkspace()
	sts := make([]core.Stats, k)
	errs := make([]error, k)
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"Unprotected", core.Config{Scheme: core.Unprotected}},
		{"ABFT-Detection", core.Config{Scheme: core.ABFTDetection}},
		{"ABFT-Correction", core.Config{Scheme: core.ABFTCorrection}},
		{"PCG/ABFT-Correction", core.Config{Scheme: core.ABFTCorrection, M: m}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Tol, cfg.S, cfg.Ws = 1e-8, 4, ws
		assertZeroAllocs(t, "core.SolveBlock/"+tc.name, func() {
			if _, err := core.SolveBlock(a, bs, cfg, sts, errs); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < k; j++ {
				if errs[j] != nil || !sts[j].Converged {
					t.Fatalf("lane %d: err=%v converged=%v", j, errs[j], sts[j].Converged)
				}
			}
		})
	}
}

func TestZeroAllocPoolVecKernels(t *testing.T) {
	x := randVec(3*vec.BlockSize, 1)
	y := randVec(3*vec.BlockSize, 2)
	assertZeroAllocs(t, "vec.DotBlocked", func() { vec.DotBlocked(x, y) })
	assertZeroAllocs(t, "vec.Norm2SqBlocked", func() { vec.Norm2SqBlocked(x) })
}

// TestZeroAllocTMRVectorOps gates the one-execution element-wise updates,
// guarded and not.
func TestZeroAllocTMRVectorOps(t *testing.T) {
	n := 3 * vec.BlockSize
	x, y, dst := randVec(n, 1), randVec(n, 2), make([]float64, n)
	var e tmr.Executor
	assertZeroAllocs(t, "tmr updates", func() {
		e.Axpy(1e-9, x, y)
		e.AxpyToGuarded(0, dst, 1e-9, x, y)
		e.Xpay(0.5, x, y)
	})
	assertZeroAllocs(t, "tmr guarded updates", func() {
		e.AxpyGuarded(2, 1e-9, x, y)
		e.AxpyToGuarded(2, dst, 1e-9, x, y)
		e.XpayGuarded(1, 0.5, x, y)
	})
}
