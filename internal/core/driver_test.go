package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func testMatrix(n int, seed int64) (*sparse.CSR, []float64, []float64) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: n, Density: 0.05, DiagShift: 0.3, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 99))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MulVec(b, xTrue)
	return a, b, xTrue
}

func TestFaultFreeMatchesPlainCG(t *testing.T) {
	a, b, xTrue := testMatrix(200, 1)
	ref := solver.CG(a, nil, b, 1e-10, 10*a.Rows)
	for _, scheme := range Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			x, st, err := Solve(a, b, Config{Scheme: scheme, Tol: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged {
				t.Fatal("not converged")
			}
			if st.Rollbacks != 0 || st.Detections != 0 {
				t.Fatalf("fault-free run had detections: %+v", st)
			}
			if d := vec.MaxAbsDiff(x, xTrue); d > 1e-5*(1+vec.NormInf(xTrue)) {
				t.Fatalf("solution error %v", d)
			}
			// Same iteration count as plain CG (the protection must not
			// change the numerics; TMR votes are bit-identical).
			if diff := st.UsefulIterations - ref.Iterations; diff < -1 || diff > 1 {
				t.Fatalf("iterations %d vs plain CG %d", st.UsefulIterations, ref.Iterations)
			}
		})
	}
}

func TestCallerMatrixNotModified(t *testing.T) {
	a, b, _ := testMatrix(100, 2)
	pristine := a.Clone()
	inj := fault.New(fault.Config{Alpha: 0.2, Seed: 7})
	_, _, _ = Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
	if !a.Equal(pristine) {
		t.Fatal("Solve corrupted the caller's matrix")
	}
}

func TestConvergesUnderFaults(t *testing.T) {
	// α = 1/16 is the paper's Table-1 fault rate: one expected fault every
	// 16 iterations.
	for _, scheme := range Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			a, b, xTrue := testMatrix(250, 3)
			inj := fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 11})
			x, st, err := Solve(a, b, Config{Scheme: scheme, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
			if err != nil {
				t.Fatalf("err: %v (stats %+v)", err, st)
			}
			if !st.Converged {
				t.Fatal("not converged under faults")
			}
			if st.FinalResidual > 1e-7 {
				t.Fatalf("final residual %v too large", st.FinalResidual)
			}
			if d := vec.MaxAbsDiff(x, xTrue); d > 1e-4*(1+vec.NormInf(xTrue)) {
				t.Fatalf("solution error %v", d)
			}
			if st.FaultsInjected == 0 {
				t.Fatal("no faults were injected — test is vacuous")
			}
		})
	}
}

func TestABFTCorrectionAvoidsRollbacks(t *testing.T) {
	// The headline claim: at moderate fault rates ABFT-Correction fixes
	// single errors forward, so it rolls back much less than
	// ABFT-Detection on the same fault sequence. Uses a PDE-like matrix so
	// the run is long enough to collect a meaningful number of faults.
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 1600, Density: 0.01, Seed: 4})
	b, _ := rhsFor(a, 4)
	run := func(scheme Scheme) Stats {
		inj := fault.New(fault.Config{Alpha: 1.0 / 8, Seed: 21})
		_, st, err := Solve(a, b, Config{Scheme: scheme, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		return st
	}
	det := run(ABFTDetection)
	cor := run(ABFTCorrection)
	if cor.Corrections == 0 {
		t.Fatalf("ABFT-Correction made no forward corrections: %+v", cor)
	}
	if det.Rollbacks == 0 {
		t.Fatalf("ABFT-Detection never rolled back: %+v", det)
	}
	if cor.Rollbacks >= det.Rollbacks {
		t.Fatalf("correction rollbacks (%d) not below detection rollbacks (%d)",
			cor.Rollbacks, det.Rollbacks)
	}
	// And the avoided rollbacks translate into less re-executed work.
	if cor.TotalIterations >= det.TotalIterations {
		t.Fatalf("correction re-executed as much as detection: %d vs %d",
			cor.TotalIterations, det.TotalIterations)
	}
}

func rhsFor(a *sparse.CSR, seed int64) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(seed + 99))
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return b, xTrue
}

func TestOnlineDetectionLosesWholeChunks(t *testing.T) {
	// Online-Detection detects at chunk ends, so re-executed work (total −
	// useful) should be non-trivial when faults strike.
	a, b, _ := testMatrix(250, 5)
	inj := fault.New(fault.Config{Alpha: 1.0 / 8, Seed: 31})
	_, st, err := Solve(a, b, Config{Scheme: OnlineDetection, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, st)
	}
	if st.Rollbacks == 0 {
		t.Fatal("no rollbacks at α = 1/8 — suspicious")
	}
	if st.TotalIterations <= int64(st.UsefulIterations) {
		t.Fatal("no re-executed work recorded")
	}
}

func TestModelOptimalIntervalsUsed(t *testing.T) {
	a, b, _ := testMatrix(150, 6)
	inj := fault.New(fault.Config{Alpha: 0.05, Seed: 41})
	_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatal(err)
	}
	if st.S < 1 || st.D != 1 {
		t.Fatalf("intervals d=%d s=%d", st.D, st.S)
	}
	wantD, wantS := OptimalIntervals(a, ABFTCorrection, 0.05, DefaultCostParams())
	if st.S != wantS || st.D != wantD {
		t.Fatalf("used (d=%d,s=%d), model says (d=%d,s=%d)", st.D, st.S, wantD, wantS)
	}
}

func TestExplicitIntervalsRespected(t *testing.T) {
	a, b, _ := testMatrix(100, 7)
	_, st, err := Solve(a, b, Config{Scheme: OnlineDetection, D: 5, S: 3, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if st.D != 5 || st.S != 3 {
		t.Fatalf("intervals not respected: %+v", st)
	}
}

func TestCheckpointsHappen(t *testing.T) {
	a, b, _ := testMatrix(150, 8)
	_, st, err := Solve(a, b, Config{Scheme: ABFTDetection, S: 5, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints with s=5 over a long solve")
	}
	// Roughly one checkpoint every 5 iterations.
	approx := int64(st.UsefulIterations / 5)
	if st.Checkpoints < approx-2 || st.Checkpoints > approx+2 {
		t.Fatalf("checkpoints %d, expected ≈ %d", st.Checkpoints, approx)
	}
}

func TestSimTimeBreakdownConsistent(t *testing.T) {
	a, b, _ := testMatrix(150, 9)
	inj := fault.New(fault.Config{Alpha: 0.1, Seed: 51})
	_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.TimeIter + st.TimeVerif + st.TimeCkpt + st.TimeRecovery
	if st.SimTime < sum || st.SimTime > sum*1.2 {
		t.Fatalf("SimTime %v vs breakdown sum %v", st.SimTime, sum)
	}
	if st.TimeIter <= 0 || st.TimeVerif <= 0 {
		t.Fatalf("missing breakdown components: %+v", st)
	}
}

func TestHigherFaultRateCostsMore(t *testing.T) {
	a, b, _ := testMatrix(200, 10)
	run := func(alpha float64) float64 {
		inj := fault.New(fault.Config{Alpha: alpha, Seed: 61})
		_, st, err := Solve(a, b, Config{Scheme: ABFTDetection, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		return st.SimTime
	}
	low := run(0.001)
	high := run(0.25)
	if high <= low {
		t.Fatalf("more faults should cost more time: %v vs %v", high, low)
	}
}

func TestDimensionMismatch(t *testing.T) {
	a := sparse.Poisson2D(4, 4)
	if _, _, err := Solve(a, make([]float64, 3), Config{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMaxItersAbort(t *testing.T) {
	a, b, _ := testMatrix(100, 11)
	_, st, err := Solve(a, b, Config{Scheme: ABFTDetection, Tol: 1e-14, MaxIters: 3})
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
	if st.Converged {
		t.Fatal("cannot be converged")
	}
}

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		OnlineDetection: "Online-Detection",
		ABFTDetection:   "ABFT-Detection",
		ABFTCorrection:  "ABFT-Correction",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("%d: %q", s, s.String())
		}
	}
}

func TestCostsSane(t *testing.T) {
	// ~40 nonzeros per row, like the paper's UFL matrices (their #341 has
	// ≈50/row). The ABFT-cheaper-than-Chen claim is a dense-enough-rows
	// claim: Chen's verification recomputes the residual (O(nnz)) while the
	// ABFT tests are O(n).
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 500, Density: 0.08, DiagShift: 1, Seed: 12})
	cp := DefaultCostParams()
	online := NewCosts(a, OnlineDetection, cp)
	det := NewCosts(a, ABFTDetection, cp)
	cor := NewCosts(a, ABFTCorrection, cp)

	if det.Tverif >= online.Tverif {
		t.Fatalf("ABFT verif %v should be below online verif %v", det.Tverif, online.Tverif)
	}
	// And correction costs more than detection.
	if cor.Tverif <= det.Tverif {
		t.Fatalf("correction verif %v should exceed detection verif %v", cor.Tverif, det.Tverif)
	}
	// All methods share the same checkpoint cost (paper Section 3.1).
	if online.Tcp != det.Tcp || det.Tcp != cor.Tcp {
		t.Fatal("checkpoint costs must be identical across methods")
	}
	if setupCost(a, OnlineDetection, cp) != 0 {
		t.Fatal("online detection has no checksum setup")
	}
	if setupCost(a, ABFTCorrection, cp) <= 0 {
		t.Fatal("ABFT setup must cost something")
	}
}

func TestOptimalIntervalsScaleWithFaultRate(t *testing.T) {
	a := sparse.RandomSPD(sparse.RandomSPDOptions{N: 400, Density: 0.02, DiagShift: 1, Seed: 13})
	_, sHigh := OptimalIntervals(a, ABFTDetection, 0.25, DefaultCostParams())
	_, sLow := OptimalIntervals(a, ABFTDetection, 0.001, DefaultCostParams())
	if sLow <= sHigh {
		t.Fatalf("rarer faults must allow longer frames: s(0.001)=%d vs s(0.25)=%d", sLow, sHigh)
	}
	_, sCorr := OptimalIntervals(a, ABFTCorrection, 0.25, DefaultCostParams())
	if sCorr < sHigh {
		t.Fatalf("correction should checkpoint no more often: %d vs %d", sCorr, sHigh)
	}
}

func TestReproducibleWithSameSeed(t *testing.T) {
	a, b, _ := testMatrix(150, 14)
	run := func() Stats {
		inj := fault.New(fault.Config{Alpha: 0.1, Seed: 71})
		_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s1, s2 := run(), run()
	if s1.SimTime != s2.SimTime || s1.TotalIterations != s2.TotalIterations ||
		s1.Corrections != s2.Corrections || s1.Rollbacks != s2.Rollbacks {
		t.Fatalf("non-deterministic: %+v vs %+v", s1, s2)
	}
}

func TestSolutionCorrectDespiteExtremeFaults(t *testing.T) {
	// Very high fault rate: one expected fault per iteration. The solver
	// may be slow but must not return a wrong answer silently.
	a, b, xTrue := testMatrix(150, 15)
	inj := fault.New(fault.Config{Alpha: 0.5, Seed: 81})
	x, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}, MaxIters: 20000})
	if err != nil {
		t.Skipf("did not converge at extreme rate (acceptable): %v", err)
	}
	if st.FinalResidual > 1e-6 {
		t.Fatalf("converged with bad residual %v", st.FinalResidual)
	}
	if d := vec.MaxAbsDiff(x, xTrue); d > 1e-3*(1+vec.NormInf(xTrue)) {
		t.Fatalf("solution error %v under extreme faults", d)
	}
	if math.IsNaN(vec.Norm2(x)) {
		t.Fatal("NaN solution returned")
	}
}
