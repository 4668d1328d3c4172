package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/checksum"
	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestOnlineDetectionCatchesMatrixCorruption checks Chen's extended scheme:
// the recomputed residual exposes a corrupted matrix even though the
// recurrence residual looks healthy, and rollback restores the matrix from
// the caller's copy.
func TestOnlineDetectionCatchesMatrixCorruption(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 900, Density: 0.01, Seed: 21})
	b, _ := rhsFor(a, 21)
	inj := fault.New(fault.Config{
		Alpha: 1.0 / 8, Seed: 9,
		// Matrix faults only.
		Disabled: []fault.Target{
			fault.TargetVecR, fault.TargetVecP, fault.TargetVecQ, fault.TargetVecX,
		},
	})
	_, st, err := Solve(a, b, Config{Scheme: OnlineDetection, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, st)
	}
	if st.Detections == 0 || st.Rollbacks == 0 {
		t.Fatalf("matrix-only faults never detected: %+v", st)
	}
	if st.FinalResidual > 1e-6 {
		t.Fatalf("residual %v", st.FinalResidual)
	}
}

// TestEscalationBreaksStuckRollbacks forces the livelock scenario: the
// checkpoint itself carries corruption that verification keeps rejecting.
// The driver must escalate to the initial state instead of spinning.
func TestEscalationBreaksStuckRollbacks(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 600, Density: 0.015, Seed: 23})
	b, _ := rhsFor(a, 23)
	// Very high fault rate: double faults per iteration are common, so
	// uncorrectable detections and corrupted-checkpoint scenarios occur.
	inj := fault.New(fault.Config{Alpha: 1.5, Seed: 13})
	_, st, _ := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-8, Injectors: []*fault.Injector{inj}, MaxIters: 4000})
	// The run may or may not converge at α = 1.5; the invariant is that it
	// terminates without exhausting the total-iteration backstop purely on
	// stuck retries, i.e. rollbacks stay bounded relative to progress.
	if st.TotalIterations == 0 {
		t.Fatal("no iterations executed")
	}
	if st.Rollbacks > st.TotalIterations {
		t.Fatalf("rollbacks (%d) exceed executed iterations (%d): livelock", st.Rollbacks, st.TotalIterations)
	}
}

// TestEscalationReplacesTheUnusableCheckpoint pins what an escalated rollback
// leaves in the rolling store. The checkpoint of iteration 8 is poisoned (a
// NaN in p, written before the save): every retry from it fails, and the
// sixth rollback escalates to the initial state. One more detection, before
// the next checkpoint is due, must then resume from that initial state — not
// from the checkpoint the engine has just judged unusable, iteration counter
// included, which costs another round of stuck retries.
func TestEscalationReplacesTheUnusableCheckpoint(t *testing.T) {
	a := sparse.Poisson2D(12, 12)
	b, _ := rhsFor(a, 5)
	ws := NewWorkspace()
	poisoned, struck := false, false
	cfg := Config{Scheme: ABFTDetection, S: 8, Tol: 1e-8, Ws: ws}
	cfg.OnIteration = func(_, it int, _ float64) {
		e := &ws.lanes[0].run
		switch {
		case !poisoned && it == 8:
			poisoned = true
			e.p[0] = math.NaN()
		case poisoned && !struck && it == 3:
			struck = true
			e.r[0] = math.NaN()
		}
	}
	_, st, err := Solve(a, b, cfg)
	if err != nil || !st.Converged {
		t.Fatalf("err %v, stats %+v", err, st)
	}
	if !struck {
		t.Fatal("the solve never came back through iteration 3: no escalation")
	}
	// stuckLimit retries from the poisoned checkpoint, the escalating
	// rollback, and the one detection after it.
	if want := int64(stuckLimit + 2); st.Rollbacks != want {
		t.Errorf("rollbacks = %d, want %d: the last one resumed from the abandoned checkpoint", st.Rollbacks, want)
	}
}

// TestOnlineDIntervalCap ensures the model never exceeds the documented
// verification-window cap for Online-Detection.
func TestOnlineDIntervalCap(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 900, Density: 0.01, Seed: 25})
	for _, alpha := range []float64{0.25, 1e-2, 1e-4, 1e-6} {
		d, s := OptimalIntervals(a, OnlineDetection, alpha, DefaultCostParams())
		if d < 1 || d > OnlineMaxD {
			t.Fatalf("alpha=%v: d=%d outside [1,%d]", alpha, d, OnlineMaxD)
		}
		if s < 1 {
			t.Fatalf("alpha=%v: s=%d", alpha, s)
		}
	}
}

// TestSchemeRankingAtTableRate pins the headline ordering at the paper's
// Table-1 fault rate on a dense-row matrix: ABFT-Correction fastest,
// Online-Detection slowest (model overheads 1.32/1.97/2.21 on #341).
func TestSchemeRankingAtTableRate(t *testing.T) {
	if testing.Short() {
		t.Skip("ranking test is slow")
	}
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 1440, Density: 0.0337, Seed: 341})
	b, _ := rhsFor(a, 341)
	mean := func(scheme Scheme) float64 {
		var total float64
		const reps = 6
		for rep := 0; rep < reps; rep++ {
			inj := fault.New(fault.Config{Alpha: 1.0 / 16, Seed: int64(1000 + rep)})
			_, st, _ := Solve(a, b, Config{Scheme: scheme, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
			total += st.SimTime
		}
		return total / reps
	}
	online := mean(OnlineDetection)
	correct := mean(ABFTCorrection)
	if correct >= online {
		t.Fatalf("ABFT-Correction (%v) not faster than Online-Detection (%v) at α=1/16", correct, online)
	}
}

// TestFinalResidualUsesPristineMatrix ensures the reported residual is
// computed against the caller's matrix, not the (possibly perturbed) live
// copy.
func TestFinalResidualUsesPristineMatrix(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 500, Density: 0.02, Seed: 27})
	b, _ := rhsFor(a, 27)
	inj := fault.New(fault.Config{Alpha: 0.1, Seed: 17})
	x, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatal(err)
	}
	rr := make([]float64, len(b))
	a.MulVec(rr, x)
	vec.Sub(rr, b, rr)
	want := vec.Norm2(rr) / vec.Norm2(b)
	if st.FinalResidual != want {
		t.Fatalf("FinalResidual %v != pristine recomputation %v", st.FinalResidual, want)
	}
}

// TestZeroRHS covers the degenerate normB == 0 path.
func TestZeroRHS(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 300, Density: 0.02, Seed: 29})
	b := make([]float64, a.Rows)
	x, st, err := Solve(a, b, Config{Scheme: ABFTDetection, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged || vec.Norm2(x) != 0 {
		t.Fatalf("zero rhs: %+v, ‖x‖=%v", st, vec.Norm2(x))
	}
}

// TestUnencodableMatrixIsATypedError: an ABFT scheme cannot protect a matrix
// whose ‖A‖₁ is not finite; every driver says so with checksum.ErrNoShift
// instead of iterating on checksums that compare with nothing. A huge but
// finite operand is solved like any other.
func TestUnencodableMatrixIsATypedError(t *testing.T) {
	bad := sparse.Dense(2, 2, []float64{1e308, 0, 1e308, 1})
	b := []float64{1, 1}
	for _, scheme := range []Scheme{ABFTDetection, ABFTCorrection} {
		cfg := Config{Scheme: scheme}
		if _, _, err := Solve(bad, b, cfg); !errors.Is(err, checksum.ErrNoShift) {
			t.Errorf("Solve %v: err = %v", scheme, err)
		}
		cfg.M = bad
		if _, _, err := Solve(sparse.Dense(2, 2, []float64{2, 0, 0, 2}), b, cfg); !errors.Is(err, checksum.ErrNoShift) {
			t.Errorf("Solve %v with an unencodable M: err = %v", scheme, err)
		}
		if _, _, err := Solve(bad, b, Config{Recurrence: BiCGstab, Scheme: scheme}); !errors.Is(err, checksum.ErrNoShift) {
			t.Errorf("BiCGstab %v: err = %v", scheme, err)
		}
		if _, err := SolveBlock(bad, [][]float64{b, b}, Config{Scheme: scheme}, make([]Stats, 2), make([]error, 2)); !errors.Is(err, checksum.ErrNoShift) {
			t.Errorf("SolveBlock %v: err = %v", scheme, err)
		}
		x, st, err := Solve(sparse.Dense(1, 1, []float64{1e20}), []float64{3e20}, Config{Scheme: scheme})
		if err != nil || !st.Converged || math.Abs(x[0]-3) > 1e-12 {
			t.Errorf("%v on [1e20]: x = %v, %+v, %v", scheme, x, st, err)
		}
	}
}

// TestCostsReachEveryLane: Config.Costs prices every system of a block, a
// fault-free one on the shared matrices and an injected one on its own, as
// it prices the block of one on that system — and prices it differently from
// the defaults.
func TestCostsReachEveryLane(t *testing.T) {
	a, _, _ := testMatrix(200, 3)
	const k = 3
	bs := make([][]float64, k)
	for j := range bs {
		bs[j], _ = rhsFor(a, int64(50+j))
	}
	injector := func(j int) *fault.Injector {
		if j != 1 {
			return nil
		}
		return fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 13})
	}
	cp := DefaultCostParams()
	cp.FlopTime *= 3
	cp.WordTime /= 2
	cfg := Config{Scheme: ABFTCorrection, Tol: 1e-8, Costs: cp, Injectors: make([]*fault.Injector, k)}
	for j := range bs {
		cfg.Injectors[j] = injector(j)
	}
	sts, errs := make([]Stats, k), make([]error, k)
	if _, err := SolveBlock(a, bs, cfg, sts, errs); err != nil {
		t.Fatal(err)
	}
	for j, b := range bs {
		one := Config{Scheme: ABFTCorrection, Tol: 1e-8, Costs: cp, Injectors: []*fault.Injector{injector(j)}}
		_, st, err := Solve(a, b, one)
		if errs[j] != nil || err != nil || sts[j] != st {
			t.Errorf("system %d: %+v, %v; the block of one: %+v, %v", j, sts[j], errs[j], st, err)
		}
		one.Costs, one.Injectors = CostParams{}, []*fault.Injector{injector(j)}
		if _, def, _ := Solve(a, b, one); def.SimTime == st.SimTime {
			t.Errorf("system %d: SimTime %g under the custom costs and under the defaults", j, st.SimTime)
		}
	}
	if sts[1].FaultsInjected == 0 {
		t.Error("the injected system drew no fault")
	}
}
