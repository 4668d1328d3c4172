package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/vec"
)

func pcgFixture(t *testing.T, n int, seed int64) (*sparse.CSR, *sparse.CSR, []float64, []float64) {
	t.Helper()
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: n, Density: 0.01, Seed: seed})
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	b, xTrue := rhsFor(a, seed)
	return a, m, b, xTrue
}

func TestPCGFaultFreeMatchesPlain(t *testing.T) {
	a, m, b, xTrue := pcgFixture(t, 900, 1)
	ref := solver.CG(a, m, b, 1e-10, 10*a.Rows)
	for _, scheme := range Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			x, st, err := Solve(a, b, Config{Scheme: scheme, M: m, Tol: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			if !st.Converged || st.Detections != 0 {
				t.Fatalf("fault-free PCG: %+v", st)
			}
			if d := vec.MaxAbsDiff(x, xTrue); d > 1e-5*(1+vec.NormInf(xTrue)) {
				t.Fatalf("solution error %v", d)
			}
			if diff := st.UsefulIterations - ref.Iterations; diff < -1 || diff > 1 {
				t.Fatalf("iterations %d vs plain PCG %d", st.UsefulIterations, ref.Iterations)
			}
		})
	}
}

func TestPCGConvergesUnderFaults(t *testing.T) {
	for _, scheme := range Schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			a, m, b, xTrue := pcgFixture(t, 900, 2)
			inj := fault.New(fault.Config{Alpha: 1.0 / 16, Seed: 31})
			x, st, err := Solve(a, b, Config{Scheme: scheme, M: m, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
			if err != nil {
				t.Fatalf("%v (stats %+v)", err, st)
			}
			if st.FaultsInjected == 0 {
				t.Fatal("vacuous: no faults injected")
			}
			if st.FinalResidual > 1e-6 {
				t.Fatalf("residual %v", st.FinalResidual)
			}
			if d := vec.MaxAbsDiff(x, xTrue); d > 1e-3*(1+vec.NormInf(xTrue)) {
				t.Fatalf("solution error %v", d)
			}
		})
	}
}

func TestPCGPreconditionerFaultsAreHandled(t *testing.T) {
	// Restrict the injector to M's arrays only: the second protected
	// product must absorb all of them (correction or rollback).
	a, m, b, _ := pcgFixture(t, 900, 3)
	inj := fault.New(fault.Config{
		Alpha: 1.0 / 8, Seed: 41,
		Disabled: []fault.Target{
			fault.TargetVal, fault.TargetColid, fault.TargetRowidx,
			fault.TargetVecR, fault.TargetVecP, fault.TargetVecQ,
			fault.TargetVecX, fault.TargetVecZ,
		},
	})
	_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, M: m, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, st)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("vacuous: no preconditioner faults")
	}
	if st.Detections == 0 {
		t.Fatal("no preconditioner fault was ever detected — protection inactive?")
	}
	if st.FinalResidual > 1e-6 {
		t.Fatalf("residual %v", st.FinalResidual)
	}
}

func TestPCGWithNeumannPreconditioner(t *testing.T) {
	a := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: 900, Density: 0.01, Seed: 5})
	m, err := precond.Neumann(a)
	if err != nil {
		t.Fatal(err)
	}
	b, xTrue := rhsFor(a, 5)
	inj := fault.New(fault.Config{Alpha: 0.02, Seed: 51})
	x, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, M: m, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, st)
	}
	if d := vec.MaxAbsDiff(x, xTrue); d > 1e-3*(1+vec.NormInf(xTrue)) {
		t.Fatalf("solution error %v", d)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
}

func TestPCGValidation(t *testing.T) {
	a, m, b, _ := pcgFixture(t, 400, 7)
	if _, _, err := Solve(a, b[:10], Config{Scheme: ABFTCorrection, M: m}); err == nil {
		t.Fatal("expected dimension error")
	}
	if _, _, err := Solve(a, b, Config{Recurrence: BiCGstab, Scheme: ABFTCorrection, M: m}); err == nil {
		t.Fatal("expected BiCGstab to reject a preconditioner")
	}
	bad := sparse.Tridiag(3, 2, -1)
	if _, _, err := Solve(a, b, Config{Scheme: ABFTCorrection, M: bad}); err == nil {
		t.Fatal("expected preconditioner shape error")
	}
}

func TestPCGDeterministic(t *testing.T) {
	a, m, b, _ := pcgFixture(t, 600, 8)
	run := func() Stats {
		inj := fault.New(fault.Config{Alpha: 0.05, Seed: 61})
		_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection, M: m, Tol: 1e-8, Injectors: []*fault.Injector{inj}})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	s1, s2 := run(), run()
	if s1.SimTime != s2.SimTime || s1.Corrections != s2.Corrections {
		t.Fatalf("non-deterministic PCG: %+v vs %+v", s1, s2)
	}
}
