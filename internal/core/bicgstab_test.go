package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// nonsym builds a convection–diffusion style nonsymmetric matrix.
func nonsym(n int) *sparse.CSR {
	base := sparse.SuiteSPD(sparse.SuiteSPDOptions{N: n, Density: 0.008, Seed: 33})
	c := sparse.NewCOO(n, n)
	for i := 0; i < base.Rows; i++ {
		for k := base.Rowidx[i]; k < base.Rowidx[i+1]; k++ {
			c.Add(i, base.Colid[k], base.Val[k])
		}
		if i+1 < n {
			c.Add(i, i+1, 0.2)
			c.Add(i+1, i, -0.2)
		}
	}
	return c.ToCSR()
}

func TestBiCGstabFaultFree(t *testing.T) {
	a := nonsym(800)
	b, xTrue := rhsFor(a, 33)
	for _, scheme := range []Scheme{ABFTDetection, ABFTCorrection} {
		t.Run(scheme.String(), func(t *testing.T) {
			x, st, err := Solve(a, b, Config{Recurrence: BiCGstab, Scheme: scheme, Tol: 1e-9})
			if err != nil {
				t.Fatalf("%v (stats %+v)", err, st)
			}
			if !st.Converged || st.Detections != 0 {
				t.Fatalf("fault-free: %+v", st)
			}
			if d := vec.MaxAbsDiff(x, xTrue); d > 1e-4*(1+vec.NormInf(xTrue)) {
				t.Fatalf("solution error %v", d)
			}
		})
	}
}

func TestBiCGstabUnderFaults(t *testing.T) {
	a := nonsym(800)
	b, xTrue := rhsFor(a, 35)
	inj := fault.New(fault.Config{Alpha: 1.0 / 32, Seed: 71})
	x, st, err := Solve(a, b, Config{Recurrence: BiCGstab, Scheme: ABFTCorrection, Tol: 1e-9, Injectors: []*fault.Injector{inj}})
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
}

func TestBiCGstabRejectsOnline(t *testing.T) {
	a := nonsym(100)
	b, _ := rhsFor(a, 37)
	if _, _, err := Solve(a, b, Config{Recurrence: BiCGstab, Scheme: OnlineDetection}); err == nil {
		t.Fatal("OnlineDetection must be rejected for BiCGstab")
	}
}

func TestBiCGstabDimensionMismatch(t *testing.T) {
	a := nonsym(100)
	if _, _, err := Solve(a, make([]float64, 5), Config{Recurrence: BiCGstab, Scheme: ABFTCorrection}); err == nil {
		t.Fatal("expected dimension error")
	}
}
