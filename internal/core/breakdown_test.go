package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/precond"
	"repro/internal/sparse"
)

// scaled returns f·A and a right-hand side b = (f·A)·x for a fixed x.
func scaled(a *sparse.CSR, f float64) (*sparse.CSR, []float64) {
	s := a.Clone()
	for i := range s.Val {
		s.Val[i] *= f
	}
	x := make([]float64, s.Rows)
	for i := range x {
		x[i] = math.Sin(float64(i + 1))
	}
	b := make([]float64, s.Rows)
	s.MulVec(b, x)
	return s, b
}

// solveAs runs one solver × scheme cell.
func solveAs(solver string, a *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	switch solver {
	case "bicgstab":
		cfg.Recurrence = BiCGstab
	case "pcg":
		m, err := precond.Jacobi(a)
		if err != nil {
			return nil, Stats{}, err
		}
		cfg.M = m
	}
	return Solve(a, b, cfg)
}

// breakdownSchemes is every scheme a breakdown must end under.
var breakdownSchemes = []Scheme{OnlineDetection, ABFTDetection, ABFTCorrection, Unprotected}

// breakdownIterations bounds the total iterations of every breakdown cell:
// a breakdown ends in at most a dozen, and a cell that converges takes 69
// (32×32 Poisson, fault-free), against the 10·MaxIters + 1000 = 205 800 a
// rollback loop may spend at n = 1024.
const breakdownIterations = 100

// TestUnexplainedBreakdownIsATypedError: an operand that breaks the method
// down by itself — not positive definite, or of a magnitude whose products
// leave the floating-point range — used to roll back 10·MaxIters + 1000 times
// (−L at n = 1024: 3 s, at n = 4096: 46 s of a solver slot), and a tiny one
// was answered "converged" with x = 0. Every solver × scheme cell now answers
// at once — within breakdownIterations, work a clock cannot misjudge on a
// loaded machine — with a typed error, or a solution that verifies.
func TestUnexplainedBreakdownIsATypedError(t *testing.T) {
	lap := sparse.Poisson2D(32, 32)
	for _, f := range []float64{-1, 1e160, 1e-170} {
		a, b := scaled(lap, f)
		for _, solver := range []string{"cg", "pcg", "bicgstab"} {
			for _, scheme := range breakdownSchemes {
				if solver == "bicgstab" && scheme == OnlineDetection {
					continue
				}
				t.Run(fmt.Sprintf("%g·L/%s/%v", f, solver, scheme), func(t *testing.T) {
					_, st, err := solveAs(solver, a, b, Config{Scheme: scheme})
					if st.TotalIterations > breakdownIterations {
						t.Errorf("%d total iterations, bound %d", st.TotalIterations, breakdownIterations)
					}
					switch {
					case err == nil:
						if !st.Converged || !(st.FinalResidual <= 1e-6) {
							t.Errorf("no error, yet no verified solution: %+v", st)
						}
					case !errors.Is(err, ErrBreakdown) && !errors.Is(err, ErrScale):
						t.Errorf("untyped error: %v", err)
					}
				})
			}
		}
	}
}

// TestBreakdownNamesTheScalarAndStopsEarly pins the issue's sizing case: −L at
// n = 4096 under ABFT-Correction ends after a handful of iterations — the
// retries from the checkpoint, the escalation, the retries from the rebuilt
// state — with the scalar in the message.
func TestBreakdownNamesTheScalarAndStopsEarly(t *testing.T) {
	a, b := scaled(sparse.Poisson2D(64, 64), -1)
	_, st, err := Solve(a, b, Config{Scheme: ABFTCorrection})
	if !errors.Is(err, ErrBreakdown) || !strings.Contains(err.Error(), "pᵀAp = -") || !strings.Contains(err.Error(), "not SPD") {
		t.Fatalf("err = %v", err)
	}
	if st.TotalIterations >= 50 || st.Converged {
		t.Fatalf("%d total iterations, converged=%v", st.TotalIterations, st.Converged)
	}
}

// TestBreakdownAfterAFlipStillRollsBack: the typed error is for a breakdown
// no fault can explain. Under injection a breakdown is first a detection like
// any other, and a solve of a sound operand recovers from it as before.
func TestBreakdownAfterAFlipStillRollsBack(t *testing.T) {
	a, b, _ := testMatrix(150, 3)
	for seed := int64(1); seed <= 8; seed++ {
		inj := fault.New(fault.Config{Alpha: 0.25, Seed: seed})
		_, st, err := Solve(a, b, Config{Scheme: ABFTDetection, Injectors: []*fault.Injector{inj}})
		if err != nil || !st.Converged {
			t.Fatalf("seed %d: %+v, %v", seed, st, err)
		}
	}
	// The same operand negated breaks down whatever the injector does, and
	// the solve still ends long before the rollback budget.
	neg, nb := scaled(a, -1)
	inj := fault.New(fault.Config{Alpha: 0.25, Seed: 1})
	_, st, err := Solve(neg, nb, Config{Scheme: ABFTDetection, Injectors: []*fault.Injector{inj}})
	if !errors.Is(err, ErrBreakdown) || st.TotalIterations > 1000 {
		t.Fatalf("negated under injection: %d total iterations, err = %v", st.TotalIterations, err)
	}
}

// TestRightHandSideOutOfRange: the guard reads ‖b‖ only, so a zero b is still
// the trivial solve and a representable one of any magnitude goes through.
func TestRightHandSideOutOfRange(t *testing.T) {
	a := sparse.Poisson2D(8, 8)
	fill := func(v float64) []float64 {
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = v
		}
		return b
	}
	for _, v := range []float64{1e-170, 1e160, math.Inf(1), math.NaN()} {
		for _, scheme := range breakdownSchemes {
			if _, _, err := Solve(a, fill(v), Config{Scheme: scheme}); !errors.Is(err, ErrScale) {
				t.Errorf("b = %g under %v: err = %v, want ErrScale", v, scheme, err)
			}
		}
	}
	for _, v := range []float64{0, 1e-150, 1e150} {
		for _, scheme := range breakdownSchemes {
			if _, st, err := Solve(a, fill(v), Config{Scheme: scheme}); err != nil || !st.Converged {
				t.Errorf("b = %g under %v: %+v, %v", v, scheme, st, err)
			}
		}
	}
}

// TestVerificationTheProblemFailsEndsTheSolve: Chen's orthogonality test
// cannot pass on a matrix that is not symmetric, so Online-Detection used to
// roll back 10·MaxIters + 1000 times without one useful iteration (2 s at
// n = 1024). The second escalation with no flip in between ends the solve.
func TestVerificationTheProblemFailsEndsTheSolve(t *testing.T) {
	base := sparse.Poisson2D(32, 32)
	c := sparse.NewCOO(base.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		for k := base.Rowidx[i]; k < base.Rowidx[i+1]; k++ {
			c.Add(i, base.Colid[k], base.Val[k])
		}
		if i+1 < base.Rows {
			c.Add(i, i+1, 0.9)
			c.Add(i+1, i, -0.9)
		}
	}
	a, b := scaled(c.ToCSR(), 1)
	for _, solver := range []string{"cg", "pcg"} {
		_, st, err := solveAs(solver, a, b, Config{Scheme: OnlineDetection})
		if !errors.Is(err, ErrBreakdown) || st.TotalIterations > 100 {
			t.Errorf("%s: %d total iterations, err = %v", solver, st.TotalIterations, err)
		}
	}
}
