// Package solver implements the unprotected baseline iterative solvers:
// Conjugate Gradient (the paper's Algorithm 1), CG with an explicit sparse
// preconditioner, their blocked multi-RHS form and BiCGstab. The paper's
// resilience techniques target "any iterative solver that uses sparse
// matrix vector multiplies and vector operations" — CGNE, BiCG, BiCGstab
// and preconditioned variants are named explicitly — so the baselines
// beyond CG both ground that claim and serve as the fault-free reference
// oracle for the resilient recurrences in internal/core.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// ErrNotConverged is wrapped by solvers that hit their iteration budget.
var ErrNotConverged = errors.New("solver: not converged")

// Options configures a solve.
type Options struct {
	// Tol is the relative residual tolerance: stop when ‖r‖ ≤ Tol·‖b‖.
	Tol float64
	// MaxIter caps the iterations; 0 means 10·n.
	MaxIter int
	// OnIteration, when non-nil, streams the per-iteration recurrence
	// residual norm: it is called with the 1-based iteration index before
	// the convergence test of that iteration. It performs no allocation,
	// so a workspace-carrying warm solve that fingerprints its trajectory
	// stays allocation-free. Honoured by CG, PCGWith and BiCGstab.
	OnIteration func(it int, res float64)
	// Ws, when non-nil, supplies the iteration vectors from a reusable
	// workspace: a warm workspace makes the whole solve allocation-free.
	// Result.X then aliases workspace memory — copy it out before reuse.
	Ws *Workspace
}

func (o Options) withDefaults(n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
	}
	return o
}

// Result reports the outcome of a solve.
type Result struct {
	X          []float64
	Iterations int
	Converged  bool
	// Residual is the final true residual norm ‖b − Ax‖ (recomputed, not
	// the recurrence value).
	Residual float64
}

// CG solves Ax = b for symmetric positive definite A using the Conjugate
// Gradient method (paper Algorithm 1).
func CG(a *sparse.CSR, b []float64, opt Options) (Result, error) {
	return pcg("CG", a, nil, b, opt)
}

// PCGWith solves Ax = b with an explicit sparse preconditioner M ≈ A⁻¹
// applied as z = M·r each iteration. It is the unprotected reference for
// the resilient PCG recurrence, which protects exactly such an explicit M
// (Jacobi or approximate inverse, see internal/precond), so overheads
// compare like against like for any preconditioner.
func PCGWith(a, m *sparse.CSR, b []float64, opt Options) (Result, error) {
	if m == nil || m.Rows != a.Rows || m.Cols != a.Rows {
		return Result{}, fmt.Errorf("solver: PCG needs an n×n preconditioner")
	}
	return pcg("PCG", a, m, b, opt)
}

// resNorm is the recurrence residual norm the loop reports and tests: √ρ =
// √(rᵀr) for plain CG, the scaled 2-norm under a preconditioner (the two
// differ in the last bits, and the residual hashes pin each).
func resNorm(m *sparse.CSR, rho float64, r []float64) float64 {
	if m == nil {
		return math.Sqrt(rho)
	}
	return vec.Norm2(r)
}

// pcg is the preconditioned CG loop; CG is the case m == nil, where z
// aliases r.
func pcg(name string, a, m *sparse.CSR, b []float64, opt Options) (Result, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return Result{}, fmt.Errorf("solver: %s dimension mismatch: A %dx%d, len(b)=%d", name, a.Rows, a.Cols, len(b))
	}
	opt = opt.withDefaults(n)
	ws := opt.Ws.begin()

	x := ws.takeZero(n)
	r := ws.take(n)
	q := ws.take(n)
	// r0 = b − A x0, x0 = 0
	a.MulVec(q, x)
	vec.Sub(r, b, q)
	z := r
	if m != nil {
		z = ws.take(n)
		m.MulVec(z, r)
	}
	p := ws.take(n)
	copy(p, z)

	normB := vec.Norm2(b)
	if normB == 0 {
		normB = 1
	}
	rho := vec.Dot(r, z)
	res := Result{X: x}

	for it := 0; it < opt.MaxIter; it++ {
		rNorm := resNorm(m, rho, r)
		if opt.OnIteration != nil {
			opt.OnIteration(it+1, rNorm)
		}
		if rNorm <= opt.Tol*normB {
			res.Iterations = it
			res.Converged = true
			res.Residual = trueResidualInto(q, a, x, b)
			return res, nil
		}
		a.MulVec(q, p)
		pq := vec.Dot(p, q)
		if pq <= 0 || math.IsNaN(pq) {
			return res, fmt.Errorf("solver: %s breakdown at iteration %d (pᵀAp = %v): matrix not SPD?", name, it, pq)
		}
		alpha := rho / pq
		vec.Axpy(alpha, p, x)
		vec.Axpy(-alpha, q, r)
		if m != nil {
			m.MulVec(z, r)
		}
		rhoNew := vec.Dot(r, z)
		beta := rhoNew / rho
		vec.Xpay(beta, z, p) // p ← z + β p
		rho = rhoNew
		res.Iterations = it + 1
	}
	res.Residual = trueResidualInto(q, a, x, b)
	rNorm := resNorm(m, rho, r)
	res.Converged = rNorm <= opt.Tol*normB
	if !res.Converged {
		return res, fmt.Errorf("%w: %s after %d iterations, ‖r‖/‖b‖ = %.3e",
			ErrNotConverged, name, res.Iterations, rNorm/normB)
	}
	return res, nil
}

// trueResidualInto recomputes ‖b − Ax‖ using t as scratch (any length-n
// buffer whose contents are dead, typically q).
func trueResidualInto(t []float64, a *sparse.CSR, x, b []float64) float64 {
	a.MulVec(t, x)
	vec.Sub(t, b, t)
	return vec.Norm2(t)
}
