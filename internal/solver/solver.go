// Package solver is the reference the engine is judged against, nothing else:
// textbook CG (the paper's Algorithm 1, optionally preconditioned) and BiCGstab
// as plain loops over the three CSR arrays, sharing no arithmetic with
// internal/core — no vec, no sparse product, no workspace, no hooks. Every solve
// the repository reports runs on core's engine, the unprotected baseline
// included; only tests call this package, and a root test keeps it so.
package solver

import (
	"math"

	"repro/internal/sparse"
)

// Result is the iterate a solve ended on, after how many iterations, and whether
// ‖r‖ ≤ tol·‖b‖ was reached (false past maxIter and after a breakdown).
type Result struct {
	X          []float64
	Iterations int
	Converged  bool
}

// Workspace is empty; it stays while bench/ fills harness.Workspaces.Solver.
type Workspace struct{}

func NewWorkspace() *Workspace { return &Workspace{} }

func mul(a *sparse.CSR, y, x []float64) {
	for i := range y {
		y[i] = 0
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			y[i] += a.Val[k] * x[a.Colid[k]]
		}
	}
}

func dot(a, b []float64) (s float64) {
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

// begin returns x0 = 0, r0 = b and the threshold tol·‖b‖.
func begin(a *sparse.CSR, b []float64, tol float64) (x, r []float64, limit float64) {
	if a.Cols != a.Rows || len(b) != a.Rows {
		panic("solver: dimension mismatch")
	}
	return make([]float64, len(b)), append([]float64(nil), b...), tol * norm(b)
}

// CG solves Ax = b for symmetric positive definite A, preconditioned by
// z = M·r for an explicit sparse M ≈ A⁻¹ when m is not nil.
func CG(a, m *sparse.CSR, b []float64, tol float64, maxIter int) Result {
	x, r, limit := begin(a, b, tol)
	z := r
	if m != nil {
		z = make([]float64, len(r))
		mul(m, z, r)
	}
	p, q, rho := append([]float64(nil), z...), make([]float64, len(r)), dot(r, z)
	for it := 0; ; it++ {
		if done := norm(r) <= limit; done || it == maxIter {
			return Result{x, it, done}
		}
		mul(a, q, p)
		pq := dot(p, q)
		if !(pq > 0) { // breakdown: the matrix is not SPD
			return Result{x, it, false}
		}
		alpha := rho / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		if m != nil {
			mul(m, z, r)
		}
		rhoNew := dot(r, z)
		for i := range p {
			p[i] = z[i] + rhoNew/rho*p[i]
		}
		rho = rhoNew
	}
}

// BiCGstab solves Ax = b for general A.
func BiCGstab(a *sparse.CSR, b []float64, tol float64, maxIter int) Result {
	x, r, limit := begin(a, b, tol)
	rHat, buf, n := append([]float64(nil), r...), make([]float64, 4*len(r)), len(r)
	p, v, s, t := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	rho, alpha, omega := 1.0, 1.0, 1.0
	for it := 0; ; it++ {
		if done := norm(r) <= limit; done || it == maxIter {
			return Result{x, it, done}
		}
		rhoNew := dot(rHat, r) // a breakdown (ρ = 0, ω = 0) runs out the budget on NaNs
		beta := rhoNew / rho * (alpha / omega)
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		mul(a, v, p)
		rho, alpha = rhoNew, rhoNew/dot(rHat, v)
		for i := range s {
			s[i] = r[i] - alpha*v[i]
			x[i] += alpha * p[i]
		}
		if norm(s) <= limit { // converged on the half step
			return Result{x, it + 1, true}
		}
		mul(a, t, s)
		omega = dot(t, s) / dot(t, t)
		for i := range x {
			x[i] += omega * s[i]
			r[i] = s[i] - omega*t[i]
		}
	}
}
