package core

import (
	"math"

	"repro/internal/abft"
	"repro/internal/fault"
	"repro/internal/vec"
)

// pcgRec is the (preconditioned) Conjugate Gradient recurrence, paper
// Algorithm 1 with the extension its conclusion targets: "diagonal,
// approximate inverse, and triangular preconditioners seem to be
// particularly attracting, since it should be possible to treat them by
// adapting the techniques described in this paper". A preconditioner
// applied as an explicit sparse matrix (Jacobi or a sparse approximate
// inverse, see internal/precond) is protected by exactly the same
// ABFT-SpMxV machinery as A: its own checksum rows, its own detect/correct
// verification, and recovery from the caller's copy on rollback, so matrix
// faults on M are also recoverable. Plain CG is the case M = I: z aliases r
// and the second product disappears.
type pcgRec struct {
	z []float64 // preconditioned residual M·r
}

func (c *pcgRec) init(e *engine) {
	if m := e.mat[1]; m == nil {
		c.z = e.r
	} else {
		n := len(e.r)
		c.z = e.ws.take(n)
		e.keep("z", c.z)
		e.ws.state.Z = c.z
		// The preconditioner product adds its own iteration and verification
		// cost on top of the CG baseline.
		e.costs.Titer += float64(m.FlopsMulVec()) * e.cfg.Costs.FlopTime
		if e.abft {
			e.costs.Tverif += float64(12*int64(n)) * e.cfg.Costs.FlopTime
		}
	}
	e.confirm = e.costs.Titer
}

func (c *pcgRec) reset(e *engine) {
	if m := e.mat[1]; m == nil {
		copy(e.p, e.r)
		e.rho = vec.Norm2Sq(e.r)
	} else {
		m.MulVecRobustParallel(e.cfg.Pool, c.z, e.r)
		copy(e.p, c.z)
		e.rho = vec.DotPool(e.cfg.Pool, e.r, c.z)
	}
}

// resNorm is ‖r‖ as the unprotected baselines compute it: √ρ for plain CG,
// the scaled 2-norm (not the preconditioned ρ = rᵀz) for PCG.
func (c *pcgRec) resNorm(e *engine) float64 {
	if e.mat[1] == nil {
		return math.Sqrt(e.rho)
	}
	return vec.Norm2(e.r)
}

func (c *pcgRec) step(e *engine, stage int) verdict {
	switch stage {
	case 0:
		return e.product(0, e.q, e.p, e.pGuard, fault.TargetVecQ)
	case 1:
		// Both schemes treat non-finite or non-positive curvature as a
		// detected error.
		pq := e.dot(e.p, e.q)
		if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
			return e.breakdown()
		}
		alpha := e.rho / pq
		e.axpy(e.xGuard, alpha, e.p, e.x)
		e.axpy(e.rGuard, -alpha, e.q, e.r)
		if e.mat[1] != nil {
			// z ← M·r, protected like the A-product (the r-guard provides
			// the input reference).
			return e.product(1, c.z, e.r, e.rGuard, fault.TargetVecZ)
		}
	}
	rhoNew := e.dot(e.r, c.z)
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		return e.breakdown()
	}
	e.xpay(e.pGuard, rhoNew/e.rho, c.z, e.p)
	e.rho = rhoNew
	return stepDone
}

// bicgRec is the BiCGstab recurrence. The paper's Section 3 claims its
// techniques apply to "any iterative solver that use sparse matrix vector
// multiplies and vector operations. This list includes many of the
// non-stationary iterative solvers such as CGNE, BiCG, BiCGstab". BiCGstab
// performs two SpMxVs per iteration (v = A·p, held in the engine's q, and
// t = A·s); both are ABFT-protected, and the checkpoint additionally
// carries the shadow residual r̂, v and the scalars α and ω.
type bicgRec struct {
	rHat, s, t   []float64
	sGuard       *abft.VectorGuard
	alpha, omega float64
}

func (c *bicgRec) init(e *engine) {
	n := len(e.r)
	c.rHat = e.ws.take(n)
	c.s = e.ws.takeZero(n)
	c.t = e.ws.take(n)
	e.keep("rHat", c.rHat)
	e.keep("v", e.q)
	e.keepScalar("alpha", &c.alpha)
	e.keepScalar("omega", &c.omega)
	c.sGuard = e.guard(c.s)
	// Two products and roughly twice the vector work per iteration; the
	// confirmation is still one product.
	e.confirm = e.costs.Titer
	e.costs.Titer *= 2
}

func (c *bicgRec) reset(e *engine) {
	copy(c.rHat, e.r)
	clear(e.p)
	clear(e.q)
	e.rho, c.alpha, c.omega = 1, 1, 1
}

func (c *bicgRec) resNorm(e *engine) float64 { return vec.Norm2(e.r) }

// unusable reports a BiCGstab scalar that would break the recurrence down.
func unusable(v float64) bool { return v == 0 || math.IsNaN(v) || math.IsInf(v, 0) }

func (c *bicgRec) step(e *engine, stage int) verdict {
	v := e.q
	switch stage {
	case 0:
		// ρ reads r before any product, so a corrupted r must be settled now.
		if !e.settleGuards() {
			return stepFail
		}
		rhoNew := e.dot(c.rHat, e.r)
		if unusable(rhoNew) {
			return e.breakdown()
		}
		if e.it == 0 {
			copy(e.p, e.r)
		} else {
			beta := (rhoNew / e.rho) * (c.alpha / c.omega)
			for i := range e.p {
				e.p[i] = e.r[i] + beta*(e.p[i]-c.omega*v[i])
			}
		}
		e.rho = rhoNew
		e.refresh(e.pGuard, e.p)
		return e.product(0, v, e.p, e.pGuard, fault.TargetVecQ)
	case 1:
		den := e.dot(c.rHat, v)
		if unusable(den) {
			return e.breakdown()
		}
		c.alpha = e.rho / den
		e.axpyTo(c.sGuard, c.s, -c.alpha, v, e.r)
		if vec.Norm2(c.s) <= e.cfg.Tol*e.normB {
			// Early half-step convergence; the engine's confirmation
			// validates it before the solve returns.
			e.axpy(e.xGuard, c.alpha, e.p, e.x)
			copy(e.r, c.s)
			e.refresh(e.rGuard, e.r)
			return stepHalf
		}
		return e.product(0, c.t, c.s, c.sGuard, 0)
	}
	tt := e.dot(c.t, c.t)
	if unusable(tt) {
		return e.breakdown()
	}
	c.omega = e.dot(c.t, c.s) / tt
	if unusable(c.omega) {
		return e.breakdown()
	}
	e.axpy(nil, c.alpha, e.p, e.x)
	e.axpy(e.xGuard, c.omega, c.s, e.x)
	e.axpyTo(e.rGuard, e.r, -c.omega, c.t, c.s)
	return stepDone
}
