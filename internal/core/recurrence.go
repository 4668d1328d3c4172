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
	z      []float64         // preconditioned residual M·r
	zGuard *abft.VectorGuard // its guard: r's for plain CG
}

func (c *pcgRec) init(e *engine) {
	if m := e.mat[1]; m == nil {
		c.z = e.r
	} else {
		n := len(e.r)
		c.z = e.ws.take(n)
		c.zGuard = e.guard(c.z)
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
		m.MulVecRobust(c.z, e.r)
		copy(e.p, c.z)
		e.rho = vec.DotBlocked(e.r, c.z)
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
		return e.product(0, e.q, e.qGuard, e.p, e.pGuard, fault.TargetVecQ)
	case 1:
		// Both schemes treat non-finite or non-positive curvature as a
		// detected error.
		pq := e.dot(e.p, e.q)
		if pq <= 0 || math.IsNaN(pq) || math.IsInf(pq, 0) {
			return e.breakdown("pᵀAp", pq, ": matrix not SPD?")
		}
		alpha := e.rho / pq
		repairs := e.stats.Corrections
		if !e.axpy(alpha, e.p, e.pGuard, e.x, e.xGuard) || !e.axpy(-alpha, e.q, e.qGuard, e.r, e.rGuard) {
			return stepFail
		}
		if e.mat[1] != nil {
			if e.stats.Corrections != repairs && !c.rhoStands(e, alpha) {
				return e.detected()
			}
			// z ← M·r, protected like the A-product (the r-guard provides
			// the input reference).
			return e.product(1, c.z, c.zGuard, e.r, e.rGuard, fault.TargetVecZ)
		}
	}
	rhoNew := e.dot(e.r, c.z)
	if math.IsNaN(rhoNew) || math.IsInf(rhoNew, 0) {
		return e.breakdown("ρ", rhoNew, "")
	}
	zGuard := c.zGuard
	if e.mat[1] == nil {
		zGuard = e.rGuard
	}
	if !e.xpay(rhoNew/e.rho, c.z, zGuard, e.p, e.pGuard) {
		return stepFail
	}
	e.rho = rhoNew
	return stepDone
}

// rhoStands re-derives ρ after an update of this iteration rebuilt an
// element. The r-update is the first verified kernel to read r since ρ = rᵀz
// did, unverified (plain CG's direction update reads r right after its ρ, and
// engine.held sends a struck r back from there): if what it repaired was a
// word of r struck before that dot product, ρ — and with it β, p and this
// iteration's α — came from the struck word, and the repair of r does not
// reach them. z still holds M·r of the previous iteration and the r of then is
// r + α·q, so ρ is computed again and held to the one in use; a difference is
// a detected error like any broken-down scalar.
func (c *pcgRec) rhoStands(e *engine, alpha float64) bool {
	rz, qz := vec.Dot(e.r, c.z), alpha*vec.Dot(e.q, c.z)
	return math.Abs(rz+qz-e.rho) <= 1e-8*(math.Abs(rz)+math.Abs(qz)+math.Abs(e.rho))
}

// bicgRec is the BiCGstab recurrence. The paper's Section 3 claims its
// techniques apply to "any iterative solver that use sparse matrix vector
// multiplies and vector operations. This list includes many of the
// non-stationary iterative solvers such as CGNE, BiCG, BiCGstab". BiCGstab
// performs two SpMxVs per iteration (v = A·p, held in the engine's q, and
// t = A·s); both are ABFT-protected, and the checkpoint additionally
// carries the shadow residual r̂, v and the scalars α and ω.
type bicgRec struct {
	rHat, s, t     []float64
	sGuard, tGuard *abft.VectorGuard
	alpha, omega   float64
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
	c.sGuard, c.tGuard = e.guard(c.s), e.guard(c.t)
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

// unusable reports a BiCGstab scalar that would break the recurrence down.
func unusable(v float64) bool { return v == 0 || math.IsNaN(v) || math.IsInf(v, 0) }

func (c *bicgRec) step(e *engine, stage int) verdict {
	v := e.q
	switch stage {
	case 0:
		// ρ and the direction read r before any update holds it to its
		// reference, so r is checked here, in a pass of its own.
		if e.abft && !e.settle(e.rGuard.Check(e.r), nil) {
			return stepFail
		}
		rhoNew := e.dot(c.rHat, e.r)
		if unusable(rhoNew) {
			return e.breakdown("ρ = r̂ᵀr", rhoNew, "")
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
		return e.product(0, v, e.qGuard, e.p, e.pGuard, fault.TargetVecQ)
	case 1:
		den := e.dot(c.rHat, v)
		if unusable(den) {
			return e.breakdown("r̂ᵀv", den, "")
		}
		c.alpha = e.rho / den
		if !e.axpyTo(c.s, c.sGuard, -c.alpha, v, e.qGuard, e.r, e.rGuard) {
			return stepFail
		}
		if vec.Norm2(c.s) <= e.cfg.Tol*e.normB {
			// Early half-step convergence; the engine's confirmation
			// validates it before the solve returns.
			if !e.axpy(c.alpha, e.p, e.pGuard, e.x, e.xGuard) {
				return stepFail
			}
			copy(e.r, c.s)
			e.refresh(e.rGuard, e.r)
			return stepHalf
		}
		return e.product(0, c.t, c.tGuard, c.s, c.sGuard, 0)
	}
	tt := e.dot(c.t, c.t)
	if unusable(tt) {
		return e.breakdown("tᵀt", tt, "")
	}
	c.omega = e.dot(c.t, c.s) / tt
	if unusable(c.omega) {
		return e.breakdown("ω", c.omega, "")
	}
	if !e.axpy(c.alpha, e.p, e.pGuard, e.x, e.xGuard) || !e.axpy(c.omega, c.s, c.sGuard, e.x, e.xGuard) ||
		!e.axpyTo(e.r, e.rGuard, -c.omega, c.t, c.tGuard, c.s, c.sGuard) {
		return stepFail
	}
	return stepDone
}

func (c *bicgRec) resNorm(e *engine) float64 { return vec.Norm2(e.r) }
