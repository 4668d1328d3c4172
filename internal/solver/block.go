package solver

import (
	"fmt"
	"math"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// BlockOptions configures a blocked multi-RHS CG solve.
type BlockOptions struct {
	// Tol is the relative residual tolerance (default 1e-10, as in Options).
	Tol float64
	// MaxIter caps the iterations per right-hand side; 0 means 10·n.
	MaxIter int
	// OnIteration, when non-nil, streams each right-hand side's
	// per-iteration recurrence residual norm — the same (it, value) pairs
	// the sequential CG's OnIteration would deliver for that system solved
	// alone, tagged with the RHS index.
	OnIteration func(rhs, it int, res float64)
	// Ws supplies the iteration vectors and lane bookkeeping from a
	// reusable workspace: a warm workspace makes the whole block solve
	// allocation-free. Result.X then aliases workspace memory.
	Ws *Workspace
}

// CGBlock solves the k systems A·x_j = bs[j] simultaneously with the
// Conjugate Gradient method: every iteration computes all active products
// q_j = A·p_j four lanes to a pass over each row of the CSR arrays
// (sparse.CSR.MulVecBlock), so each nonzero is loaded once per four systems.
// Convergence is tracked independently per right-hand side — a converged or
// broken-down lane drops out of the block while the rest continue — and
// each lane's trajectory is bitwise identical to solving that system alone
// with CG, because the blocked product computes each column with exactly
// the sequential kernel's arithmetic.
//
// Per-lane results and errors land in res[j] and errs[j] (both must have
// length ≥ len(bs)).
func CGBlock(a *sparse.CSR, bs [][]float64, opt BlockOptions, res []Result, errs []error) error {
	n := a.Rows
	k := len(bs)
	if k == 0 {
		return nil
	}
	if a.Cols != n {
		return fmt.Errorf("solver: CGBlock needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for j, b := range bs {
		if len(b) != n {
			return fmt.Errorf("solver: CGBlock dimension mismatch: A %dx%d, len(bs[%d])=%d", a.Rows, a.Cols, j, len(b))
		}
	}
	if len(res) < k || len(errs) < k {
		return fmt.Errorf("solver: CGBlock needs len(res) and len(errs) ≥ %d", k)
	}
	if opt.Tol == 0 {
		opt.Tol = 1e-10
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10 * n
	}
	ws := opt.Ws.begin()
	blk := &ws.blk
	blk.xs, blk.rs, blk.qs, blk.ps = blk.xs[:0], blk.rs[:0], blk.qs[:0], blk.ps[:0]
	blk.rho, blk.normB, blk.active = blk.rho[:0], blk.normB[:0], blk.active[:0]

	// Per-lane setup, taking vectors in a fixed order and running exactly
	// the sequential CG's initialisation arithmetic.
	for j := 0; j < k; j++ {
		x := ws.takeZero(n)
		r := ws.take(n)
		q := ws.take(n)
		p := ws.take(n)
		a.MulVec(q, x) // r0 = b − A x0
		vec.Sub(r, bs[j], q)
		copy(p, r)
		normB := vec.Norm2(bs[j])
		if normB == 0 {
			normB = 1
		}
		blk.xs = append(blk.xs, x)
		blk.rs = append(blk.rs, r)
		blk.qs = append(blk.qs, q)
		blk.ps = append(blk.ps, p)
		blk.rho = append(blk.rho, vec.Norm2Sq(r))
		blk.normB = append(blk.normB, normB)
		blk.active = append(blk.active, true)
		res[j] = Result{X: x}
		errs[j] = nil
	}

	remaining := k
	for it := 0; remaining > 0; it++ {
		blk.gps, blk.gqs, blk.gidx = blk.gps[:0], blk.gqs[:0], blk.gidx[:0]
		for j := 0; j < k; j++ {
			if !blk.active[j] {
				continue
			}
			if it >= opt.MaxIter {
				// Iteration budget exhausted: the sequential post-loop path.
				res[j].Residual = trueResidualInto(blk.qs[j], a, blk.xs[j], bs[j])
				res[j].Converged = math.Sqrt(blk.rho[j]) <= opt.Tol*blk.normB[j]
				if !res[j].Converged {
					errs[j] = fmt.Errorf("%w: CG after %d iterations, ‖r‖/‖b‖ = %.3e",
						ErrNotConverged, res[j].Iterations, math.Sqrt(blk.rho[j])/blk.normB[j])
				}
				blk.active[j] = false
				remaining--
				continue
			}
			if opt.OnIteration != nil {
				opt.OnIteration(j, it+1, math.Sqrt(blk.rho[j]))
			}
			if math.Sqrt(blk.rho[j]) <= opt.Tol*blk.normB[j] {
				res[j].Iterations = it
				res[j].Converged = true
				res[j].Residual = trueResidualInto(blk.qs[j], a, blk.xs[j], bs[j])
				blk.active[j] = false
				remaining--
				continue
			}
			blk.gps = append(blk.gps, blk.ps[j])
			blk.gqs = append(blk.gqs, blk.qs[j])
			blk.gidx = append(blk.gidx, j)
		}
		if len(blk.gidx) == 0 {
			continue
		}
		a.MulVecBlock(blk.gqs, blk.gps)
		for _, j := range blk.gidx {
			p, q, r, x := blk.ps[j], blk.qs[j], blk.rs[j], blk.xs[j]
			pq := vec.Dot(p, q)
			if pq <= 0 || math.IsNaN(pq) {
				errs[j] = fmt.Errorf("solver: CG breakdown at iteration %d (pᵀAp = %v): matrix not SPD?", it, pq)
				blk.active[j] = false
				remaining--
				continue
			}
			alpha := blk.rho[j] / pq
			vec.Axpy(alpha, p, x)
			vec.Axpy(-alpha, q, r)
			rhoNew := vec.Norm2Sq(r)
			beta := rhoNew / blk.rho[j]
			vec.Xpay(beta, r, p) // p ← r + β p
			blk.rho[j] = rhoNew
			res[j].Iterations = it + 1
		}
	}
	return nil
}
