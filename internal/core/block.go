package core

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/sparse"
)

// Solve runs the configured recurrence and scheme on Ax = b and returns the
// solution, the execution statistics and an error when the method did not
// converge: SolveBlock on a block of one, whose headers live in the
// workspace, so a warm call allocates nothing. The caller's matrices are
// never modified — faults are injected into internal working copies — and
// must not be modified by anyone else while the solve runs: they are the
// valid copy a rollback restores from, and what an Unprotected solve reads.
func Solve(a *sparse.CSR, b []float64, cfg Config) ([]float64, Stats, error) {
	if cfg.Ws == nil {
		cfg.Ws = NewWorkspace()
	}
	w := cfg.Ws
	w.b1[0] = b
	xs, err := SolveBlock(a, w.b1[:], cfg, w.st1[:], w.err1[:])
	if err != nil {
		return nil, Stats{}, err
	}
	return xs[0], w.st1[0], w.err1[0]
}

// SolveBlock runs the configured recurrence and scheme on the k systems
// A·x_j = bs[j] in lockstep: every round advances each system's engine to its
// pending product, groups the products by matrix, runs each group of two or
// more as one pass over each row of the CSR (abft.Protected.MulVecBlock, or
// sparse.CSR.MulVecBlock under Unprotected), and lets each system complete
// its step on the shared Rowidx sums. Systems pending on A and on M in one
// round (one rolled back) form two groups; BiCGstab's two products per
// iteration are two rounds, and a system that converges at the half step
// pends on nothing in the second.
//
// The fault-free systems share one live copy and one encoding of A, and of M.
// A product runs alone, through the engine's own kernel, for a system with an
// injector — it owns its live matrices, so a flip strikes one solve, not k,
// and an injected k-wide block holds k copies — for an Online-Detection
// system, whose robust product has no blocked form, and for a group of one.
//
// Each system's trajectory — iterates, residual history, statistics, error —
// is bitwise that of the block of one on it under the same injector: the
// same engine, a blocked product computing each column with the single
// kernel's arithmetic, Rowidx sums that depend on Rowidx alone. Statistics
// and errors land in sts[j] and errs[j] (length ≥ len(bs)), a system that
// cannot start reporting why; SolveBlock itself fails only on what the
// systems share — the shapes of A and M, their encoding. The solutions alias
// workspace memory.
func SolveBlock(a *sparse.CSR, bs [][]float64, cfg Config, sts []Stats, errs []error) ([][]float64, error) {
	if len(sts) < len(bs) || len(errs) < len(bs) {
		return nil, fmt.Errorf("core: SolveBlock needs len(sts) and len(errs) ≥ %d", len(bs))
	}
	w := cfg.Ws
	if w == nil {
		w = NewWorkspace()
	}
	if err := w.start(a, bs, cfg); err != nil {
		return nil, err
	}
	for w.pending() {
		w.multiply()
	}
	return w.finish(sts, errs), nil
}

// start starts every system's engine, arming the shared matrices for the
// first fault-free one.
func (w *Workspace) start(a *sparse.CSR, bs [][]float64, cfg Config) error {
	label, n := cfg.label(), a.Rows
	switch {
	case cfg.Recurrence != CG && cfg.Recurrence != BiCGstab:
		return fmt.Errorf("core: unknown recurrence %d", cfg.Recurrence)
	case a.Cols != n:
		return fmt.Errorf("core: %sneeds a square matrix, got %dx%d", label, a.Rows, a.Cols)
	case cfg.M != nil && (cfg.M.Rows != n || cfg.M.Cols != n):
		return fmt.Errorf("core: %sneeds an n×n preconditioner", label)
	}
	w.k = len(bs)
	armed := false
	for j, b := range bs {
		l := w.lane(j)
		var shared *matrices
		if cfg.injector(j) == nil && cfg.Scheme != Unprotected {
			if !armed {
				if err := w.arm(label, a, cfg); err != nil {
					return err
				}
				armed = true
			}
			shared = &w.shared
		}
		l.err = l.run.start(l, j, a, b, cfg, shared)
	}
	return nil
}

// arm refreshes the shared live copies of A and M from the caller's and, under
// ABFT, re-arms their encodings.
func (w *Workspace) arm(label string, a *sparse.CSR, cfg Config) error {
	for slot, src := range [2]*sparse.CSR{a, cfg.M} {
		if src == nil {
			continue
		}
		live := w.shared.liveCopy(slot, src)
		if !cfg.Scheme.abft() {
			continue
		}
		if err := w.shared.protected(slot, live, src, abftMode(cfg.Scheme)).CS.Err; err != nil {
			return fmt.Errorf("core: %s%v: %w", label, cfg.Scheme, err)
		}
	}
	return nil
}

// pending advances every system that started to its next product and reports
// whether any is pending: a fault-free system's by matrix slot, unless its
// scheme is Online-Detection; any other alone.
func (w *Workspace) pending() bool {
	w.pend[0], w.pend[1], w.alone = w.pend[0][:0], w.pend[1][:0], w.alone[:0]
	any := false
	for _, l := range w.lanes[:w.k] {
		e := &l.run
		if l.err != nil || e.advance() {
			continue
		}
		if any = true; e.inj == nil && e.cfg.Scheme != OnlineDetection {
			w.pend[e.prod.slot] = append(w.pend[e.prod.slot], e)
		} else {
			w.alone = append(w.alone, e)
		}
	}
	return any
}

// multiply runs the round's products and completes every system on its own:
// each group of two or more as one blocked product, everything else through
// the engine's own kernel.
func (w *Workspace) multiply() {
	for _, group := range w.pend {
		if len(group) < 2 {
			w.alone = append(w.alone, group...)
			continue
		}
		w.ps, w.qs = w.ps[:0], w.qs[:0]
		for _, e := range group {
			w.ps, w.qs = append(w.ps, e.prod.x), append(w.qs, e.prod.y)
		}
		e, sr := group[0], abft.RowSums{}
		if e.abft {
			sr = e.prot[e.prod.slot].MulVecBlock(w.qs, w.ps)
		} else {
			e.mat[e.prod.slot].MulVecBlock(w.qs, w.ps)
		}
		for _, e := range group {
			e.complete(sr)
		}
	}
	for _, e := range w.alone {
		e.complete(e.multiply())
	}
}

// finish collects every system's solution, statistics and error.
func (w *Workspace) finish(sts []Stats, errs []error) [][]float64 {
	w.xs = w.xs[:0]
	for j, l := range w.lanes[:w.k] {
		var x []float64
		if sts[j], errs[j] = (Stats{}), l.err; l.err == nil {
			x, sts[j], errs[j] = l.run.finish()
		}
		w.xs = append(w.xs, x)
	}
	return w.xs
}
