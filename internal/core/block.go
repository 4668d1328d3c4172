package core

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/sparse"
)

// BlockConfig parameterises a blocked multi-RHS solve. The axes mirror
// Config; fault injection is deliberately absent — the blocked tier shares
// one live matrix and one checksum encoding across the right-hand sides,
// which is only sound when nothing mutates them mid-block, so SolveBlock is a
// fault-free tier (the service's batch path, where ABFT verification still
// guards against real silent errors, is exactly that).
type BlockConfig struct {
	// Scheme selects the method: ABFTDetection, ABFTCorrection or Unprotected.
	// OnlineDetection's robust product has no blocked form and is not
	// supported here (callers fall back to sequential solves).
	Scheme Scheme
	// S and D override the model-optimal checkpoint and verification
	// intervals when > 0 (D is forced to 1 for the ABFT schemes, as in the
	// sequential driver).
	S, D int
	// Tol is the relative residual tolerance (default 1e-8).
	Tol float64
	// MaxIters caps the useful iterations per right-hand side (default 20·n).
	MaxIters int
	// Costs calibrates the time accounting; zero value means defaults.
	Costs CostParams
	// OnIteration, when non-nil, is called after every useful iteration of
	// every right-hand side with the RHS index, the iteration count and the
	// recurrence scalar ρ — the same values the sequential driver's
	// OnIteration would deliver for that system solved alone.
	OnIteration func(rhs, it int, rho float64)
	// Ws supplies the reusable block arena; a warm workspace makes repeated
	// block solves allocation-free. Must not be shared by concurrent solves.
	Ws *BlockWorkspace
}

// BlockWorkspace is the reusable arena of the blocked driver: one shared
// working matrix copy and one shared checksum encoding (the amortisation
// win — the encoding is built once per block instead of once per solve),
// plus a per-lane core.Workspace carrying each right-hand side's private
// vectors, guards, checkpoint store (vectors only) and engine. Storage grows
// with the widest block seen and is recycled afterwards.
type BlockWorkspace struct {
	shared Workspace // only its matrix slot 0: the live copy and its encoding
	lanes  []*blockLane
	// gathered active-column headers for the shared product, and the
	// returned solution headers — reused across rounds and solves.
	ps, qs [][]float64
	idx    []int
	xs     [][]float64
	onIter func(rhs, it int, rho float64)
}

// NewBlockWorkspace returns an empty block workspace; storage is created on
// first use and recycled afterwards.
func NewBlockWorkspace() *BlockWorkspace { return &BlockWorkspace{} }

// blockLane is the per-RHS solve state of one block: a private workspace,
// whose engine the blocked driver advances in lockstep with the others.
type blockLane struct {
	ws *Workspace
	cb func(it int, rho float64)
}

// lane returns the j-th per-RHS lane, growing the pool as needed. The
// OnIteration closure is built once per lane and reads the workspace's
// current callback, so warm solves install a new callback without
// allocating.
func (bw *BlockWorkspace) lane(j int) *blockLane {
	for len(bw.lanes) <= j {
		idx := len(bw.lanes)
		bw.lanes = append(bw.lanes, &blockLane{ws: NewWorkspace(), cb: func(it int, rho float64) {
			if f := bw.onIter; f != nil {
				f(idx, it, rho)
			}
		}})
	}
	return bw.lanes[j]
}

// SolveBlock runs the CG of the configured scheme on the k systems
// A·x_j = bs[j] simultaneously: every round advances each active lane's
// engine to its pending product, computes all products q_j = A·p_j four lanes
// to a pass over each row of the CSR arrays (abft.Protected.MulVecBlock, or
// sparse.CSR.MulVecBlock under Unprotected) — each nonzero loaded once and the
// Rowidx checksums accumulated once per four systems — and lets each lane
// complete its iteration on the shared sums.
// Convergence, verification and detection state stay fully independent per
// right-hand side, and each lane's entire trajectory — iterates, residual
// history, statistics — is bitwise identical to solving that system alone
// with Solve: it is the same engine, the blocked product computes each
// column with exactly the sequential kernel's arithmetic, and the shared
// Rowidx sums are bitwise equal to the per-solve sums (they depend only on
// Rowidx).
//
// Per-lane statistics and errors land in sts[j] and errs[j] (both must have
// length ≥ len(bs)); the returned solutions alias workspace memory. The
// caller's matrix is never modified.
func SolveBlock(a *sparse.CSR, bs [][]float64, cfg BlockConfig, sts []Stats, errs []error) ([][]float64, error) {
	n := a.Rows
	k := len(bs)
	if k == 0 {
		return nil, nil
	}
	if a.Cols != n {
		return nil, fmt.Errorf("core: SolveBlock needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for j, b := range bs {
		if len(b) != n {
			return nil, fmt.Errorf("core: SolveBlock dimension mismatch: A %dx%d, len(bs[%d])=%d", a.Rows, a.Cols, j, len(b))
		}
	}
	if len(sts) < k || len(errs) < k {
		return nil, fmt.Errorf("core: SolveBlock needs len(sts) and len(errs) ≥ %d", k)
	}
	if cfg.Scheme == OnlineDetection {
		return nil, fmt.Errorf("core: SolveBlock has no blocked product for %v", cfg.Scheme)
	}

	bw := cfg.Ws
	if bw == nil {
		bw = NewBlockWorkspace()
	}
	bw.onIter = cfg.OnIteration
	laneCfg := Config{
		Scheme: cfg.Scheme, S: cfg.S, D: 1, Tol: cfg.Tol, MaxIters: cfg.MaxIters,
		Costs: cfg.Costs,
	}.withDefaults(n)
	// One live copy, one encoding and one resolution of the model-optimal
	// interval for the whole block; Unprotected has none of the three.
	var live *sparse.CSR
	var prot *abft.Protected
	if cfg.Scheme.abft() {
		live = bw.shared.liveCopy(0, a)
		prot = bw.shared.protected(0, live, a, abftMode(cfg.Scheme))
		if err := prot.CS.Err; err != nil {
			return nil, fmt.Errorf("core: SolveBlock %v: %w", cfg.Scheme, err)
		}
		if laneCfg.S == 0 {
			_, laneCfg.S = OptimalIntervals(a, cfg.Scheme, 0, laneCfg.Costs)
		}
	}
	for j := 0; j < k; j++ {
		l := bw.lane(j)
		laneCfg.OnIteration = l.cb
		e := &l.ws.begin().run
		if err := e.start(&e.pcg, "", l.ws, a, bs[j], laneCfg, live, prot); err != nil {
			return nil, err
		}
	}

	// Lockstep rounds until every lane is over.
	for {
		bw.ps, bw.qs, bw.idx = bw.ps[:0], bw.qs[:0], bw.idx[:0]
		for j := 0; j < k; j++ {
			if e := &bw.lanes[j].ws.run; !e.advance() {
				bw.ps = append(bw.ps, e.prod.x)
				bw.qs = append(bw.qs, e.prod.y)
				bw.idx = append(bw.idx, j)
			}
		}
		if len(bw.idx) == 0 {
			break
		}
		var sr abft.RowSums
		if prot != nil {
			sr = prot.MulVecBlock(bw.qs, bw.ps)
		} else {
			a.MulVecBlock(bw.qs, bw.ps)
		}
		for _, j := range bw.idx {
			bw.lanes[j].ws.run.complete(sr)
		}
	}

	bw.xs = bw.xs[:0]
	for j := 0; j < k; j++ {
		x, st, err := bw.lanes[j].ws.run.finish()
		sts[j], errs[j] = st, err
		bw.xs = append(bw.xs, x)
	}
	return bw.xs, nil
}
