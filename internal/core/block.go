package core

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// BlockConfig parameterises a blocked multi-RHS solve: the inputs of Config,
// with one injector and one stream of observations per right-hand side.
type BlockConfig struct {
	// Scheme, M, S, D, Tol and MaxIters are Config's, for every lane (any
	// scheme; SolveBlockBiCGstab takes no M).
	Scheme   Scheme
	M        *sparse.CSR
	S, D     int
	Tol      float64
	MaxIters int
	// Injectors holds lane j's injector at index j (Config.Injector); a nil
	// entry, or none past the end of the slice, runs that lane fault-free.
	Injectors []*fault.Injector
	// OnIteration and OnDetection, when non-nil, receive every right-hand
	// side's stream of Config.OnIteration and Config.OnDetection — what that
	// system solved alone would deliver — with its index.
	OnIteration func(rhs, it int, rho float64)
	OnDetection func(rhs int, ev DetectionEvent)
	// Ws supplies the reusable block arena; a warm workspace makes repeated
	// block solves allocation-free. Must not be shared by concurrent solves.
	Ws *BlockWorkspace
}

// BlockWorkspace is the reusable arena of the blocked driver: the live copies
// and encodings of A and M the fault-free lanes share (one encoding per block,
// not per solve) and a Workspace per lane. Storage grows with the widest
// block seen and is recycled afterwards.
type BlockWorkspace struct {
	shared Workspace // its matrix slots only: what the fault-free lanes share
	lanes  []*blockLane
	k      int // width of the block in flight
	// The round's pending products: by matrix slot those that may join
	// another lane's, and those that run alone.
	pend  [2][]*engine
	alone []*engine
	// operand headers of one blocked product, and the returned solution
	// headers — reused across rounds and solves.
	ps, qs [][]float64
	xs     [][]float64
	onIter func(rhs, it int, rho float64)
	onDet  func(rhs int, ev DetectionEvent)
}

// NewBlockWorkspace returns an empty block workspace; storage is created on
// first use and recycled afterwards.
func NewBlockWorkspace() *BlockWorkspace { return &BlockWorkspace{} }

// blockLane is the per-RHS solve state of one block: a private workspace,
// whose engine the blocked driver advances in lockstep with the others.
type blockLane struct {
	ws     *Workspace
	onIter func(it int, rho float64)
	onDet  func(DetectionEvent)
	err    error // why the lane could not start; nil once it has
}

// lane returns the j-th per-RHS lane, growing the pool as needed. The
// observer closures are built once per lane and read the workspace's current
// observers, so warm solves install new ones without allocating.
func (bw *BlockWorkspace) lane(j int) *blockLane {
	for len(bw.lanes) <= j {
		idx := len(bw.lanes)
		bw.lanes = append(bw.lanes, &blockLane{
			ws:     NewWorkspace(),
			onIter: func(it int, rho float64) { bw.onIter(idx, it, rho) },
			onDet:  func(ev DetectionEvent) { bw.onDet(idx, ev) },
		})
	}
	return bw.lanes[j]
}

// SolveBlock runs the CG — PCG when cfg.M is set — of the configured scheme
// on the k systems A·x_j = bs[j] in lockstep: every round advances each
// lane's engine to its pending product, groups the products by matrix, runs
// each group of two or more four lanes to a pass over each row of the CSR
// (abft.Protected.MulVecBlock, or sparse.CSR.MulVecBlock under Unprotected),
// and lets each lane complete its step on the shared Rowidx sums. Lanes
// pending on A and on M in one round (one rolled back) form two groups.
//
// The fault-free lanes share one live copy and one encoding of A, and of M. A
// product runs alone, through the single solve's kernel, for a lane with an
// injector — it owns its live matrices, so a flip strikes one solve, not k,
// and an injected k-wide block holds k copies — for an Online-Detection lane,
// whose robust product has no blocked form, and for a group of one.
//
// Each lane's trajectory — iterates, residual history, statistics, error — is
// bitwise that of Solve on its system under the same injector: the same
// engine, a blocked product computing each column with the single kernel's
// arithmetic, Rowidx sums that depend on Rowidx alone. Statistics and errors
// land in sts[j] and errs[j] (length ≥ len(bs)), a lane that cannot start
// reporting what Solve would; SolveBlock itself fails only on what the lanes
// share — the shapes of A and M, their encoding. The solutions alias
// workspace memory; the caller's matrices are never modified.
func SolveBlock(a *sparse.CSR, bs [][]float64, cfg BlockConfig, sts []Stats, errs []error) ([][]float64, error) {
	label := ""
	if cfg.M != nil {
		label = "PCG "
	}
	return cfg.Ws.solve(false, label, a, bs, cfg, sts, errs)
}

// SolveBlockBiCGstab is SolveBlock for BiCGstab: its two products per
// iteration are two rounds, and a lane that converges at the half step pends
// on nothing in the second. Each lane refuses what SolveBiCGstab refuses.
func SolveBlockBiCGstab(a *sparse.CSR, bs [][]float64, cfg BlockConfig, sts []Stats, errs []error) ([][]float64, error) {
	return cfg.Ws.solve(true, "BiCGstab ", a, bs, cfg, sts, errs)
}

// solve is the lockstep loop, on a fresh arena when bw is nil.
func (bw *BlockWorkspace) solve(bicg bool, label string, a *sparse.CSR, bs [][]float64, cfg BlockConfig, sts []Stats, errs []error) ([][]float64, error) {
	if len(sts) < len(bs) || len(errs) < len(bs) {
		return nil, fmt.Errorf("core: SolveBlock needs len(sts) and len(errs) ≥ %d", len(bs))
	}
	if bw == nil {
		bw = NewBlockWorkspace()
	}
	if err := bw.start(bicg, label, a, bs, cfg); err != nil {
		return nil, err
	}
	for bw.pending() {
		bw.multiply()
	}
	return bw.finish(sts, errs), nil
}

// start starts every lane's engine, arming the shared matrices for the first
// fault-free lane.
func (bw *BlockWorkspace) start(bicg bool, label string, a *sparse.CSR, bs [][]float64, cfg BlockConfig) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("core: SolveBlock needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if cfg.M != nil && (cfg.M.Rows != n || cfg.M.Cols != n) {
		return fmt.Errorf("core: %sneeds an n×n preconditioner", label)
	}
	bw.k, bw.onIter, bw.onDet = len(bs), cfg.OnIteration, cfg.OnDetection
	var shared *Workspace
	for j, b := range bs {
		l := bw.lane(j)
		c := Config{Scheme: cfg.Scheme, M: cfg.M, S: cfg.S, D: cfg.D, Tol: cfg.Tol, MaxIters: cfg.MaxIters, Ws: l.ws}
		if j < len(cfg.Injectors) {
			c.Injector = cfg.Injectors[j]
		}
		if cfg.OnIteration != nil {
			c.OnIteration = l.onIter
		}
		if cfg.OnDetection != nil {
			c.OnDetection = l.onDet
		}
		from := shared
		if c.Injector != nil || cfg.Scheme == Unprotected {
			from = nil
		} else if shared == nil {
			if err := bw.arm(label, a, cfg); err != nil {
				return err
			}
			shared, from = &bw.shared, &bw.shared
		}
		e := &l.ws.begin().run
		rec := recurrence(&e.pcg)
		if bicg {
			rec = &e.bicg
		}
		l.err = e.start(rec, label, l.ws, a, b, c, from)
	}
	return nil
}

// arm refreshes the shared live copies of A and M from the caller's and, under
// ABFT, re-arms their encodings.
func (bw *BlockWorkspace) arm(label string, a *sparse.CSR, cfg BlockConfig) error {
	for slot, src := range [2]*sparse.CSR{a, cfg.M} {
		if src == nil {
			continue
		}
		live := bw.shared.liveCopy(slot, src)
		if !cfg.Scheme.abft() {
			continue
		}
		if err := bw.shared.protected(slot, live, src, abftMode(cfg.Scheme)).CS.Err; err != nil {
			return fmt.Errorf("core: %s%v: %w", label, cfg.Scheme, err)
		}
	}
	return nil
}

// pending advances every lane that started to its next product and reports
// whether any is pending: a fault-free lane's by matrix slot, unless its
// scheme is Online-Detection; any other alone.
func (bw *BlockWorkspace) pending() bool {
	bw.pend[0], bw.pend[1], bw.alone = bw.pend[0][:0], bw.pend[1][:0], bw.alone[:0]
	any := false
	for _, l := range bw.lanes[:bw.k] {
		e := &l.ws.run
		if l.err != nil || e.advance() {
			continue
		}
		if any = true; e.cfg.Injector == nil && e.cfg.Scheme != OnlineDetection {
			bw.pend[e.prod.slot] = append(bw.pend[e.prod.slot], e)
		} else {
			bw.alone = append(bw.alone, e)
		}
	}
	return any
}

// multiply runs the round's products and completes every lane on its own:
// each group of two or more as one blocked product, everything else through
// the lane's own kernel.
func (bw *BlockWorkspace) multiply() {
	for _, group := range bw.pend {
		if len(group) < 2 {
			bw.alone = append(bw.alone, group...)
			continue
		}
		bw.ps, bw.qs = bw.ps[:0], bw.qs[:0]
		for _, e := range group {
			bw.ps, bw.qs = append(bw.ps, e.prod.x), append(bw.qs, e.prod.y)
		}
		e, sr := group[0], abft.RowSums{}
		if e.abft {
			sr = e.prot[e.prod.slot].MulVecBlock(bw.qs, bw.ps)
		} else {
			e.mat[e.prod.slot].MulVecBlock(bw.qs, bw.ps)
		}
		for _, e := range group {
			e.complete(sr)
		}
	}
	for _, e := range bw.alone {
		e.complete(e.multiply())
	}
}

// finish collects every lane's solution, statistics and error.
func (bw *BlockWorkspace) finish(sts []Stats, errs []error) [][]float64 {
	bw.xs = bw.xs[:0]
	for j, l := range bw.lanes[:bw.k] {
		var x []float64
		if sts[j], errs[j] = (Stats{}), l.err; l.err == nil {
			x, sts[j], errs[j] = l.ws.run.finish()
		}
		bw.xs = append(bw.xs, x)
	}
	return bw.xs
}
