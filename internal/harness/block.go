package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sparse"
)

// BlockWorkspaces bundles the reusable arenas of a blocked multi-RHS solve:
// the core block workspace (shared matrix copy + checksum encoding, per-lane
// vectors) and a sequential workspace for the axis combinations the blocked
// driver does not cover (see SolveBlockWith). Not safe for concurrent solves.
type BlockWorkspaces struct {
	Core *core.BlockWorkspace
	Seq  *Workspaces

	// per-lane iteration adapters of the sequential fallback, bound to
	// seqCB so the closures themselves survive across solves (the warm
	// batched path is gated at zero allocations).
	seqCB   func(rhs, it int, rho float64)
	seqOnit []func(it int, rho float64)
}

// laneCallback returns lane j's iteration adapter for cb, growing the
// cached closure set on first use only.
func (ws *BlockWorkspaces) laneCallback(j int, cb func(rhs, it int, rho float64)) func(it int, rho float64) {
	ws.seqCB = cb
	for len(ws.seqOnit) <= j {
		lane := len(ws.seqOnit)
		ws.seqOnit = append(ws.seqOnit, func(it int, rho float64) { ws.seqCB(lane, it, rho) })
	}
	return ws.seqOnit[j]
}

// NewBlockWorkspaces returns an empty warm-up-on-first-use workspace bundle.
func NewBlockWorkspaces() *BlockWorkspaces {
	return &BlockWorkspaces{Core: core.NewBlockWorkspace(), Seq: &Workspaces{Core: core.NewWorkspace()}}
}

// BlockOpts bundles the execution hooks of SolveBlockWith. Every field is
// optional.
type BlockOpts struct {
	// Ws supplies the reusable block arenas; nil builds single-use ones.
	Ws *BlockWorkspaces
	// M is a prebuilt PCG preconditioner, forwarded to the sequential
	// fallback (the blocked drivers cover CG only).
	M *sparse.CSR
	// OnIteration, when non-nil, receives every right-hand side's
	// per-iteration recurrence scalar — for each RHS exactly the (it, rho)
	// stream a sequential SolveWith of that system would deliver.
	OnIteration func(rhs, it int, rho float64)
}

// SolveBlockWith solves the k systems A·x_j = bs[j] under one scenario's
// axes, with per-system trial seeds. Right-hand sides are prebuilt by the
// caller (the batch service resolves each from its own rhs_seed).
//
// Dispatch: CG × {unprotected, abft-detection, abft-correction} × fault-free
// runs the blocked driver (one matrix traversal per iteration covers every
// active system); every other combination — PCG, BiCGstab, online-detection,
// or fault injection, whose per-system injector streams and preconditioner
// state don't share a traversal — falls back to sequential per-system solves
// on the Seq workspace. Both paths are bitwise identical per system to a
// sequential SolveWith of that system alone; the blocked driver guarantees
// it by construction (gated in CI on every suite matrix), the fallback
// trivially.
//
// Per-system statistics and errors land in sts[j] and errs[j] (length ≥ k).
func SolveBlockWith(a *sparse.CSR, bs [][]float64, sc Scenario, seeds []int64, opt BlockOpts, sts []core.Stats, errs []error) error {
	k := len(bs)
	if k == 0 {
		return nil
	}
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return err
	}
	if len(seeds) < k {
		return fmt.Errorf("harness: SolveBlockWith needs len(seeds) ≥ %d", k)
	}
	if len(sts) < k || len(errs) < k {
		return fmt.Errorf("harness: SolveBlockWith needs len(sts) and len(errs) ≥ %d", k)
	}
	ws := opt.Ws
	if ws == nil {
		ws = NewBlockWorkspaces()
	}
	scheme, _ := ParseScheme(sc.Scheme)

	if sc.Solver == "cg" && sc.Alpha == 0 && scheme != core.OnlineDetection {
		_, err := core.SolveBlock(a, bs, core.BlockConfig{
			Scheme: scheme, S: sc.S, D: sc.D, Tol: sc.Tol, MaxIters: sc.MaxIters,
			OnIteration: opt.OnIteration, Ws: ws.Core,
		}, sts, errs)
		return err
	}
	for j := 0; j < k; j++ {
		scj := sc
		scj.Seed = seeds[j]
		var onIter func(it int, rho float64)
		if opt.OnIteration != nil {
			onIter = ws.laneCallback(j, opt.OnIteration)
		}
		_, st, err := SolveWith(a, bs[j], scj, seeds[j], SolveOpts{
			Ws: ws.Seq, M: opt.M, OnIteration: onIter,
		})
		sts[j] = st
		errs[j] = err
	}
	return nil
}
