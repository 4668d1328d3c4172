package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sparse"
)

// BlockOpts bundles the execution hooks of SolveBlockWith: those of
// SolveOpts, the observers taking the RHS index. Every field is optional.
type BlockOpts struct {
	// Ws supplies the reusable block arena; nil builds a single-use one. Not
	// safe for concurrent solves.
	Ws *core.BlockWorkspace
	// M is a prebuilt PCG preconditioner (SolveOpts.M).
	M *sparse.CSR
	// OnIteration, when non-nil, receives every right-hand side's
	// per-iteration recurrence scalar — for each RHS exactly the (it, rho)
	// stream a SolveWith of that system would deliver.
	OnIteration func(rhs, it int, rho float64)
	// OnDetection, when non-nil, receives every right-hand side's
	// fault-detection episodes (SolveOpts.OnDetection).
	OnDetection func(rhs int, ev core.DetectionEvent)
}

// SolveBlockWith solves the k systems A·x_j = bs[j] under one scenario's
// axes, with per-system trial seeds, as one blocked solve (core.SolveBlock):
// every solver, scheme and fault rate SolveWith accepts. Right-hand sides are
// prebuilt by the caller (the batch service resolves each from its own
// rhs_seed), and system j gets the injector SolveWith builds from seeds[j],
// so each system's residual history, statistics and error are bitwise those
// of a SolveWith of that system alone.
//
// Per-system statistics and errors land in sts[j] and errs[j] (length ≥ k).
func SolveBlockWith(a *sparse.CSR, bs [][]float64, sc Scenario, seeds []int64, opt BlockOpts, sts []core.Stats, errs []error) error {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return err
	}
	if len(seeds) < len(bs) {
		return fmt.Errorf("harness: SolveBlockWith needs len(seeds) ≥ %d", len(bs))
	}
	m, err := sc.precond(a, opt.M)
	if err != nil {
		return err
	}
	scheme, _ := ParseScheme(sc.Scheme)
	_, solve := sc.drivers()
	_, err = solve(a, bs, core.BlockConfig{
		Scheme: scheme, M: m, S: sc.S, D: sc.D, Tol: sc.Tol, MaxIters: sc.MaxIters,
		Injectors: sc.injectors(seeds[:len(bs)]), OnIteration: opt.OnIteration, OnDetection: opt.OnDetection, Ws: opt.Ws,
	}, sts, errs)
	return err
}
