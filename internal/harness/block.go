package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sparse"
)

// BlockOpts bundles the execution hooks of SolveBlockWith: those of
// SolveOpts, the observers taking the RHS index. Every field is optional.
type BlockOpts struct {
	// Ws supplies the reusable solver arena; nil builds a single-use one. Not
	// safe for concurrent solves.
	Ws *core.Workspace
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
// it resolves the recurrence and the preconditioner of the solver axis and
// gives system j the injector of (sc.Alpha, seeds[j]). Right-hand sides are
// prebuilt by the caller (the batch service resolves each from its own
// rhs_seed); each system's residual history, statistics and error are
// bitwise those of a SolveWith of that system alone.
//
// Per-system statistics and errors land in sts[j] and errs[j] (length ≥ k);
// the solutions alias workspace memory.
func SolveBlockWith(a *sparse.CSR, bs [][]float64, sc Scenario, seeds []int64, opt BlockOpts, sts []core.Stats, errs []error) ([][]float64, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) < len(bs) {
		return nil, fmt.Errorf("harness: SolveBlockWith needs len(seeds) ≥ %d", len(bs))
	}
	m, err := sc.precond(a, opt.M)
	if err != nil {
		return nil, err
	}
	scheme, _ := ParseScheme(sc.Scheme)
	rec := core.CG
	if sc.Solver == "bicgstab" {
		rec = core.BiCGstab
	}
	return core.SolveBlock(a, bs, core.Config{
		Scheme: scheme, Recurrence: rec, M: m, S: sc.S, D: sc.D, Tol: sc.Tol, MaxIters: sc.MaxIters,
		Injectors: sc.injectors(seeds[:len(bs)]), OnIteration: opt.OnIteration, OnDetection: opt.OnDetection, Ws: opt.Ws,
	}, sts, errs)
}

// SolveOpts bundles the cache-aware execution hooks of SolveWith. Every
// field is optional.
type SolveOpts struct {
	// Ws supplies reusable solver arenas: a warm workspace makes the
	// solve allocation-free, and the returned solution aliases workspace
	// memory. Must not be shared by concurrent solves.
	Ws *Workspaces
	// M is a prebuilt PCG preconditioner (the matrix BuildPrecond would
	// derive from sc.Precond). Callers that serve many solves on one
	// matrix cache it so the request path skips reconstruction; nil builds
	// it per call. Ignored for non-PCG solvers.
	M *sparse.CSR
	// OnIteration, when non-nil, receives the per-iteration recurrence
	// scalar (used to fingerprint trajectories).
	OnIteration func(it int, rho float64)
}

// SolveWith runs a single trial of the scenario on a prebuilt matrix and
// right-hand side with the injector of (sc.Alpha, seed): SolveBlockWith on a
// block of one. It is the solve primitive behind the campaign drivers, with
// every reusable artifact injectable, and its results are bitwise identical
// for any combination of hooks.
func SolveWith(a *sparse.CSR, b []float64, sc Scenario, seed int64, opt SolveOpts) ([]float64, core.Stats, error) {
	bopt := BlockOpts{M: opt.M}
	if opt.Ws != nil {
		bopt.Ws = opt.Ws.Core
	}
	if f := opt.OnIteration; f != nil {
		bopt.OnIteration = func(_, it int, rho float64) { f(it, rho) }
	}
	var sts [1]core.Stats
	var errs [1]error
	xs, err := SolveBlockWith(a, [][]float64{b}, sc, []int64{seed}, bopt, sts[:], errs[:])
	if err != nil {
		return nil, core.Stats{}, err
	}
	return xs[0], sts[0], errs[0]
}
