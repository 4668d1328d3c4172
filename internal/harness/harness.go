// Package harness is the scenario subsystem behind every experiment and
// benchmark in this repository: it composes the existing axes — matrix
// generators, solvers (CG, PCG, BiCGstab), protection schemes (the three
// resilient methods plus the unprotected baseline) and the silent-error
// injector — into named, seeded, reproducible scenarios with a typed,
// schema-versioned JSON result record.
//
// Every scheme, the baseline included, is one call into internal/core's
// engine: an overhead reported here divides two runs of the same loop with
// the same hooks. internal/solver is not on that path; tests compare the
// engine against it. SolveBlockWith turns a scenario into one core.SolveBlock
// — recurrence, preconditioner, one injector per system — and SolveWith, a
// campaign trial, is its block of one.
//
// The experiment packages (internal/sim) define the paper's Table 1 and
// Figure 1 campaigns as harness scenarios, cmd/resbench lists and runs
// registered scenarios (optionally sharded across processes, with an
// aggregator that merges shard outputs), and the smoke campaign's records
// at one and four workers must merge (resbench's
// TestRunDeterministicAcrossWorkers).
//
// Every scenario is deterministic in its seed: a trial is one sequential
// solve, per-trial injector seeds are fixed by trial index and outcomes land
// in per-trial slots, so a record's canonical form (wall time excluded) is
// bitwise identical for any worker count of the trial fan-out — the one
// level at which anything here runs in parallel.
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Scenario names one reproducible experiment cell: a matrix, a solver, a
// protection scheme, a fault rate and the seeding. The zero value of every
// optional field selects a sensible default (see withDefaults).
type Scenario struct {
	// Name uniquely identifies the scenario in the registry and in result
	// records, conventionally path-like: "smoke/cg/abft-correction/poisson2d".
	Name string `json:"name"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Tags support substring filtering beyond the name.
	Tags []string `json:"tags,omitempty"`
	// Matrix names the matrix source.
	Matrix MatrixSpec `json:"matrix"`
	// Solver is cg (default), pcg or bicgstab.
	Solver string `json:"solver,omitempty"`
	// Precond is the PCG preconditioner: jacobi (default) or neumann.
	Precond string `json:"precond,omitempty"`
	// Scheme is unprotected, online-detection, abft-detection or
	// abft-correction (default).
	Scheme string `json:"scheme,omitempty"`
	// Alpha is the expected silent errors per iteration (0 = fault-free).
	Alpha float64 `json:"alpha,omitempty"`
	// Tol is the relative residual tolerance (0 = the solver default, 1e-8).
	Tol float64 `json:"tol,omitempty"`
	// MaxIters caps the useful iterations (0 = the solver default).
	MaxIters int `json:"max_iters,omitempty"`
	// S and D override the model-optimal checkpoint and verification
	// intervals when > 0.
	S int `json:"s,omitempty"`
	D int `json:"d,omitempty"`
	// Reps is the number of independent trials (default 1). Trial i uses
	// injector seed Seed + i·7919.
	Reps int `json:"reps,omitempty"`
	// Seed bases the deterministic trial seeding.
	Seed int64 `json:"seed,omitempty"`
	// RHSSeed, when set, seeds the manufactured right-hand side instead of
	// Seed. A pointer so that every value — including 0 — is expressible:
	// campaigns share one RHS across cells whose trial seeds differ (see
	// WithRHSSeed).
	RHSSeed *int64 `json:"rhs_seed,omitempty"`
	// Baseline requests an additional fault-free unprotected reference solve
	// so the record reports the protection overhead.
	Baseline bool `json:"baseline,omitempty"`
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Solver == "" {
		sc.Solver = "cg"
	}
	if sc.Scheme == "" {
		sc.Scheme = "abft-correction"
	}
	if sc.Solver == "pcg" && sc.Precond == "" {
		sc.Precond = "jacobi"
	}
	if sc.Reps < 1 {
		sc.Reps = 1
	}
	return sc
}

func (sc Scenario) rhsSeed() int64 {
	if sc.RHSSeed != nil {
		return *sc.RHSSeed
	}
	return sc.Seed
}

// WithRHSSeed pins the right-hand-side seed (any value, 0 included),
// decoupling it from the per-cell trial seeding.
func (sc Scenario) WithRHSSeed(seed int64) Scenario {
	sc.RHSSeed = &seed
	return sc
}

// Validate rejects axis combinations the drivers do not support.
func (sc Scenario) Validate() error {
	sc = sc.withDefaults()
	switch sc.Solver {
	case "cg", "pcg", "bicgstab":
	default:
		return fmt.Errorf("harness: unknown solver %q", sc.Solver)
	}
	scheme, err := ParseScheme(sc.Scheme)
	if err != nil {
		return err
	}
	if scheme == core.Unprotected && sc.Alpha > 0 {
		return fmt.Errorf("harness: %s: the unprotected baseline cannot run under fault injection", sc.Name)
	}
	if sc.Solver == "bicgstab" && scheme == core.OnlineDetection {
		return fmt.Errorf("harness: %s: BiCGstab supports the ABFT schemes only", sc.Name)
	}
	if sc.Solver == "pcg" {
		switch sc.Precond {
		case "jacobi", "neumann":
		default:
			return fmt.Errorf("harness: unknown preconditioner %q", sc.Precond)
		}
	}
	return nil
}

// ParseScheme resolves a scheme slug (or its common aliases) to the core
// scheme.
func ParseScheme(name string) (core.Scheme, error) {
	switch name {
	case "online-detection", "online":
		return core.OnlineDetection, nil
	case "abft-detection", "abft-d":
		return core.ABFTDetection, nil
	case "abft-correction", "abft-c":
		return core.ABFTCorrection, nil
	case "unprotected", "none":
		return core.Unprotected, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}

// SchemeSlug is the inverse of ParseScheme.
func SchemeSlug(s core.Scheme) string {
	switch s {
	case core.OnlineDetection:
		return "online-detection"
	case core.ABFTDetection:
		return "abft-detection"
	case core.Unprotected:
		return "unprotected"
	default:
		return "abft-correction"
	}
}

// Workspaces bundles the reusable solver arenas of one campaign worker:
// trials running on it reuse the working matrix copies, iteration vectors,
// checksum encodings and checkpoint stores, so a warm worker performs
// per-trial heap allocations only for the bookkeeping the drivers cannot
// recycle. Not safe for concurrent solves.
type Workspaces struct {
	Core *core.Workspace
	// Solver is read by nothing: every scheme runs on Core. It stays until
	// bench/, the last code to fill it, may drop it (ROADMAP item 3).
	Solver *solver.Workspace
}

// wsPool recycles per-worker workspaces across the campaign fan-out.
var wsPool = sync.Pool{New: func() any { return &Workspaces{Core: core.NewWorkspace()} }}

// precond returns the preconditioner the scenario's solver applies: none but
// for pcg, whose is m when the caller prebuilt it and built from sc.Precond
// otherwise.
func (sc Scenario) precond(a, m *sparse.CSR) (*sparse.CSR, error) {
	if sc.Solver != "pcg" {
		return nil, nil
	}
	if m != nil {
		return m, nil
	}
	return BuildPrecond(a, sc.Precond)
}

// injector returns the fault injector of the trial with this seed, nil when
// the scenario is fault-free.
func (sc Scenario) injector(seed int64) *fault.Injector {
	if sc.Alpha <= 0 {
		return nil
	}
	return fault.New(fault.Config{Alpha: sc.Alpha, Seed: seed})
}

// injectors returns injector(seeds[j]) at index j, nil when the scenario is
// fault-free.
func (sc Scenario) injectors(seeds []int64) []*fault.Injector {
	if sc.Alpha <= 0 {
		return nil
	}
	injs := make([]*fault.Injector, len(seeds))
	for j, seed := range seeds {
		injs[j] = sc.injector(seed)
	}
	return injs
}

// BuildPrecond constructs the explicit PCG preconditioner of the given
// kind (a validated Scenario.Precond: "neumann", otherwise Jacobi).
func BuildPrecond(a *sparse.CSR, kind string) (*sparse.CSR, error) {
	switch kind {
	case "neumann":
		return precond.Neumann(a, precond.NeumannOptions{})
	default:
		return precond.Jacobi(a)
	}
}

// trialSeedStride spaces the per-trial injector seeds (kept identical to
// the historical campaign seeding so refactored experiments reproduce their
// previous outputs).
const trialSeedStride = 7919

// runTrials executes sc.Reps independent trials, fanned out across the pool's
// workers when there is one — each trial is one goroutine from start to end.
// Trial 0 records the per-iteration recurrence history into hist. Outcomes
// land in per-trial slots, so the result is deterministic for any worker
// count.
func runTrials(pl *pool.Pool, a *sparse.CSR, b []float64, sc Scenario) (outs []Trial, hist []float64) {
	sc = sc.withDefaults()
	outs = make([]Trial, sc.Reps)
	trial := func(rep int) {
		var onIter func(int, float64)
		if rep == 0 {
			onIter = func(_ int, rho float64) { hist = append(hist, rho) }
		}
		ws := wsPool.Get().(*Workspaces)
		_, st, err := SolveWith(a, b, sc, sc.Seed+int64(rep)*trialSeedStride,
			SolveOpts{Ws: ws, OnIteration: onIter})
		wsPool.Put(ws)
		outs[rep] = Trial{Stats: st, Failed: err != nil}
	}
	if pl == nil || sc.Reps == 1 {
		for rep := 0; rep < sc.Reps; rep++ {
			trial(rep)
		}
	} else {
		pl.ForEach(sc.Reps, trial)
	}
	return outs, hist
}

// TrialsOn is the campaign primitive: it runs the scenario's repetitions on
// the pool (nil = sequential) against a prebuilt matrix and right-hand side
// and returns the mean modeled time, the per-trial samples and the failure
// count — deterministic in sc.Seed for any worker count.
func TrialsOn(pl *pool.Pool, a *sparse.CSR, b []float64, sc Scenario) (meanTime float64, samples []float64, failures int) {
	outs, _ := runTrials(pl, a, b, sc)
	samples = make([]float64, len(outs))
	for i, o := range outs {
		samples[i] = o.Stats.SimTime
		if o.Failed {
			failures++
		}
	}
	return mean(samples), samples, failures
}

// RunOn runs the full scenario against a prebuilt matrix on the given pool
// and aggregates the trials into a Result record.
func RunOn(pl *pool.Pool, a *sparse.CSR, sc Scenario) (Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	b, _ := RHS(a, sc.rhsSeed())
	start := time.Now()
	outs, hist := runTrials(pl, a, b, sc)
	wall := time.Since(start).Seconds()

	res := NewResult(sc, sc.Matrix.String(), a, outs, HashBits(hist))
	res.WallSeconds = wall
	if sc.Baseline && sc.Scheme != "unprotected" {
		base := sc
		base.Scheme = "unprotected"
		base.Alpha = 0
		base.Reps = 1
		base.Baseline = false
		switch _, st, err := SolveWith(a, b, base, base.Seed, SolveOpts{}); {
		case err != nil:
			res.BaselineError = err.Error()
		case st.SimTime <= 0:
			res.BaselineError = "baseline solve reported no time"
		default:
			res.BaselineTime = st.SimTime
			res.Overhead = res.MeanSimTime/st.SimTime - 1
		}
	}
	return res, nil
}

// Run builds the scenario's matrix, sizes a pool from opt and runs it.
func Run(sc Scenario, opt RunOptions) (Result, error) {
	sc = sc.withDefaults()
	if opt.Seed != 0 {
		sc.Seed = opt.Seed
	}
	if opt.Reps > 0 {
		sc.Reps = opt.Reps
	}
	if opt.Baseline {
		sc.Baseline = true
	}
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	a, err := sc.Matrix.Build()
	if err != nil {
		return Result{}, fmt.Errorf("harness: %s: %w", sc.Name, err)
	}
	pl, done := PoolFor(opt.Workers)
	defer done()
	res, err := RunOn(pl, a, sc)
	if err != nil {
		return res, err
	}
	res.Workers = opt.Workers
	return res, nil
}

// RunOptions are the per-invocation knobs of Run, overriding the scenario's
// own values when set.
type RunOptions struct {
	// Workers sizes the worker pool: 0 = the shared GOMAXPROCS pool, 1 =
	// sequential, otherwise a dedicated pool of that size.
	Workers int
	// Seed overrides the scenario seed when nonzero.
	Seed int64
	// Reps overrides the scenario repetitions when positive.
	Reps int
	// Baseline forces the unprotected reference solve on.
	Baseline bool
}

// PoolFor resolves the Workers knob shared by the commands: 0 selects the
// process-wide default pool, 1 forces sequential execution, and any other
// value sizes a dedicated pool. The returned cleanup releases a dedicated
// pool's workers (and is a no-op otherwise).
func PoolFor(workers int) (*pool.Pool, func()) {
	switch {
	case workers == 1:
		return nil, func() {}
	case workers > 1:
		p := pool.New(workers)
		return p, p.Close
	default:
		return pool.Default(), func() {}
	}
}
