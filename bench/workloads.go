package main

import (
	"fmt"
	"math/rand"

	"repro/internal/harness"
)

// The two solve operands. stencil is vector-kernel-bound (5 nnz/row, an
// iteration is mostly dots and axpys); denserow is SpMxV-bound (49
// nnz/row). Fault-free ABFT-CG costs 3.7× unprotected on the first and
// 1.45× on the second, which is why one operand is not enough.
var (
	stencilSpec  = harness.MatrixSpec{Gen: "poisson2d", N: 4096}
	denserowSpec = harness.MatrixSpec{Gen: "suite", ID: 341, N: 2880}
)

// namedMatrices resolves the matrix names ops carry.
var namedMatrices = map[string]harness.MatrixSpec{
	"stencil":  stencilSpec,
	"denserow": denserowSpec,
	"p64":      {Gen: "poisson2d", N: 64},
	"p100":     {Gen: "poisson2d", N: 100},
	"p144":     {Gen: "poisson2d", N: 144},
	"p256":     {Gen: "poisson2d", N: 256},
}

// Right-hand-side and injector seeds are pinned, not drawn from -seed.
// Sizing runs showed why: a different right-hand side moves BiCGstab's
// iteration count on stencil by ±8 % (120…143), and under injection any
// change of data moves the re-executed work of the 48 faulty solves by ±7 %
// — input variance several times the 5 % bound the time metrics carry.
// -seed drives what does not change the amount of work: the order of every
// round, which inline matrices exist and which of them each round draws.
const (
	rhsSeed    = 101 // the single-RHS ops of every named matrix
	trialSeed  = 1   // injector seed field of fault-free requests (unused by the solver)
	faultAlpha = 1.0 / 16
)

var (
	injectorSeeds = []int64{11, 23, 37}
	batchRHSSeeds = []int64{101, 202, 303, 404} // lane 0 shares the single-RHS system

	solvers          = []string{"cg", "pcg", "bicgstab"}
	protectedSchemes = []string{"online-detection", "abft-detection", "abft-correction"}
)

const (
	unprotected    = "unprotected"
	abftCorrection = "abft-correction"
)

// inlineCount is the inline working set of serve_mixed: twice the two
// shards' 32-entry caches, so about half the inline requests miss and
// evictions are steady.
const inlineCount = 128

type opKind int

const (
	kindSolve  opKind = iota // in-process harness.SolveWith
	kindSingle               // POST /v1/solve, named matrix
	kindInline               // POST /v1/solve, inline CSR body
	kindBatch                // POST /v1/solve/batch
	kindStream               // POST /v1/solve, SSE
)

var kindNames = [...]string{"solve", "single", "inline", "batch", "stream"}

func (k opKind) String() string { return kindNames[k] }

// op is one operation of a workload: a solve call or a request. Seeds and
// RHS have one entry per right-hand side (four for a batch).
type op struct {
	Kind   opKind
	Matrix string // a namedMatrices key; "laplacian" or "randomspd" for inline ops
	Inline int    // index into the inline working set (kindInline)
	Solver string
	Scheme string
	Alpha  float64
	Seeds  []int64
	RHS    []int64
}

func (o *op) protected() bool { return o.Scheme != unprotected }

// group names what an op's unprotected twin shares with it: protection
// overhead is a protected op's wall against the fault-free unprotected wall
// of the same kind, matrix and solver.
func (o *op) group() string { return o.Kind.String() + "/" + o.matrixKey() + "/" + o.Solver }

// matrixKey identifies the system matrix (inline ops: one of the working
// set).
func (o *op) matrixKey() string {
	if o.Kind == kindInline {
		return fmt.Sprintf("inline#%d", o.Inline)
	}
	return o.Matrix
}

// laneKey identifies right-hand side i's solve: everything its residual
// history depends on. References are stored under it.
func (o *op) laneKey(i int) string {
	return fmt.Sprintf("%s|%s|%s|%g|%d|%d", o.matrixKey(), o.Solver, o.Scheme, o.Alpha, o.Seeds[i], o.RHS[i])
}

// String is the op's full identity (the determinism tests compare lists of
// these).
func (o *op) String() string {
	return fmt.Sprintf("%s:%s|%s|%s|%g|%v|%v", o.Kind, o.matrixKey(), o.Solver, o.Scheme, o.Alpha, o.Seeds, o.RHS)
}

// workload is one named set of inputs. Its operations come in rounds: round
// r is a function of (seed, r) alone, every round holds the same multiset of
// cells in a fresh order, and a run executes rounds until its time is up —
// so two commits run the same operations whatever their speed.
type workload struct {
	Name string
	Why  string
	// Serve runs the round through router → shards with concurrent callers;
	// otherwise it is a sequence of in-process solves on one goroutine, and
	// a round is one pass that always completes.
	Serve bool
	// TraceRounds is the fixed length of each half of a traced run.
	TraceRounds int
	round       func(rng *rand.Rand) []op
	// warmup lists the operations run and discarded before timing starts, so
	// that connections, workspaces and caches are in their steady state. For
	// solve workloads it is one pass, which also becomes the reference every
	// later pass must reproduce.
	warmup func() []op
	// lanes lists every distinct operation a run can issue, for set-up to
	// find their references (nil: those of warmup).
	lanes func() []op
}

// Round returns round r of the workload for the seed.
func (w *workload) Round(seed int64, r int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	ops := w.round(rng)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

var workloads = []*workload{
	{
		Name:        "solve_clean",
		Why:         "fault-free protected vs unprotected solves, 2 matrices x 3 solvers x 4 schemes in-process: kernels and the drivers' clean path do all the work, checkpoint/server/router none",
		TraceRounds: 6,
		round:       solveCleanRound,
		warmup:      func() []op { return solveCleanRound(nil) },
	},
	{
		Name:        "solve_faulty",
		Why:         "the same 16 protected cells under injection (alpha=1/16, 3 injector seeds) plus 6 unprotected references: checkpoint, rollback and forward correction do the work",
		TraceRounds: 2,
		round:       solveFaultyRound,
		warmup:      func() []op { return solveFaultyRound(nil) },
	},
	{
		Name:        "serve_warm",
		Why:         "tiny cache-resident solves (poisson2d n up to 256) through router and 2 shards: the per-request path dominates, a kernel change predicts no move",
		Serve:       true,
		TraceRounds: 12,
		round:       serveWarmRound,
		warmup:      func() []op { return append(serveWarmCells(), serveWarmCells()...) },
	},
	{
		Name:        "serve_mixed",
		Why:         "36 inline-CSR singles over a working set 2x the caches, 16 k=4 batches and 12 SSE streams on the big matrices per round: decode, cache fill, blocked solves; solve time dominates",
		Serve:       true,
		TraceRounds: 3,
		round:       serveMixedRound,
		warmup:      func() []op { return serveMixedCells(abftCorrection) },
		lanes:       func() []op { return serveMixedCells(abftCorrection, unprotected) },
	},
}

// allLanes is every distinct operation a run of the workload can issue.
func (w *workload) allLanes() []op {
	if w.lanes != nil {
		return w.lanes()
	}
	return w.warmup()
}

// rounds binds the seed: the round source a segment runs from.
func (w *workload) rounds(seed int64) func(r int) []op {
	return func(r int) []op { return w.Round(seed, r) }
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func single(kind opKind, matrix, solver, scheme string, alpha float64, seed int64) op {
	return op{Kind: kind, Matrix: matrix, Solver: solver, Scheme: scheme, Alpha: alpha,
		Seeds: []int64{seed}, RHS: []int64{rhsSeed}}
}

// supports reports whether the drivers implement the solver × scheme pair.
func supports(solver, scheme string) bool {
	return !(solver == "bicgstab" && scheme == "online-detection")
}

// solveCleanRound is one pass over the 22 fault-free cells.
func solveCleanRound(*rand.Rand) []op {
	var ops []op
	for _, m := range []string{"stencil", "denserow"} {
		for _, s := range solvers {
			ops = append(ops, single(kindSolve, m, s, unprotected, 0, trialSeed))
			for _, sch := range protectedSchemes {
				if supports(s, sch) {
					ops = append(ops, single(kindSolve, m, s, sch, 0, trialSeed))
				}
			}
		}
	}
	return ops
}

// solveFaultyRound is one pass over the 16 protected cells × 3 injector
// seeds under injection, plus the 6 fault-free unprotected references the
// overhead ratio is normalised by.
func solveFaultyRound(*rand.Rand) []op {
	var ops []op
	for _, m := range []string{"stencil", "denserow"} {
		for _, s := range solvers {
			ops = append(ops, single(kindSolve, m, s, unprotected, 0, trialSeed))
			for _, sch := range protectedSchemes {
				if !supports(s, sch) {
					continue
				}
				for _, inj := range injectorSeeds {
					ops = append(ops, single(kindSolve, m, s, sch, faultAlpha, inj))
				}
			}
		}
	}
	return ops
}

// serveWarmCells is one request for each of the 24 tiny cells.
func serveWarmCells() []op {
	var ops []op
	for _, m := range []string{"p64", "p100", "p144", "p256"} {
		for _, s := range solvers {
			for _, sch := range []string{abftCorrection, unprotected} {
				ops = append(ops, single(kindSingle, m, s, sch, 0, trialSeed))
			}
		}
	}
	return ops
}

// serveWarmRound is ten requests for each cell.
func serveWarmRound(*rand.Rand) []op {
	var ops []op
	for rep := 0; rep < 10; rep++ {
		ops = append(ops, serveWarmCells()...)
	}
	return ops
}

// inlineOp is the request for inline matrix i: even indices are graph
// Laplacians (≈52 KB bodies), odd ones random SPD (≈219 KB); the solver
// cycles with the index.
func inlineOp(i int, scheme string) op {
	o := single(kindInline, "laplacian", solvers[i%len(solvers)], scheme, 0, trialSeed)
	if i%2 == 1 {
		o.Matrix = "randomspd"
	}
	o.Inline = i
	return o
}

// inlineSpec is the generator of inline matrix i under the workload seed.
func inlineSpec(seed int64, i int) harness.MatrixSpec {
	gen := "laplacian"
	if i%2 == 1 {
		gen = "randomspd"
	}
	return harness.MatrixSpec{Gen: gen, N: 1024, Seed: seed*1000 + int64(i)}
}

// bigCells lists the batch (k=4) and streamed cells of serve_mixed once
// each: 4 batches on cg — the solver the blocked multi-RHS drivers cover —
// and 12 streams.
func bigCells() (batches, streams []op) {
	for _, m := range twoOperand {
		for _, sch := range []string{abftCorrection, unprotected} {
			b := single(kindBatch, m, "cg", sch, 0, trialSeed)
			b.Seeds = []int64{trialSeed, trialSeed, trialSeed, trialSeed}
			b.RHS = batchRHSSeeds
			batches = append(batches, b)
			for _, s := range solvers {
				streams = append(streams, single(kindStream, m, s, sch, 0, trialSeed))
			}
		}
	}
	return batches, streams
}

// serveMixedRound is 64 operations — 36 inline singles drawn uniformly from
// the working set, 16 batches of four and 12 streamed solves on the big
// matrices — each kind half protected and half not. The slowest cell (a
// batch on denserow) is 4 of the 64, so the 95th percentile of the mix lies
// inside it and not on the edge between two cells.
func serveMixedRound(rng *rand.Rand) []op {
	var ops []op
	for j := 0; j < 36; j++ {
		scheme := abftCorrection
		if j%2 == 1 {
			scheme = unprotected
		}
		ops = append(ops, inlineOp(rng.Intn(inlineCount), scheme))
	}
	batches, streams := bigCells()
	for rep := 0; rep < 4; rep++ {
		ops = append(ops, batches...)
	}
	return append(ops, streams...)
}

// serveMixedCells lists every inline matrix once per scheme given, then
// every big cell. As a warm-up (one scheme) it leaves the shards' caches
// full of the most recent half of the working set — the steady state of
// uniform draws.
func serveMixedCells(inlineSchemes ...string) []op {
	var ops []op
	for _, sch := range inlineSchemes {
		for i := 0; i < inlineCount; i++ {
			ops = append(ops, inlineOp(i, sch))
		}
	}
	batches, streams := bigCells()
	return append(append(ops, batches...), streams...)
}
