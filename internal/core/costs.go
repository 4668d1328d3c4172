// Package core implements the paper's primary contribution: resilient
// iterative solves that combine backward recovery (checkpoint and rollback)
// with per-iteration verification, in three flavours — and, through the same
// code, the solve they are all measured against:
//
//	OnlineDetection — Chen's scheme (PPoPP'13) as extended by the paper:
//	    verify every d iterations by recomputing the residual and checking
//	    the A-orthogonality of consecutive search directions; checkpoint
//	    every s·d iterations (priced with the matrix A, as the paper does, so
//	    that memory faults on A are recoverable); roll back on any detection.
//	ABFTDetection  — single-checksum ABFT SpMxV every iteration plus
//	    reliable-mode vector kernels (voted dots, checksum-verified updates);
//	    roll back on any detection.
//	ABFTCorrection — two-checksum ABFT SpMxV: single errors are corrected
//	    forward with no rollback; so is any number of errors in a matrix or a
//	    product's output, by restoring the matrix from the caller's copy and
//	    running the product again; only what then remains — several errors in
//	    the vectors of one iteration — rolls back.
//	Unprotected    — the baseline of every overhead the paper reports: the
//	    strict product and the plain vector kernels on the caller's matrices,
//	    nothing verified, nothing saved.
//
// One engine, four schemes, one loop. The paper's model never mentions which
// recurrence runs inside a chunk, and neither does the code: the engine
// (engine.go) owns the scheme, the d/s cadence, fault injection, ABFT
// settlement, Chen's verification, checkpoint, rollback and the modeled time,
// and is parameterised by a recurrence (recurrence.go) — CG/PCG and BiCGstab,
// chosen by Config.Recurrence — that supplies its vectors, its convergence
// norm and one step cut at its products. A scheme decides which product and
// which vector kernels a step runs and what happens between steps; the
// convergence test, the breakdown rule, the OnIteration stream and the clock
// are the same for all four, so a protection overhead divides two runs of one
// driver. SolveBlock holds the one loop: it advances the engines of k systems
// in lockstep around blocked products, under every recurrence, scheme and
// fault rate, and Solve is its block of one — each system of a block is
// bitwise that block of one.
//
// A solve runs on one goroutine, whatever its scheme — the paper's Titer,
// Tverif and Tcp are one core's flops and words, and both sides of every
// overhead get that one core by construction. Callers with cores to spare run
// more solves (the campaign fan-out of internal/harness, a shard's slots).
//
// The engine operates on genuinely corrupted memory (the fault injector
// flips real bits in the live arrays) and accounts execution time through a
// deterministic cost model, so the experiments of the paper's Section 5 are
// reproducible bit for bit. What no fault can explain — a scalar that breaks
// down again on a state rebuilt from the input, a right-hand side whose norm
// cannot be squared — ends a solve with a typed error (ErrBreakdown,
// ErrScale) instead of a rollback budget.
package core

import (
	"repro/internal/abft"
	"repro/internal/sparse"
)

// CostParams converts operation counts into model time. The defaults
// correspond to a nominal 1 Gflop/s core with memory copies at half the
// flop throughput — only ratios matter for every claim in the paper.
type CostParams struct {
	// FlopTime is the cost of one floating-point operation, in seconds.
	FlopTime float64
	// WordTime is the cost of copying one machine word (checkpoint,
	// recovery), in seconds.
	WordTime float64
	// RelModeExtra is the *time* surcharge factor for operations executed
	// in reliable mode (the vector kernels of internal/tmr and their
	// checksums): the extra time charged is RelModeExtra × the raw kernel
	// time. The paper's selective reliability model (Section 2) prices
	// reliable mode in energy, not time ("error-free but energy consuming"),
	// so the default is 0. The wall pays less than one factor covers: a dot
	// product runs twice fault-free (a surcharge of 1, and 2 when the two
	// differ and a third execution votes), an update runs once with its
	// checksum riding along (≈ 0.7 of a plain update at n = 4096,
	// docs/PERFORMANCE.md). Set 1 for an upper bound of the fault-free wall
	// and 2 for the paper's three full executions (the ablation benchmark
	// exercises all three).
	RelModeExtra float64
}

// DefaultCostParams returns the nominal calibration.
func DefaultCostParams() CostParams {
	return CostParams{FlopTime: 1e-9, WordTime: 2e-9, RelModeExtra: 0}
}

// Costs holds the derived per-operation times (seconds) for one scheme on
// one matrix: the quantities Titer, Tverif, Tcp and Trec of the paper's
// model, plus the forward-correction cost that the model neglects (it is
// paid only on actual corrections, which are rare).
//
// Tcp and Trec price the paper's checkpoint — "a valid copy of the data
// matrix A" written and read back with the vectors (checkpointWords, plus M
// when there is one) — and so do Stats.TimeCkpt, Stats.TimeRecovery and the
// model-chosen s: Table 1 and Figure 1 stay in the paper's currency. The
// wall clock pays less: the engine saves vectors and scalars only and a
// rollback re-reads the caller's matrices (see package checkpoint).
type Costs struct {
	Titer    float64 // raw CG iteration (paper's Titer)
	Tverif   float64 // per-chunk verification overhead
	Tcp      float64 // checkpoint, matrix included
	Trec     float64 // recovery, matrix included
	Tcorrect float64 // one forward correction (ABFT-Correction only)
}

// cgFlopsPerIter is the flop count of one raw CG iteration: one SpMxV plus
// two dot products and three axpy-type updates (paper Section 3.1).
func cgFlopsPerIter(a *sparse.CSR) int64 {
	n := int64(a.Rows)
	return a.FlopsMulVec() + 2*(2*n) + 3*(2*n)
}

// CGFlopsPerIter exposes the raw per-iteration flop count of CG on this
// matrix — the quantity Titer is priced from. Campaign records report it so
// modeled times can be converted back into work.
func CGFlopsPerIter(a *sparse.CSR) int64 { return cgFlopsPerIter(a) }

// checkpointWords is the size of the checkpoint the model prices: the three
// matrix arrays plus the three iteration vectors (x, r, p) — identical for
// all three methods, as the paper notes. It is not what the engine writes,
// which is the vectors alone.
func checkpointWords(a *sparse.CSR) int64 {
	return int64(a.MemoryWords() + 3*a.Rows)
}

// NewCosts derives the cost model for the given scheme and matrix.
func NewCosts(a *sparse.CSR, scheme Scheme, cp CostParams) Costs {
	n := int64(a.Rows)
	iterFlops := cgFlopsPerIter(a)
	words := checkpointWords(a)

	c := Costs{
		Titer: float64(iterFlops) * cp.FlopTime,
		Tcp:   float64(words) * cp.WordTime,
		Trec:  float64(words) * cp.WordTime,
	}

	switch scheme {
	case OnlineDetection:
		// Verification: recompute the residual b − Ax (one extra SpMxV plus
		// a subtraction and a norm) and check the orthogonality of p and q
		// (one dot and two norms). The SpMxV dominates, as the paper notes.
		verifFlops := a.FlopsMulVec() + 2*n + 2*n + (2*n + 4*n)
		c.Tverif = float64(verifFlops) * cp.FlopTime
	case ABFTDetection, ABFTCorrection:
		// Per-iteration overhead charged as wall time, matching the
		// implementation's Eq. (9) tolerance: the runtime Rowidx
		// counters (4n), the weighted sums of y (3n), C_rᵀx (2n per row),
		// the reference sums of x (3n), the two max-norms (2n) and the
		// checks of the vectors against their references (4n each for r and
		// x) — the evidence in full, as a failed check computes it. A check
		// that passes reads a sample of the norms, and the vectors are held
		// to their references inside the updates that read them, by sums the
		// update accumulates anyway; the model does not price that apart, so
		// Tverif, and with it d and s, stay as they were. The reliable-mode
		// vector kernels are priced in energy under the paper's
		// selective-reliability model; their time surcharge is RelModeExtra
		// (0 by default, see CostParams).
		tests := 4*(n+1) + 3*n + 2*n + 3*n + 2*n
		if scheme == ABFTCorrection {
			tests += 2 * n // second checksum row of Cᵀx
		}
		guardChecks := 2 * 4 * n
		relMode := cp.RelModeExtra * float64(2*(2*n)+3*(2*n)+3*3*n)
		c.Tverif = float64(tests+guardChecks)*cp.FlopTime + relMode*cp.FlopTime
		// A forward correction of a matrix or computation error recomputes
		// the column checksums (O(nnz)) plus a row and a re-verification.
		c.Tcorrect = float64(4*int64(a.NNZ())+32*n) * cp.FlopTime
	}
	return c
}

// tcorrectVector is the cost of repairing a single vector-guard error
// (O(n): reconstruction by exclusion plus a recheck).
func tcorrectVector(a *sparse.CSR, cp CostParams) float64 {
	return float64(8*int64(a.Rows)) * cp.FlopTime
}

// setupCost returns the one-off cost of building the ABFT checksum
// encoding (amortised over the whole solve; zero for the schemes without one).
func setupCost(a *sparse.CSR, scheme Scheme, cp CostParams) float64 {
	if !scheme.abft() {
		return 0
	}
	return float64(8*int64(a.NNZ())+4*int64(len(a.Rowidx))) * cp.FlopTime
}

// abftMode maps a scheme to the ABFT protection mode.
func abftMode(s Scheme) abft.Mode {
	if s == ABFTCorrection {
		return abft.DetectCorrect
	}
	return abft.Detect
}
