// Package tmr runs the cheap vector kernels of the solvers (dot products,
// norms, axpy updates) in the paper's reliable mode. Section 3 prescribes
// triple modular redundancy for all of them — "As ABFT methods for vector
// operations is as costly as a repeated computation, we use triple modular
// redundancy (TMR) for them for simplicity … we compute the dots, norms and
// axpy operations in the resilient mode" — and this package votes the
// reductions as prescribed. The premise does not hold for the updates here:
// the checksum of an updated vector rides inside the loop that writes it, so
// an update is executed once and verified by the paper's own method for the
// product, a checksum that is linear in the operands.
//
// # Fault model
//
// The paper asks for a reliable mode and names TMR; it does not say which
// faults it must survive. This package guards against ONE transient per
// operation, striking one execution of the kernel: an operand as it is loaded,
// the arithmetic, an accumulator, or the result (the scalar, or an element of
// the vector the execution wrote). Loop control is inside the model — a
// transient in an index or a bound is a transient of that execution.
//
// # Reductions: voted
//
// A dot product or a norm has no linear invariant to hold it to, so it is
// voted. Executions of a vote share nothing: each is its own call that the
// compiler may not inline, with its own loads, its own arithmetic and its own
// induction variable. A majority of three is decided by two that agree. With
// at most one transient, two executions that agree bit for bit are both
// clean, and a third could only repeat them: vote(a, a, c) = a for every c.
// So every reduction runs two executions and compares; the third runs only
// when they differ, and then decides as the three-way vote always did. The
// outcome is that vote's for every triple, whichever execution a transient
// strikes and whatever it does to it. What is given up is a count: a
// transient that would have struck only the third execution is no longer
// outvoted and recorded, because that execution no longer exists.
//
// A vote in which all three executions differ has no majority: more than one
// transient struck, which the model excludes and the vote cannot repair. It
// yields replica 1's value because it must yield something, but nobody
// vouches for that value, so such votes are counted (Stats) and the
// resilient drivers treat a moved count as a detected error and roll back.
//
// Results are compared by bit pattern, so equal NaNs agree and −0 against +0
// is a dissent. Operand memory is not the vote's business: a word that is
// wrong in memory is wrong for every execution that loads it. A reduction
// reads its operands unverified — see the last section for what that leaves.
//
// # Updates: one execution, verified by linearity
//
// Axpy, Xpay and the Guarded forms (AxpyToGuarded among them) are one kernel,
// z ← a + α·b, executed once and in place. The Guarded forms return the
// checksum of z under one or two weight rows, accumulated in index order as
// the elements are written — the bits checksum.Sums would produce from
// re-reading z. The caller holds them to wᵀa + α·wᵀb, computed from the reliable
// checksums it already keeps of a and b (abft.VectorGuard.Linear), within the
// rounding of the sums and of the update: 2γₙ₊₂ Σ wᵢ(|aᵢ| + |α·bᵢ| + |zᵢ|),
// the bound of the paper's Eq. (7) for this kernel. The sums that pass become
// the reference of z, so no second pass captures it and no rounding
// accumulates.
//
// Because z is computed from the operands' memory while the expectation comes
// from their references, that one comparison covers more than the arithmetic:
//
//   - a transient in the execution — an operand load, the multiply-add, the
//     value on its way to memory and to the sums — moves wᵀz alone;
//   - a word of a or b that changed in memory since its reference was taken,
//     however long ago, is read by the update and contradicts the reference:
//     operand memory is verified at the point of use, with no pass of its own
//     and no window between a check and the read it was meant to protect;
//   - a word of z that changes after the update is caught the same way by
//     whatever update or protected product reads z next.
//
// One checksum row detects; two rows locate — a single error of value δ in
// element d leaves the defect pair (δ, (d+1)·δ) — and the element is rebuilt
// by exclusion from the expected checksum, then everything is summed and
// compared once more.
//
// What is given up against voting the updates, as this package did before: the
// bit-exact vote caught every transient, however small; the checksum catches
// those whose effect on a row exceeds the tolerance. A transient that changes
// an element by less than the rounding of the sums it enters escapes — the
// accepted false negative the paper's Eq. (9) gives the product, harmless for
// the same reason: it is a perturbation of rounding magnitude in an iteration
// that tolerates rounding. Memory flips lose nothing (the guards' checks were
// tolerance-based already) and gain the windows above.
//
// On deterministic hardware an execution is what the plain kernel computes;
// the Corrupt hook lets tests and fault campaigns inject a transient into a
// chosen execution. The updates write what vec.Axpy, vec.AxpyTo and vec.Xpay
// write, bit for bit, with one exception no caller can tell apart: where both
// addends of an element are NaN, the payload that survives is the first
// operand of the machine add, an order Go leaves to the compiler per loop and
// per build mode. FuzzVotedOps checks exactly this against the eager voted
// update, which survives as its reference, and holds the linear check to its
// contract; FuzzVotedDots holds the lazy vote to an eager one.
//
// # Reads that stay unverified
//
// A verified kernel — an update, or a protected product (internal/abft) —
// holds every vector it reads to its reference. What the resilient drivers
// (internal/core) read outside one is not held to anything at that moment:
//
//   - a dot product or norm reads its operands as they are. A word struck
//     after the last verified kernel touched the vector and before the
//     reduction gives a wrong scalar; the next verified kernel that reads the
//     vector detects the word, and the drivers then do not repair forward
//     around a scalar that may be wrong (core: an update that finds a
//     surviving operand changed rolls back; PCG re-derives ρ = rᵀz when its
//     r-update repairs). Until that kernel runs the scalar is in use.
//   - BiCGstab computes ρ = r̂ᵀr, and its direction p ← r + β(p − ω·v) in a
//     hand-written loop, before any update or product has read r: it keeps
//     one standalone check of r there (abft.VectorGuard.Check). p and v are
//     read by that loop as they are and the result is re-captured: a word of
//     theirs struck since their last verified read becomes part of the new
//     direction, which is a valid direction still.
//   - BiCGstab's half-step test reads ‖s‖, and every recurrence's convergence
//     test a norm of r, unverified: a wrong one costs a failed confirmation
//     or an iteration more, never a wrong answer — convergence is confirmed
//     on a recomputed residual.
//   - the shadow residual r̂ is written once and only ever read by dot
//     products; it has no checksum.
//
// core.FuzzPhaseBoundaries strikes between every two of these phases and
// requires convergence to the unprotected answer under both ABFT schemes.
package tmr

import (
	"fmt"
	"math"

	"repro/internal/checksum"
	"repro/internal/vec"
)

// block is the number of elements the Corrupt hook is shown at a time.
const block = 512

// Executor runs vector kernels in reliable mode. It must not be copied after
// first use.
type Executor struct {
	// Corrupt, when non-nil, may perturb an execution to simulate a transient
	// fault in it. The reductions call it once per execution with the replica
	// index and the scalar result: replicas 0 and 1, and replica 2 only when
	// those two differ. The element-wise updates run once and call it once per
	// block, with replica 0 and the block just written — the whole vector when
	// it is no longer than a block — before the block's checksum is taken, as
	// a transient in the arithmetic would come before it.
	Corrupt func(replica int, scalar *float64, vector []float64)

	votes, mismatches, undecided int64
}

// Stats reports how many reductions were voted, how many of them saw two
// executions differ (a transient was outvoted), and how many found no two
// executions agreeing: a value nobody vouches for went out, and the caller
// must treat the operation as failed.
func (e *Executor) Stats() (votes, mismatches, undecided int64) {
	return e.votes, e.mismatches, e.undecided
}

// count records one voted reduction.
func (e *Executor) count(dissent, split bool) {
	e.votes++
	if dissent {
		e.mismatches++
	}
	if split {
		e.undecided++
	}
}

// vote is the majority of three replicas by bit pattern, whether any replica
// dissented, and whether all three differ — no majority, and the value is b.
func vote(a, b, c float64) (v float64, dissent, split bool) {
	ab, bb, cb := math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)
	switch {
	case ab == bb:
		return a, ab != cb, false
	case ab == cb:
		return a, true, false
	}
	return b, true, bb != cb
}

// Dot computes aᵀb with TMR.
func (e *Executor) Dot(a, b []float64) float64 { return e.reduce(vec.DotBlocked, a, b) }

// Norm2Sq computes ‖a‖₂² with TMR.
func (e *Executor) Norm2Sq(a []float64) float64 { return e.reduce(norm2Sq, a, nil) }

// norm2Sq gives vec.Norm2SqBlocked the shape of reduce's two-operand kernels.
func norm2Sq(a, _ []float64) float64 { return vec.Norm2SqBlocked(a) }

// run is the one execution of an update. With a Corrupt hook it goes block
// by block, each block shown to the hook as soon as it is written and summed
// from memory after that: the bits the fused summation gives when the hook
// perturbs nothing.
func (e *Executor) run(dst, a []float64, alpha float64, b []float64, rows int, sums *checksum.Running) {
	if e.Corrupt == nil {
		axpyBlock(dst, a, alpha, b, rows, sums)
		return
	}
	for lo := 0; lo < len(dst); lo += block {
		end := min(lo+block, len(dst))
		axpyBlock(dst[lo:end], a[lo:end], alpha, b[lo:end], 0, nil)
		e.Corrupt(0, nil, dst[lo:end])
		if rows > 0 {
			sums.Add(dst[lo:end], rows)
		}
	}
}

// reduce votes one scalar kernel over a and b: two executions, and the third
// only to settle a difference between them.
func (e *Executor) reduce(kernel func(a, b []float64) float64, a, b []float64) float64 {
	r0, r1 := e.once(kernel, 0, a, b), e.once(kernel, 1, a, b)
	if math.Float64bits(r0) == math.Float64bits(r1) {
		e.count(false, false)
		return r0
	}
	v, dissent, split := vote(r0, r1, e.once(kernel, 2, a, b))
	e.count(dissent, split)
	return v
}

// once is one execution of a scalar kernel. It is never inlined, so the
// executions of a vote are calls the compiler cannot merge, each with its own
// loop.
//
//go:noinline
func (e *Executor) once(kernel func(a, b []float64) float64, replica int, a, b []float64) float64 {
	r := kernel(a, b)
	if e.Corrupt == nil {
		return r
	}
	return e.corrupted(replica, r)
}

// corrupted hands one scalar result to the hook. The result escapes here and
// not in once, so only a hooked executor allocates.
func (e *Executor) corrupted(replica int, r float64) float64 {
	e.Corrupt(replica, &r, nil)
	return r
}

// Axpy computes y ← y + alpha·x.
func (e *Executor) Axpy(alpha float64, x, y []float64) { e.update(y, y, alpha, x, 0) }

// Xpay computes y ← x + alpha·y.
func (e *Executor) Xpay(alpha float64, x, y []float64) { e.update(y, x, alpha, y, 0) }

// AxpyGuarded is Axpy returning the checksum of the updated y under the
// first rows weight rows (1 or 2; with one row S2 is zero): what the caller
// holds to the operands' checksums (abft.VectorGuard.Linear).
func (e *Executor) AxpyGuarded(rows int, alpha float64, x, y []float64) checksum.Vector {
	return e.update(y, y, alpha, x, rows)
}

// AxpyToGuarded computes dst ← y + alpha·x (dst may alias y or x) and
// returns the checksum of dst, as AxpyGuarded; with rows 0 it returns none.
func (e *Executor) AxpyToGuarded(rows int, dst []float64, alpha float64, x, y []float64) checksum.Vector {
	return e.update(dst, y, alpha, x, rows)
}

// XpayGuarded is Xpay returning the checksum of the updated y, as
// AxpyGuarded.
func (e *Executor) XpayGuarded(rows int, alpha float64, x, y []float64) checksum.Vector {
	return e.update(y, x, alpha, y, rows)
}

// update is the element-wise kernel dst ← a + alpha·b, one execution in
// place; dst may alias either operand. rows selects the checksum rows of dst
// handed back (0 for none).
func (e *Executor) update(dst, a []float64, alpha float64, b []float64, rows int) checksum.Vector {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("tmr: length mismatch %d, %d, %d", n, len(a), len(b)))
	}
	var sums checksum.Running
	e.run(dst, a, alpha, b, rows, &sums)
	return checksum.Vector{S1: sums.S1, S2: sums.S2}
}

// axpyBlock computes dst ← a + alpha·b and, with rows > 0, extends sums by
// the values written — the latency-bound summation rides along with the
// arithmetic instead of re-reading the block.
func axpyBlock(dst, a []float64, alpha float64, b []float64, rows int, sums *checksum.Running) {
	a, b = a[:len(dst)], b[:len(dst)]
	switch rows {
	case 0:
		for i := range dst {
			dst[i] = a[i] + alpha*b[i]
		}
	case 1:
		s1 := sums.S1
		for i := range dst {
			v := a[i] + alpha*b[i]
			dst[i] = v
			s1 += v
		}
		sums.S1 = s1
		sums.N += len(dst)
	default:
		// The row-2 weight runs along as a float: integers below 2^53 are
		// exact, so it is the number a conversion of the index gives.
		s1, s2, w := sums.S1, sums.S2, float64(sums.N)
		for i := range dst {
			v := a[i] + alpha*b[i]
			dst[i] = v
			w++
			s1 += v
			s2 += w * v
		}
		sums.S1, sums.S2 = s1, s2
		sums.N += len(dst)
	}
}
