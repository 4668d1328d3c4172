// Package tmr implements triple modular redundancy for the cheap vector
// kernels of the solvers (dot products, norms, axpy updates), as prescribed
// by the paper's Section 3: "As ABFT methods for vector operations is as
// costly as a repeated computation, we use triple modular redundancy (TMR)
// for them for simplicity … we compute the dots, norms and axpy operations
// in the resilient mode."
//
// # Fault model
//
// The paper asks for a reliable mode and names TMR; it does not say which
// faults the vote must survive. This package votes against ONE transient per
// voted operation, striking one execution of the kernel: an operand as it is
// loaded, the arithmetic, an accumulator, or the result (the scalar, or an
// element of the block the execution wrote). Operand memory is not the
// vote's business: a word that is wrong in memory is wrong for every
// execution that loads it, and is what the checksum guards of internal/abft
// are for. Loop control is inside the model — a transient in an index or a
// bound is a transient of that execution — so executions share nothing: each
// is its own call that the compiler may not inline, with its own loads, its
// own arithmetic and its own induction variable.
//
// # What follows from it
//
// A majority of three is decided by two that agree. With at most one
// transient, two executions that agree bit for bit are both clean, and a
// third could only repeat them: vote(a, a, c) = a for every c. So every
// operation runs two executions and compares; the third runs only when they
// differ, and then decides as the three-way vote always did. The outcome is
// that vote's for every triple — the value returned, the bits written —
// whichever execution a transient strikes and whatever it does to it. What
// is given up is a count: a transient that would have struck only the third
// execution is no longer outvoted and recorded, because that execution no
// longer exists.
//
// A vote in which all three executions differ has no majority: more than one
// transient struck, which the model excludes and the vote cannot repair. It
// yields replica 1's value because it must yield something, but nobody
// vouches for that value, so such votes are counted (Stats) and the
// resilient drivers treat a moved count as a detected error and roll back.
//
// On deterministic hardware the executions are bit-identical unless a
// transient strikes one; the Corrupt hook lets tests and fault campaigns
// inject exactly such a transient into a chosen one. Results are compared by
// bit pattern, so equal NaNs agree and −0 against +0 is a dissent.
//
// # The element-wise updates
//
// Axpy, AxpyTo, Xpay and their Guarded forms are one kernel, dst ← a + α·b,
// run block by block: for each block of a few hundred elements, replicas 1
// and 0 are computed from the operands into two cache-resident buffers and
// compared in bulk; when they agree, one of them is copied to the
// destination. Only a block on which they differ runs replica 2 — last and
// in place, the others having read the old operands, which dst may alias —
// and is voted element by element. The Guarded forms additionally return the
// two-row checksum of the voted vector, accumulated block after block in
// index order — the bits checksum.Sums would produce from re-reading it — so
// a guard reference can be installed with no second pass and no window
// between the write and the capture.
//
// The updates write what vec.Axpy, vec.AxpyTo and vec.Xpay write, bit for
// bit, with one exception no caller can tell apart: where both addends of an
// element are NaN, the payload that survives is the first operand of the
// machine add, an order Go leaves to the compiler per loop and per build
// mode. FuzzVotedOps checks exactly this, and holds the lazy vote to an eager
// three-execution one.
package tmr

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/vec"
)

// block is the number of elements voted at a time: the two replica buffers
// and the block of the destination stay well inside an L1 cache.
const block = 512

// Executor runs vector kernels in triple modular redundancy. It must not be
// copied after first use.
type Executor struct {
	// Corrupt, when non-nil, may perturb an execution to simulate a transient
	// fault in it. The reductions call it once per execution with the replica
	// index and the scalar result: replicas 0 and 1, and replica 2 only when
	// those two differ. The element-wise updates call it once per execution
	// per block with the replica index and that block of the replica's output
	// — the whole vector when it is no longer than a block — in the order 1,
	// 0, and then 2 only for a block on which those two differ: a replica 2
	// that nothing called for is never run, so a hook waiting for it is never
	// called. With a Pool and a vector long enough to be split, blocks of
	// different ranges reach the hook concurrently.
	Corrupt func(replica int, scalar *float64, vector []float64)

	// Pool, when non-nil, spreads the O(n) work over the worker pool: the
	// reductions run each replica through the deterministic blocked variants
	// from internal/vec, the element-wise updates vote disjoint ranges
	// concurrently. Either way the replicas stay bit-identical (the voting
	// invariant) and the result is that of a nil Pool — same bits, one
	// goroutine.
	Pool *pool.Pool

	votes, mismatches, undecided int64

	// scratch holds replicas 0 and 1 of the block being voted on the calling
	// goroutine, grown to two blocks — or two vectors, when those are
	// shorter — and kept; pool workers draw theirs from rangeScratch.
	scratch []float64

	// The update in flight, read by the pool workers through ranges — the
	// closure is built once, so a pooled update allocates nothing; dissent
	// and split are what the ranges found.
	dst, a, b      []float64
	alpha          float64
	dissent, split atomic.Bool
	ranges         func(lo, hi int)
}

// rangeScratch recycles the replica buffers of the pooled ranges.
var rangeScratch = sync.Pool{New: func() any { return new([2 * block]float64) }}

// Stats reports how many operations were voted, how many of them saw two
// executions differ (a transient was outvoted), and how many found no two
// executions agreeing: a value nobody vouches for went out, and the caller
// must treat the operation as failed.
func (e *Executor) Stats() (votes, mismatches, undecided int64) {
	return e.votes, e.mismatches, e.undecided
}

// count records one voted operation.
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
func (e *Executor) Dot(a, b []float64) float64 { return e.reduce(vec.DotPool, a, b) }

// Norm2Sq computes ‖a‖₂² with TMR.
func (e *Executor) Norm2Sq(a []float64) float64 { return e.reduce(norm2Sq, a, nil) }

// norm2Sq gives vec.Norm2SqPool the shape of reduce's two-operand kernels.
func norm2Sq(p *pool.Pool, a, _ []float64) float64 { return vec.Norm2SqPool(p, a) }

// reduce votes one scalar kernel over a and b: two executions, and the third
// only to settle a difference between them.
func (e *Executor) reduce(kernel func(*pool.Pool, []float64, []float64) float64, a, b []float64) float64 {
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
func (e *Executor) once(kernel func(*pool.Pool, []float64, []float64) float64, replica int, a, b []float64) float64 {
	r := kernel(e.Pool, a, b)
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

// Axpy computes y ← y + alpha·x with TMR.
func (e *Executor) Axpy(alpha float64, x, y []float64) { e.update(y, y, alpha, x, 0) }

// AxpyTo computes dst ← y + alpha·x with TMR. dst may alias y or x.
func (e *Executor) AxpyTo(dst []float64, alpha float64, x, y []float64) {
	e.update(dst, y, alpha, x, 0)
}

// Xpay computes y ← x + alpha·y with TMR.
func (e *Executor) Xpay(alpha float64, x, y []float64) { e.update(y, x, alpha, y, 0) }

// AxpyGuarded is Axpy returning the checksum of the updated y under the
// first rows weight rows (1 or 2; with one row S2 is zero).
func (e *Executor) AxpyGuarded(rows int, alpha float64, x, y []float64) checksum.Vector {
	return e.update(y, y, alpha, x, rows)
}

// AxpyToGuarded is AxpyTo returning the checksum of dst, as AxpyGuarded.
func (e *Executor) AxpyToGuarded(rows int, dst []float64, alpha float64, x, y []float64) checksum.Vector {
	return e.update(dst, y, alpha, x, rows)
}

// XpayGuarded is Xpay returning the checksum of the updated y, as
// AxpyGuarded.
func (e *Executor) XpayGuarded(rows int, alpha float64, x, y []float64) checksum.Vector {
	return e.update(y, x, alpha, y, rows)
}

// update is the voted element-wise kernel dst ← a + alpha·b; dst may alias
// either operand. rows selects the checksum rows of dst handed back (0 for
// none). Vectors below vec.MinParallel never consult the pool, as the plain
// pooled kernels behave; above it each pool range votes its own blocks and
// the sums are taken afterwards in one index-order pass, because per-range
// partial sums would round differently.
func (e *Executor) update(dst, a []float64, alpha float64, b []float64, rows int) checksum.Vector {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("tmr: length mismatch %d, %d, %d", n, len(a), len(b)))
	}
	e.dst, e.a, e.b, e.alpha = dst, a, b, alpha
	var sums checksum.Running
	var dissent, split bool
	if e.Pool == nil || n < vec.MinParallel {
		if need := 2 * min(n, block); len(e.scratch) < need {
			e.scratch = make([]float64, need)
		}
		dissent, split = e.voteRange(0, n, e.scratch, rows, &sums)
	} else {
		if e.ranges == nil {
			e.ranges = func(lo, hi int) {
				buf := rangeScratch.Get().(*[2 * block]float64)
				var none checksum.Running
				if dissent, split := e.voteRange(lo, hi, buf[:], 0, &none); dissent {
					e.dissent.Store(true)
					if split {
						e.split.Store(true)
					}
				}
				rangeScratch.Put(buf)
			}
		}
		e.dissent.Store(false)
		e.split.Store(false)
		e.Pool.Run(n, vec.BlockSize, e.ranges)
		dissent, split = e.dissent.Load(), e.split.Load()
		if rows > 0 {
			sums.Add(dst, rows)
		}
	}
	e.count(dissent, split)
	return checksum.Vector{S1: sums.S1, S2: sums.S2}
}

// voteRange runs the update in flight over [lo, hi) block by block, using
// the two halves of buf for replicas 0 and 1, and reports whether any block
// saw them differ and whether any element was left without a majority. With
// rows > 0 it extends sums by every voted block.
func (e *Executor) voteRange(lo, hi int, buf []float64, rows int, sums *checksum.Running) (dissent, split bool) {
	half := len(buf) / 2
	for ; lo < hi; lo += block {
		end := min(lo+block, hi)
		dst, a, b := e.dst[lo:end], e.a[lo:end], e.b[lo:end]
		r0, r1 := buf[:end-lo], buf[half:half+end-lo]
		axpyBlock(r1, a, e.alpha, b, 0, nil)
		if e.Corrupt != nil {
			e.Corrupt(1, nil, r1)
		}
		// Replica 0's values are summed as they are computed; the sums stand
		// unless the block has to be voted.
		before := *sums
		axpyBlock(r0, a, e.alpha, b, rows, sums)
		if e.Corrupt != nil {
			e.Corrupt(0, nil, r0)
		}
		if sameBits(r0, r1) {
			copy(dst, r0)
			continue
		}
		// Replica 2 goes last and in place: the others have read the old
		// operands, which dst may alias.
		dissent = true
		axpyBlock(dst, a, e.alpha, b, 0, nil)
		if e.Corrupt != nil {
			e.Corrupt(2, nil, dst)
		}
		for i, r2 := range dst {
			v, _, none := vote(r0[i], r1[i], r2)
			dst[i] = v
			split = split || none
		}
		if rows > 0 {
			*sums = before
			sums.Add(dst, rows)
		}
	}
	return dissent, split
}

// axpyBlock computes dst ← a + alpha·b and, with rows > 0, extends sums by
// the values written — the latency-bound summation rides along with the
// arithmetic instead of re-reading the block. It is never inlined, so the
// replicas of a block are executions the compiler cannot merge.
//
//go:noinline
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

// sameBits reports whether two blocks hold the same bit patterns. It is the
// repository's one use of unsafe: viewing the blocks as bytes hands the
// comparison to the runtime's vectorised memequal, several times faster
// than any element loop the compiler emits — and the fault-free vote is
// nothing but this comparison.
func sameBits(p, q []float64) bool {
	return bytes.Equal(
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 8*len(p)),
		unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(q))), 8*len(q)))
}
