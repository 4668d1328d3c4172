// Package tmr implements triple modular redundancy for the cheap vector
// kernels of the solvers (dot products, norms, axpy updates), as prescribed
// by the paper's Section 3: "As ABFT methods for vector operations is as
// costly as a repeated computation, we use triple modular redundancy (TMR)
// for them for simplicity … we compute the dots, norms and axpy operations
// in the resilient mode."
//
// Each operation is executed three times and the results voted: two
// matching replicas win. On deterministic hardware the three replicas are
// bit-identical unless a transient fault strikes one of them; the Corrupt
// hook lets tests and fault campaigns inject exactly such a transient into
// a chosen replica. Replicas are compared by bit pattern, so three equal
// NaNs agree and −0 against +0 is a dissent.
//
// The element-wise updates (Axpy, AxpyTo, Xpay and their Guarded forms) are
// one kernel, dst ← a + α·b, run block by block: for each block of a few
// hundred elements, replicas 1 and 2 are computed from the old operands into
// two cache-resident buffers, replica 0 is computed straight into the
// destination, the three are compared in bulk, and only a block with a
// dissent is voted element by element. That is three executions and a
// majority vote in one pass over memory. The Guarded forms additionally
// return the two-row checksum of the voted vector, accumulated block after
// block in index order — the bits checksum.Sums would produce from
// re-reading it — so a guard reference can be installed with no second pass
// and no window between the write and the capture.
//
// The updates write what vec.Axpy, vec.AxpyTo and vec.Xpay write, bit for
// bit, with one exception no caller can tell apart: where both addends of an
// element are NaN, the payload that survives is the first operand of the
// machine add, an order Go leaves to the compiler per loop and per build
// mode. FuzzVotedOps checks exactly this.
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

// block is the number of elements voted at a time: three blocks of float64
// (two replica buffers and the destination) stay well inside an L1 cache.
const block = 512

// Executor runs vector kernels in triple modular redundancy. It must not be
// copied after first use.
type Executor struct {
	// Corrupt, when non-nil, may perturb a replica to simulate a transient
	// computation fault in it. The reductions call it once per replica with
	// the replica index (0–2) and the scalar result. The element-wise updates
	// call it once per replica per block with the replica index and that
	// block of the replica's output — the whole vector when it is no longer
	// than a block — in the order 1, 2, 0. With a Pool and a vector long
	// enough to be split, blocks of different ranges reach the hook
	// concurrently.
	Corrupt func(replica int, scalar *float64, vector []float64)

	// Pool, when non-nil, spreads the O(n) work over the worker pool: the
	// reductions run each replica through the deterministic blocked variants
	// from internal/vec, the element-wise updates vote disjoint ranges
	// concurrently. Either way the three replicas stay bit-identical (the
	// voting invariant) and the result is that of a nil Pool — same bits,
	// one goroutine.
	Pool *pool.Pool

	votes      int64
	mismatches int64

	// scratch holds replicas 1 and 2 of the block being voted on the calling
	// goroutine, grown to two blocks — or two vectors, when those are
	// shorter — and kept; pool workers draw theirs from rangeScratch.
	scratch []float64

	// The update in flight, read by the pool workers through ranges — the
	// closure is built once, so a pooled update allocates nothing.
	dst, a, b []float64
	alpha     float64
	dissent   atomic.Bool
	ranges    func(lo, hi int)
}

// rangeScratch recycles the replica buffers of the pooled ranges.
var rangeScratch = sync.Pool{New: func() any { return new([2 * block]float64) }}

// Stats reports how many votes were taken and how many had a dissenting
// replica (i.e. a transient was outvoted).
func (e *Executor) Stats() (votes, mismatches int64) { return e.votes, e.mismatches }

// voteScalar returns the majority of three scalars; when all three differ it
// returns the second (detectable by the caller comparing replicas — with
// independent transients this is negligible, as the paper assumes).
func (e *Executor) voteScalar(a, b, c float64) float64 {
	e.votes++
	v, dissent := vote(a, b, c)
	if dissent {
		e.mismatches++
	}
	return v
}

// vote is the majority of three replicas by bit pattern, and whether any
// replica dissented. Total disagreement yields b.
func vote(a, b, c float64) (float64, bool) {
	ab, bb, cb := math.Float64bits(a), math.Float64bits(b), math.Float64bits(c)
	if ab == bb || ab == cb {
		return a, ab != bb || ab != cb
	}
	return b, true
}

// Dot computes aᵀb with TMR. The fault-free fast path takes no replica
// addresses, so the replicas stay on the stack and the call is
// allocation-free; the Corrupt hook (tests and campaigns only) goes through
// the slow path.
func (e *Executor) Dot(a, b []float64) float64 {
	if e.Corrupt != nil {
		return e.dotCorrupt(a, b)
	}
	r0 := vec.DotPool(e.Pool, a, b)
	r1 := vec.DotPool(e.Pool, a, b)
	r2 := vec.DotPool(e.Pool, a, b)
	return e.voteScalar(r0, r1, r2)
}

func (e *Executor) dotCorrupt(a, b []float64) float64 {
	var r [3]float64
	for i := 0; i < 3; i++ {
		r[i] = vec.DotPool(e.Pool, a, b)
		e.Corrupt(i, &r[i], nil)
	}
	return e.voteScalar(r[0], r[1], r[2])
}

// Norm2Sq computes ‖a‖₂² with TMR (fast/corrupt split as in Dot).
func (e *Executor) Norm2Sq(a []float64) float64 {
	if e.Corrupt != nil {
		return e.norm2SqCorrupt(a)
	}
	r0 := vec.Norm2SqPool(e.Pool, a)
	r1 := vec.Norm2SqPool(e.Pool, a)
	r2 := vec.Norm2SqPool(e.Pool, a)
	return e.voteScalar(r0, r1, r2)
}

func (e *Executor) norm2SqCorrupt(a []float64) float64 {
	var r [3]float64
	for i := 0; i < 3; i++ {
		r[i] = vec.Norm2SqPool(e.Pool, a)
		e.Corrupt(i, &r[i], nil)
	}
	return e.voteScalar(r[0], r[1], r[2])
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
	e.votes++
	e.dst, e.a, e.b, e.alpha = dst, a, b, alpha
	var sums checksum.Running
	var dissent bool
	if e.Pool == nil || n < vec.MinParallel {
		if need := 2 * min(n, block); len(e.scratch) < need {
			e.scratch = make([]float64, need)
		}
		dissent = e.voteRange(0, n, e.scratch, rows, &sums)
	} else {
		if e.ranges == nil {
			e.ranges = func(lo, hi int) {
				buf := rangeScratch.Get().(*[2 * block]float64)
				var none checksum.Running
				if e.voteRange(lo, hi, buf[:], 0, &none) {
					e.dissent.Store(true)
				}
				rangeScratch.Put(buf)
			}
		}
		e.dissent.Store(false)
		e.Pool.Run(n, vec.BlockSize, e.ranges)
		dissent = e.dissent.Load()
		if rows > 0 {
			sums.Add(dst, rows)
		}
	}
	if dissent {
		e.mismatches++
	}
	return checksum.Vector{S1: sums.S1, S2: sums.S2}
}

// voteRange runs the update in flight over [lo, hi) block by block, using
// the two halves of buf for replicas 1 and 2, and reports whether any
// replica dissented. With rows > 0 it extends sums by every voted block.
func (e *Executor) voteRange(lo, hi int, buf []float64, rows int, sums *checksum.Running) (dissent bool) {
	half := len(buf) / 2
	for ; lo < hi; lo += block {
		end := min(lo+block, hi)
		r0, a, b := e.dst[lo:end], e.a[lo:end], e.b[lo:end]
		r1, r2 := buf[:end-lo], buf[half:half+end-lo]
		axpyBlock(r1, a, e.alpha, b, 0, nil)
		axpyBlock(r2, a, e.alpha, b, 0, nil)
		if e.Corrupt != nil {
			e.Corrupt(1, nil, r1)
			e.Corrupt(2, nil, r2)
		}
		// Replica 0 goes last and in place: the others have read the old
		// operands, which dst may alias. Its values are summed as they are
		// written; they stand unless the block has to be voted.
		before := *sums
		axpyBlock(r0, a, e.alpha, b, rows, sums)
		if e.Corrupt != nil {
			e.Corrupt(0, nil, r0)
		}
		if sameBits(r0, r1) && sameBits(r0, r2) {
			continue
		}
		dissent = true
		for i := range r0 {
			r0[i], _ = vote(r0[i], r1[i], r2[i])
		}
		if rows > 0 {
			*sums = before
			sums.Add(r0, rows)
		}
	}
	return dissent
}

// axpyBlock computes dst ← a + alpha·b and, with rows > 0, extends sums by
// the values written — the latency-bound summation rides along with the
// arithmetic instead of re-reading the block. It is never inlined, so the
// three replicas of a block are three executions the compiler cannot merge.
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

// FlopsDot returns the TMR cost of a dot product: three replicas.
func FlopsDot(n int) int64 { return 3 * vec.FlopsDot(n) }

// FlopsAxpy returns the TMR cost of an axpy: three replicas.
func FlopsAxpy(n int) int64 { return 3 * vec.FlopsAxpy(n) }
