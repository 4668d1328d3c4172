package vec

import (
	"sync"

	"repro/internal/pool"
)

// This file provides pool-parallel variants of the hot level-1 kernels. The
// reductions (DotPool, Norm2SqPool) use a *deterministic blocked* scheme:
// the vector is cut into fixed BlockSize blocks, each block is summed
// left-to-right, and the per-block partials are folded in block order on the
// calling goroutine. The block boundaries depend only on the vector length,
// so the result is bitwise identical for any worker count — including one —
// and residual histories of the solvers stay reproducible when parallelism
// is toggled. A nil pool runs the same blocked algorithm sequentially.
//
// The element-wise kernels (AxpyPool, AxpyToPool, XpayPool) are trivially
// deterministic: each output element depends only on its own inputs.

// BlockSize is the reduction block length. Vectors no longer than BlockSize
// reduce in a single block, which makes the blocked kernels bit-identical
// to their plain sequential counterparts on small inputs.
const BlockSize = 4096

// MinParallel is the length below which the element-wise kernels skip the
// pool: dispatch overhead dwarfs the O(n) work.
const MinParallel = 2 * BlockSize

// blocks returns the number of BlockSize blocks covering a length-n vector.
func blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// partialsPool recycles the per-reduction partial-sum scratch so the
// blocked reductions allocate nothing in steady state. Partials are
// indexed, not appended, so stale contents never leak into a fold.
var partialsPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 64)
	return &s
}}

// foldBlocks runs partial(bi) for every block index across the pool and
// folds the partials in ascending block order.
func foldBlocks(p *pool.Pool, n int, partial func(lo, hi int) float64) float64 {
	nb := blocks(n)
	scratch := partialsPool.Get().(*[]float64)
	if cap(*scratch) < nb {
		*scratch = make([]float64, nb)
	}
	partials := (*scratch)[:nb]
	body := func(blo, bhi int) {
		for bi := blo; bi < bhi; bi++ {
			lo := bi * BlockSize
			hi := lo + BlockSize
			if hi > n {
				hi = n
			}
			partials[bi] = partial(lo, hi)
		}
	}
	if p == nil || nb == 1 {
		body(0, nb)
	} else {
		p.Run(nb, 1, body)
	}
	var s float64
	for _, v := range partials {
		s += v
	}
	partialsPool.Put(scratch)
	return s
}

// DotPool returns aᵀb using the deterministic blocked reduction, parallel
// across p (sequential when p is nil, same result bit for bit). The
// sequential path folds block partials inline — no scratch, no escaping
// closures — so it allocates nothing.
func DotPool(p *pool.Pool, a, b []float64) float64 {
	checkLen("DotPool", a, b)
	if len(a) <= BlockSize {
		return Dot(a, b)
	}
	if p == nil {
		n := len(a)
		var total float64
		for lo := 0; lo < n; lo += BlockSize {
			hi := lo + BlockSize
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += a[i] * b[i]
			}
			total += s
		}
		return total
	}
	return foldBlocks(p, len(a), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

// Norm2SqPool returns ‖a‖₂² using the deterministic blocked reduction.
func Norm2SqPool(p *pool.Pool, a []float64) float64 {
	if len(a) <= BlockSize {
		return Norm2Sq(a)
	}
	if p == nil {
		n := len(a)
		var total float64
		for lo := 0; lo < n; lo += BlockSize {
			hi := lo + BlockSize
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += a[i] * a[i]
			}
			total += s
		}
		return total
	}
	return foldBlocks(p, len(a), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += a[i] * a[i]
		}
		return s
	})
}

// AxpyPool computes y ← y + alpha·x in place across the pool.
func AxpyPool(p *pool.Pool, alpha float64, x, y []float64) {
	checkLen("AxpyPool", x, y)
	if p == nil || len(x) < MinParallel {
		Axpy(alpha, x, y)
		return
	}
	p.Run(len(x), BlockSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += alpha * x[i]
		}
	})
}

// AxpyToPool computes dst ← y + alpha·x across the pool.
func AxpyToPool(p *pool.Pool, dst []float64, alpha float64, x, y []float64) {
	checkLen("AxpyToPool", x, y)
	checkLen("AxpyToPool", dst, y)
	if p == nil || len(x) < MinParallel {
		AxpyTo(dst, alpha, x, y)
		return
	}
	p.Run(len(dst), BlockSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = y[i] + alpha*x[i]
		}
	})
}

// XpayPool computes y ← x + alpha·y in place across the pool.
func XpayPool(p *pool.Pool, alpha float64, x, y []float64) {
	checkLen("XpayPool", x, y)
	if p == nil || len(x) < MinParallel {
		Xpay(alpha, x, y)
		return
	}
	p.Run(len(x), BlockSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = x[i] + alpha*y[i]
		}
	})
}
