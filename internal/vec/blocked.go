package vec

// The reductions the solvers call are *blocked*: the vector is cut into
// fixed BlockSize blocks, each block is summed left to right, and the
// per-block partials are folded in block order. The block boundaries depend
// only on the vector length, so the result is a function of the operands
// alone — every residual hash of a system beyond BlockSize rows depends on
// this order, under every scheme (the reliable-mode dot of internal/tmr
// runs these same kernels twice).

// BlockSize is the reduction block length. Vectors no longer than BlockSize
// reduce in a single block, which makes the blocked kernels bit-identical
// to their plain counterparts on small inputs.
const BlockSize = 4096

// Norm2SqBlocked returns ‖a‖₂² by the blocked reduction.
func Norm2SqBlocked(a []float64) float64 {
	if len(a) <= BlockSize {
		return Norm2Sq(a)
	}
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

// DotBlocked returns aᵀb by the blocked reduction.
func DotBlocked(a, b []float64) float64 {
	checkLen("DotBlocked", a, b)
	if len(a) <= BlockSize {
		return Dot(a, b)
	}
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
