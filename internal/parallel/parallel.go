// Package parallel implements the row-block decomposed, ABFT-protected
// sparse matrix–vector product sketched in the paper's introduction: in a
// message-passing implementation each processing element owns a block of
// matrix rows and computes its slice of the output; "performing error
// detection and correction locally implies global error detection and
// correction for the SpMxV", with the local blocks being rectangular in
// general.
//
// Here the processing elements are goroutines. Each block carries its own
// weighted column checksums (computed over the block's rows, i.e. the
// rectangular local matrix), verifies its slice of the product
// independently, and repairs local single errors exactly like the global
// decoder — so k simultaneous errors in k distinct blocks are all corrected
// forward, strictly more than the single global error the sequential scheme
// handles.
package parallel

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Block is one row block of the decomposition with its local checksums.
type Block struct {
	// Row0 is the first global row of the block; the block covers rows
	// [Row0, Row0+Rows).
	Row0, Rows int

	// c1, c2 are the local column checksums Σ_{i∈block} w_r[i−Row0]·a[i][j]
	// (local weights 1 and 1..rows, exactly the rectangular-block encoding).
	c1, c2 []float64
	// cr1, cr2 checksum the block's slice of Rowidx.
	cr1, cr2 float64
}

// Protected is a matrix partitioned into row blocks with per-block
// checksum protection.
type Protected struct {
	A      *sparse.CSR
	blocks []Block
}

// Outcome aggregates the per-block verification results.
type Outcome struct {
	Detected    bool
	Corrected   bool // true only if every detecting block corrected locally
	BlockErrors []int
}

// New partitions a into at most nblocks row blocks of approximately equal
// stored nonzeros (the NNZ-balanced partition of sparse.NNZPartition, so
// each processing element owns the same amount of SpMxV work rather than
// the same number of rows) and computes the local checksums. a must be
// fault-free at this moment.
func New(a *sparse.CSR, nblocks int) *Protected {
	part := a.NNZPartition(nblocks)
	p := &Protected{A: a}
	p.blocks = make([]Block, 0, part.Chunks())
	for bi := 0; bi < part.Chunks(); bi++ {
		lo, hi := part.Bounds[bi], part.Bounds[bi+1]
		b := Block{Row0: lo, Rows: hi - lo}
		b.encode(a)
		p.blocks = append(p.blocks, b)
	}
	return p
}

// Blocks returns the number of blocks.
func (p *Protected) Blocks() int { return len(p.blocks) }

// encode computes the block's local checksums from the (trusted) matrix.
func (b *Block) encode(a *sparse.CSR) {
	b.c1 = make([]float64, a.Cols)
	b.c2 = make([]float64, a.Cols)
	b.cr1, b.cr2 = 0, 0
	for i := 0; i < b.Rows; i++ {
		gi := b.Row0 + i
		w2 := float64(i + 1)
		for k := a.Rowidx[gi]; k < a.Rowidx[gi+1]; k++ {
			j := a.Colid[k]
			v := a.Val[k]
			b.c1[j] += v
			b.c2[j] += w2 * v
		}
	}
	for i := 0; i <= b.Rows; i++ {
		v := float64(a.Rowidx[b.Row0+i])
		b.cr1 += v
		b.cr2 += float64(i+1) * v
	}
}

// MulVec computes y ← Ax with the blocks executed concurrently on the
// shared worker pool, each verifying (and in-place repairing, when
// possible) its own slice. It returns the aggregate outcome; on
// Detected && !Corrected the caller must roll back, exactly like the
// sequential driver.
func (p *Protected) MulVec(y, x []float64) Outcome {
	return p.MulVecOn(pool.Default(), y, x)
}

// MulVecOn is MulVec on an explicit pool; a nil pool runs the blocks
// sequentially. Blocks own disjoint row slices of y and each block's
// verification reads only its own slice, so the per-block outcomes — and
// their deterministic in-order merge below — do not depend on worker count
// or scheduling.
func (p *Protected) MulVecOn(pl *pool.Pool, y, x []float64) Outcome {
	if len(x) != p.A.Cols || len(y) != p.A.Rows {
		panic(fmt.Sprintf("parallel: MulVec dimensions: A is %dx%d, len(x)=%d, len(y)=%d",
			p.A.Rows, p.A.Cols, len(x), len(y)))
	}
	results := make([]Outcome, len(p.blocks))
	verify := func(bi int) {
		results[bi] = p.blocks[bi].mulVerify(p.A, y, x)
	}
	if pl == nil {
		for bi := range p.blocks {
			verify(bi)
		}
	} else {
		pl.ForEach(len(p.blocks), verify)
	}

	var out Outcome
	out.Corrected = true
	for bi, r := range results {
		if r.Detected {
			out.Detected = true
			out.BlockErrors = append(out.BlockErrors, bi)
			if !r.Corrected {
				out.Corrected = false
			}
		}
	}
	if !out.Detected {
		out.Corrected = false
	}
	return out
}

// mulVerify computes the block's slice of the product — with the slice
// checksums and max-norm fused into the same traversal — verifies it against
// the local checksums and attempts a local single-error repair.
func (b *Block) mulVerify(a *sparse.CSR, y, x []float64) Outcome {
	sr1, sr2, sy1, sy2, yScale := b.computeSlice(a, y, x)

	// Rowidx test (exact integers).
	if sr1 != b.cr1 || sr2 != b.cr2 {
		return Outcome{Detected: true}
	}
	d1, d2, tol1, tol2 := b.defects(sy1, sy2, yScale, x)
	if abs(d1) <= tol1 && abs(d2) <= tol2 && finite(d1) && finite(d2) {
		return Outcome{}
	}

	// Local repair: the defect pair localises the faulty local row.
	if finite(d1) && finite(d2) && d1 != 0 {
		pos := d2 / d1
		ipos := int(pos + 0.5)
		if absf(pos-float64(ipos)) <= maxf(1e-8*absf(pos), 0.05) && ipos >= 1 && ipos <= b.Rows {
			gi := b.Row0 + ipos - 1
			y[gi] = a.MulVecRowRobust(gi, x)
			sy1, sy2, yScale = b.sliceSums(y)
			d1, d2, tol1, tol2 = b.defects(sy1, sy2, yScale, x)
			if abs(d1) <= tol1 && abs(d2) <= tol2 {
				return Outcome{Detected: true, Corrected: true}
			}
		}
	}
	return Outcome{Detected: true}
}

// computeSlice runs the robust product over the block's rows, returning the
// running Rowidx checksums plus the fused slice checksums sy1 = Σ yᵢ,
// sy2 = Σ (i+1)·yᵢ (local weights) and the slice max-norm. Accumulation
// orders match the unfused slice-then-sums sequence bit for bit.
func (b *Block) computeSlice(a *sparse.CSR, y, x []float64) (sr1, sr2, sy1, sy2, yScale float64) {
	val, col, rowidx := a.Hoist()
	rowidx = rowidx[b.Row0 : b.Row0+b.Rows+1]
	for i, ptr := range rowidx {
		v := float64(ptr)
		sr1 += v
		sr2 += float64(i+1) * v
	}
	lo, his := rowidx[0], rowidx[1:]
	y = y[b.Row0:][:len(his)]
	for i, hi := range his {
		s := sparse.RowDotRobust(val, col, x, lo, hi)
		lo = hi
		y[i] = s
		sy1 += s
		sy2 += float64(i+1) * s
		if a := absf(s); a > yScale {
			yScale = a
		}
	}
	return sr1, sr2, sy1, sy2, yScale
}

// sliceSums recomputes the fused slice quantities from y after a repair.
func (b *Block) sliceSums(y []float64) (sy1, sy2, yScale float64) {
	for i := 0; i < b.Rows; i++ {
		v := y[b.Row0+i]
		sy1 += v
		sy2 += float64(i+1) * v
		if a := absf(v); a > yScale {
			yScale = a
		}
	}
	return sy1, sy2, yScale
}

// defects compares the block's (precomputed) output-slice checksums against
// the local column checksums applied to x, with a norm-based tolerance.
func (b *Block) defects(sy1, sy2, yScale float64, x []float64) (d1, d2, tol1, tol2 float64) {
	var c1x, c2x, absScale float64
	for j, xj := range x {
		c1x += b.c1[j] * xj
		c2x += b.c2[j] * xj
		if a := absf(b.c1[j] * xj); a > absScale {
			absScale = a
		}
	}
	n := float64(len(x) + b.Rows)
	g := 8 * checksum.Gamma(2*(len(x)+b.Rows))
	tol1 = g * n * (absScale + yScale)
	tol2 = g * n * float64(b.Rows) * (absScale + yScale)
	d1 = sy1 - c1x
	d2 = sy2 - c2x
	return
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func absf(v float64) float64 { return abs(v) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func finite(v float64) bool { return v == v && v < 1e308 && v > -1e308 }
