package tmr

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/checksum"
	"repro/internal/pool"
	"repro/internal/vec"
)

// fuzzVector draws n values, about one in eight of them special: NaN, ±Inf,
// ±0, a denormal or a huge magnitude.
func fuzzVector(rng *rand.Rand, n int) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 1e300, -1e300}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// same reports equal bit patterns, or two NaNs: when both addends of an
// element are NaN, which payload survives depends on the operand order the
// compiler picked for that loop (it differs between plain, -race and fuzz
// builds of the same source), so no two loops can promise to agree on it.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// hit is one transient: mask XORed into the scalar, or into element idx
// (modulo the block's length) of block number blk, that one replica's
// execution produced. A mask is never zero, so a hit always changes bits.
type hit struct {
	replica, blk, idx int
	mask              uint64
}

func (h hit) strike(v float64) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ h.mask)
}

// transients is a Corrupt hook that applies hits — all of them in one block
// — and counts the executions it is shown, per replica.
type transients struct {
	hits  []hit
	calls [3]atomic.Int64
}

func (tr *transients) hook(replica int, scalar *float64, blk []float64) {
	call := int(tr.calls[replica].Add(1)) - 1
	for _, h := range tr.hits {
		// Replicas 0 and 1 execute every block — in index order without a
		// pool, and with one only a single hit is ever asked for, which may
		// land in any block. Replica 2 executes only blocks on which those two
		// differ: the hits' block, and so its first.
		if h.replica != replica || (replica < 2 && call != h.blk) || (replica == 2 && call != 0) {
			continue
		}
		if scalar != nil {
			*scalar = h.strike(*scalar)
		} else {
			blk[h.idx%len(blk)] = h.strike(blk[h.idx%len(blk)])
		}
	}
}

// eagerVote is the vote the lazy one is held to: all three replicas on the
// table, majority by bit pattern, replica 1 when there is none.
func eagerVote(r [3]float64) (v float64, dissent, split bool) {
	b0, b1, b2 := math.Float64bits(r[0]), math.Float64bits(r[1]), math.Float64bits(r[2])
	switch {
	case b0 == b1 && b1 == b2:
		return r[0], false, false
	case b0 == b1, b0 == b2:
		return r[0], true, false
	case b1 == b2:
		return r[1], true, false
	}
	return r[1], true, true
}

// wantStats requires one vote on e with the counts the lazy third execution
// gives for hits whose eager vote was split or not: a mismatch when — only
// when — a hit struck replica 0 or 1, replica 2 run for that one block and
// no other.
func wantStats(t *testing.T, what string, e *Executor, tr *transients, executions int64, split bool, hits []hit) {
	t.Helper()
	var mismatches, undecided int64
	for _, h := range hits {
		if h.replica < 2 {
			mismatches = 1
		}
	}
	if split {
		undecided = 1
	}
	if v, m, u := e.Stats(); v != 1 || m != mismatches || u != undecided {
		t.Fatalf("%s: %d votes, %d mismatches, %d undecided, want 1, %d and %d", what, v, m, u, mismatches, undecided)
	}
	if tr == nil {
		return
	}
	// Pool ranges need not start on a block boundary, so a pooled update may
	// cut a few blocks more.
	c0, c1, c2 := tr.calls[0].Load(), tr.calls[1].Load(), tr.calls[2].Load()
	if c0 != c1 || c0 < executions || (c0 > executions && e.Pool == nil) || c2 != mismatches {
		t.Fatalf("%s: executions per replica [%d %d %d], want [%d %d %d]", what, c0, c1, c2, executions, executions, mismatches)
	}
}

// votedCase is one element-wise update on pristine operands.
type votedCase struct {
	op, alias int
	rows      int
	alpha     float64
	x, y      []float64
}

// plain is one execution of the plain kernel.
func (c *votedCase) plain() []float64 {
	out := vec.Clone(c.y)
	switch c.op {
	case 0:
		vec.Axpy(c.alpha, c.x, out)
	case 1:
		vec.Xpay(c.alpha, c.x, out)
	default:
		vec.AxpyTo(out, c.alpha, c.x, c.y)
	}
	return out
}

// eager is the reference update: three executions of the plain kernel, the
// hits applied to them, every element voted. It returns the voted vector and
// whether any element was left without a majority.
func (c *votedCase) eager(hits []hit) (out []float64, split bool) {
	r := [3][]float64{c.plain(), c.plain(), c.plain()}
	for _, h := range hits {
		lo := h.blk * block
		i := lo + h.idx%min(block, len(c.x)-lo)
		r[h.replica][i] = h.strike(r[h.replica][i])
	}
	out = r[0]
	for i := range out {
		v, _, none := eagerVote([3]float64{r[0][i], r[1][i], r[2][i]})
		out[i] = v
		split = split || none
	}
	return out, split
}

// run performs the update with e on fresh copies of the operands and
// returns the written vector and the checksum handed back.
func (c *votedCase) run(e *Executor) ([]float64, checksum.Vector) {
	x, y := vec.Clone(c.x), vec.Clone(c.y)
	switch c.op {
	case 0:
		return y, e.AxpyGuarded(c.rows, c.alpha, x, y)
	case 1:
		return y, e.XpayGuarded(c.rows, c.alpha, x, y)
	}
	dst := make([]float64, len(x))
	switch c.alias {
	case 1:
		dst = y
	case 2:
		dst = x
	}
	return dst, e.AxpyToGuarded(c.rows, dst, c.alpha, x, y)
}

// check runs the update under the given transients on pool p and requires
// the eager reference's bits in the output — the plain kernel's, wherever a
// majority exists — the checksum of the output in the returned sums, and the
// lazy counts.
func (c *votedCase) check(t *testing.T, what string, p *pool.Pool, hits ...hit) {
	t.Helper()
	e, tr := &Executor{Pool: p}, (*transients)(nil)
	if len(hits) > 0 {
		tr = &transients{hits: hits}
		e.Corrupt = tr.hook
	}
	out, ref := c.run(e)
	want, split := c.eager(hits)
	for i := range want {
		if !same(out[i], want[i]) {
			t.Fatalf("%s: out[%d] = %x, three executions vote %x (x=%x y=%x)", what, i,
				math.Float64bits(out[i]), math.Float64bits(want[i]), math.Float64bits(c.x[i]), math.Float64bits(c.y[i]))
		}
	}
	sums := checksum.Vector{}
	if c.rows > 0 {
		sums = checksum.NewVectorRows(out, c.rows)
	}
	if !same(ref.S1, sums.S1) || !same(ref.S2, sums.S2) {
		t.Fatalf("%s: returned sums %v, re-reading the output gives %v", what, ref, sums)
	}
	wantStats(t, what, e, tr, int64((len(c.x)+block-1)/block), split, hits)
}

// FuzzVotedOps holds the blocked voted update to its contract on any
// length, scalar, data (NaN, Inf and signed zeros included), aliasing and
// pool: with zero, one and two transients in any replicas of any block it
// writes the bits, returns the sums and leaves the split verdict of an eager
// three-execution vote — the plain kernel's bits wherever two executions
// agree — and runs the third execution for a block on which the first two
// differ, never otherwise.
func FuzzVotedOps(f *testing.F) {
	// knobs packs aliasing (AxpyTo only), checksum rows and pool: every
	// length meets every operation on every pool.
	for i, n := range []int{0, 1, block - 1, block, block + 1, 4097, 2*vec.BlockSize + 3} {
		for op := 0; op < 3; op++ {
			for pl := 0; pl < 4; pl++ {
				knobs := (i+pl)%3 + 3*((i+op)%3) + 9*pl
				f.Add(n, int64(n+op), 0.75, uint8(op), uint8(knobs), uint64(n+pl)*2654435761)
			}
		}
	}
	f.Add(3*block, int64(9), math.NaN(), uint8(2), uint8(7), uint64(1)<<63)
	f.Add(vec.MinParallel, int64(10), math.Inf(-1), uint8(1), uint8(3+9*2), uint64(12345))

	pools := fuzzPools(f)
	f.Fuzz(func(t *testing.T, n int, seed int64, alpha float64, op, knobs uint8, bits uint64) {
		n = int(uint(n) % uint(3*vec.BlockSize+1))
		rng := rand.New(rand.NewSource(seed))
		c := &votedCase{
			op:    int(op % 3),
			alias: int(knobs % 3),
			rows:  int(knobs / 3 % 3),
			alpha: alpha,
			x:     fuzzVector(rng, n),
			y:     fuzzVector(rng, n),
		}
		p := pools[knobs/9%4]
		c.check(t, "fault-free", p)
		if n == 0 {
			return
		}

		// One transient in one replica of one block: outvoted, or never run.
		nblocks := (n + block - 1) / block
		one := hit{
			replica: int(bits % 3),
			blk:     int(bits / 3 % uint64(nblocks)),
			idx:     int(bits / 3 / uint64(nblocks) % block),
			mask:    bits | 1,
		}
		c.check(t, "one transient", p, one)

		// A second one in another replica of the same block (blocks reach the
		// hook in index order only without the pool): at different elements
		// each is outvoted; at the same element no two replicas agree.
		if p != nil && n >= vec.MinParallel {
			return
		}
		two := hit{
			replica: (one.replica + 1 + int(bits>>40%2)) % 3,
			blk:     one.blk,
			idx:     one.idx,
			mask:    one.mask ^ 2, // differs from one.mask, and bit 0 keeps it nonzero
		}
		if bits>>41%2 == 0 {
			two.idx += 1 + int(bits>>42%block)
		}
		c.check(t, "two transients", p, one, two)
	})
}

// FuzzVotedDots holds the voted reductions to theirs: the plain blocked
// kernel's bits with no transient and with one in any replica, the eager
// vote's answer — replica 1's value, reported as unvouched — with two, and a
// third execution only when the first two differ.
func FuzzVotedDots(f *testing.F) {
	for i, n := range []int{0, 1, 7, vec.BlockSize, vec.BlockSize + 1, 2*vec.BlockSize + 3} {
		for pl := 0; pl < 4; pl++ {
			f.Add(n, int64(n+pl), uint8(i%2+2*pl), uint64(n+pl+1)*2654435761)
		}
	}
	f.Add(5, int64(3), uint8(1), uint64(1)<<63|1<<40)

	pools := fuzzPools(f)
	f.Fuzz(func(t *testing.T, n int, seed int64, knobs uint8, bits uint64) {
		n = int(uint(n) % uint(3*vec.BlockSize+1))
		rng := rand.New(rand.NewSource(seed))
		a, b := fuzzVector(rng, n), fuzzVector(rng, n)
		p := pools[knobs/2%4]
		norm := knobs%2 == 1
		plain := vec.DotPool(p, a, b)
		if norm {
			plain = vec.Norm2SqPool(p, a)
		}

		one := hit{replica: int(bits % 3), mask: bits | 1}
		two := hit{replica: (one.replica + 1 + int(bits>>40%2)) % 3, mask: one.mask ^ 2}
		for _, hits := range [][]hit{nil, {one}, {one, two}} {
			what := fmt.Sprintf("norm=%v, %d transients", norm, len(hits))
			e, tr := &Executor{Pool: p}, (*transients)(nil)
			if len(hits) > 0 {
				tr = &transients{hits: hits}
				e.Corrupt = tr.hook
			}
			var got float64
			if norm {
				got = e.Norm2Sq(a)
			} else {
				got = e.Dot(a, b)
			}
			r := [3]float64{plain, plain, plain}
			for _, h := range hits {
				r[h.replica] = h.strike(r[h.replica])
			}
			want, _, split := eagerVote(r)
			if !same(got, want) {
				t.Fatalf("%s: voted %x, three executions vote %x", what, math.Float64bits(got), math.Float64bits(want))
			}
			if len(hits) < 2 && !same(got, plain) {
				t.Fatalf("%s: voted %x, the plain kernel gives %x", what, math.Float64bits(got), math.Float64bits(plain))
			}
			wantStats(t, what, e, tr, 1, split, hits)
		}
	})
}

// fuzzPools is no pool and pools of one, two and four workers, closed with
// the fuzz target.
func fuzzPools(f *testing.F) []*pool.Pool {
	pools := []*pool.Pool{nil, pool.New(1), pool.New(2), pool.New(4)}
	f.Cleanup(func() {
		for _, p := range pools[1:] {
			p.Close()
		}
	})
	return pools
}
