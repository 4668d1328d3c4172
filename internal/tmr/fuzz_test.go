package tmr

import (
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

// votedCase is one element-wise update and its plain-kernel answer.
type votedCase struct {
	op, alias int
	rows      int
	alpha     float64
	x, y      []float64 // pristine operands
	want      []float64 // what the plain kernel writes
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

// check requires the plain kernel's bits in out, the checksum of out in ref,
// and one vote with the given number of mismatches.
func (c *votedCase) check(t *testing.T, what string, e *Executor, out []float64, ref checksum.Vector, mismatches int64) {
	t.Helper()
	for i := range c.want {
		if !same(out[i], c.want[i]) {
			t.Fatalf("%s: out[%d] = %x, the plain kernel writes %x (x=%x y=%x)", what, i,
				math.Float64bits(out[i]), math.Float64bits(c.want[i]), math.Float64bits(c.x[i]), math.Float64bits(c.y[i]))
		}
	}
	want := checksum.Vector{}
	if c.rows > 0 {
		want = checksum.NewVectorRows(out, c.rows)
	}
	if !same(ref.S1, want.S1) || !same(ref.S2, want.S2) {
		t.Fatalf("%s: returned sums %v, re-reading the output gives %v", what, ref, want)
	}
	if v, m := e.Stats(); v != 1 || m != mismatches {
		t.Fatalf("%s: %d votes, %d mismatches, want 1 and %d", what, v, m, mismatches)
	}
}

// strike makes a hook that XORs mask into element idx (modulo the block's
// length) of the call-th block handed to the given replica.
func strike(replica, call, idx int, mask uint64) func(int, *float64, []float64) {
	var calls atomic.Int64
	return func(r int, _ *float64, blk []float64) {
		if r != replica || blk == nil || int(calls.Add(1))-1 != call {
			return
		}
		i := idx % len(blk)
		blk[i] = math.Float64frombits(math.Float64bits(blk[i]) ^ mask)
	}
}

// FuzzVotedOps holds the blocked voted update to its contract on any
// length, scalar, data (NaN, Inf and signed zeros included), aliasing and
// pool: the plain kernel's bits, the checksum of what was written, one
// outvoted transient repaired and counted, two transients resolved as
// documented.
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

	pools := []*pool.Pool{nil, pool.New(1), pool.New(2), pool.New(4)}
	f.Cleanup(func() {
		for _, p := range pools[1:] {
			p.Close()
		}
	})

	f.Fuzz(func(t *testing.T, n int, seed int64, alpha float64, op, knobs uint8, hit uint64) {
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
		sequential := p == nil || n < vec.MinParallel

		c.want = vec.Clone(c.y)
		switch c.op {
		case 0:
			vec.Axpy(alpha, c.x, c.want)
		case 1:
			vec.Xpay(alpha, c.x, c.want)
		default:
			vec.AxpyTo(c.want, alpha, c.x, c.y)
		}

		e := &Executor{Pool: p}
		out, ref := c.run(e)
		c.check(t, "fault-free", e, out, ref, 0)
		if n == 0 {
			return
		}

		// One transient in one replica of one block is outvoted.
		nblocks := (n + block - 1) / block
		replica := int(hit % 3)
		call := int(hit / 3 % uint64(nblocks))
		idx := int(hit / 3 / uint64(nblocks) % block)
		mask := hit | 1 // never zero: the struck bits always change
		e = &Executor{Pool: p, Corrupt: strike(replica, call, idx, mask)}
		out, ref = c.run(e)
		c.check(t, "one transient", e, out, ref, 1)

		// Two transients in two replicas of the same block (blocks reach the
		// hook in index order only without the pool): at different elements
		// each is outvoted; at the same element with different values no two
		// replicas agree and replica 1's value stands.
		if !sequential {
			return
		}
		other := (replica + 1 + int(hit>>40%2)) % 3
		idx2 := idx
		if hit>>41%2 == 0 {
			idx2 = idx + 1 + int(hit>>42%block)
		}
		mask2 := mask ^ 2 // differs from mask, and bit 0 keeps it nonzero
		h1, h2 := strike(replica, call, idx, mask), strike(other, call, idx2, mask2)
		e = &Executor{Pool: p, Corrupt: func(r int, s *float64, blk []float64) {
			h1(r, s, blk)
			h2(r, s, blk)
		}}
		out, ref = c.run(e)
		lo := call * block
		blockLen := min(block, n-lo)
		i1, i2 := lo+idx%blockLen, lo+idx2%blockLen
		if i1 != i2 {
			c.check(t, "two transients, two elements", e, out, ref, 1)
			return
		}
		want := c.want[i1]
		if replica == 1 {
			want = math.Float64frombits(math.Float64bits(want) ^ mask)
		} else if other == 1 {
			want = math.Float64frombits(math.Float64bits(want) ^ mask2)
		}
		if !same(out[i1], want) {
			t.Fatalf("two transients, one element: out[%d] = %x, want replica 1's %x",
				i1, math.Float64bits(out[i1]), math.Float64bits(want))
		}
		c.want[i1] = out[i1]
		c.check(t, "two transients, one element", e, out, ref, 1)
	})
}
