package tmr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
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

// transients is a Corrupt hook that applies hits and counts the executions
// it is shown, per replica.
type transients struct {
	hits  []hit
	calls [3]atomic.Int64
}

func (tr *transients) hook(replica int, scalar *float64, blk []float64) {
	call := int(tr.calls[replica].Add(1)) - 1
	for _, h := range tr.hits {
		// An update shows its blocks in index order; a reduction shows each
		// replica's scalar once.
		if h.replica != replica || (scalar == nil && call != h.blk) {
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
// when — a hit struck replica 0 or 1, and replica 2 run only then.
func wantStats(t *testing.T, what string, e *Executor, tr *transients, split bool, hits []hit) {
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
	if c0, c1, c2 := tr.calls[0].Load(), tr.calls[1].Load(), tr.calls[2].Load(); c0 != 1 || c1 != 1 || c2 != mismatches {
		t.Fatalf("%s: executions per replica [%d %d %d], want [1 1 %d]", what, c0, c1, c2, mismatches)
	}
}

// update is one element-wise update on pristine operands: operation op (Axpy,
// Xpay, AxpyTo — whose destination is fresh, y or x by alias) with the scalar
// alpha.
type update struct {
	op, alias int
	alpha     float64
	x, y      []float64
}

// roles maps the operation onto dst ← a + alpha·b over the given copies of x
// and y.
func (c *update) roles(x, y []float64) (dst, a, b []float64) {
	switch c.op {
	case 0:
		return y, y, x
	case 1:
		return y, x, y
	}
	switch c.alias {
	case 1:
		return y, y, x
	case 2:
		return x, y, x
	}
	return make([]float64, len(x)), y, x
}

// run performs the update with e on the given copies and returns the checksum
// handed back.
func (c *update) run(e *Executor, rows int, dst, x, y []float64) checksum.Vector {
	switch c.op {
	case 0:
		return e.AxpyGuarded(rows, c.alpha, x, y)
	case 1:
		return e.XpayGuarded(rows, c.alpha, x, y)
	}
	return e.AxpyToGuarded(rows, dst, c.alpha, x, y)
}

// voted is the reference the one execution is held to, the eager voted update
// this package ran before: three executions of the plain kernel, every
// element voted by bit pattern. Nothing strikes them here, so the vote is
// unanimous — asserted, as the reason one execution may stand for it.
func (c *update) voted(t *testing.T) []float64 {
	t.Helper()
	var r [3][]float64
	for k := range r {
		r[k] = slices.Clone(c.y)
		switch c.op {
		case 0:
			vec.Axpy(c.alpha, c.x, r[k])
		case 1:
			vec.Xpay(c.alpha, c.x, r[k])
		default:
			vec.AxpyTo(r[k], c.alpha, c.x, c.y)
		}
	}
	for i := range r[0] {
		if _, dissent, _ := eagerVote([3]float64{r[0][i], r[1][i], r[2][i]}); dissent && r[0][i] == r[0][i] {
			t.Fatalf("three executions of the plain kernel differ at %d", i)
		}
	}
	return r[0]
}

// bits requires the voted reference's bits in the output, the checksum of the
// output in the returned sums, one hook call per block and no vote counted.
func (c *update) bits(t *testing.T, rows int) {
	t.Helper()
	var calls atomic.Int64
	for _, hooked := range []bool{false, true} {
		e := &Executor{}
		if hooked {
			e.Corrupt = func(replica int, scalar *float64, blk []float64) {
				if calls.Add(1); replica != 0 || scalar != nil || len(blk) == 0 || len(blk) > block {
					t.Errorf("hook shown replica %d, scalar %v, a block of %d", replica, scalar, len(blk))
				}
			}
		}
		x, y := slices.Clone(c.x), slices.Clone(c.y)
		dst, _, _ := c.roles(x, y)
		ref := c.run(e, rows, dst, x, y)
		for i, want := range c.voted(t) {
			if !same(dst[i], want) {
				t.Fatalf("hooked=%v: out[%d] = %x, three executions vote %x (x=%x y=%x)", hooked, i,
					math.Float64bits(dst[i]), math.Float64bits(want), math.Float64bits(c.x[i]), math.Float64bits(c.y[i]))
			}
		}
		sums := checksum.Vector{}
		if rows > 0 {
			sums = checksum.NewVectorRows(dst, rows)
		}
		if !same(ref.S1, sums.S1) || !same(ref.S2, sums.S2) {
			t.Fatalf("hooked=%v: returned sums %v, re-reading the output gives %v", hooked, ref, sums)
		}
		if v, m, u := e.Stats(); v != 0 || m != 0 || u != 0 {
			t.Fatalf("an update counted %d votes, %d mismatches, %d undecided", v, m, u)
		}
	}
	nblocks := int64((len(c.x) + block - 1) / block)
	if got := calls.Load(); got != nblocks {
		t.Fatalf("the hook saw %d blocks, want %d", got, nblocks)
	}
}

// shaped draws a pair of finite operands that strain a tolerance: ordinary,
// badly scaled, cancelling under alpha (Σz ≈ 0 against Σ|z| large, and z ≈ 0
// against operands that are not), all zero, denormal, and zeros of both signs
// around a few values.
func shaped(rng *rand.Rand, shape, n int, op int, alpha float64) (x, y []float64) {
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		switch shape {
		case 0:
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		case 1:
			x[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(300)-150)
			y[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(300)-150)
		case 2:
			// The update's two addends cancel to rounding, or to a residue
			// whose own sum cancels.
			x[i] = rng.NormFloat64() * 1e6
			y[i] = -alpha * x[i]
			if op == 1 { // Xpay: x + alpha·y
				x[i], y[i] = -alpha*x[i], x[i]
			}
			if rng.Intn(2) == 0 {
				y[i] += float64(1-2*(i%2)) * 1e-3
			}
		case 3:
		case 4:
			x[i] = float64(rng.Intn(2001)-1000) * 5e-324
			y[i] = float64(rng.Intn(2001)-1000) * 5e-324
		default:
			x[i], y[i] = math.Copysign(0, -1), 0
			if rng.Intn(8) == 0 {
				x[i], y[i] = y[i], rng.NormFloat64()
			}
		}
	}
	return x, y
}

// masses is the tolerance of the linear check as the paper's Eq. (7) would
// write it for this kernel, from the operands the update read and the vector
// it wrote: 2γₙ₊₂ Σ wᵢ(|aᵢ| + |α·bᵢ| + |zᵢ|) for the two weight rows, plus
// the underflow allowance. abft works from what the update left in memory and
// bounds an overwritten operand by the other two, so its tolerance lies
// between this one and twice it.
func masses(z, a []float64, alpha float64, b []float64) (t1, t2 float64) {
	var m1, m2 float64
	for i := range z {
		m := math.Abs(a[i]) + math.Abs(alpha*b[i]) + math.Abs(z[i])
		m1 += m
		m2 += float64(i+1) * m
	}
	n := float64(len(z))
	g := 2 * checksum.Gamma(len(z)+2)
	return g*m1 + (n+2)*5e-324, g*m2 + n*(n+2)*5e-324
}

func allFinite(vs ...[]float64) bool {
	for _, v := range vs {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

// strikes names what a linear check is tried against.
const (
	strikeNone     = iota
	strikeOperandA // a word of a, after its reference was taken and before the update
	strikeOperandB // a word of b, likewise
	strikeTransient
	strikeOutput // an element of the output, after the update; the next update reads it
	strikeKinds
)

// linear runs the update under one strike and holds abft.VectorGuard.Linear to
// its contract. The perturbation changes one element of the output by δ
// against the pristine update, so it moves the two checksum rows by δ and
// (d+1)·δ; the defect the check sees is that plus rounding, which is at most
// half the paper's tolerance T (see masses; two thirds in the second row of a
// very short vector). Hence, in finite arithmetic: nothing struck is never
// detected, and neither is a δ that leaves both rows within T/8; a non-finite
// output always is; what passes moved no row the mode reads by more than 4T
// (abft's tolerance is at most 2T, the rounding less than T); so every δ
// beyond that is detected. With two rows a gross δ is located, and where the
// rounding of the rebuilt element, weighted by its index, fits the second row
// — (d+1)·T₁ ≤ T₂ — the element is rebuilt to within T₁ and every other one
// keeps the pristine bits; any other repair the check accepts leaves no
// element further from the pristine update than δ was.
func (c *update) linear(t *testing.T, mode abft.Mode, kind int, at hit) {
	t.Helper()
	rows := 1 + int(mode)
	what := fmt.Sprintf("op %d alias %d, %v, strike %d at %d", c.op, c.alias, mode, kind, at.idx)
	x, y := slices.Clone(c.x), slices.Clone(c.y)
	dst, a, b := c.roles(x, y)
	alpha, e := c.alpha, &Executor{}
	g := abft.NewGuard(dst, mode)
	aRef, bRef := checksum.NewVectorRows(a, rows), checksum.NewVectorRows(b, rows)
	clean := c.voted(t)
	d := at.idx % len(x)
	// finite reports operands and an output whose masses cannot overflow, the
	// bound abft puts on an overwritten operand included.
	finite := func(z, a, b []float64) bool {
		_, t2 := masses(z, a, alpha, b)
		return allFinite(z, a, b, []float64{alpha, 4 * t2 / checksum.Gamma(len(z)+2)})
	}

	switch kind {
	case strikeOperandA:
		a[d] = at.strike(a[d])
	case strikeOperandB:
		b[d] = at.strike(b[d])
	case strikeTransient:
		tr := &transients{hits: []hit{{replica: 0, blk: d / block, idx: d % block, mask: at.mask}}}
		e.Corrupt = tr.hook
	case strikeOutput:
		// The update runs clean and installs its sums; the strike comes after,
		// and a second update w ← dst + alpha·x is the one that is checked.
		if out := g.Linear(dst, c.run(e, rows, dst, x, y), a, aRef, alpha, b, bRef); out.Detected && finite(clean, c.x, c.y) {
			t.Fatalf("%s: the pristine first update is detected: %+v", what, out)
		}
		a, aRef = slices.Clone(dst), g.Ref()
		a[d] = at.strike(a[d])
		b = slices.Clone(c.x)
		bRef = checksum.NewVectorRows(b, rows)
		clean = make([]float64, len(a))
		vec.AxpyTo(clean, alpha, b, dst)
		dst = make([]float64, len(a))
		g = abft.NewGuard(dst, mode)
	}
	aRead, bRead := slices.Clone(a), slices.Clone(b) // what the update reads
	aClean, bClean := slices.Clone(a), slices.Clone(b)
	switch kind {
	case strikeOperandA, strikeOutput:
		aClean[d] = at.strike(aClean[d])
	case strikeOperandB:
		bClean[d] = at.strike(bClean[d])
	}
	var got checksum.Vector
	if kind == strikeOutput {
		got = e.AxpyToGuarded(rows, dst, alpha, b, a)
	} else {
		got = c.run(e, rows, dst, x, y)
	}
	struck := slices.Clone(dst)
	out := g.Linear(dst, got, a, aRef, alpha, b, bRef)

	for i := range struck {
		if i != d && !same(struck[i], clean[i]) {
			t.Fatalf("%s: the strike moved element %d as well", what, i)
		}
	}
	if !allFinite(struck) {
		if !out.Detected {
			t.Fatalf("%s: a non-finite output passed", what)
		}
		return
	}
	if !finite(struck, aRead, bRead) || !finite(clean, aClean, bClean) {
		return // operands or sums that are not finite: either verdict
	}
	// The references carry the rounding of the pristine operands, the check
	// works from the struck ones: where a strike shrank the vector's largest
	// element the first is the larger, and a bound needs both.
	s1, s2 := masses(struck, aRead, alpha, bRead)
	t1, t2 := masses(clean, aClean, alpha, bClean)
	t1, t2 = math.Max(s1, t1), math.Max(s2, t2)
	delta := math.Abs(struck[d] - clean[d])
	moved1, moved2 := delta, float64(d+1)*delta // what the strike did to each row
	if rows == 1 {
		moved2 = 0
	}
	if !out.Detected {
		if kind == strikeNone && g.Ref() != got {
			t.Fatalf("%s: the guard holds %v, the update returned %v", what, g.Ref(), got)
		}
		if moved1 > 4*t1 || moved2 > 4*t2 {
			t.Fatalf("%s: δ = %g at %d passed; tolerances %g and %g", what, delta, d, t1, t2)
		}
		return
	}
	if kind == strikeNone || (moved1 <= s1/8 && moved2 <= s2/8) {
		t.Fatalf("%s: δ = %g at %d detected (%+v); tolerances %g and %g; x=%v y=%v alpha=%v", what, delta, d, out, t1, t2, c.x, c.y, alpha)
	}
	if mode == abft.Detect {
		if out.Corrected {
			t.Fatalf("%s: one row corrected: %+v", what, out)
		}
		return
	}
	gross := delta > 256*(float64(d+1)*t1+t2) && float64(d+1)*t1 <= t2
	if gross && !out.Corrected {
		t.Fatalf("%s: δ = %g at %d detected and not repaired: %+v", what, delta, d, out)
	}
	if !out.Corrected {
		return
	}
	for i := range dst {
		off := math.Abs(dst[i] - clean[i])
		if gross && i != d && !same(dst[i], clean[i]) {
			t.Fatalf("%s: the repair of δ = %g at %d rewrote element %d", what, delta, d, i)
		}
		if (gross && off > 4*t1) || off > delta+4*t1 {
			t.Fatalf("%s: δ = %g at %d repaired, leaving element %d off by %g; tolerance %g", what, delta, d, i, off, t1)
		}
	}
	if want := checksum.NewVector(dst); g.Ref() != want {
		t.Fatalf("%s: the guard holds %v, the repaired vector sums to %v", what, g.Ref(), want)
	}
}

// FuzzVotedOps is the property test of the element-wise updates, which run
// once and are verified by linearity. On any length, scalar, data (NaN, Inf
// and signed zeros included) and aliasing, the one execution writes the
// bits and returns the sums of the eager three-execution voted update it
// replaced. And over operands that strain a tolerance — badly scaled,
// cancelling, all zero, denormal, signed zeros — the linear check has no
// false positive, never passes a non-finite output, detects every single
// perturbation of an operand word before the update, of the execution, or of
// an output element after it, whose effect on a checksum row is beyond the
// tolerance, bounds what it lets pass, and with two rows repairs (linear).
func FuzzVotedOps(f *testing.F) {
	// knobs packs aliasing (AxpyTo only) and checksum rows: every length
	// meets every operation under every aliasing and row count.
	for i, n := range []int{0, 1, block - 1, block, block + 1, 4097, 2*vec.BlockSize + 3} {
		for op := 0; op < 3; op++ {
			for k := 0; k < 4; k++ {
				knobs := (i+k)%3 + 3*((i+op)%3)
				f.Add(n, int64(n+op), 0.75, uint8(op), uint8(knobs), uint64(n+k)*2654435761)
			}
		}
	}
	f.Add(3*block, int64(9), math.NaN(), uint8(2), uint8(7), uint64(1)<<63)
	f.Add(2*vec.BlockSize, int64(10), math.Inf(-1), uint8(1), uint8(3), uint64(12345))

	f.Fuzz(func(t *testing.T, n int, seed int64, alpha float64, op, knobs uint8, bits uint64) {
		n = int(uint(n) % uint(3*vec.BlockSize+1))
		rng := rand.New(rand.NewSource(seed))
		c := &update{op: int(op % 3), alias: int(knobs % 3), alpha: alpha, x: fuzzVector(rng, n), y: fuzzVector(rng, n)}
		rows := int(knobs / 3 % 3)
		c.bits(t, rows)
		if n == 0 {
			return
		}

		// The linear check, under a guard of one row or two: first on the data
		// above, specials and all, then on every shape that strains a
		// tolerance, with nothing struck and with one strike of every kind.
		mode := abft.Mode(rows % 2)
		at := hit{idx: int(bits >> 8 % uint64(n)), mask: bits | 1}
		c.linear(t, mode, strikeNone, at)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return
		}
		for shape := 0; shape < 6; shape++ {
			c.x, c.y = shaped(rng, shape, n, c.op, alpha)
			for kind := strikeNone; kind < strikeKinds; kind++ {
				c.linear(t, mode, kind, at)
			}
			at.mask = at.mask>>7 | at.mask<<57 // another bit pattern per shape
			at.idx = (at.idx*31 + 7) % n
		}
	})
}

// FuzzVotedDots holds the voted reductions to theirs: the plain blocked
// kernel's bits with no transient and with one in any replica, the eager
// vote's answer — replica 1's value, reported as unvouched — with two, and a
// third execution only when the first two differ.
func FuzzVotedDots(f *testing.F) {
	for i, n := range []int{0, 1, 7, vec.BlockSize, vec.BlockSize + 1, 2*vec.BlockSize + 3} {
		for k := 0; k < 4; k++ {
			f.Add(n, int64(n+k), uint8(i%2), uint64(n+k+1)*2654435761)
		}
	}
	f.Add(5, int64(3), uint8(1), uint64(1)<<63|1<<40)

	f.Fuzz(func(t *testing.T, n int, seed int64, knobs uint8, bits uint64) {
		n = int(uint(n) % uint(3*vec.BlockSize+1))
		rng := rand.New(rand.NewSource(seed))
		a, b := fuzzVector(rng, n), fuzzVector(rng, n)
		norm := knobs%2 == 1
		plain := vec.DotBlocked(a, b)
		if norm {
			plain = vec.Norm2SqBlocked(a)
		}

		one := hit{replica: int(bits % 3), mask: bits | 1}
		two := hit{replica: (one.replica + 1 + int(bits>>40%2)) % 3, mask: one.mask ^ 2}
		for _, hits := range [][]hit{nil, {one}, {one, two}} {
			what := fmt.Sprintf("norm=%v, %d transients", norm, len(hits))
			e, tr := &Executor{}, (*transients)(nil)
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
			wantStats(t, what, e, tr, split, hits)
		}
	})
}
