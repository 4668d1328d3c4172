package abft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitflip"
	"repro/internal/checksum"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// same reports equal bit patterns, or two NaNs (which NaN payload a sum of
// two NaNs keeps depends on how the compiler ordered that loop's operands).
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// refProtectedMulVec is the protected product as it was written before the
// row loops were hoisted into internal/sparse: the reference for y and sr.
func refProtectedMulVec(a *sparse.CSR, y, x []float64) RowSums {
	n := a.Rows
	nnz := len(a.Val)
	var sr RowSums
	for i := 0; i < n; i++ {
		lo, hi := a.Rowidx[i], a.Rowidx[i+1]
		fv := float64(lo)
		sr.S1 += fv
		sr.S2 += float64(i+1) * fv
		if lo < 0 {
			lo = 0
		}
		if hi > nnz {
			hi = nnz
		}
		var s float64
		for k := lo; k < hi; k++ {
			if ind := a.Colid[k]; uint(ind) < uint(len(x)) {
				s += a.Val[k] * x[ind]
			}
		}
		y[i] = s
	}
	fv := float64(a.Rowidx[n])
	sr.S1 += fv
	sr.S2 += float64(n+1) * fv
	return sr
}

// FuzzProtectedProducts is sparse.FuzzProducts for the protected pair: on
// any shape, lane count and data, over row pointers made negative, larger
// than nnz or inverted and column indices out of range, MulVec and
// MulVecBlock return the reference loop's y and sr bit for bit and never
// panic — also when the lanes of a block differ in length (strikes bit 2): a
// shorter x with spare capacity behind it is not read past its length, a
// longer one contributes its extra columns, a longer y keeps its tail.
func FuzzProtectedProducts(f *testing.F) {
	for i, shape := range [][2]int{{0, 0}, {1, 1}, {3, 3}, {4, 9}, {17, 6}, {64, 11}} {
		for lanes := 0; lanes <= 9; lanes += 1 + i%2 {
			f.Add(shape[0], shape[1], int64(i*17+lanes), lanes, uint8(i))
			f.Add(shape[0], shape[1], int64(i*17+lanes), lanes, uint8(i)|4)
		}
	}

	f.Fuzz(func(t *testing.T, rows, cols int, seed int64, lanes int, strikes uint8) {
		rows, cols = int(uint(rows)%65), int(uint(cols)%65)
		lanes = int(uint(lanes) % 10)
		rng := rand.New(rand.NewSource(seed))
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300}
		draw := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				if v[i] = rng.NormFloat64(); rng.Intn(8) == 0 {
					v[i] = special[rng.Intn(len(special))]
				}
			}
			return v
		}

		// Rows of 0 to 5 nonzeros, and one holding every column.
		a := &sparse.CSR{Rows: rows, Cols: cols, Rowidx: make([]int, rows+1), Colid: []int{}}
		for i := 0; i < rows; i++ {
			nnz := rng.Intn(6) * rng.Intn(2)
			if i == 1 {
				nnz = cols
			}
			for ; nnz > 0 && cols > 0; nnz-- {
				a.Colid = append(a.Colid, rng.Intn(cols))
			}
			a.Rowidx[i+1] = len(a.Colid)
		}
		a.Val = draw(len(a.Colid))
		wild := func(n int) int {
			return [...]int{-1, -1 - rng.Intn(1<<20), n + 1 + rng.Intn(1<<20), math.MaxInt, math.MinInt, rng.Intn(n + 1)}[rng.Intn(6)]
		}
		for n := int(strikes % 4); n > 0; n-- { // 0: the matrix stays valid
			if i := rng.Intn(rows + 1); rng.Intn(2) == 0 {
				a.Rowidx[i] = wild(a.NNZ())
			} else {
				j := rng.Intn(rows + 1)
				a.Rowidx[i], a.Rowidx[j] = a.Rowidx[j], a.Rowidx[i]
			}
			if a.NNZ() > 0 {
				a.Colid[rng.Intn(a.NNZ())] = wild(cols)
			}
		}

		p := &Protected{A: a} // the products read nothing else
		xs, ys := make([][]float64, lanes), make([][]float64, lanes)
		const tail = 42
		for j := range xs {
			xs[j], ys[j] = draw(cols), make([]float64, rows)
			if strikes&4 != 0 { // lanes of unequal lengths
				xs[j] = draw(cols + 3)[:max(0, cols-2+rng.Intn(5))]
				ys[j] = append(ys[j], make([]float64, rng.Intn(3))...)
				for i := rows; i < len(ys[j]); i++ {
					ys[j][i] = tail
				}
			}
		}
		want := make([]float64, rows)
		wantSr := refProtectedMulVec(a, want, make([]float64, cols))
		if sr := p.MulVecBlock(ys, xs); sr != wantSr {
			t.Fatalf("MulVecBlock of %d lanes: sr = %v, the reference loop gives %v", lanes, sr, wantSr)
		}
		for j, x := range xs {
			refProtectedMulVec(a, want, x)
			y := make([]float64, rows)
			if sr := p.MulVec(y, x); sr != wantSr {
				t.Fatalf("MulVec: sr = %v, the reference loop gives %v", sr, wantSr)
			}
			for _, v := range ys[j][rows:] {
				if v != tail {
					t.Fatalf("lane %d/%d: MulVecBlock wrote past row %d of its output", j, lanes, rows)
				}
			}
			for i := range want {
				if !same(y[i], want[i]) || !same(ys[j][i], want[i]) {
					t.Fatalf("row %d of lane %d/%d: MulVec %x, MulVecBlock %x, the reference loop gives %x", i, j, lanes,
						math.Float64bits(y[i]), math.Float64bits(ys[j][i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// exactTolerances returns the four defects and tolerances of a product as
// they were computed before the tolerances became lazy, from standalone
// loops: the sums of checksum.Sums and of vec.Dot, Eq. (9) at vec.NormInf's
// exact max-norms under TolNorm, the rounding masses of ToleranceComponentBoth,
// roundTolY and VectorTolerance under TolComponent. Row 2 is zero in Detect
// mode, as in defects.
func exactTolerances(p *Protected, y, x []float64, xRef checksum.Vector) (d, tol [4]float64) {
	sy1, sy2 := checksum.Sums(y)
	sx1, sx2 := checksum.Sums(x)
	d = [4]float64{sy1 - vec.Dot(p.CS.C1, x), sy2 - vec.Dot(p.CS.C2, x), xRef.S1 - sx1, xRef.S2 - sx2}
	if p.policy == TolComponent {
		tx1, tx2 := p.CS.ToleranceComponentBoth(x)
		tp1, tp2 := checksum.VectorTolerance(x)
		tol = [4]float64{tx1 + roundTolY(y, 1), tx2 + roundTolY(y, 2), tp1, tp2}
	} else {
		nx, ny := vec.NormInf(x), vec.NormInf(y)
		tol = [4]float64{p.tolX1Fac*nx + p.tolY1Fac*ny, p.tolX2Fac*nx + p.tolY2Fac*ny, p.tolP1Fac * nx, p.tolP2Fac * nx}
	}
	if p.mode == Detect {
		d[1], d[3], tol[1], tol[3] = 0, 0, 0, 0
	}
	return d, tol
}

// exactVerify is Protected.Verify deciding on exactTolerances — the reference
// path the two-tier verdict is held to: the decision tree of verify restated,
// a failed product handed to the package's decoders. (Their re-verification
// of a repaired product goes through verify itself: the same function, on
// another input of the same property.)
func exactVerify(p *Protected, y, x []float64, xRef checksum.Vector, sr RowSums) Outcome {
	if dr1, dr2 := p.CS.CR1-sr.S1, p.CS.CR2-sr.S2; dr1 != 0 || dr2 != 0 {
		if p.mode == Detect {
			return Outcome{Detected: true, Class: ClassRowidx}
		}
		return p.correctRowidx(y, x, xRef, dr1, dr2)
	}
	d, tol := exactTolerances(p, y, x, xRef)
	dxBad := exceeds(d[0], tol[0]) || exceeds(d[1], tol[1])
	dxpBad := exceeds(d[2], tol[2]) || exceeds(d[3], tol[3])
	switch {
	case !dxBad && !dxpBad:
		return Outcome{}
	case p.mode == Detect && dxBad && dxpBad:
		return Outcome{Detected: true, Class: ClassMultiple}
	case p.mode == Detect && dxpBad:
		return Outcome{Detected: true, Class: ClassX}
	case p.mode == Detect:
		return Outcome{Detected: true, Class: ClassComputation}
	case dxpBad && !finite(d[2]):
		return p.repairNonFiniteX(y, x, xRef)
	case dxBad && dxpBad:
		return Outcome{Detected: true, Class: ClassMultiple}
	case dxpBad:
		return p.correctX(y, x, xRef, d[2], d[3])
	}
	return p.correctMatrixOrComputation(y, x, xRef, d[0], d[1])
}

// FuzzVerdicts holds the checks that put the verdict before the evidence to
// the verdict of the evidence in full. Protected.Verify, whose Eq. (9)
// tolerances come from a strided sample of the operands unless a defect
// needs the exact norms, returns the Outcome and leaves the bits in A, x and
// y that exactVerify does — in both modes, under both policies, with and
// without a valid copy, fault-free and with one bit flipped in Val, Colid,
// Rowidx, x or y — on operands built to defeat the sample: a unit vector
// whose spike the stride steps over, an all-zero x, a row scaled by 1e12,
// NaN, ±Inf and −0 entries. VectorGuard.Check, which computes no tolerance
// for a defect of exactly zero, agrees with the always-both-passes
// twoPassCheck on the same x, struck and unstruck.
func FuzzVerdicts(f *testing.F) {
	for shape := 0; shape < 6; shape++ {
		for target := 0; target < 6; target++ {
			for knobs := 0; knobs < 8; knobs++ {
				bit := []uint8{62, 3, 52, 63, 30, 55}[(shape+target+knobs)%6]
				f.Add(20+13*shape+knobs, int64(100*shape+10*target+knobs), uint8(shape), uint8(target), uint8(knobs), bit, uint16(7*shape+31*target))
			}
		}
	}

	f.Fuzz(func(t *testing.T, n int, seed int64, shape, target, knobs, bit uint8, where uint16) {
		n = 1 + int(uint(n)%160)
		rng := rand.New(rand.NewSource(seed))
		mode := Mode(knobs % 2)
		policy := TolerancePolicy(knobs / 2 % 2)

		// A square matrix of 0 to 5 nonzeros a row, its diagonal always set.
		a := &sparse.CSR{Rows: n, Cols: n, Rowidx: make([]int, n+1)}
		for i := 0; i < n; i++ {
			a.Colid = append(a.Colid, i)
			for k := rng.Intn(5); k > 0; k-- {
				a.Colid = append(a.Colid, rng.Intn(n))
			}
			a.Rowidx[i+1] = len(a.Colid)
		}
		a.Val = make([]float64, len(a.Colid))
		for k := range a.Val {
			a.Val[k] = rng.NormFloat64()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		off := 1 + rng.Intn(normStride-1) // an offset the stride never lands on
		spike := min(n-1, normStride*rng.Intn(n/normStride+1)+off)
		switch shape % 6 {
		case 1: // a unit vector: the sample of x reads zeros
			clear(x)
			x[spike] = 1
		case 2:
			clear(x)
		case 3: // one row dwarfs the rest: the sample of y misses its entry
			for k := a.Rowidx[spike]; k < a.Rowidx[spike+1]; k++ {
				a.Val[k] *= 1e12
			}
		case 4: // special values where the sample does not look, and where it does
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, 5e-324}
			x[spike] = special[rng.Intn(len(special))]
			x[rng.Intn(n)] = special[rng.Intn(len(special))]
		case 5:
			for i := range x {
				x[i] *= 1e-200
			}
		}
		xRef := checksum.NewVector(x)

		// One flip, or none: matrix words and x before the product, y after.
		strike := func(p *Protected, y, x []float64, product bool) {
			w, b := int(where), uint(bit%64)
			switch {
			case target%6 == 1 && !product:
				p.A.Val[w%len(p.A.Val)] = bitflip.Float64(p.A.Val[w%len(p.A.Val)], b)
			case target%6 == 2 && !product:
				p.A.Colid[w%len(p.A.Colid)] = bitflip.Int(p.A.Colid[w%len(p.A.Colid)], b%63)
			case target%6 == 3 && !product:
				p.A.Rowidx[w%(n+1)] = bitflip.Int(p.A.Rowidx[w%(n+1)], b%63)
			case target%6 == 4 && !product:
				x[w%n] = bitflip.Float64(x[w%n], b)
			case target%6 == 5 && product:
				y[w%n] = bitflip.Float64(y[w%n], b)
			}
		}
		run := func(verify func(p *Protected, y, x []float64, xRef checksum.Vector, sr RowSums) Outcome) (Outcome, *Protected, []float64, []float64) {
			p := NewProtected(a.Clone(), mode)
			p.SetPolicy(policy)
			if knobs/4%2 == 1 {
				p.Valid = a
			}
			x, y := append([]float64(nil), x...), make([]float64, n)
			strike(p, y, x, false)
			sr := p.MulVec(y, x)
			strike(p, y, x, true)
			return verify(p, y, x, xRef, sr), p, y, x
		}
		got, p, y1, x1 := run((*Protected).Verify)
		want, q, y2, x2 := run(exactVerify)
		if got != want {
			t.Fatalf("%v, policy %d: Verify returns %+v, the exact tolerances give %+v", mode, policy, got, want)
		}
		for i := range x1 {
			if !same(x1[i], x2[i]) || !same(y1[i], y2[i]) {
				t.Fatalf("%v, policy %d: entry %d left as x=%x y=%x, the exact tolerances leave x=%x y=%x", mode, policy, i,
					math.Float64bits(x1[i]), math.Float64bits(y1[i]), math.Float64bits(x2[i]), math.Float64bits(y2[i]))
			}
		}
		for k := range p.A.Val {
			if !same(p.A.Val[k], q.A.Val[k]) || p.A.Colid[k] != q.A.Colid[k] {
				t.Fatalf("%v, policy %d: nonzero %d left as (%v, %d), the exact tolerances leave (%v, %d)", mode, policy, k,
					p.A.Val[k], p.A.Colid[k], q.A.Val[k], q.A.Colid[k])
			}
		}
		for i := range p.A.Rowidx {
			if p.A.Rowidx[i] != q.A.Rowidx[i] {
				t.Fatalf("%v, policy %d: Rowidx[%d] left as %d, the exact tolerances leave %d", mode, policy, i, p.A.Rowidx[i], q.A.Rowidx[i])
			}
		}

		// The seam itself, on the state both left: the defects of the
		// standalone loops, and tolerances that decide as the exact ones.
		var d, tol [4]float64
		d[0], d[1], tol[0], tol[1], d[2], d[3], tol[2], tol[3] = p.defects(y1, x1, xRef)
		wd, wtol := exactTolerances(p, y1, x1, xRef)
		for k := range d {
			if !same(d[k], wd[k]) || exceeds(d[k], tol[k]) != exceeds(wd[k], wtol[k]) {
				t.Fatalf("%v, policy %d: defect %d is %v against %v, the standalone loops give %v against %v", mode, policy, k, d[k], tol[k], wd[k], wtol[k])
			}
		}

		// The guard over the same x, unstruck and struck.
		g := NewGuard(x, mode)
		for _, flips := range []int{0, 1} {
			v1 := append([]float64(nil), x...)
			if flips == 1 {
				v1[int(where)%n] = bitflip.Float64(v1[int(where)%n], uint(bit%64))
			}
			v2 := append([]float64(nil), v1...)
			if got, want := g.Check(v1), twoPassCheck(g, v2); got != want {
				t.Fatalf("%v guard, %d flips: Check returns %+v, both passes give %+v", mode, flips, got, want)
			}
			for i := range v1 {
				if !same(v1[i], v2[i]) {
					t.Fatalf("%v guard, %d flips: entry %d left as %x, both passes leave %x", mode, flips, i, math.Float64bits(v1[i]), math.Float64bits(v2[i]))
				}
			}
		}
	})
}
