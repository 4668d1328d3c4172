package abft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
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
