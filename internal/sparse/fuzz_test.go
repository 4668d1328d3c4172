package sparse

import (
	"math"
	"math/rand"
	"testing"
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

// fuzzCSR draws a valid rows×cols matrix: rows of 0, 1, 2 or 5 nonzeros in
// random (repeating, unsorted) columns, two in five of them empty, and row
// dense — when it exists — holding every column.
func fuzzCSR(rng *rand.Rand, rows, cols, dense int) *CSR {
	m := &CSR{Rows: rows, Cols: cols, Rowidx: make([]int, rows+1), Val: []float64{}, Colid: []int{}}
	for i := 0; i < rows; i++ {
		nnz := [...]int{0, 0, 1, 2, 5}[rng.Intn(5)]
		if cols == 0 {
			nnz = 0
		}
		if i == dense {
			for j := 0; j < cols; j++ {
				m.Colid = append(m.Colid, j)
			}
		} else {
			for ; nnz > 0; nnz-- {
				m.Colid = append(m.Colid, rng.Intn(cols))
			}
		}
		m.Rowidx[i+1] = len(m.Colid)
	}
	m.Val = fuzzVector(rng, len(m.Colid))
	return m
}

// wild draws an index no array of the matrix holds, or one just past an end.
func wild(rng *rand.Rand, n int) int {
	return [...]int{-1, -1 - rng.Intn(1<<20), n, n + 1 + rng.Intn(1<<20), math.MaxInt, math.MinInt}[rng.Intn(6)]
}

// same reports equal bit patterns, or two NaNs: when both addends of a sum
// are NaN, which payload survives depends on the operand order the compiler
// picked for that loop (it differs between plain, -race and fuzz builds, and
// between the one-lane and the four-lane loop), so no two loops can promise
// to agree on it.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// refProduct is the reference the kernels are held to: the robust product
// as it was written before the row loops were hoisted. On a valid matrix it
// is the strict product too.
func refProduct(m *CSR, x []float64) []float64 {
	y := make([]float64, m.Rows)
	nnz := len(m.Val)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.Rowidx[i], m.Rowidx[i+1]
		if lo < 0 {
			lo = 0
		}
		if hi > nnz {
			hi = nnz
		}
		var s float64
		for k := lo; k < hi; k++ {
			if ind := m.Colid[k]; uint(ind) < uint(len(x)) {
				s += m.Val[k] * x[ind]
			}
		}
		y[i] = s
	}
	return y
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %x, the reference loop gives %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func requirePanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// FuzzProducts holds every product of the package to the reference loop, on
// any shape (no rows, fewer than four, empty rows, one dense row), any lane
// count and any data, NaN, Inf and signed zeros included: on a valid matrix
// all of them, bit for bit; on a matrix with row pointers made negative,
// larger than nnz or inverted and column indices out of range, the robust
// ones, which must not panic; and a strict product that meets an
// out-of-range column, or a non-empty row range that leaves the arrays,
// must still panic.
func FuzzProducts(f *testing.F) {
	for i, shape := range [][2]int{{0, 0}, {0, 3}, {1, 1}, {2, 5}, {3, 0}, {3, 3}, {4, 9}, {17, 6}, {40, 40}, {64, 11}} {
		for lanes := 1; lanes <= 9; lanes += 1 + i%3 {
			f.Add(shape[0], shape[1], int64(i*31+lanes), lanes, i%2 == 0)
		}
	}

	f.Fuzz(func(t *testing.T, rows, cols int, seed int64, lanes int, dense bool) {
		rows, cols = int(uint(rows)%65), int(uint(cols)%65)
		lanes = 1 + int(uint(lanes)%9)
		rng := rand.New(rand.NewSource(seed))
		denseRow := -1
		if dense && rows > 0 {
			denseRow = rng.Intn(rows)
		}
		m := fuzzCSR(rng, rows, cols, denseRow)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, lanes)
		for j := range xs {
			xs[j] = fuzzVector(rng, cols)
		}

		checkRobust := func(m *CSR) {
			split := rng.Intn(rows + 1)
			for j, x := range xs {
				want := refProduct(m, x)
				y := make([]float64, rows)
				m.MulVecRobust(y, x)
				requireSame(t, "MulVecRobust", y, want)

				y = make([]float64, rows)
				m.mulRowsRobust(y, x, split, rows)
				m.mulRowsRobust(y, x, 0, split)
				requireSame(t, "mulRowsRobust in two ranges", y, want)

				for i := range want {
					if got := m.MulVecRowRobust(i, x); !same(got, want[i]) {
						t.Fatalf("MulVecRowRobust(%d) lane %d = %x, the reference loop gives %x", i, j, math.Float64bits(got), math.Float64bits(want[i]))
					}
				}
			}
		}

		// A valid matrix: every variant is the reference.
		checkRobust(m)
		ys := make([][]float64, lanes)
		for j := range ys {
			ys[j] = make([]float64, rows)
		}
		m.MulVecBlock(ys, xs)
		split := rng.Intn(rows + 1)
		for j, x := range xs {
			want := refProduct(m, x)
			y := make([]float64, rows)
			m.MulVec(y, x)
			requireSame(t, "MulVec", y, want)
			requireSame(t, "MulVecBlock lane", ys[j], want)

			y = make([]float64, rows)
			m.mulRows(y, x, split, rows)
			m.mulRows(y, x, 0, split)
			requireSame(t, "mulRows in two ranges", y, want)
		}
		if m.NNZ() == 0 {
			return
		}

		// Out-of-range columns under intact row pointers: every nonzero
		// belongs to a row, so a strict product meets one and panics.
		bad := m.Clone()
		bad.Colid[rng.Intn(bad.NNZ())] = wild(rng, cols)
		for n := rng.Intn(3); n > 0; n-- {
			bad.Colid[rng.Intn(bad.NNZ())] = wild(rng, cols)
		}
		checkRobust(bad)
		y := make([]float64, rows)
		requirePanic(t, "MulVec", func() { bad.MulVec(y, xs[0]) })
		requirePanic(t, "MulVecBlock", func() { bad.MulVecBlock(ys, xs) })

		// A last row pointer past nnz: a non-empty range that leaves the
		// arrays, which a strict product refuses.
		long := m.Clone()
		long.Rowidx[rows] = long.NNZ() + 1 + rng.Intn(3)
		checkRobust(long)
		requirePanic(t, "MulVec on a row past nnz", func() { long.MulVec(y, xs[0]) })

		// Row pointers made negative, larger than nnz or inverted, on top of
		// the columns.
		for n := 1 + rng.Intn(3); n > 0; n-- {
			i := rng.Intn(rows + 1)
			switch rng.Intn(3) {
			case 0:
				bad.Rowidx[i] = wild(rng, bad.NNZ())
			case 1:
				bad.Rowidx[i] = rng.Intn(bad.NNZ() + 1)
			default:
				j := rng.Intn(rows + 1)
				bad.Rowidx[i], bad.Rowidx[j] = bad.Rowidx[j], bad.Rowidx[i]
			}
		}
		checkRobust(bad)
	})
}
