package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedAssembly is the assembly ToCSR replaced: every triplet copied out
// and sorted by (row, column) with sort.Slice, duplicates summed in the
// order the sort leaves them. It stays here as the oracle.
func sortedAssembly(c *COO) *CSR {
	type trip struct {
		i, j int
		v    float64
	}
	ts := make([]trip, len(c.V))
	for k := range c.V {
		ts[k] = trip{c.I[k], c.J[k], c.V[k]}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].i != ts[b].i {
			return ts[a].i < ts[b].i
		}
		return ts[a].j < ts[b].j
	})
	m := &CSR{Rows: c.rows, Cols: c.cols, Rowidx: make([]int, c.rows+1)}
	for k := 0; k < len(ts); {
		i, j := ts[k].i, ts[k].j
		v := ts[k].v
		k++
		for k < len(ts) && ts[k].i == i && ts[k].j == j {
			v += ts[k].v
			k++
		}
		m.Val = append(m.Val, v)
		m.Colid = append(m.Colid, j)
		m.Rowidx[i+1]++
	}
	for i := 0; i < c.rows; i++ {
		m.Rowidx[i+1] += m.Rowidx[i]
	}
	return m
}

func sameAssembly(t *testing.T, name string, c *COO) {
	t.Helper()
	got, want := c.ToCSR(), sortedAssembly(c)
	same := got.Rows == want.Rows && got.Cols == want.Cols &&
		len(got.Rowidx) == len(want.Rowidx) && len(got.Colid) == len(want.Colid) && len(got.Val) == len(want.Val) &&
		(got.Val == nil) == (want.Val == nil) && (got.Colid == nil) == (want.Colid == nil)
	for k := 0; same && k < len(want.Rowidx); k++ {
		same = got.Rowidx[k] == want.Rowidx[k]
	}
	for k := 0; same && k < len(want.Colid); k++ {
		same = got.Colid[k] == want.Colid[k] && math.Float64bits(got.Val[k]) == math.Float64bits(want.Val[k])
	}
	if !same {
		t.Errorf("%s (%dx%d, %d triplets): ToCSR and the sorted assembly differ\n got %+v\nwant %+v",
			name, c.rows, c.cols, len(c.V), got, want)
	}
}

// TestToCSRMatchesSortedAssembly holds ToCSR to the sort.Slice assembly it
// replaced — same Rowidx, Colid and Val bits — on random triplets: empty
// rows, 1×n and n×1 shapes, rows long enough to be merged, columns added
// out of order, and duplicates whose sums are exact in any order, plus the
// huge declared dimensions FuzzReadMatrixMarket's seeds reach. Duplicates
// whose sum is inexact are summed in the order they were added, which the
// oracle does not promise; that is checked against a running sum.
func TestToCSRMatchesSortedAssembly(t *testing.T) {
	giant := NewCOO(1<<20, 1<<20) // "1048576 1048576 1 / 7 7 1"
	giant.Add(6, 6, 1)
	sameAssembly(t, "declared 2²⁰ rows, one entry", giant)
	sameAssembly(t, "declared 2²⁰ rows, no entry", NewCOO(1<<20, 1<<20))
	sameAssembly(t, "0x0", NewCOO(0, 0))
	sym := NewCOO(3, 3) // the symmetric seed, mirrored as the reader does
	for _, e := range [][3]float64{{0, 0, 2}, {1, 0, -1}, {0, 1, -1}, {1, 1, 2}, {2, 2, 1e-3}} {
		sym.Add(int(e[0]), int(e[1]), e[2])
	}
	sameAssembly(t, "symmetric seed", sym)

	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {1, 300}, {300, 1}, {5, 5}, {40, 40}, {64, 200}, {200, 64}, {3, 1000}}
	for trial := 0; trial < 200; trial++ {
		sh := shapes[trial%len(shapes)]
		rows, cols := sh[0], sh[1]
		c := NewCOO(rows, cols)
		added := map[[2]int]bool{}
		busy := rng.Intn(rows) // a third of the entries land in one row, long enough to be merged
		for n := rng.Intn(4 * (rows + cols)); n > 0; n-- {
			i, j := rng.Intn(rows), rng.Intn(cols)
			if rng.Intn(3) == 0 {
				i = busy
			}
			if rows > 2 && i == rows/2 {
				continue // an empty row in the middle
			}
			if (i+j)%3 == 0 { // an inexact value, added once
				if !added[[2]int{i, j}] {
					c.Add(i, j, rng.NormFloat64())
				}
			} else { // small integers: any summation order is exact
				v := float64(rng.Intn(17) - 8)
				c.Add(i, j, v)
				if rng.Intn(8) == 0 {
					c.Add(i, j, -v) // a duplicate summing to exactly zero
				}
			}
			added[[2]int{i, j}] = true
		}
		sameAssembly(t, "random", c)
	}

	// Inexact duplicates, in a short row and across the merged runs of a
	// long one, against sums taken in the order the entries were added.
	c := NewCOO(2, 40)
	want := map[[2]int]float64{}
	add := func(i, j int, v float64) {
		c.Add(i, j, v)
		want[[2]int{i, j}] += v
	}
	for _, v := range []float64{0.1, 0.2, 0.3, 1e16, -1e16, 1} {
		add(0, 3, v)
	}
	for k := 0; k < 20*shortRow; k++ {
		add(1, rng.Intn(40), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(33)-16)))
	}
	m := c.ToCSR()
	for i := 0; i < m.Rows; i++ {
		for k := m.Rowidx[i]; k < m.Rowidx[i+1]; k++ {
			if w := want[[2]int{i, m.Colid[k]}]; math.Float64bits(m.Val[k]) != math.Float64bits(w) {
				t.Errorf("inexact duplicates at (%d, %d): %v, want %v (summed in the order added)", i, m.Colid[k], m.Val[k], w)
			}
		}
	}
	if m.NNZ() != len(want) {
		t.Errorf("inexact duplicates: %d nonzeros, want %d", m.NNZ(), len(want))
	}
}
