package sparse

import (
	"fmt"
	"sort"
)

// COO accumulates matrix entries in coordinate (triplet) form and converts
// them to CSR. Duplicate entries at the same (i,j) are summed, matching the
// Matrix Market convention for assembled finite-element matrices.
type COO struct {
	rows, cols int
	I, J       []int
	V          []float64
}

// NewCOO returns an empty rows×cols triplet accumulator.
func NewCOO(rows, cols int) *COO {
	return &COO{rows: rows, cols: cols}
}

// Add appends the entry A[i,j] += v. Panics on out-of-range indices: the
// generators are deterministic, so this is a programming error.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: COO.Add index (%d,%d) out of range %dx%d", i, j, c.rows, c.cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// ToCSR converts the accumulated triplets into a CSR matrix with sorted
// column indices per row and duplicates summed. Entries that sum exactly to
// zero are kept (the structure may be meaningful, e.g. for checksums of
// pattern-symmetric matrices).
func (c *COO) ToCSR() *CSR {
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
