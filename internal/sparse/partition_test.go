package sparse

import "testing"

// skewedCSR builds a matrix whose nonzeros are concentrated in the last
// rows (row i holds ~i² entries, capped), so uniform row chunks are badly
// unbalanced.
func skewedCSR(rows int) *CSR {
	var vals []float64
	var cols []int
	rowidx := make([]int, 1, rows+1)
	for i := 0; i < rows; i++ {
		nnz := 1 + (i*i)/(rows*8)
		for k := 0; k < nnz; k++ {
			vals = append(vals, 1)
			cols = append(cols, (i+k)%rows)
		}
		rowidx = append(rowidx, len(vals))
	}
	return &CSR{Rows: rows, Cols: rows, Val: vals, Colid: cols, Rowidx: rowidx}
}

// chunkCount returns the number of row chunks in the plan.
func chunkCount(p partition) int {
	if len(p.Bounds) == 0 {
		return 0
	}
	return len(p.Bounds) - 1
}

func checkPartition(t *testing.T, m *CSR, p partition) {
	t.Helper()
	if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != m.Rows {
		t.Fatalf("partition does not cover [0,%d): bounds %v", m.Rows, p.Bounds)
	}
	for i := 0; i+1 < len(p.Bounds); i++ {
		if p.Bounds[i] >= p.Bounds[i+1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, p.Bounds)
		}
	}
}

func TestNNZPartitionBalance(t *testing.T) {
	m := skewedCSR(4096)
	const chunks = 8
	p := m.nnzPartition(chunks)
	checkPartition(t, m, p)
	if chunkCount(p) != chunks {
		t.Fatalf("got %d chunks, want %d", chunkCount(p), chunks)
	}
	ideal := m.NNZ() / chunks
	for c := 0; c < chunkCount(p); c++ {
		got := m.Rowidx[p.Bounds[c+1]] - m.Rowidx[p.Bounds[c]]
		if got > 2*ideal {
			t.Errorf("chunk %d owns %d nnz, ideal %d: badly unbalanced %v", c, got, ideal, p.Bounds)
		}
	}
	// Uniform row chunking on this matrix is demonstrably worse: the last
	// eighth of the rows holds far more than 2× the ideal nonzeros.
	uniformLast := m.NNZ() - m.Rowidx[m.Rows-m.Rows/chunks]
	if uniformLast <= 2*ideal {
		t.Fatalf("test matrix not skewed enough (last uniform chunk %d nnz, ideal %d)", uniformLast, ideal)
	}
}

func TestNNZPartitionDegenerate(t *testing.T) {
	m := skewedCSR(10)
	for _, chunks := range []int{-1, 0, 1, 10, 50} {
		checkPartition(t, m, m.nnzPartition(chunks))
	}
	empty := &CSR{Rows: 0, Cols: 0, Rowidx: []int{0}}
	p := empty.nnzPartition(4)
	if chunkCount(p) != 1 || p.Bounds[0] != 0 || p.Bounds[1] != 0 {
		t.Fatalf("empty-matrix partition: %v", p.Bounds)
	}
	// All nonzeros in a single row: cuts must stay strictly increasing.
	heavy := &CSR{Rows: 4, Cols: 4,
		Val:    []float64{1, 1, 1, 1},
		Colid:  []int{0, 1, 2, 3},
		Rowidx: []int{0, 0, 4, 4, 4}}
	checkPartition(t, heavy, heavy.nnzPartition(4))
}

func TestPlanForCachingAndInvalidation(t *testing.T) {
	m := skewedCSR(4096)
	p1 := m.planFor(4)
	p2 := m.planFor(4)
	if &p1.Bounds[0] != &p2.Bounds[0] {
		t.Error("planFor did not return the cached plan")
	}
	checkPartition(t, m, p1)

	m.invalidatePlans()
	p3 := m.planFor(4)
	if &p1.Bounds[0] == &p3.Bounds[0] {
		t.Error("invalidatePlans kept the stale plan")
	}

	// CopyFrom (the rollback path) must invalidate too.
	m.planFor(4)
	m.CopyFrom(m.Clone())
	p4 := m.planFor(4)
	if &p3.Bounds[0] == &p4.Bounds[0] {
		t.Error("CopyFrom kept the stale plan")
	}
}

func TestPlanForConcurrent(t *testing.T) {
	m := skewedCSR(4096)
	done := make(chan partition, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- m.planFor(4) }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		p := <-done
		if chunkCount(p) != chunkCount(first) {
			t.Fatalf("concurrent planFor disagreed: %d vs %d chunks", chunkCount(p), chunkCount(first))
		}
	}
}
