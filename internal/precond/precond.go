// Package precond implements the preconditioners the paper's conclusion
// singles out as compatible with its protection scheme: "diagonal,
// approximate inverse, and triangular preconditioners seem to be
// particularly attracting, since it should be possible to treat them by
// adapting the techniques described in this paper".
//
// The key observation is that a preconditioner applied as a sparse
// matrix–vector product (a Jacobi diagonal or an explicit sparse
// approximate inverse) is protected by exactly the ABFT-SpMxV machinery of
// internal/abft: its representation gets checksum rows, its application
// gets the same detect-2/correct-1 verification. The resilient PCG driver
// in internal/core does precisely that.
package precond

import (
	"fmt"

	"repro/internal/sparse"
)

// Jacobi returns the diagonal preconditioner M = D⁻¹ as an explicit sparse
// matrix, so it can be wrapped in the same ABFT protection as A. Returns an
// error if any diagonal entry is zero.
func Jacobi(a *sparse.CSR) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: Jacobi needs a square matrix")
	}
	n := a.Rows
	m := &sparse.CSR{Rows: n, Cols: n, Val: a.Diag(), Colid: make([]int, n), Rowidx: make([]int, n+1)}
	for i, di := range m.Val {
		if di == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
		m.Val[i] = 1 / di
		m.Colid[i] = i
		m.Rowidx[i+1] = i + 1
	}
	return m, nil
}

// Neumann returns the two-term truncated Neumann series (one term is Jacobi)
//
//	A⁻¹ ≈ (I + (I − D⁻¹A)) D⁻¹ = D⁻¹(2I − A·D⁻¹),
//
// which converges for diagonally dominant A, as an explicit sparse matrix
// applied as an SpMxV — the approximate-inverse class the paper's
// conclusion targets. M[i][j] = 2/d_i·δ_ij − a_ij/(d_i·d_j) on A's pattern,
// less the entries that come out zero, so M is symmetric whenever A is.
func Neumann(a *sparse.CSR) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: Neumann needs a square matrix")
	}
	n := a.Rows
	d := a.Diag()
	for i, di := range d {
		if di == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
	}
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			j := a.Colid[k]
			v := -a.Val[k] / (d[i] * d[j])
			if i == j {
				v += 2 / d[i]
			}
			if v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	return c.ToCSR(), nil
}
