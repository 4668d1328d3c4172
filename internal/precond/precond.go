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

// NeumannOptions configures the truncated Neumann-series approximate
// inverse.
type NeumannOptions struct {
	// Terms is the number of series terms (≥ 1). One term is plain Jacobi;
	// two terms give M = D⁻¹(2I − A·D⁻¹), the classic first-order sparse
	// approximate inverse.
	Terms int
	// DropTol discards entries of the assembled inverse with absolute value
	// below DropTol × (max entry), keeping the preconditioner sparse. Zero
	// keeps everything.
	DropTol float64
}

// Neumann builds an explicit sparse approximate inverse from the truncated
// Neumann series
//
//	A⁻¹ ≈ Σ_{k<Terms} (I − D⁻¹A)ᵏ D⁻¹
//
// which converges for diagonally dominant A. The result is an explicit
// sparse matrix applied as an SpMxV — the approximate-inverse class the
// paper's conclusion targets. For SPD A with symmetric scaling the result
// is symmetrised to keep PCG's inner product well defined.
func Neumann(a *sparse.CSR, opt NeumannOptions) (*sparse.CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: Neumann needs a square matrix")
	}
	if opt.Terms < 1 {
		opt.Terms = 2
	}
	n := a.Rows
	d := a.Diag()
	for i, di := range d {
		if di == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
		_ = i
	}

	switch opt.Terms {
	case 1:
		return Jacobi(a)
	case 2:
		// M = 2·D⁻¹ − D⁻¹·A·D⁻¹, assembled entrywise: M[i][j] =
		// 2/d_i·δ_ij − a_ij/(d_i·d_j). Symmetric whenever A is.
		c := sparse.NewCOO(n, n)
		maxAbs := 0.0
		type entry struct {
			i, j int
			v    float64
		}
		var entries []entry
		for i := 0; i < n; i++ {
			for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
				j := a.Colid[k]
				v := -a.Val[k] / (d[i] * d[j])
				if i == j {
					v += 2 / d[i]
				}
				if v != 0 {
					entries = append(entries, entry{i, j, v})
					if av := abs(v); av > maxAbs {
						maxAbs = av
					}
				}
			}
		}
		thresh := opt.DropTol * maxAbs
		for _, e := range entries {
			if e.i == e.j || abs(e.v) >= thresh {
				c.Add(e.i, e.j, e.v)
			}
		}
		return c.ToCSR(), nil
	default:
		return nil, fmt.Errorf("precond: Neumann supports 1 or 2 terms, got %d", opt.Terms)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
