package sparse

import (
	"fmt"
	"math"
	"math/rand"
)

// This file contains deterministic generators for the test problems used by
// the experiments. All generators take an explicit seed, so every experiment
// in the repository is reproducible bit for bit.

// Poisson2D returns the standard 5-point finite-difference discretisation of
// the Laplace operator on an nx×ny grid with Dirichlet boundary conditions.
// The matrix is symmetric positive definite with 4 on the diagonal and -1 on
// the four neighbour couplings; n = nx*ny.
func Poisson2D(nx, ny int) *CSR {
	if nx <= 0 || ny <= 0 {
		panic("sparse: Poisson2D needs positive grid dimensions")
	}
	n := nx * ny
	c := NewCOO(n, n)
	idx := func(i, j int) int { return i*ny + j }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			row := idx(i, j)
			c.Add(row, row, 4)
			if i > 0 {
				c.Add(row, idx(i-1, j), -1)
			}
			if i < nx-1 {
				c.Add(row, idx(i+1, j), -1)
			}
			if j > 0 {
				c.Add(row, idx(i, j-1), -1)
			}
			if j < ny-1 {
				c.Add(row, idx(i, j+1), -1)
			}
		}
	}
	return c.ToCSR()
}

// Poisson3D returns the 7-point stencil discretisation of the Laplacian on
// an nx×ny×nz grid with Dirichlet boundaries (diagonal 6, neighbours -1).
func Poisson3D(nx, ny, nz int) *CSR {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic("sparse: Poisson3D needs positive grid dimensions")
	}
	n := nx * ny * nz
	c := NewCOO(n, n)
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				row := idx(i, j, k)
				c.Add(row, row, 6)
				if i > 0 {
					c.Add(row, idx(i-1, j, k), -1)
				}
				if i < nx-1 {
					c.Add(row, idx(i+1, j, k), -1)
				}
				if j > 0 {
					c.Add(row, idx(i, j-1, k), -1)
				}
				if j < ny-1 {
					c.Add(row, idx(i, j+1, k), -1)
				}
				if k > 0 {
					c.Add(row, idx(i, j, k-1), -1)
				}
				if k < nz-1 {
					c.Add(row, idx(i, j, k+1), -1)
				}
			}
		}
	}
	return c.ToCSR()
}

// Tridiag returns the n×n tridiagonal matrix with the given diagonal and
// off-diagonal values (e.g. Tridiag(n, 2, -1) is the 1D Poisson matrix).
func Tridiag(n int, diag, off float64) *CSR {
	if n <= 0 {
		panic("sparse: Tridiag needs n > 0")
	}
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, diag)
		if i > 0 {
			c.Add(i, i-1, off)
		}
		if i < n-1 {
			c.Add(i, i+1, off)
		}
	}
	return c.ToCSR()
}

// RandomGraphLaplacian returns the combinatorial Laplacian L = D − Adj of a
// random undirected graph with n vertices and roughly degree edges per
// vertex, shifted by shift·I. With shift = 0 the matrix has exactly zero
// column sums — the case that motivates the paper's shifted checksum vector
// (Section 3.2) — and is positive semi-definite; any shift > 0 makes it SPD.
func RandomGraphLaplacian(n, degree int, shift float64, seed int64) *CSR {
	if n <= 1 || degree <= 0 {
		panic("sparse: RandomGraphLaplacian needs n > 1 and degree > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	// Collect unique undirected edges.
	edges := make(map[[2]int]bool)
	// A Hamiltonian ring keeps the graph connected.
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		edges[[2]int{a, b}] = true
	}
	want := n * degree / 2
	for len(edges) < want {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		edges[[2]int{i, j}] = true
	}
	deg := make([]int, n)
	c := NewCOO(n, n)
	for e := range edges {
		c.Add(e[0], e[1], -1)
		c.Add(e[1], e[0], -1)
		deg[e[0]]++
		deg[e[1]]++
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(deg[i])+shift)
	}
	return c.ToCSR()
}

// RandomSPDOptions configures RandomSPD.
type RandomSPDOptions struct {
	// N is the matrix dimension.
	N int
	// Density is the target nnz/N² (the generator matches it to within the
	// rounding of the per-row off-diagonal count).
	Density float64
	// Bandwidth limits off-diagonal entries to |i−j| ≤ Bandwidth. Zero means
	// unlimited (columns drawn uniformly). A finite band mimics the locality
	// of discretised operators and keeps SpMxV cache behaviour realistic.
	Bandwidth int
	// DiagShift is added to the row-sum diagonal; it lower-bounds the
	// smallest eigenvalue, so smaller shifts give harder CG problems (more
	// iterations). Must be > 0.
	DiagShift float64
	// ValueDecades spreads the off-diagonal magnitudes over this many
	// decades (|value| ∈ 10^[-ValueDecades, 0)), mimicking heterogeneous
	// diffusion coefficients. Zero keeps the magnitudes within one decade,
	// which yields well-conditioned expander-like matrices that CG solves
	// in a handful of iterations; 3–4 decades produce the hundreds of
	// iterations typical of the paper's PDE matrices.
	ValueDecades float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// RandomSPD generates a symmetric strictly diagonally dominant (hence
// positive definite) matrix of dimension N with approximately Density·N²
// stored nonzeros. Off-diagonal values are drawn uniformly from [-1, 0);
// each diagonal entry is the absolute row sum plus DiagShift, which makes
// the matrix SPD by Gershgorin's theorem.
//
// This is the synthetic stand-in for the UFL collection matrices used in the
// paper: the experiments depend only on n, nnz and SPD-ness (see DESIGN.md).
func RandomSPD(opt RandomSPDOptions) *CSR {
	if opt.N <= 0 {
		panic("sparse: RandomSPD needs N > 0")
	}
	if opt.DiagShift <= 0 {
		panic("sparse: RandomSPD needs DiagShift > 0")
	}
	n := opt.N
	rng := rand.New(rand.NewSource(opt.Seed))

	targetNNZ := opt.Density * float64(n) * float64(n)
	// Off-diagonals per row (total, both triangles), excluding the diagonal.
	offPerRow := int(targetNNZ/float64(n)) - 1
	if offPerRow < 2 {
		offPerRow = 2
	}
	// We add symmetric pairs, so pick half as many upper-triangle entries.
	upperPerRow := offPerRow / 2
	if upperPerRow < 1 {
		upperPerRow = 1
	}

	band := opt.Bandwidth
	if band <= 0 {
		band = n
	}

	type key struct{ i, j int }
	seen := make(map[key]bool, n*upperPerRow)
	c := NewCOO(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		placed := 0
		attempts := 0
		for placed < upperPerRow && attempts < 20*upperPerRow {
			attempts++
			lo := i + 1
			hi := i + band
			if hi > n-1 {
				hi = n - 1
			}
			if lo > hi {
				break
			}
			j := lo + rng.Intn(hi-lo+1)
			k := key{i, j}
			if seen[k] {
				continue
			}
			seen[k] = true
			v := -(rng.Float64()*0.9 + 0.1) // uniform in [-1, -0.1)
			if opt.ValueDecades > 0 {
				v = -math.Pow(10, -opt.ValueDecades*rng.Float64())
			}
			c.Add(i, j, v)
			c.Add(j, i, v)
			rowAbs[i] += -v
			rowAbs[j] += -v
			placed++
		}
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, rowAbs[i]+opt.DiagShift)
	}
	return c.ToCSR()
}

// SuiteSPDOptions configures SuiteSPD.
type SuiteSPDOptions struct {
	// N is the matrix dimension.
	N int
	// Density is the target nnz/N².
	Density float64
	// Seed drives the deterministic RNG.
	Seed int64
}

// SuiteSPD generates the synthetic stand-ins for the paper's UFL test
// matrices: a 2D Dirichlet diffusion backbone (which gives the κ ~ N
// conditioning — and hence the hundreds of CG iterations — typical of
// discretised PDEs) filled to the target density with weak random band
// couplings (which carry the memory footprint and SpMxV cost of the denser
// collection matrices without destroying the spectrum).
//
// The result is symmetric and strictly diagonally dominant on the boundary
// rows (Dirichlet), hence positive definite.
func SuiteSPD(opt SuiteSPDOptions) *CSR {
	n := opt.N
	if n < 4 {
		panic("sparse: SuiteSPD needs N ≥ 4")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ny := int(math.Sqrt(float64(n)))
	if ny < 2 {
		ny = 2
	}

	c := NewCOO(n, n)
	rowAbs := make([]float64, n)
	deficit := make([]float64, n) // Dirichlet boundary surplus per row

	// 5-point stencil backbone with mildly heterogeneous weights. Node i
	// sits at grid position (i/ny, i%ny); the last partial row of the grid
	// simply has fewer neighbours (extra Dirichlet boundary).
	couple := func(i, j int) {
		w := 0.5 + rng.Float64()
		c.Add(i, j, -w)
		c.Add(j, i, -w)
		rowAbs[i] += w
		rowAbs[j] += w
	}
	for i := 0; i < n; i++ {
		if (i+1)%ny != 0 && i+1 < n {
			couple(i, i+1) // east neighbour
		}
		if i+ny < n {
			couple(i, i+ny) // south neighbour
		}
		// Every missing neighbour (boundary) contributes its expected
		// weight to the diagonal, as eliminating a Dirichlet node does.
		neighbours := 0
		if i%ny != 0 {
			neighbours++
		}
		if (i+1)%ny != 0 && i+1 < n {
			neighbours++
		}
		if i >= ny {
			neighbours++
		}
		if i+ny < n {
			neighbours++
		}
		deficit[i] = float64(4-neighbours) * 1.0
	}

	// Weak band fill to the target density: these couplings are 1e-3 of
	// the backbone scale, so they dominate the memory and flop counts of
	// the suite matrices without changing the conditioning.
	extraPerRow := int(opt.Density*float64(n)) - 5
	band := 4 * ny
	type key struct{ i, j int }
	seen := make(map[key]bool)
	for i := 0; i < n && extraPerRow > 0; i++ {
		placed, attempts := 0, 0
		upper := extraPerRow / 2
		for placed < upper && attempts < 20*upper {
			attempts++
			lo, hi := i+2, i+band
			if hi > n-1 {
				hi = n - 1
			}
			if lo > hi {
				break
			}
			j := lo + rng.Intn(hi-lo+1)
			k := key{i, j}
			if seen[k] || (j-i) == ny {
				continue
			}
			seen[k] = true
			w := 1e-3 * (0.1 + rng.Float64())
			c.Add(i, j, -w)
			c.Add(j, i, -w)
			rowAbs[i] += w
			rowAbs[j] += w
			placed++
		}
	}

	for i := 0; i < n; i++ {
		c.Add(i, i, rowAbs[i]+deficit[i])
	}
	return c.ToCSR()
}

// Dense converts a dense row-major matrix into CSR, dropping exact zeros.
// Intended for small test fixtures.
func Dense(rows, cols int, a []float64) *CSR {
	if len(a) != rows*cols {
		panic(fmt.Sprintf("sparse: Dense needs %d entries, got %d", rows*cols, len(a)))
	}
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := a[i*cols+j]; v != 0 {
				c.Add(i, j, v)
			}
		}
	}
	return c.ToCSR()
}
