package harness

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// SuiteMatrix describes one matrix of the paper's test suite by its
// published properties (paper Table 1, columns 1–3): the UFL collection id,
// the dimension n and the density nnz/n². The actual UFL files are not
// redistributable here, so Generate builds a synthetic SPD matrix matching
// n and density — the only properties the experiments depend on (they set
// the memory size M, the iteration cost and the checksum costs).
type SuiteMatrix struct {
	ID      int
	N       int
	Density float64
}

// PaperSuite lists the nine positive definite matrices of the paper's
// Table 1, with n between 17456 and 74752 and density below 1e-2.
var PaperSuite = []SuiteMatrix{
	{ID: 341, N: 23052, Density: 2.15e-3},
	{ID: 752, N: 74752, Density: 1.07e-4},
	{ID: 924, N: 60000, Density: 2.11e-4},
	{ID: 1288, N: 30401, Density: 5.10e-4},
	{ID: 1289, N: 36441, Density: 4.26e-4},
	{ID: 1311, N: 48962, Density: 2.14e-4},
	{ID: 1312, N: 40000, Density: 1.24e-4},
	{ID: 1848, N: 65025, Density: 2.44e-4},
	{ID: 2213, N: 20000, Density: 1.39e-3},
}

// SuiteByID returns the suite entry with the given UFL id, or false.
func SuiteByID(id int) (SuiteMatrix, bool) {
	for _, m := range PaperSuite {
		if m.ID == id {
			return m, true
		}
	}
	return SuiteMatrix{}, false
}

// SelectSuite resolves a comma-separated list of UFL ids against the paper
// suite; an empty string selects all nine matrices. The experiment commands
// share it for their -matrices flags.
func SelectSuite(ids string) ([]SuiteMatrix, error) {
	if ids == "" {
		return PaperSuite, nil
	}
	var suite []SuiteMatrix
	for _, part := range strings.Split(ids, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad matrix id %q: %v", part, err)
		}
		m, ok := SuiteByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown matrix id %d", id)
		}
		suite = append(suite, m)
	}
	return suite, nil
}

// scaledN returns the dimension after downscaling by `scale` (≥ 1). The
// density is scaled up by the same factor, which preserves the
// nonzeros-per-row profile — and with it every cost ratio of the model
// (Titer/Tverif/Tcp are all per-row-profile quantities).
func (sm SuiteMatrix) scaledN(scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := sm.N / scale
	if n < 200 {
		n = 200
	}
	return n
}

// Generate builds the synthetic SPD instance at the given downscale factor:
// a 2D diffusion backbone (PDE-like conditioning, so CG takes O(√n)
// iterations as on the real collection matrices) filled to the target
// density with weak band couplings (see sparse.SuiteSPD). Deterministic for
// fixed (id, scale).
func (sm SuiteMatrix) Generate(scale int) *sparse.CSR {
	n := sm.scaledN(scale)
	density := sm.Density * float64(sm.N) / float64(n) // preserve nnz/row
	return sparse.SuiteSPD(sparse.SuiteSPDOptions{
		N:       n,
		Density: density,
		Seed:    int64(sm.ID),
	})
}

// RHS manufactures a right-hand side b = A·xTrue for a random solution
// vector, deterministic in the seed. Returns b and xTrue.
func RHS(a *sparse.CSR, seed int64) (b, xTrue []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := a.Rows
	xTrue = make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, n)
	a.MulVec(b, xTrue)
	return b, xTrue
}
