package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// MatrixSpec declaratively names a matrix source, so a scenario record can
// be replayed from its JSON form alone. Exactly one generator is selected by
// Gen; the remaining fields parameterise it (unused fields are ignored and
// omitted from JSON).
type MatrixSpec struct {
	// Gen selects the source: poisson2d, poisson3d, tridiag, laplacian,
	// randomspd, suite or file.
	Gen string `json:"gen"`
	// N is the target dimension for the synthetic generators. Stencil
	// generators round the side up, so the result covers at least N rows.
	// For suite matrices a nonzero N derives the downscale factor instead.
	N int `json:"n,omitempty"`
	// ID is the UFL collection id (Gen == "suite").
	ID int `json:"id,omitempty"`
	// Scale is the explicit suite downscale factor; 0 derives it from N.
	Scale int `json:"scale,omitempty"`
	// Seed drives the randomised generators (laplacian, randomspd).
	Seed int64 `json:"seed,omitempty"`
	// Shift is the diagonal shift of the laplacian generator.
	Shift float64 `json:"shift,omitempty"`
	// Density is the target density of the randomspd generator (default
	// 0.01).
	Density float64 `json:"density,omitempty"`
	// Path is the Matrix Market file (Gen == "file"). A file spec is for a
	// command line (cgsolve -matrix); api.SolveRequest.Validate refuses one
	// on the wire, so a service never opens a path a client names.
	Path string `json:"path,omitempty"`
}

// NewMatrixSpec resolves the generator grammar shared by the commands:
// "poisson2d", "poisson3d", "tridiag", "laplacian", "randomspd" or
// "suite:<id>", with n as the target dimension and seed for the randomised
// generators.
func NewMatrixSpec(gen string, n int, seed int64) (MatrixSpec, error) {
	if strings.HasPrefix(gen, "suite:") {
		id, err := strconv.Atoi(strings.TrimPrefix(gen, "suite:"))
		if err != nil {
			return MatrixSpec{}, fmt.Errorf("bad suite id in %q", gen)
		}
		if _, ok := SuiteByID(id); !ok {
			return MatrixSpec{}, fmt.Errorf("unknown suite matrix %d", id)
		}
		return MatrixSpec{Gen: "suite", ID: id, N: n}, nil
	}
	switch gen {
	case "poisson2d", "poisson3d", "tridiag", "laplacian", "randomspd":
		return MatrixSpec{Gen: gen, N: n, Seed: seed}, nil
	case "":
		return MatrixSpec{}, fmt.Errorf("empty generator")
	default:
		return MatrixSpec{}, fmt.Errorf("unknown generator %q", gen)
	}
}

// FileMatrixSpec names a Matrix Market file source.
func FileMatrixSpec(path string) MatrixSpec {
	return MatrixSpec{Gen: "file", Path: path}
}

// String renders a compact human-readable label for listings.
func (ms MatrixSpec) String() string {
	switch ms.Gen {
	case "suite":
		if ms.Scale > 1 {
			return fmt.Sprintf("suite:%d/s%d", ms.ID, ms.Scale)
		}
		return fmt.Sprintf("suite:%d", ms.ID)
	case "file":
		return "file:" + ms.Path
	default:
		return fmt.Sprintf("%s:%d", ms.Gen, ms.N)
	}
}

// Build materialises the matrix. Deterministic for a fixed spec.
func (ms MatrixSpec) Build() (*sparse.CSR, error) {
	switch ms.Gen {
	case "poisson2d":
		side := coveringRoot(ms.N, 2)
		return sparse.Poisson2D(side, side), nil
	case "poisson3d":
		side := coveringRoot(ms.N, 3)
		return sparse.Poisson3D(side, side, side), nil
	case "tridiag":
		if ms.N < 1 {
			return nil, fmt.Errorf("tridiag needs n ≥ 1, got %d", ms.N)
		}
		return sparse.Tridiag(ms.N, 2, -1), nil
	case "laplacian":
		return sparse.RandomGraphLaplacian(ms.N, 6, ms.Shift, ms.Seed), nil
	case "randomspd":
		density := ms.Density
		if density == 0 {
			density = 0.01
		}
		return sparse.RandomSPD(sparse.RandomSPDOptions{
			N: ms.N, Density: density, DiagShift: 0.5, Seed: ms.Seed,
		}), nil
	case "suite":
		sm, ok := SuiteByID(ms.ID)
		if !ok {
			return nil, fmt.Errorf("unknown suite matrix %d", ms.ID)
		}
		scale := ms.Scale
		if scale < 1 {
			scale = 1
			if ms.N > 0 && ms.N < sm.N {
				scale = sm.N / ms.N
			}
		}
		return sm.Generate(scale), nil
	case "file":
		f, err := os.Open(ms.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sparse.ReadMatrixMarket(f)
	case "":
		return nil, fmt.Errorf("matrix spec has no generator")
	default:
		return nil, fmt.Errorf("unknown generator %q", ms.Gen)
	}
}

// coveringRoot returns the smallest side whose deg-th power covers n.
func coveringRoot(n, deg int) int {
	s := 1
	for {
		p := 1
		for i := 0; i < deg; i++ {
			p *= s
		}
		if p >= n {
			return s
		}
		s++
	}
}
