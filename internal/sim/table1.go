package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pool"
	"repro/internal/sparse"
)

// Table 1 of the paper validates the performance model: for each suite
// matrix and for both ABFT schemes, it compares the model-chosen checkpoint
// interval s̃ (Eq. (6)) against the empirically best interval s* found by
// simulation, reporting the average execution times Et(s̃) and Et(s*) over
// 50 repetitions and the relative loss lᵢ = (Et(s̃) − Et(s*))/Et(s*)·100.
// The fault rate is λ = 1/(16·M), i.e. α = 1/16 expected faults per
// iteration.

// Table1Config parameterises the experiment.
type Table1Config struct {
	// Scale downscales the suite matrices (1 = full size; tests and benches
	// use 16–64). Cost *ratios* are scale-invariant by construction.
	Scale int
	// Reps is the number of repetitions per (matrix, scheme, s) cell
	// (the paper uses 50).
	Reps int
	// Alpha is the expected faults per iteration (default 1/16).
	Alpha float64
	// Tol is the solver tolerance (default 1e-8).
	Tol float64
	// Seed bases the deterministic seeding.
	Seed int64
	// Workers sizes the worker pool the repetitions of each cell fan out
	// on: 0 uses the shared GOMAXPROCS-sized pool, 1 runs sequentially, any
	// other value sizes a dedicated pool. Results are deterministic in the
	// seed for every setting.
	Workers int
	// Progress, when non-nil, receives status lines.
	Progress Progress
}

func (c Table1Config) withDefaults() Table1Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Reps == 0 {
		c.Reps = 50
	}
	if c.Alpha == 0 {
		c.Alpha = 1.0 / 16
	}
	if c.Tol == 0 {
		c.Tol = 1e-8
	}
	return c
}

// cellScenario names the harness scenario of one (matrix, scheme, s) cell.
// All cells of a (matrix, scheme) pair share the same seed, so the s* scan
// is paired (common random numbers), like rerunning the same fault trace.
func (c Table1Config) cellScenario(mi int, sm harness.SuiteMatrix, si int, scheme core.Scheme, s int) harness.Scenario {
	return harness.Scenario{
		Name: fmt.Sprintf("table1/m%d/%s/s%d", sm.ID, harness.SchemeSlug(scheme), s),
		Matrix: harness.MatrixSpec{
			Gen: "suite", ID: sm.ID, Scale: c.Scale,
		},
		Solver: "cg",
		Scheme: harness.SchemeSlug(scheme),
		Alpha:  c.Alpha,
		Tol:    c.Tol,
		S:      s,
		D:      1,
		Reps:   c.Reps,
		Seed:   c.Seed + int64(mi*1000+si*100),
	}.WithRHSSeed(c.Seed + int64(sm.ID))
}

// SchemeEval holds the Table-1 cells for one scheme on one matrix.
type SchemeEval struct {
	STilde  int     // model-chosen checkpoint interval s̃
	EtTilde float64 // average execution time at s̃
	SStar   int     // empirically best interval s*
	EtStar  float64 // average execution time at s*
	LossPct float64 // l = (Et(s̃) − Et(s*)) / Et(s*) · 100
}

// Table1Row is one row of the reproduced table.
type Table1Row struct {
	ID      int
	N       int // scaled dimension actually used
	Density float64
	Det     SchemeEval // ABFT-Detection  (columns s̃₁ … l₁)
	Cor     SchemeEval // ABFT-Correction (columns s̃₂ … l₂)
}

// RunTable1 reproduces the paper's Table 1 on the given suite.
func RunTable1(cfg Table1Config, suite []harness.SuiteMatrix) []Table1Row {
	cfg = cfg.withDefaults()
	pl, done := harness.PoolFor(cfg.Workers)
	defer done() // releases a dedicated pool's workers
	rows := make([]Table1Row, 0, len(suite))
	for mi, sm := range suite {
		a := sm.Generate(cfg.Scale)
		row := Table1Row{ID: sm.ID, N: a.Rows, Density: a.Density()}

		for si, scheme := range []core.Scheme{core.ABFTDetection, core.ABFTCorrection} {
			report(cfg.Progress, "table1: matrix #%d (%d/%d) scheme %v", sm.ID, mi+1, len(suite), scheme)
			eval := evalScheme(cfg, pl, a, mi, sm, si, scheme)
			if scheme == core.ABFTDetection {
				row.Det = eval
			} else {
				row.Cor = eval
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// evalScheme computes the model interval s̃, scans a grid of intervals for
// the empirically best s* and fills the evaluation cells. Each grid cell
// runs as a harness scenario against the prebuilt matrix.
func evalScheme(cfg Table1Config, pl *pool.Pool, a *sparse.CSR, mi int, sm harness.SuiteMatrix, si int, scheme core.Scheme) SchemeEval {
	_, sTilde := core.OptimalIntervals(a, scheme, cfg.Alpha, core.DefaultCostParams())

	grid := sGrid(sTilde)
	var eval SchemeEval
	eval.STilde = sTilde
	bestTime, bestS := 0.0, 0
	for _, s := range grid {
		res, err := harness.RunOn(pl, a, cfg.cellScenario(mi, sm, si, scheme, s))
		if err != nil {
			report(cfg.Progress, "table1: m%d %v s=%d: %v", sm.ID, scheme, s, err)
			continue
		}
		if s == sTilde {
			eval.EtTilde = res.MeanSimTime
		}
		if bestS == 0 || res.MeanSimTime < bestTime {
			bestTime, bestS = res.MeanSimTime, s
		}
	}
	eval.SStar = bestS
	eval.EtStar = bestTime
	if eval.EtStar > 0 {
		eval.LossPct = (eval.EtTilde - eval.EtStar) / eval.EtStar * 100
	}
	return eval
}

// sGrid returns the candidate checkpoint intervals scanned for s*: a
// geometric-ish neighbourhood of the model value plus the small constants,
// deduplicated and sorted.
func sGrid(sTilde int) []int {
	set := map[int]bool{sTilde: true, 1: true, 2: true}
	for _, f := range []float64{0.25, 0.5, 0.75, 1.25, 1.5, 2, 3, 4} {
		s := int(float64(sTilde)*f + 0.5)
		if s >= 1 {
			set[s] = true
		}
	}
	grid := make([]int, 0, len(set))
	for s := range set {
		grid = append(grid, s)
	}
	sort.Ints(grid)
	return grid
}

// WriteTable1 renders the rows in the layout of the paper's Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintf(w, "%6s %8s %10s | %5s %10s %5s %10s %7s | %5s %10s %5s %10s %7s\n",
		"id", "n", "density",
		"s~1", "Et(s~1)", "s*1", "Et(s*1)", "l1(%)",
		"s~2", "Et(s~2)", "s*2", "Et(s*2)", "l2(%)"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%6d %8d %10.2e | %5d %10.4f %5d %10.4f %7.2f | %5d %10.4f %5d %10.4f %7.2f\n",
			r.ID, r.N, r.Density,
			r.Det.STilde, r.Det.EtTilde, r.Det.SStar, r.Det.EtStar, r.Det.LossPct,
			r.Cor.STilde, r.Cor.EtTilde, r.Cor.SStar, r.Cor.EtStar, r.Cor.LossPct); err != nil {
			return err
		}
	}
	return nil
}
