package sim

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/harness"
)

// Figure 1 of the paper plots, for each suite matrix, the average execution
// time of the three methods (Online-Detection dotted, ABFT-Detection
// dashed, ABFT-Correction solid) against the normalised mean time between
// failures x = 1/α, swept over [1e2, 1e4]. Each point averages 50 runs at
// the model-optimal intervals for that scheme and fault rate.

// Figure1Config parameterises the sweep.
type Figure1Config struct {
	// Scale downscales the suite matrices.
	Scale int
	// Reps is the repetitions per point (the paper uses 50).
	Reps int
	// MTBFs are the normalised MTBF values 1/α; nil means a 7-point log
	// grid over [1e2, 1e4].
	MTBFs []float64
	// Tol is the solver tolerance (default 1e-8).
	Tol float64
	// Seed bases the deterministic seeding.
	Seed int64
	// Workers sizes the worker pool the repetitions of each point fan out
	// on: 0 uses the shared GOMAXPROCS-sized pool, 1 runs sequentially, any
	// other value sizes a dedicated pool. Results are deterministic in the
	// seed for every setting.
	Workers int
	// Progress, when non-nil, receives status lines.
	Progress Progress
}

func (c Figure1Config) withDefaults() Figure1Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Reps == 0 {
		c.Reps = 50
	}
	if len(c.MTBFs) == 0 {
		c.MTBFs = harness.LogSpace(1e2, 1e4, 7)
	}
	if c.Tol == 0 {
		c.Tol = 1e-8
	}
	return c
}

// cellScenario names the harness scenario of one (matrix, scheme, MTBF)
// cell. The seed formula is position-based and matches the historical
// campaign seeding, so the refactored sweep reproduces its previous
// outputs exactly. The name carries the MTBF to 6 significant digits, since a
// LogSpace point carries rounding noise (100.00000000000004). Alpha keeps
// the rate as computed, because that is the rate the trials run at.
func (c Figure1Config) cellScenario(mi int, sm harness.SuiteMatrix, scheme core.Scheme, xi int, mtbf float64) harness.Scenario {
	return harness.Scenario{
		Name: fmt.Sprintf("figure1/m%d/%s/mtbf%.6g", sm.ID, harness.SchemeSlug(scheme), mtbf),
		Matrix: harness.MatrixSpec{
			Gen: "suite", ID: sm.ID, Scale: c.Scale,
		},
		Solver: "cg",
		Scheme: harness.SchemeSlug(scheme),
		Alpha:  1 / mtbf,
		Tol:    c.Tol,
		Reps:   c.Reps,
		Seed:   c.Seed + int64(mi*100000+int(scheme)*10000+xi*100),
	}.WithRHSSeed(c.Seed + int64(sm.ID))
}

// Figure1Point is one (MTBF, scheme) cell: the mean execution time and the
// spread over the repetitions.
type Figure1Point struct {
	MTBF     float64
	Mean     float64
	CI95     float64
	Failures int
}

// Figure1Series is one subplot: a matrix with one time series per scheme.
type Figure1Series struct {
	ID     int
	N      int
	Points map[core.Scheme][]Figure1Point
}

// RunFigure1Results reproduces the paper's Figure 1 on the given suite: each
// cell runs as a harness scenario (matrix built once per suite entry, trials
// fanned out across the pool) and its record folds into the series. It
// returns both the folded series and the raw harness records of every cell,
// for the machine-readable pipeline (faultsim -json).
func RunFigure1Results(cfg Figure1Config, suite []harness.SuiteMatrix) ([]Figure1Series, []harness.Result) {
	cfg = cfg.withDefaults()
	pl, done := harness.PoolFor(cfg.Workers)
	defer done() // releases a dedicated pool's workers
	out := make([]Figure1Series, 0, len(suite))
	var records []harness.Result
	for mi, sm := range suite {
		a := sm.Generate(cfg.Scale)
		series := Figure1Series{ID: sm.ID, N: a.Rows, Points: make(map[core.Scheme][]Figure1Point)}
		for _, scheme := range core.Schemes {
			for xi, x := range cfg.MTBFs {
				report(cfg.Progress, "figure1: matrix #%d (%d/%d) %v MTBF=%.0f",
					sm.ID, mi+1, len(suite), scheme, x)
				sc := cfg.cellScenario(mi, sm, scheme, xi, x)
				res, err := harness.RunOn(pl, a, sc)
				if err != nil {
					report(cfg.Progress, "figure1: %s: %v", sc.Name, err)
					continue
				}
				records = append(records, res)
				series.Points[scheme] = append(series.Points[scheme], Figure1Point{
					MTBF: x, Mean: res.MeanSimTime, CI95: res.CI95SimTime, Failures: res.Failures,
				})
			}
		}
		out = append(out, series)
	}
	return out, records
}

// WriteFigure1CSV emits the sweep as CSV: matrix, scheme, mtbf, mean, ci95,
// failures. One file feeds all nine subplots.
func WriteFigure1CSV(w io.Writer, series []Figure1Series) error {
	if _, err := fmt.Fprintln(w, "matrix,n,scheme,mtbf,mean_time,ci95,failures"); err != nil {
		return err
	}
	for _, s := range series {
		for _, scheme := range core.Schemes {
			for _, pt := range s.Points[scheme] {
				if _, err := fmt.Fprintf(w, "%d,%d,%s,%.6g,%.6g,%.6g,%d\n",
					s.ID, s.N, scheme, pt.MTBF, pt.Mean, pt.CI95, pt.Failures); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteFigure1Text renders one aligned text block per matrix — the textual
// equivalent of the paper's 3×3 subplot grid.
func WriteFigure1Text(w io.Writer, series []Figure1Series) error {
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "Matrix #%d (n = %d)\n", s.ID, s.N); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %12s %18s %18s %18s\n", "MTBF (1/a)",
			core.OnlineDetection, core.ABFTDetection, core.ABFTCorrection); err != nil {
			return err
		}
		online := s.Points[core.OnlineDetection]
		det := s.Points[core.ABFTDetection]
		cor := s.Points[core.ABFTCorrection]
		for i := range online {
			if _, err := fmt.Fprintf(w, "  %12.0f %18.4f %18.4f %18.4f\n",
				online[i].MTBF, online[i].Mean, det[i].Mean, cor[i].Mean); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
