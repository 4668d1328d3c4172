package model_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
)

// scanS is the exhaustive scan of Eq. (6) that OptimalS replaced: every
// candidate through the public Overhead, the first minimum wins. It stays
// here as the oracle.
func scanS(p model.Params, maxS int) (s int, overhead float64) {
	if maxS < 1 {
		maxS = 1
	}
	best, bestS := math.Inf(1), 1
	for cand := 1; cand <= maxS; cand++ {
		if o := p.Overhead(cand); o < best {
			best, bestS = o, cand
		}
	}
	return bestS, best
}

// scanDS is the same oracle for OnlineParams.Optimal.
func scanDS(o model.OnlineParams, maxD, maxS int) (d, s int, overhead float64) {
	if maxD < 1 {
		maxD = 1
	}
	best := math.Inf(1)
	bestD, bestS := 1, 1
	for cd := 1; cd <= maxD; cd++ {
		p := model.Params{T: float64(cd) * o.Titer, Tverif: o.Tverif, Tcp: o.Tcp, Trec: o.Trec, Lambda: o.Lambda}
		if cs, ov := scanS(p, maxS); ov < best {
			best, bestD, bestS = ov, cd, cs
		}
	}
	return bestD, bestS, best
}

func sameChoice(t *testing.T, name string, p model.Params, maxS int) {
	t.Helper()
	s, ov := p.OptimalS(maxS)
	ws, wov := scanS(p, maxS)
	if s != ws || math.Float64bits(ov) != math.Float64bits(wov) {
		t.Errorf("%s: OptimalS(%d) = (%d, %v), exhaustive scan (%d, %v); params %+v", name, maxS, s, ov, ws, wov, p)
	}
}

// TestOptimalSearchMatchesExhaustiveScanOnSuite holds the interval search to
// the exhaustive scan — same s, same d, same overhead bits — on the cost
// ratios the solvers actually feed it: all nine suite matrices (downscaled;
// the per-row profile, hence every ratio, is preserved) × the three schemes
// × fault rates from none to more than one per iteration, in the units and
// ranges core.OptimalIntervals uses.
func TestOptimalSearchMatchesExhaustiveScanOnSuite(t *testing.T) {
	alphas := []float64{0, 1e-6, 1e-4, 1e-2, 1.0 / 16, 0.25, 1.5}
	for _, sm := range harness.PaperSuite {
		a := sm.Generate(64)
		for _, scheme := range core.Schemes {
			c := core.NewCosts(a, scheme, core.DefaultCostParams())
			for _, alpha := range alphas {
				name := fmt.Sprintf("suite:%d/%v/alpha=%g", sm.ID, scheme, alpha)
				if scheme == core.OnlineDetection {
					o := model.OnlineParams{Titer: 1, Tverif: c.Tverif / c.Titer, Tcp: c.Tcp / c.Titer, Trec: c.Trec / c.Titer, Lambda: alpha}
					d, s, ov := o.Optimal(core.OnlineMaxD, 4096)
					wd, ws, wov := scanDS(o, core.OnlineMaxD, 4096)
					if d != wd || s != ws || math.Float64bits(ov) != math.Float64bits(wov) {
						t.Errorf("%s: Optimal = (%d, %d, %v), exhaustive scan (%d, %d, %v)", name, d, s, ov, wd, ws, wov)
					}
					continue
				}
				p := model.Params{T: 1, Tverif: c.Tverif / c.Titer, Tcp: c.Tcp / c.Titer, Trec: c.Trec / c.Titer,
					Lambda: alpha, Correcting: scheme == core.ABFTCorrection}
				sameChoice(t, name, p, 16384)
			}
		}
	}
}

// TestOptimalSearchMatchesExhaustiveScanOnEdges covers what the suite's
// ratios do not reach: flat and rounding-dominated objectives, free or absent
// costs, success probabilities that round to 1 or underflow to 0, a range of
// one candidate, negative costs (not convex: the search must not stop), and a
// seeded sweep over twelve decades of fault rate and six of checkpoint cost.
func TestOptimalSearchMatchesExhaustiveScanOnEdges(t *testing.T) {
	base := model.Params{T: 1, Tverif: 0.1, Tcp: 2.3, Trec: 2.3, Lambda: 1.0 / 16}
	with := func(f func(*model.Params)) model.Params { p := base; f(&p); return p }
	cases := []struct {
		name string
		p    model.Params
		maxS int
	}{
		{"maxS=1", base, 1},
		{"maxS=0", base, 0},
		{"maxS=2", base, 2},
		{"optimum at the range's end", with(func(p *model.Params) { p.Lambda = 1e-3 }), 40},
		{"Tcp=0", with(func(p *model.Params) { p.Tcp = 0 }), 4096},
		{"Tcp=0, fault-free: flat but for rounding", with(func(p *model.Params) { p.Tcp, p.Lambda = 0, 0 }), 4096},
		{"Tcp=0, rare faults: rising below rounding", with(func(p *model.Params) { p.Tcp, p.Lambda = 0, 1e-9 }), 4096},
		{"Trec=0", with(func(p *model.Params) { p.Trec = 0 }), 4096},
		{"Trec=0, q underflows: NaN candidates", with(func(p *model.Params) { p.Trec, p.Lambda = 0, 40 }), 4096},
		{"everything free", model.Params{T: 1, Lambda: 0.01}, 4096},
		{"q rounds to 1", with(func(p *model.Params) { p.Lambda = 1e-17 }), 4096},
		{"correcting q rounds to 1", with(func(p *model.Params) { p.Lambda, p.Correcting = 1e-9, true }), 4096},
		{"q one ulp below 1", with(func(p *model.Params) { p.Lambda = 1.2e-16 }), 4096},
		{"q^2 underflows", with(func(p *model.Params) { p.Lambda = 400 }), 64},
		{"q underflows", with(func(p *model.Params) { p.Lambda = 800 }), 64},
		{"tiny checkpoint, frequent faults", with(func(p *model.Params) { p.Tcp, p.Lambda = 1e-9, 1.5 }), 4096},
		{"huge checkpoint", with(func(p *model.Params) { p.Tcp = 1e9 }), 16384},
		{"negative costs: rises, then falls for good", with(func(p *model.Params) { p.Tcp, p.Trec = -1, -50 }), 512},
		{"negative Tcp alone", with(func(p *model.Params) { p.Tcp = -1 }), 512},
		{"T=0", with(func(p *model.Params) { p.T = 0 }), 64},
		{"T<0", with(func(p *model.Params) { p.T = -1 }), 64},
		{"NaN rate", with(func(p *model.Params) { p.Lambda = math.NaN() }), 64},
		{"fault-free, maxS=1", with(func(p *model.Params) { p.Lambda = 0 }), 1},
		{"fault-free, maxS=2", with(func(p *model.Params) { p.Lambda = 0 }), 2},
		{"fault-free, negative rate", with(func(p *model.Params) { p.Lambda = -1 }), 16384},
		{"fault-free, Tcp<0: rises", with(func(p *model.Params) { p.Tcp, p.Lambda = -1, 0 }), 16384},
		{"fault-free, Tverif<0", with(func(p *model.Params) { p.Tverif, p.Lambda = -0.999999, 0 }), 16384},
		{"fault-free, Tcp=+Inf", with(func(p *model.Params) { p.Tcp, p.Lambda = math.Inf(1), 0 }), 16384},
		{"fault-free, Tcp=NaN", with(func(p *model.Params) { p.Tcp, p.Lambda = math.NaN(), 0 }), 16384},
		{"fault-free, T=+Inf", with(func(p *model.Params) { p.T, p.Lambda = math.Inf(1), 0 }), 16384},
		{"fault-free, Tverif=+Inf", with(func(p *model.Params) { p.Tverif, p.Lambda = math.Inf(1), 0 }), 16384},
		{"fault-free, Trec=NaN", with(func(p *model.Params) { p.Trec, p.Lambda = math.NaN(), 0 }), 16384},
		{"fault-free, T=0", with(func(p *model.Params) { p.T, p.Lambda = 0, 0 }), 16384},
		{"fault-free, T+Tverif<0: the fall lost in rounding", model.Params{T: 1, Tverif: -1e10 - 1, Tcp: 1}, 3000},
		{"fault-free, huge costs overflow", with(func(p *model.Params) { p.Tverif, p.Tcp, p.Lambda = 1e305, 1e305, 0 }), 16384},
	}
	for _, c := range cases {
		sameChoice(t, c.name, c.p, c.maxS)
	}

	rng := rand.New(rand.NewSource(17))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	for i := 0; i < 400; i++ {
		p := model.Params{
			T:          logUniform(0.1, 10),
			Tverif:     logUniform(1e-3, 10),
			Tcp:        logUniform(1e-3, 1e3),
			Trec:       logUniform(1e-3, 1e3),
			Lambda:     logUniform(1e-12, 10),
			Correcting: i%2 == 1,
		}
		sameChoice(t, fmt.Sprintf("sweep %d", i), p, 1+rng.Intn(3000))
	}
}

// TestOptimalSearchMatchesExhaustiveScanFaultFree holds the interval search
// to the scan at λ = 0 (q = 1), where the objective falls all the way to
// maxS and the search may answer without scanning: random positive costs
// for both success laws and for OnlineParams.Optimal, with the checkpoint
// cost spanning where the last fall clears rounding and where it is lost in
// it (the scan then stops before maxS, and so must the search). A cheap
// checkpoint, which a falling objective cannot tell from free, must match
// the scan too.
func TestOptimalSearchMatchesExhaustiveScanFaultFree(t *testing.T) {
	lost := model.Params{T: 1, Tverif: 0.1, Tcp: 1e-13}
	if s, _ := lost.OptimalS(16384); s == 16384 {
		t.Fatalf("Tcp=%g: the fall is lost in rounding, yet the optimum is maxS", lost.Tcp)
	}
	sameChoice(t, "fall lost in rounding", lost, 16384)

	rng := rand.New(rand.NewSource(29))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	atMax, before := 0, 0
	for i := 0; i < 400; i++ {
		p := model.Params{
			T:          logUniform(1e-3, 1e3),
			Tverif:     logUniform(1e-6, 1e3),
			Tcp:        logUniform(1e-12, 1e3),
			Trec:       logUniform(1e-3, 1e3),
			Correcting: i%2 == 1,
		}
		maxS := 16384
		if i%4 >= 2 {
			maxS = 1 + rng.Intn(16384)
		}
		sameChoice(t, fmt.Sprintf("fault-free sweep %d", i), p, maxS)
		if s, _ := p.OptimalS(maxS); s == maxS {
			atMax++
		} else {
			before++
		}

		o := model.OnlineParams{Titer: p.T, Tverif: p.Tverif, Tcp: p.Tcp, Trec: p.Trec}
		d, s, ov := o.Optimal(core.OnlineMaxD, 4096)
		wd, ws, wov := scanDS(o, core.OnlineMaxD, 4096)
		if d != wd || s != ws || math.Float64bits(ov) != math.Float64bits(wov) {
			t.Errorf("fault-free sweep %d: Optimal = (%d, %d, %v), exhaustive scan (%d, %d, %v); params %+v", i, d, s, ov, wd, ws, wov, o)
		}
	}
	if atMax == 0 || before == 0 {
		t.Errorf("the sweep found %d optima at maxS and %d before it; it must reach both", atMax, before)
	}
}
