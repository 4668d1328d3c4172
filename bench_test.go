// Package repro's root benchmarks regenerate the paper's evaluation:
//
//	BenchmarkTable1_*   — the Table 1 model-validation cells (s̃ vs s*).
//	BenchmarkFigure1_*  — the Figure 1 execution-time points per scheme
//	                      and fault rate.
//	BenchmarkSpMxV*     — the Section 3.2 overhead claims (protected vs
//	                      plain product, checksum setup amortisation).
//	Benchmark*Ablation* — the Section 5.1 design choices (ones vs random
//	                      weight vectors, norm vs componentwise tolerance).
//
// The experiment benchmarks default to downscaled matrices so a full
// `go test -bench=.` stays tractable; the cmd/faultsim and cmd/modelval
// binaries run the full-size versions.
package repro

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tmr"
	"repro/internal/vec"
)

const benchScale = 48 // suite downscale for the experiment benchmarks

// benchMatrix builds one suite instance per id for the benchmarks.
func benchMatrix(b *testing.B, id int) (*simMatrix, []float64) {
	b.Helper()
	sm, ok := harness.SuiteByID(id)
	if !ok {
		b.Fatalf("unknown suite matrix %d", id)
	}
	a := sm.Generate(benchScale)
	rhs, _ := harness.RHS(a, int64(id))
	return &simMatrix{sm: sm, a: a}, rhs
}

type simMatrix struct {
	sm harness.SuiteMatrix
	a  *sparse.CSR
}

// --- Table 1: model validation (one benchmark per scheme on the smallest
// matrix; the full nine-matrix table is cmd/modelval) ---

func BenchmarkTable1_ABFTDetection_2213(b *testing.B) {
	b.ReportAllocs()
	benchTable1Cell(b, core.ABFTDetection)
}

func BenchmarkTable1_ABFTCorrection_2213(b *testing.B) {
	b.ReportAllocs()
	benchTable1Cell(b, core.ABFTCorrection)
}

func benchTable1Cell(b *testing.B, scheme core.Scheme) {
	m, rhs := benchMatrix(b, 2213)
	alpha := 1.0 / 16
	_, sTilde := core.OptimalIntervals(m.a, scheme, alpha, core.DefaultCostParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean, _, _ := sim.AverageTimePool(nil, m.a, rhs, scheme, alpha, sTilde, 1, 1e-8, int64(i), 3)
		b.ReportMetric(mean, "model-s-time")
	}
}

// --- Figure 1: execution time vs fault rate, one benchmark per scheme at
// the paper's Table-1 fault rate and at a low rate (the crossover ends of
// the sweep; the full sweep is cmd/faultsim) ---

func BenchmarkFigure1_Online_341_HighRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.OnlineDetection, 1.0/16)
}

func BenchmarkFigure1_ABFTDetection_341_HighRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.ABFTDetection, 1.0/16)
}

func BenchmarkFigure1_ABFTCorrection_341_HighRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.ABFTCorrection, 1.0/16)
}

func BenchmarkFigure1_Online_341_LowRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.OnlineDetection, 1e-4)
}

func BenchmarkFigure1_ABFTDetection_341_LowRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.ABFTDetection, 1e-4)
}

func BenchmarkFigure1_ABFTCorrection_341_LowRate(b *testing.B) {
	b.ReportAllocs()
	benchFigure1Point(b, core.ABFTCorrection, 1e-4)
}

func benchFigure1Point(b *testing.B, scheme core.Scheme, alpha float64) {
	m, rhs := benchMatrix(b, 341)
	sc := harness.Scenario{Solver: "cg", Scheme: harness.SchemeSlug(scheme), Alpha: alpha, Tol: 1e-8}
	b.ResetTimer()
	var lastMean float64
	for i := 0; i < b.N; i++ {
		_, st, err := harness.SolveWith(m.a, rhs, sc, int64(i), harness.SolveOpts{})
		if err != nil {
			b.Logf("run %d did not converge: %v", i, err)
		}
		lastMean = st.SimTime
	}
	b.ReportMetric(lastMean, "model-seconds")
}

// --- Section 3.2: SpMxV overheads ---

func BenchmarkSpMxVPlain(b *testing.B) {
	b.ReportAllocs()
	m, _ := benchMatrix(b, 341)
	x := randVec(m.a.Rows, 1)
	y := make([]float64, m.a.Rows)
	b.SetBytes(int64(12 * m.a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.a.MulVec(y, x)
	}
}

func BenchmarkSpMxVRobust(b *testing.B) {
	b.ReportAllocs()
	m, _ := benchMatrix(b, 341)
	x := randVec(m.a.Rows, 1)
	y := make([]float64, m.a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.a.MulVecRobust(y, x)
	}
}

func BenchmarkSpMxVProtectedDetect(b *testing.B) {
	b.ReportAllocs()
	benchProtected(b, abft.Detect)
}

func BenchmarkSpMxVProtectedCorrect(b *testing.B) {
	b.ReportAllocs()
	benchProtected(b, abft.DetectCorrect)
}

func benchProtected(b *testing.B, mode abft.Mode) {
	m, _ := benchMatrix(b, 341)
	p := abft.NewProtected(m.a, mode)
	x := randVec(m.a.Rows, 1)
	ref := checksum.NewVector(x)
	y := make([]float64, m.a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := p.MulVec(y, x)
		if out := p.Verify(y, x, ref, sr); out.Detected {
			b.Fatal("false positive in benchmark")
		}
	}
}

// BenchmarkSpMxVBlock4 is the multi-RHS product at k = 4, plain and
// protected (each one pass over a row feeding four lanes), on a
// 5-nnz/row stencil and on matrix 341 (49 nnz/row). Divide by four to set it
// against BenchmarkSpMxVPlain and the product half of
// BenchmarkSpMxVProtected*.
func BenchmarkSpMxVBlock4(b *testing.B) {
	m, _ := benchMatrix(b, 341)
	for _, op := range []struct {
		name string
		a    *sparse.CSR
	}{{"stencil", sparse.Poisson2D(64, 64)}, {"341", m.a}} {
		xs, ys := make([][]float64, 4), make([][]float64, 4)
		for j := range xs {
			xs[j], ys[j] = randVec(op.a.Cols, int64(j+1)), make([]float64, op.a.Rows)
		}
		b.Run("plain/"+op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.a.MulVecBlock(ys, xs)
			}
		})
		b.Run("protected/"+op.name, func(b *testing.B) {
			b.ReportAllocs()
			p := abft.NewProtected(op.a, abft.DetectCorrect)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MulVecBlock(ys, xs)
			}
		})
	}
}

func BenchmarkComputeChecksums(b *testing.B) {
	b.ReportAllocs()
	// The setup cost that is amortised over all products with one matrix.
	m, _ := benchMatrix(b, 341)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = checksum.NewMatrix(m.a)
	}
}

// --- Section 5.1 ablations ---

func BenchmarkWeightAblationOnes(b *testing.B) {
	b.ReportAllocs()
	// The paper keeps w = (1,…,1) because a random weight vector costs
	// extra multiplications; these two benchmarks quantify that claim.
	m, _ := benchMatrix(b, 341)
	ones := make([]float64, m.a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = generalMatrixChecksum(m.a, ones)
	}
}

func BenchmarkWeightAblationRandom(b *testing.B) {
	b.ReportAllocs()
	m, _ := benchMatrix(b, 341)
	w := randomWeights(m.a.Rows, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = generalMatrixChecksum(m.a, w)
	}
}

// randomWeights returns a random weight vector with entries in [0.5, 1.5).
func randomWeights(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	return w
}

// generalMatrixChecksum computes wᵀA for an arbitrary weight vector, the
// generalised checksum row the weight ablation prices.
func generalMatrixChecksum(a *sparse.CSR, w []float64) []float64 {
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		wi := w[i]
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			out[a.Colid[k]] += wi * a.Val[k]
		}
	}
	return out
}

// TestGeneralMatrixChecksum holds the ablation's checksum row under ones
// to the C1 row the protected product uses.
func TestGeneralMatrixChecksum(t *testing.T) {
	a := sparse.Poisson2D(6, 6)
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	got := generalMatrixChecksum(a, ones)
	m := checksum.NewMatrix(a)
	for j := range got {
		if got[j] != m.C1[j] {
			t.Fatalf("ones-weight general checksum %v != C1 %v", got, m.C1)
		}
	}
}

func BenchmarkToleranceAblationNorm(b *testing.B) {
	b.ReportAllocs()
	benchTolerance(b, abft.TolNorm)
}

func BenchmarkToleranceAblationComponent(b *testing.B) {
	b.ReportAllocs()
	benchTolerance(b, abft.TolComponent)
}

func benchTolerance(b *testing.B, policy abft.TolerancePolicy) {
	m, _ := benchMatrix(b, 341)
	p := abft.NewProtected(m.a, abft.DetectCorrect)
	p.SetPolicy(policy)
	x := randVec(m.a.Rows, 1)
	ref := checksum.NewVector(x)
	y := make([]float64, m.a.Rows)
	sr := p.MulVec(y, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := p.Verify(y, x, ref, sr); out.Detected {
			b.Fatal("false positive")
		}
	}
}

func BenchmarkRelModeAblation(b *testing.B) {
	b.ReportAllocs()
	// The selective-reliability pricing choice: reliable mode free in time
	// (the default), charged one extra execution — what the wall pays while
	// the first two executions of a vote agree, the fault-free case — or two,
	// the vote that needs its third.
	m, rhs := benchMatrix(b, 2213)
	for extra, name := range []string{"energyPriced", "timePriced2x", "timePriced3x"} {
		b.Run(name, func(b *testing.B) {
			cp := core.DefaultCostParams()
			cp.RelModeExtra = float64(extra)
			for i := 0; i < b.N; i++ {
				_, st, err := core.Solve(m.a, rhs, core.Config{
					Scheme: core.ABFTCorrection, Tol: 1e-8, Costs: cp,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(st.SimTime, "model-seconds")
			}
		})
	}
}

// --- TMR and model micro-benchmarks ---
//
// The vector kernels share one operand (n = 4096, the size of the benchmark's
// tmr.* and vec.* probes): TMRDot ÷ PlainDot is the vote's cost over the plain
// kernel, two executions and a comparison when nothing dissents; TMRAxpy ÷
// PlainAxpy is 1, an update runs once; TMRAxpyGuarded is what the engine pays
// per update — the execution with its checksum riding along, then the linear
// check against the operands' references — under one checksum row and two,
// beside the voted update it replaced (two executions, a bit comparison, a
// copy; kept here as the reference row); GuardCheck is the standalone pass
// over a vector that only BiCGstab still runs, once an iteration.

func BenchmarkTMRDot(b *testing.B) {
	b.ReportAllocs()
	x := randVec(1<<12, 1)
	y := randVec(1<<12, 2)
	var e tmr.Executor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Dot(x, y)
	}
}

func BenchmarkPlainDot(b *testing.B) {
	b.ReportAllocs()
	x := randVec(1<<12, 1)
	y := randVec(1<<12, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vec.Dot(x, y)
	}
}

func BenchmarkTMRAxpy(b *testing.B) {
	b.ReportAllocs()
	x := randVec(1<<12, 1)
	y := randVec(1<<12, 2)
	var e tmr.Executor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Axpy(1e-9, x, y)
	}
}

func BenchmarkPlainAxpy(b *testing.B) {
	b.ReportAllocs()
	x := randVec(1<<12, 1)
	y := randVec(1<<12, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.Axpy(1e-9, x, y)
	}
}

func BenchmarkTMRAxpyGuarded(b *testing.B) {
	x := randVec(1<<12, 1)
	y := randVec(1<<12, 2)
	for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
		b.Run("once/"+mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var e tmr.Executor
			gx, gy := abft.NewGuard(x, mode), abft.NewGuard(y, mode)
			for i := 0; i < b.N; i++ {
				got := e.AxpyGuarded(gy.Rows(), 1e-9, x, y)
				if out := gy.Linear(y, got, y, gy.Ref(), 1e-9, x, gx.Ref()); out.Detected {
					b.Fatal("false positive")
				}
			}
		})
	}
	b.Run("voted/"+abft.DetectCorrect.String(), func(b *testing.B) {
		b.ReportAllocs()
		r0, r1 := make([]float64, len(y)), make([]float64, len(y))
		var ref checksum.Vector
		for i := 0; i < b.N; i++ {
			vec.AxpyTo(r0, 1e-9, x, y)
			vec.AxpyTo(r1, 1e-9, x, y)
			for k := range r0 {
				if math.Float64bits(r0[k]) != math.Float64bits(r1[k]) {
					b.Fatal("two executions differ")
				}
			}
			copy(y, r0)
			ref = checksum.NewVector(y)
		}
		_ = ref
	})
}

func BenchmarkGuardCheck(b *testing.B) {
	x := randVec(1<<12, 1)
	for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			g := abft.NewGuard(x, mode)
			for i := 0; i < b.N; i++ {
				if out := g.Check(x); out.Detected {
					b.Fatal("false positive")
				}
			}
		})
	}
}

func BenchmarkOptimalS(b *testing.B) {
	b.ReportAllocs()
	p := model.Params{T: 1, Tverif: 0.2, Tcp: 1.9, Trec: 1.9, Lambda: 1.0 / 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.OptimalS(16384)
	}
}

func BenchmarkOptimalPlacementDP(b *testing.B) {
	b.ReportAllocs()
	p := model.Params{T: 1, Tverif: 0.2, Tcp: 1.9, Trec: 1.9, Lambda: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = model.OptimalPlacement(p, 500)
	}
}

// --- Worker-pool engine ---
//
// The campaign pair is the level the system is parallel at: independent
// trials across workers. The SpMV pair times the one pool kernel left,
// sparse.MulVecParallel, which only bench/'s
// sparse.mulvec_parallel_speedup.large still calls, at n ≥ 100k rows.

// benchPoolMatrix is a 2D Poisson system with n = 102400 ≥ 100k rows.
func benchPoolMatrix(b *testing.B) *sparse.CSR {
	b.Helper()
	return sparse.Poisson2D(320, 320)
}

func BenchmarkPoolSpMVSequential(b *testing.B) {
	b.ReportAllocs()
	a := benchPoolMatrix(b)
	x := randVec(a.Cols, 1)
	y := make([]float64, a.Rows)
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkPoolSpMVParallel(b *testing.B) {
	b.ReportAllocs()
	a := benchPoolMatrix(b)
	p := pool.Default()
	x := randVec(a.Cols, 1)
	y := make([]float64, a.Rows)
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVecParallel(p, y, x)
	}
}

func BenchmarkPoolCampaignSequential(b *testing.B) {
	b.ReportAllocs()
	m, rhs := benchMatrix(b, 2213)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AverageTimePool(nil, m.a, rhs, core.ABFTCorrection, 1.0/16, 2, 1, 1e-8, 1, 4)
	}
}

func BenchmarkPoolCampaignParallel(b *testing.B) {
	b.ReportAllocs()
	p := pool.Default()
	m, rhs := benchMatrix(b, 2213)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AverageTimePool(p, m.a, rhs, core.ABFTCorrection, 1.0/16, 2, 1, 1e-8, 1, 4)
	}
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// --- Zero-allocation steady-state solver iterations ---
//
// The Benchmark*SteadyState benchmarks run one full warm solve per op on a
// workspace: after the first op everything — matrix copy, vectors, checksum
// encodings, checkpoints — is recycled, so allocs/op must report 0 and
// ns/op divided by the iteration count approximates the per-iteration cost.

func BenchmarkCGSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchSolverSteadyState(b, "cg")
}

func BenchmarkPCGSteadyState(b *testing.B) {
	b.ReportAllocs()
	benchSolverSteadyState(b, "pcg")
}

func benchSolverSteadyState(b *testing.B, kind string) {
	a := sparse.Poisson2D(48, 48)
	rhs := randVec(a.Rows, 3)
	cfg := core.Config{Scheme: core.Unprotected, Tol: 1e-8, Ws: core.NewWorkspace()}
	if kind == "pcg" {
		m, err := precond.Jacobi(a)
		if err != nil {
			b.Fatal(err)
		}
		cfg.M = m
	}
	if _, _, err := core.Solve(a, rhs, cfg); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Solve(a, rhs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreSolveSteadyState(b *testing.B) {
	for _, scheme := range []core.Scheme{core.ABFTDetection, core.ABFTCorrection} {
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			a := sparse.Poisson2D(48, 48)
			rhs := randVec(a.Rows, 3)
			ws := core.NewWorkspace()
			cfg := core.Config{Scheme: scheme, Tol: 1e-8, S: 4, Ws: ws}
			if _, _, err := core.Solve(a, rhs, cfg); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Solve(a, rhs, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
