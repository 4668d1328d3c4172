package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// maxResidual is the true relative residual above which a solve has failed,
// whatever the solver said about itself.
const maxResidual = 1e-6

// solveEngine runs kindSolve operations in-process on one goroutine, with
// sequential kernels (Pool nil) and one warm workspace pair — the way a
// campaign worker calls the harness.
type solveEngine struct {
	mats map[string]*sparse.CSR
	pre  map[string]*sparse.CSR // Jacobi preconditioners, built once as the service does
	rhs  map[string][]float64
	ws   *harness.Workspaces
	// refs holds each lane's first execution (the warm-up pass): a later
	// one must reproduce its counters.
	refs map[string]solveRec
}

func (e *solveEngine) prepare(lanes []op) error {
	e.mats = map[string]*sparse.CSR{}
	e.pre = map[string]*sparse.CSR{}
	e.rhs = map[string][]float64{}
	e.refs = map[string]solveRec{}
	e.ws = &harness.Workspaces{Core: core.NewWorkspace(), Solver: solver.NewWorkspace()}
	for i := range lanes {
		name := lanes[i].Matrix
		if _, ok := e.mats[name]; ok {
			continue
		}
		a, err := namedMatrices[name].Build()
		if err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
		m, err := precond.Jacobi(a)
		if err != nil {
			return fmt.Errorf("preconditioning %s: %w", name, err)
		}
		e.mats[name], e.pre[name] = a, m
		e.rhs[name], _ = harness.RHS(a, rhsSeed)
	}
	return nil
}

func (e *solveEngine) exec(o *op, tr *tracer, span, id int) sample {
	a, b := e.mats[o.Matrix], e.rhs[o.Matrix]
	sc := harness.Scenario{Solver: o.Solver, Scheme: o.Scheme, Alpha: o.Alpha}
	opts := harness.SolveOpts{Ws: e.ws, M: e.pre[o.Matrix]}

	// The timed part includes the span bookkeeping around the call, so the
	// traced ÷ untraced ratio shows what tracing costs an operation.
	start := time.Now()
	sp := tr.begin("harness.solvewith", span, id)
	x, st, err := harness.SolveWith(a, b, sc, o.Seeds[0], opts)
	tr.end(sp)
	end := time.Now()

	s := sample{Op: o, Start: start, End: end}
	rec := recOfStats(o, st, float64(end.Sub(start)))
	s.Recs = []solveRec{rec}

	sp = tr.begin("bench.verify", span, id)
	ref, seen := e.refs[o.laneKey(0)]
	if !seen {
		e.refs[o.laneKey(0)] = rec
	}
	switch {
	case err != nil:
		s.fail("solver error: %v", err)
	case !st.Converged:
		s.fail("not converged")
	case seen && !sameCounts(ref, rec):
		s.fail("not deterministic: counters %+v, reference pass had %+v", rec, ref)
	default:
		if r := relativeResidual(a, x, b); !(r <= maxResidual) {
			s.fail("true relative residual %.3g > %g", r, maxResidual)
		}
	}
	tr.end(sp)
	return s
}

func (e *solveEngine) counters() (*tierCounters, error) { return &tierCounters{}, nil }
func (e *solveEngine) close()                           {}

func (s *sample) fail(format string, args ...any) {
	if !s.Failed {
		s.Failed = true
		s.Why = fmt.Sprintf(format, args...)
	}
}

func recOfStats(o *op, st core.Stats, ns float64) solveRec {
	return solveRec{
		Matrix: o.Matrix, Solver: o.Solver, Scheme: o.Scheme,
		Ns: ns, SimTime: st.SimTime,
		Useful: int64(st.UsefulIterations), Total: st.TotalIterations,
		Detections: st.Detections, Corrections: st.Corrections, Rollbacks: st.Rollbacks,
		Checkpoints: st.Checkpoints, Faults: st.FaultsInjected,
	}
}

// sameCounts compares everything of two records that a deterministic solve
// must repeat (time excluded).
func sameCounts(a, b solveRec) bool {
	a.Ns, b.Ns = 0, 0
	return a == b
}

// relativeResidual is ‖b − Ax‖₂/‖b‖₂ computed by the benchmark's own loops
// over the CSR arrays, so the check does not rest on the kernels under
// test.
func relativeResidual(a *sparse.CSR, x, b []float64) float64 {
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
			s -= a.Val[k] * x[a.Colid[k]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	if bb == 0 {
		return math.Sqrt(rr)
	}
	return math.Sqrt(rr / bb)
}
