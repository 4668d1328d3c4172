package harness_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// operandCells is every solver × scheme cell SolveWith serves.
var operandCells = func() (cells [][2]string) {
	for _, solver := range []string{"cg", "pcg", "bicgstab"} {
		for _, scheme := range []string{"unprotected", "online-detection", "abft-detection", "abft-correction"} {
			if (harness.Scenario{Solver: solver, Scheme: scheme}).Validate() == nil {
				cells = append(cells, [2]string{solver, scheme})
			}
		}
	}
	return cells
}()

// typedSolveError reports an error a caller can act on: the budget, a
// breakdown or a scale no fault explains, a matrix the ABFT schemes cannot
// encode.
func typedSolveError(err error) bool {
	return errors.Is(err, core.ErrNotConverged) || errors.Is(err, core.ErrBreakdown) ||
		errors.Is(err, core.ErrScale) || errors.Is(err, checksum.ErrNoShift)
}

// solveOperand runs a on every cell under a deadline and holds each answer to
// the contract of an operand that arrives by content: a solution whose true
// relative residual verifies, or a typed error — never a hang, a panic, or
// "converged" on something that is not a solution.
func solveOperand(t *testing.T, a *sparse.CSR, deadline time.Duration) {
	t.Helper()
	b, _ := harness.RHS(a, 1)
	var normB float64
	for _, v := range b {
		normB += v * v
	}
	normB = math.Sqrt(normB)
	jacobi, _ := harness.BuildPrecond(a, "jacobi") // nil on a zero diagonal: pcg is skipped

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, cell := range operandCells {
			sc := harness.Scenario{Solver: cell[0], Scheme: cell[1]}
			if sc.Solver == "pcg" && jacobi == nil {
				continue
			}
			x, st, err := harness.SolveWith(a, b, sc, 1, harness.SolveOpts{M: jacobi})
			if err != nil {
				if !typedSolveError(err) {
					t.Errorf("%s/%s: untyped error: %v", cell[0], cell[1], err)
				}
				continue
			}
			if !st.Converged {
				t.Errorf("%s/%s: no error and not converged: %+v", cell[0], cell[1], st)
				continue
			}
			// The true residual, recomputed here from the three arrays.
			var rr float64
			for i := 0; i < a.Rows; i++ {
				ri := b[i]
				for k := a.Rowidx[i]; k < a.Rowidx[i+1]; k++ {
					ri -= a.Val[k] * x[a.Colid[k]]
				}
				rr += ri * ri
			}
			if rel := math.Sqrt(rr) / normB; normB > 0 && !(rel <= 1e-6) {
				t.Errorf("%s/%s: converged with a true relative residual of %g (reported %g)", cell[0], cell[1], rel, st.FinalResidual)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatalf("the solves of a %d×%d operand did not end within %v", a.Rows, a.Cols, deadline)
	}
}

// TestPathologicalOperandsAnswerAtOnce: −L, 1e160·L and 1e-170·L at n = 1024
// held a solver for seconds under every protected scheme (10·MaxIters + 1000
// rollbacks), and the tiny one was "converged" with x = 0 where there was no
// rollback. Every cell now answers within a deadline a client would set.
func TestPathologicalOperandsAnswerAtOnce(t *testing.T) {
	lap := sparse.Poisson2D(32, 32)
	for _, f := range []float64{-1, 1e160, 1e-170} {
		a := lap.Clone()
		for i := range a.Val {
			a.Val[i] *= f
		}
		solveOperand(t, a, time.Second)
	}
}

// fuzzOperand decodes a small CSR from fuzz input: n rows, entries val[i·n+j]
// as signed sixteenths scaled by 10^exp, a zero byte being a structural zero
// (so zero rows and zero diagonals occur), mirrored when sym is set.
func fuzzOperand(n uint8, exp int16, sym bool, val []byte) (*sparse.CSR, error) {
	rows := 1 + int(n)%8
	scale := math.Pow(10, float64(max(-300, min(300, int(exp)))))
	at := func(i, j int) float64 {
		if sym && j < i {
			i, j = j, i
		}
		if k := i*rows + j; k < len(val) {
			return float64(int8(val[k])) / 16 * scale
		}
		return 0
	}
	ic := api.InlineCSR{Rows: rows, Cols: rows, Rowidx: []int{0}}
	for i := 0; i < rows; i++ {
		for j := 0; j < rows; j++ {
			if v := at(i, j); v != 0 {
				ic.Colid = append(ic.Colid, j)
				ic.Val = append(ic.Val, v)
			}
		}
		ic.Rowidx = append(ic.Rowidx, len(ic.Val))
	}
	op, err := api.MarshalInline(&ic)
	if err != nil {
		return nil, err
	}
	return op.ToCSR()
}

// FuzzOperandSolve is the contract of solveOperand over small operands of any
// sign, symmetry and scale, taken the way the service takes them
// (api.InlineBytes.ToCSR). The body runs under a deadline, so a loop a request
// can reach and nothing bounds is found as a failure instead of a stuck
// worker.
func FuzzOperandSolve(f *testing.F) {
	const neg, two = 0xF0, 0x20 // −1 and 2 in sixteenths
	lap := []byte{two, neg, 0, 0, neg, two, neg, 0, 0, neg, two, neg, 0, 0, neg, two}
	f.Add(uint8(3), int16(0), true, []byte{neg, 0, 0, 0, 0, neg, 0, 0, 0, 0, neg, 0, 0, 0, 0, neg}) // −I
	f.Add(uint8(3), int16(160), true, lap)                                                          // 1e160·L
	f.Add(uint8(3), int16(-170), true, lap)                                                         // 1e-170·L
	f.Add(uint8(0), int16(20), false, []byte{neg})                                                  // [−1e20]
	f.Add(uint8(3), int16(0), false, []byte{two, neg, 0, 0, two, two, neg, 0, 0, two, two, neg, 0, 0, two, two})
	f.Fuzz(func(t *testing.T, n uint8, exp int16, sym bool, val []byte) {
		a, err := fuzzOperand(n, exp, sym, val)
		if err != nil {
			return // refused at admission
		}
		solveOperand(t, a, 10*time.Second)
	})
}
