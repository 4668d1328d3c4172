package tmr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/abft"
	"repro/internal/checksum"
	"repro/internal/vec"
)

func TestDotNoFault(t *testing.T) {
	var e Executor
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := e.Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if v, m, u := e.Stats(); v != 1 || m != 0 || u != 0 {
		t.Fatalf("stats = %d votes, %d mismatches, %d undecided", v, m, u)
	}
}

// wantLazyStats holds a vote struck by one transient in the victim replica
// to the lazy third execution: a transient in replica 0 or 1 is outvoted and
// counted; replica 2 is what would have settled a difference, and with none
// to settle it never ran — nothing is counted, and the hook was never shown
// it.
func wantLazyStats(t *testing.T, e *Executor, victim int, calls [3]int) {
	t.Helper()
	want := [3]int{1, 1, 1}
	mismatches := int64(1)
	if victim == 2 {
		want[2], mismatches = 0, 0
	}
	if calls != want {
		t.Fatalf("victim %d: the hook saw %v calls per replica, want %v", victim, calls, want)
	}
	if v, m, u := e.Stats(); v != 1 || m != mismatches || u != 0 {
		t.Fatalf("victim %d: %d votes, %d mismatches, %d undecided, want 1, %d, 0", victim, v, m, u, mismatches)
	}
}

func TestDotOutvotesSingleTransient(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		var calls [3]int
		e := Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
			calls[replica]++
			if replica == victim {
				*scalar += 1e6
			}
		}}
		a := []float64{1, 2, 3}
		b := []float64{4, 5, 6}
		if got := e.Dot(a, b); got != 32 {
			t.Fatalf("victim %d: Dot = %v, want 32", victim, got)
		}
		wantLazyStats(t, &e, victim, calls)
	}
}

func TestNorm2Sq(t *testing.T) {
	var e Executor
	if got := e.Norm2Sq([]float64{3, 4}); got != 25 {
		t.Fatalf("Norm2Sq = %v", got)
	}
	e.Corrupt = func(replica int, scalar *float64, _ []float64) {
		if replica == 1 {
			*scalar = -1
		}
	}
	if got := e.Norm2Sq([]float64{3, 4}); got != 25 {
		t.Fatalf("Norm2Sq with a transient in replica 1 = %v", got)
	}
	if v, m, u := e.Stats(); v != 2 || m != 1 || u != 0 {
		t.Fatalf("stats = %d votes, %d mismatches, %d undecided", v, m, u)
	}
}

func TestAxpyNoFault(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 {
		t.Fatalf("Axpy = %v", y)
	}
}

// held runs the linear check of an update that left dst for a + alpha·b,
// against references taken from the pristine operands a and b, under a guard
// of each mode, on a copy of dst each. It returns the two verdicts and the
// vector the two-row guard left.
func held(dst, a []float64, alpha float64, b []float64) (detect, correct abft.Outcome, repaired []float64) {
	for _, mode := range []abft.Mode{abft.Detect, abft.DetectCorrect} {
		g := abft.NewGuard(a, mode)
		aRef, bRef := g.Ref(), abft.NewGuard(b, mode).Ref()
		z := slices.Clone(dst)
		out := g.Linear(z, checksum.NewVectorRows(z, g.Rows()), a, aRef, alpha, b, bRef)
		if mode == abft.Detect {
			detect = out
		} else {
			correct, repaired = out, z
		}
	}
	return detect, correct, repaired
}

// TestAxpyTransientIsDetectedAndRepaired: an update runs once, so a transient
// in it reaches the vector — and the checksum the update hands back, which the
// operands' checksums contradict: one row detects it, two rows name the
// element and rebuild it.
func TestAxpyTransientIsDetectedAndRepaired(t *testing.T) {
	calls := 0
	e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
		if calls++; replica != 0 {
			t.Errorf("the hook was shown replica %d of an update", replica)
		}
		out[0] += 42
	}}
	x, y0 := []float64{1, 2}, []float64{10, 20}
	y := slices.Clone(y0)
	sums := e.AxpyGuarded(2, 2, x, y)
	if y[0] != 54 || y[1] != 24 || calls != 1 {
		t.Fatalf("Axpy = %v after %d hook calls, want the struck [54 24] after 1", y, calls)
	}
	if want := checksum.NewVector(y); sums != want {
		t.Fatalf("returned sums %v, the written vector has %v", sums, want)
	}
	detect, correct, repaired := held(y, y0, 2, x)
	if !detect.Detected || detect.Corrected {
		t.Fatalf("one row: %+v, want detected and left to the caller", detect)
	}
	if !correct.Corrected || repaired[0] != 12 || repaired[1] != 24 {
		t.Fatalf("two rows: %+v, vector %v, want [12 24] restored", correct, repaired)
	}
	if v, m, u := e.Stats(); v != 0 || m != 0 || u != 0 {
		t.Fatalf("an update counted %d votes, %d mismatches, %d undecided: it is not voted", v, m, u)
	}
}

func TestAxpyTo(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	e.AxpyToGuarded(0, dst, -1, x, y)
	if dst[0] != 9 || dst[1] != 18 {
		t.Fatalf("AxpyTo = %v", dst)
	}
	if y[0] != 10 {
		t.Fatal("AxpyTo modified y")
	}
}

func TestXpay(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Xpay(0.5, x, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Xpay = %v", y)
	}
}

func TestXpayTransientIsDetectedAndRepaired(t *testing.T) {
	e := Executor{Corrupt: func(_ int, _ *float64, out []float64) { out[1] = -999 }}
	x, y0 := []float64{1, 2}, []float64{10, 20}
	y := slices.Clone(y0)
	e.Xpay(0.5, x, y)
	if y[0] != 6 || y[1] != -999 {
		t.Fatalf("Xpay = %v, want the struck [6 -999]", y)
	}
	detect, correct, repaired := held(y, x, 0.5, y0)
	if !detect.Detected || !correct.Corrected || repaired[0] != 6 || repaired[1] != 12 {
		t.Fatalf("one row %+v, two rows %+v leaving %v, want [6 12] restored", detect, correct, repaired)
	}
}

func TestMatchesPlainKernels(t *testing.T) {
	var e Executor
	x := []float64{0.1, -2.5, 3.75, 4}
	y := []float64{1, 2, 3, 4}
	yCopy := append([]float64(nil), y...)
	e.Axpy(1.5, x, y)
	vec.Axpy(1.5, x, yCopy)
	for i := range y {
		if y[i] != yCopy[i] {
			t.Fatal("TMR Axpy differs from plain Axpy")
		}
	}
	if e.Dot(x, y) != vec.Dot(x, y) {
		t.Fatal("TMR Dot differs from plain Dot")
	}
}

// TestVoteComparesBitPatterns pins the vote to bit patterns: equal NaNs
// agree (== would call three identical NaNs a three-way dissent) and a
// signed zero among unsigned ones is a dissent (== cannot see it). The hook
// replaces what each execution produced, so the rows also pin the lazy third
// execution — when replicas 0 and 1 agree, replica 2's value is never asked
// for — and the vote without a majority.
func TestVoteComparesBitPatterns(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name                  string
		r                     [3]float64
		want                  float64
		mismatches, undecided int64
	}{
		{"three identical NaNs", [3]float64{nan, nan, nan}, nan, 0, 0},
		{"-0 in replica 0 among +0", [3]float64{negZero, 0, 0}, 0, 1, 0},
		{"-0 in replica 1 among +0", [3]float64{0, negZero, 0}, 0, 1, 0},
		{"-0 in replica 2 never computed", [3]float64{0, 0, negZero}, 0, 0, 0},
		{"NaN replica 0 outvoted", [3]float64{nan, 7, 7}, 7, 1, 0},
		{"NaN replica 1 outvoted", [3]float64{7, nan, 7}, 7, 1, 0},
		{"NaN replica 2 never computed", [3]float64{7, 7, nan}, 7, 0, 0},
		{"no majority yields replica 1, unvouched", [3]float64{1, 2, 3}, 2, 1, 1},
	}
	for _, tc := range cases {
		third := 0 // executions of replica 2 a vote needs
		if tc.mismatches > 0 {
			third = 1
		}
		// The hook replaces each replica's result.
		calls := 0
		e := Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
			*scalar = tc.r[replica]
			if replica == 2 {
				calls++
			}
		}}
		got := e.Dot([]float64{1}, []float64{1})
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: Dot voted %v, want %v", tc.name, got, tc.want)
		}
		if _, m, u := e.Stats(); m != tc.mismatches || u != tc.undecided {
			t.Errorf("%s: Dot counted %d mismatches and %d undecided, want %d and %d", tc.name, m, u, tc.mismatches, tc.undecided)
		}
		if calls != third {
			t.Errorf("%s: Dot ran replica 2 %d times, want %d", tc.name, calls, third)
		}
	}
}

// TestOperandFlipBeforeTheUpdate strikes operand memory after its reference
// was taken. The update computes from what is in memory, and the checksum it
// returns is that of what it wrote; the expectation comes from the references,
// so the same comparison that guards the arithmetic catches the struck word —
// in place over an aliased operand too — and two rows rebuild the element it
// fed. The struck operand word is not this check's to repair.
func TestOperandFlipBeforeTheUpdate(t *testing.T) {
	x0, y0 := []float64{1, 2, 3}, []float64{10, 20, 30}
	for _, strikeY := range []bool{false, true} {
		x, y := slices.Clone(x0), slices.Clone(y0)
		if strikeY {
			y[2] = -30 // the operand the update overwrites
		} else {
			x[2] = -3
		}
		var e Executor
		ref := e.AxpyGuarded(2, 2, x, y)
		if want := checksum.NewVector(y); ref != want || y[2] == 36 {
			t.Fatalf("struck y=%v: Axpy = %v with sums %v, the written vector has %v", strikeY, y, ref, want)
		}
		// References of the pristine operands, memory as the update left it.
		g := abft.NewGuard(y0, abft.DetectCorrect)
		out := g.Linear(y, ref, y, g.Ref(), 2, x, checksum.NewVector(x0))
		if !out.Corrected || y[0] != 12 || y[1] != 24 || y[2] != 36 {
			t.Fatalf("struck y=%v: %+v leaving %v, want [12 24 36]", strikeY, out, y)
		}
		if g.Ref() != checksum.NewVector(y) {
			t.Fatalf("struck y=%v: the guard holds %v, the repaired vector sums to %v", strikeY, g.Ref(), checksum.NewVector(y))
		}
		if !strikeY && x[2] != -3 {
			t.Fatalf("the struck operand word was rewritten to %v", x[2])
		}
	}
}
