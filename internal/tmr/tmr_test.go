package tmr

import (
	"math"
	"testing"

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

func TestAxpyOutvotesSingleTransient(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		var calls [3]int
		e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
			calls[replica]++
			if replica == victim {
				out[0] += 42
			}
		}}
		x := []float64{1, 2}
		y := []float64{10, 20}
		e.Axpy(2, x, y)
		if y[0] != 12 || y[1] != 24 {
			t.Fatalf("victim %d: Axpy = %v", victim, y)
		}
		wantLazyStats(t, &e, victim, calls)
	}
}

func TestAxpyTo(t *testing.T) {
	var e Executor
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	e.AxpyTo(dst, -1, x, y)
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

func TestXpayOutvotesTransient(t *testing.T) {
	e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
		if replica == 1 && out != nil {
			out[1] = -999
		}
	}}
	x := []float64{1, 2}
	y := []float64{10, 20}
	e.Xpay(0.5, x, y)
	if y[1] != 12 {
		t.Fatalf("Xpay with transient = %v", y)
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
		check := func(op string, e *Executor, calls int) {
			t.Helper()
			if _, m, u := e.Stats(); m != tc.mismatches || u != tc.undecided {
				t.Errorf("%s: %s counted %d mismatches and %d undecided, want %d and %d", tc.name, op, m, u, tc.mismatches, tc.undecided)
			}
			if calls != third {
				t.Errorf("%s: %s ran replica 2 %d times, want %d", tc.name, op, calls, third)
			}
		}

		// The scalar vote, through Dot: the hook replaces each replica's
		// result.
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
		check("Dot", &e, calls)

		// The element-wise vote, through Axpy: the hook replaces one element
		// of each replica's block.
		calls = 0
		e = Executor{Corrupt: func(replica int, _ *float64, block []float64) {
			block[1] = tc.r[replica]
			if replica == 2 {
				calls++
			}
		}}
		y := []float64{10, 20, 30}
		e.Axpy(2, []float64{1, 2, 3}, y)
		if y[0] != 12 || y[2] != 36 || math.Float64bits(y[1]) != math.Float64bits(tc.want) {
			t.Errorf("%s: Axpy voted %v, want [12 %v 36]", tc.name, y, tc.want)
		}
		check("Axpy", &e, calls)
	}
}

// TestOperandFlipBetweenExecutions strikes operand memory after the first
// execution of a block has read it. Memory is the guards' business, not the
// vote's, but the vote must still be the three-way one: the two executions
// that read the struck word agree and win, in place over an aliased operand
// too, and the returned checksum is that of what was written — so a guard
// installed from it describes the vector as it is.
func TestOperandFlipBetweenExecutions(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	e := Executor{Corrupt: func(replica int, _ *float64, _ []float64) {
		if replica == 1 {
			x[2] = -3
		}
	}}
	ref := e.AxpyGuarded(2, 2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 24 {
		t.Fatalf("Axpy = %v, want [12 24 24]", y)
	}
	if want := checksum.NewVector(y); ref != want {
		t.Fatalf("returned sums %v, the written vector has %v", ref, want)
	}
	if _, m, u := e.Stats(); m != 1 || u != 0 {
		t.Fatalf("%d mismatches, %d undecided, want 1 and 0", m, u)
	}
}
