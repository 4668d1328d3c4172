package tmr

import (
	"math"
	"testing"

	"repro/internal/vec"
)

func TestDotNoFault(t *testing.T) {
	var e Executor
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := e.Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if v, m := e.Stats(); v != 1 || m != 0 {
		t.Fatalf("stats = %d votes, %d mismatches", v, m)
	}
}

func TestDotOutvotesSingleTransient(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		e := Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
			if replica == victim && scalar != nil {
				*scalar += 1e6
			}
		}}
		a := []float64{1, 2, 3}
		b := []float64{4, 5, 6}
		if got := e.Dot(a, b); got != 32 {
			t.Fatalf("victim %d: Dot = %v, want 32", victim, got)
		}
		if _, m := e.Stats(); m != 1 {
			t.Fatalf("victim %d: mismatch not recorded", victim)
		}
	}
}

func TestNorm2Sq(t *testing.T) {
	var e Executor
	if got := e.Norm2Sq([]float64{3, 4}); got != 25 {
		t.Fatalf("Norm2Sq = %v", got)
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
		e := Executor{Corrupt: func(replica int, _ *float64, out []float64) {
			if replica == victim && out != nil {
				out[0] += 42
			}
		}}
		x := []float64{1, 2}
		y := []float64{10, 20}
		e.Axpy(2, x, y)
		if y[0] != 12 || y[1] != 24 {
			t.Fatalf("victim %d: Axpy = %v", victim, y)
		}
		if _, m := e.Stats(); m != 1 {
			t.Fatalf("victim %d: mismatch not recorded", victim)
		}
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
		if replica == 2 && out != nil {
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

func TestFlops(t *testing.T) {
	if FlopsDot(10) != 3*vec.FlopsDot(10) || FlopsAxpy(10) != 3*vec.FlopsAxpy(10) {
		t.Fatal("TMR flops must be 3x plain")
	}
}

// TestVoteComparesBitPatterns pins the vote to bit patterns: equal NaNs
// agree (== would call three identical NaNs a three-way dissent) and a
// signed zero among unsigned ones is a dissent (== cannot see it).
func TestVoteComparesBitPatterns(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name       string
		r          [3]float64
		want       float64
		mismatches int64
	}{
		{"three identical NaNs", [3]float64{nan, nan, nan}, nan, 0},
		{"-0 in replica 0 among +0", [3]float64{negZero, 0, 0}, 0, 1},
		{"-0 in replica 1 among +0", [3]float64{0, negZero, 0}, 0, 1},
		{"-0 in replica 2 among +0", [3]float64{0, 0, negZero}, 0, 1},
		{"NaN replica 0 outvoted", [3]float64{nan, 7, 7}, 7, 1},
		{"NaN replica 1 outvoted", [3]float64{7, nan, 7}, 7, 1},
		{"NaN replica 2 outvoted", [3]float64{7, 7, nan}, 7, 1},
		{"total disagreement yields replica 1", [3]float64{1, 2, 3}, 2, 1},
	}
	for _, tc := range cases {
		// The scalar vote, through Dot: the hook replaces each replica's
		// result.
		e := Executor{Corrupt: func(replica int, scalar *float64, _ []float64) {
			if scalar != nil {
				*scalar = tc.r[replica]
			}
		}}
		got := e.Dot([]float64{1}, []float64{1})
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: Dot voted %v, want %v", tc.name, got, tc.want)
		}
		if _, m := e.Stats(); m != tc.mismatches {
			t.Errorf("%s: Dot counted %d mismatches, want %d", tc.name, m, tc.mismatches)
		}

		// The element-wise vote, through Axpy: the hook replaces one element
		// of each replica's block.
		e = Executor{Corrupt: func(replica int, _ *float64, block []float64) {
			if block != nil {
				block[1] = tc.r[replica]
			}
		}}
		y := []float64{10, 20, 30}
		e.Axpy(2, []float64{1, 2, 3}, y)
		if y[0] != 12 || y[2] != 36 || math.Float64bits(y[1]) != math.Float64bits(tc.want) {
			t.Errorf("%s: Axpy voted %v, want [12 %v 36]", tc.name, y, tc.want)
		}
		if _, m := e.Stats(); m != tc.mismatches {
			t.Errorf("%s: Axpy counted %d mismatches, want %d", tc.name, m, tc.mismatches)
		}
	}
}
