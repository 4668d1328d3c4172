package model

import (
	"math"
	"math/rand"
	"testing"
)

func TestQDetection(t *testing.T) {
	p := Params{T: 2, Lambda: 0.1}
	want := math.Exp(-0.2)
	if got := p.Q(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Q = %v, want %v", got, want)
	}
}

func TestQCorrection(t *testing.T) {
	p := Params{T: 2, Lambda: 0.1, Correcting: true}
	lt := 0.2
	want := math.Exp(-lt) + lt*math.Exp(-lt)
	if got := p.Q(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Q = %v, want %v", got, want)
	}
	// Correction always improves the chunk success probability.
	det := Params{T: 2, Lambda: 0.1}
	if p.Q() <= det.Q() {
		t.Fatal("correcting Q must exceed detecting Q")
	}
}

func TestFrameTimeFaultFree(t *testing.T) {
	p := Params{T: 1, Tverif: 0.1, Tcp: 0.5, Trec: 0.3, Lambda: 0}
	// q = 1: E = s(T+Tverif) + Tcp exactly.
	for s := 1; s <= 10; s++ {
		want := float64(s)*1.1 + 0.5
		if got := p.FrameTime(s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("s=%d: E = %v, want %v", s, got, want)
		}
	}
}

func TestFrameTimeSingleChunkClosedForm(t *testing.T) {
	// For s = 1, Eq. (5) reduces to Tcp + (1/q − 1)Trec + (T+Tverif)/q.
	p := Params{T: 1, Tverif: 0.2, Tcp: 0.5, Trec: 0.4, Lambda: 0.05}
	q := p.Q()
	want := 0.5 + (1/q-1)*0.4 + 1.2/q
	if got := p.FrameTime(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("E(1) = %v, want %v", got, want)
	}
}

// TestFrameTimeMatchesMonteCarlo validates Eq. (5) against a direct
// stochastic simulation of the frame process: chunks succeed with
// probability q; on a failure, the error is detected at the end of the
// failing chunk, recovery is paid, and the frame restarts.
func TestFrameTimeMatchesMonteCarlo(t *testing.T) {
	p := Params{T: 1, Tverif: 0.15, Tcp: 0.6, Trec: 0.35, Lambda: 0.08}
	rng := rand.New(rand.NewSource(42))
	for _, s := range []int{1, 3, 8} {
		q := p.Q()
		const trials = 200000
		var total float64
		for trial := 0; trial < trials; trial++ {
			var elapsed float64
			for {
				failed := false
				for c := 1; c <= s; c++ {
					elapsed += p.T + p.Tverif
					if rng.Float64() > q {
						failed = true
						break
					}
				}
				if !failed {
					elapsed += p.Tcp
					break
				}
				elapsed += p.Trec
			}
			total += elapsed
		}
		got := total / trials
		want := p.FrameTime(s)
		if math.Abs(got-want) > 0.01*want {
			t.Fatalf("s=%d: Monte Carlo %v vs model %v", s, got, want)
		}
	}
}

func TestFrameTimePanicsOnBadS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Params{T: 1}.FrameTime(0)
}

func TestOptimalSIncreasesAsLambdaDrops(t *testing.T) {
	base := Params{T: 1, Tverif: 0.05, Tcp: 2, Trec: 1}
	prev := 0
	for _, lambda := range []float64{0.2, 0.05, 0.01, 0.002} {
		p := base
		p.Lambda = lambda
		s, _ := p.OptimalS(10000)
		if s < prev {
			t.Fatalf("optimal s decreased (%d after %d) as faults got rarer", s, prev)
		}
		prev = s
	}
}

func TestOptimalSCorrectionAllowsLongerFrames(t *testing.T) {
	det := Params{T: 1, Tverif: 0.05, Tcp: 2, Trec: 1, Lambda: 0.05}
	cor := det
	cor.Correcting = true
	sd, _ := det.OptimalS(10000)
	sc, _ := cor.OptimalS(10000)
	if sc < sd {
		t.Fatalf("correction should checkpoint less often: s_corr=%d < s_det=%d", sc, sd)
	}
}

func TestOptimalSMatchesYoungOrder(t *testing.T) {
	// For small λ and detection-only, the optimal useful work between
	// checkpoints s*·T should be within a small factor of Young's period.
	p := Params{T: 1, Tverif: 0.02, Tcp: 3, Trec: 1, Lambda: 0.001}
	s, _ := p.OptimalS(10000)
	young := YoungPeriod(p.Tcp, p.Lambda)
	ratio := float64(s) * p.T / young
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("s*T = %v vs Young %v (ratio %v)", float64(s)*p.T, young, ratio)
	}
}

func TestOnlineOptimalJoint(t *testing.T) {
	o := OnlineParams{Titer: 1, Tverif: 1.2, Tcp: 4, Trec: 2, Lambda: 0.01}
	d, s, ov := o.Optimal(200, 500)
	if d < 1 || s < 1 {
		t.Fatalf("degenerate optimum d=%d s=%d", d, s)
	}
	if ov <= 1 {
		t.Fatalf("overhead %v cannot be below fault-free unity", ov)
	}
	// Expensive verification should push d above 1.
	if d == 1 {
		t.Fatalf("with Tverif > Titer the optimal d should exceed 1, got %d", d)
	}
}

func TestYoungDaly(t *testing.T) {
	if !math.IsInf(YoungPeriod(1, 0), 1) || !math.IsInf(DalyPeriod(1, 1, 0), 1) {
		t.Fatal("zero fault rate must give infinite period")
	}
	y := YoungPeriod(2, 0.001)
	if math.Abs(y-math.Sqrt(4000)) > 1e-9 {
		t.Fatalf("Young = %v", y)
	}
	d := DalyPeriod(2, 1, 0.001)
	if d <= 0 {
		t.Fatal("Daly period must be positive")
	}
}

func TestOptimalPlacementUniformMatchesPeriodic(t *testing.T) {
	p := Params{T: 1, Tverif: 0.05, Tcp: 1, Trec: 0.5, Lambda: 0.02}
	n := 60
	total, frames := OptimalPlacement(p, n)
	// Total chunks must be preserved.
	sum := 0
	for _, f := range frames {
		sum += f
	}
	if sum != n {
		t.Fatalf("frames sum to %d, want %d", sum, n)
	}
	// The DP can never do worse than the best fixed period that divides n.
	bestFixed := math.Inf(1)
	for s := 1; s <= n; s++ {
		if n%s != 0 {
			continue
		}
		c := float64(n/s) * p.FrameTime(s)
		if c < bestFixed {
			bestFixed = c
		}
	}
	if total > bestFixed+1e-9 {
		t.Fatalf("DP total %v worse than best fixed %v", total, bestFixed)
	}
}

func TestOptimalPlacementEmpty(t *testing.T) {
	total, frames := OptimalPlacement(Params{T: 1}, 0)
	if total != 0 || frames != nil {
		t.Fatal("empty horizon must cost nothing")
	}
}

func TestOverheadUnimodalSpotCheck(t *testing.T) {
	// Not a theorem, but for sane parameters the overhead should decrease
	// then increase around the optimum; catch gross formula errors.
	p := Params{T: 1, Tverif: 0.05, Tcp: 2, Trec: 1, Lambda: 0.01}
	s, _ := p.OptimalS(5000)
	if s <= 1 {
		t.Skip("optimum at boundary")
	}
	if p.Overhead(s) >= p.Overhead(s-1) || p.Overhead(s) >= p.Overhead(s+1) {
		t.Fatal("claimed optimum is not a local minimum")
	}
}
