package sim

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pool"
)

// TestCampaignFanOutDeterministic runs the same fault campaign cell
// through harness.RunOn sequentially and fanned out across pools of several
// sizes: per-trial injector seeds are fixed by trial index and samples land
// in per-trial slots, so every rerun of the seed must return reps samples
// and the same sample vector, mean and failure count. Faults are injected in
// every trial (alpha = 1/16), so under -race this doubles as the campaign
// concurrency stress test.
func TestCampaignFanOutDeterministic(t *testing.T) {
	sm, _ := harness.SuiteByID(341)
	a := sm.Generate(96)
	const reps = 8
	sc := harness.Scenario{
		Solver: "cg", Scheme: "abft-correction",
		Alpha: 1.0 / 16, S: 2, D: 1, Tol: 1e-8, Reps: reps, Seed: 77,
	}.WithRHSSeed(3)

	want, err := harness.RunOn(nil, a, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.SimTimes) != reps {
		t.Fatalf("%d samples, want %d", len(want.SimTimes), reps)
	}
	for _, workers := range []int{1, 2, 4} {
		p := pool.New(workers)
		got, err := harness.RunOn(p, a, sc)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.MeanSimTime != want.MeanSimTime || got.Failures != want.Failures {
			t.Fatalf("workers=%d: mean/failures %v/%d, want %v/%d",
				workers, got.MeanSimTime, got.Failures, want.MeanSimTime, want.Failures)
		}
		if len(got.SimTimes) != len(want.SimTimes) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got.SimTimes), len(want.SimTimes))
		}
		for i := range got.SimTimes {
			if got.SimTimes[i] != want.SimTimes[i] {
				t.Fatalf("workers=%d: sample %d = %v, want %v", workers, i, got.SimTimes[i], want.SimTimes[i])
			}
		}
	}
}

// TestCampaignWorkersKnob checks the Workers resolution used by the
// experiment configs.
func TestCampaignWorkersKnob(t *testing.T) {
	if p, _ := harness.PoolFor(1); p != nil {
		t.Fatal("Workers=1 must run sequentially (nil pool)")
	}
	p, done := harness.PoolFor(3)
	if p == nil || p.Workers() != 3 {
		t.Fatal("Workers=3 must size a dedicated pool")
	}
	done()
	if p, _ := harness.PoolFor(0); p != pool.Default() {
		t.Fatal("Workers=0 must select the shared default pool")
	}
}
