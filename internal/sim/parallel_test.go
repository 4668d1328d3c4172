package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pool"
)

// TestCampaignFanOutDeterministic runs the same fault campaign sequentially
// and fanned out across pools of several sizes: per-trial injector seeds are
// fixed by trial index and samples land in per-trial slots, so the sample
// vector, mean and failure count must match exactly. Faults are injected in
// every trial (alpha = 1/16), so under -race this doubles as the campaign
// concurrency stress test.
func TestCampaignFanOutDeterministic(t *testing.T) {
	sm, _ := harness.SuiteByID(341)
	a := sm.Generate(96)
	b, _ := harness.RHS(a, 3)

	const reps = 8
	wantMean, wantSamples, wantFailures := AverageTimePool(nil, a, b, core.ABFTCorrection, 1.0/16, 2, 1, 1e-8, 77, reps)
	for _, workers := range []int{1, 2, 4} {
		p := pool.New(workers)
		mean, samples, failures := AverageTimePool(p, a, b, core.ABFTCorrection, 1.0/16, 2, 1, 1e-8, 77, reps)
		if mean != wantMean || failures != wantFailures {
			t.Fatalf("workers=%d: mean/failures %v/%d, want %v/%d", workers, mean, failures, wantMean, wantFailures)
		}
		if len(samples) != len(wantSamples) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(samples), len(wantSamples))
		}
		for i := range samples {
			if samples[i] != wantSamples[i] {
				t.Fatalf("workers=%d: sample %d = %v, want %v", workers, i, samples[i], wantSamples[i])
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
