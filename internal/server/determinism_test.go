package server

import (
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

// warmEntry resolves and materialises the request's cache entry exactly
// like the handler does. Shared by the determinism and allocation gates.
func warmEntry(t *testing.T, s *Server, req *api.SolveRequest) (*entry, harness.Scenario) {
	t.Helper()
	req.WithDefaults()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	id, err := ResolveIdentity(req)
	if err != nil {
		t.Fatal(err)
	}
	ent, _, err := s.resident(id)
	if err != nil {
		t.Fatal(err)
	}
	return ent, req.Scenario(ent.spec, ent.label)
}

// TestWarmSolveBitIdentical pairs the allocation gate with the
// determinism acceptance: the warm (workspace-recycling, cache-served)
// solve must fingerprint identically to a cold solve of the same request.
func TestWarmSolveBitIdentical(t *testing.T) {
	spec, err := harness.NewMatrixSpec("poisson2d", 225, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"pcg", "abft-correction"},
		{"bicgstab", "abft-correction"},
		{"cg", "unprotected"},
	} {
		req := &api.SolveRequest{Matrix: &spec, Solver: tc.solver, Scheme: tc.scheme, Seed: 11}

		hashes := make(map[uint64]int)
		for round := 0; round < 2; round++ {
			s := New(Config{Concurrency: 1})
			ent, sc := warmEntry(t, s, req)
			tk := newTask("", []api.BatchRHS{{Seed: req.Seed, RHSSeed: req.RHSSeed}})
			for rep := 0; rep < 3; rep++ { // rep 0 cold, reps 1–2 warm
				s.runGroup(ent, sc, []*task{tk})
				out := tk.outs[0]
				if out.err != nil {
					t.Fatalf("%s/%s: %v", tc.solver, tc.scheme, out.err)
				}
				hashes[out.hash]++
			}
			s.Shutdown()
		}
		if len(hashes) != 1 {
			t.Errorf("%s/%s: %d distinct hashes across cold/warm solves: %v",
				tc.solver, tc.scheme, len(hashes), hashes)
		}
	}

	// A context carries nothing from one matrix to the next: one that last
	// served a larger matrix — fault-free, injected (its arenas hold working
	// copies, and a wrapper may hold a copy-on-write spare), four lanes wide,
	// or another recurrence — answers every solver × protected scheme bit for
	// bit as a fresh server does, fault-free and at α = 1, where every cell
	// detects, and rolls back or corrects. (Under -race the pool drops
	// contexts at random; the comparison holds either way.)
	larger, err := harness.NewMatrixSpec("poisson2d", 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []string{"cg", "pcg", "bicgstab"} {
		for _, scheme := range []string{"online-detection", "abft-detection", "abft-correction"} {
			if solver == "bicgstab" && scheme == "online-detection" {
				continue // refused: Online-Detection's checks are CG's
			}
			other := map[string]string{"cg": "bicgstab", "pcg": "cg", "bicgstab": "pcg"}[solver]
			if other == "bicgstab" && scheme == "online-detection" {
				other = "pcg"
			}
			befores := []struct {
				name   string
				solver string
				alpha  float64
				k      int
			}{
				{"a larger matrix", solver, 0, 1},
				{"an injected solve", solver, 1.0 / 16, 1},
				{"a k=4 block", solver, 0, 4},
				{"another recurrence", other, 0, 1},
			}
			for _, alpha := range []float64{0, 1} {
				req := &api.SolveRequest{Matrix: &spec, Solver: solver, Scheme: scheme, Alpha: alpha, Seed: 11}
				fresh := New(Config{Concurrency: 1})
				want := soloOutcome(t, fresh, req)
				fresh.Shutdown()
				for _, before := range befores {
					s := New(Config{Concurrency: 1})
					prev := &api.SolveRequest{Matrix: &larger, Solver: before.solver, Scheme: scheme, Alpha: before.alpha}
					ent, sc := warmEntry(t, s, prev)
					s.runGroup(ent, sc, []*task{newTask("", seeds(before.k))})
					if got := soloOutcome(t, s, req); got != want {
						t.Errorf("%s/%s α=%g after %s: %+v, a fresh server answers %+v",
							solver, scheme, alpha, before.name, got, want)
					}
					s.Shutdown()
				}
			}
		}
	}
}

// soloOutcome solves req alone on s and returns its outcome.
func soloOutcome(t *testing.T, s *Server, req *api.SolveRequest) solveOutcome {
	t.Helper()
	ent, sc := warmEntry(t, s, req)
	tk := newTask("", []api.BatchRHS{{Seed: req.Seed}})
	s.runGroup(ent, sc, []*task{tk})
	out := tk.outs[0]
	if out.err != nil {
		t.Fatalf("%s/%s α=%g: %v", req.Solver, req.Scheme, req.Alpha, out.err)
	}
	out.solveNanos = 0
	return out
}
