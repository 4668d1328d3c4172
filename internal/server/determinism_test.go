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
}
