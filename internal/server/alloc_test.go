// The race runtime randomly drops sync.Pool puts (by design, to shake out
// pool-dependence bugs), so warm solve contexts are rebuilt at random and
// allocation counts are meaningless under -race. The determinism half of
// this gate (determinism_test.go) runs everywhere; the allocation half is
// race-build-excluded.
//go:build !race

package server

import (
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

// This file is the allocation gate of the request hot path — the
// acceptance criterion of the solve service: once a matrix's artifacts
// are cached and a first request has warmed a solve context, a fault-free
// solve of the same matrix must perform zero heap allocations between
// request dispatch and outcome (Server.solve). JSON transport framing is
// deliberately outside the gate; the solve itself — workspace reuse,
// cached RHS/preconditioner/intervals, residual-history fingerprint —
// must not touch the heap.

func TestZeroAllocWarmSolvePath(t *testing.T) {
	s := New(Config{Concurrency: 1, QueueDepth: 4})
	defer s.Shutdown()

	cases := []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"cg", "abft-detection"},
		{"cg", "online-detection"},
		{"cg", "unprotected"},
		{"pcg", "abft-correction"},
		{"pcg", "online-detection"},
		{"pcg", "unprotected"},
		{"bicgstab", "abft-correction"},
		{"bicgstab", "abft-detection"},
		{"bicgstab", "unprotected"},
	}
	for _, tc := range cases {
		name := tc.solver + "/" + tc.scheme
		spec, err := harness.NewMatrixSpec("poisson2d", 576, 0)
		if err != nil {
			t.Fatal(err)
		}
		req := &api.SolveRequest{Matrix: &spec, Solver: tc.solver, Scheme: tc.scheme, Seed: 3}
		ent, sc := warmEntry(t, s, req)

		solve := func() {
			if out := s.solve(ent, sc, req.ResolvedRHSSeed(), nil, nil, nil); out.err != nil {
				t.Fatalf("%s: %v", name, out.err)
			}
		}
		solve()
		solve() // warm: workspaces, RHS, preconditioner, intervals, history capacity
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s: %v allocs per warm solve, want 0", name, allocs)
		}

		// Traced solves ride the same context: the live iteration tally is
		// an increment through a pre-bound closure, so attaching an active
		// trace must not cost a single allocation either. The Active is
		// drawn outside the measured region — per-request trace setup is
		// handler-side, off the solve hot path, and the Active itself is
		// pooled there.
		tr := s.tracer.Start("")
		traced := func() {
			if out := s.solve(ent, sc, req.ResolvedRHSSeed(), tr, nil, nil); out.err != nil {
				t.Fatalf("%s traced: %v", name, out.err)
			}
		}
		traced()
		if allocs := testing.AllocsPerRun(10, traced); allocs != 0 {
			t.Errorf("%s: %v allocs per warm traced solve, want 0", name, allocs)
		}
		if tr.Solver.Iterations == 0 {
			t.Errorf("%s: traced solve recorded no iterations", name)
		}
		s.tracer.Finish(tr)
	}
}

// TestZeroAllocWarmBatchPath extends the gate to the blocked drivers: a
// warm batched solve — pooled block workspaces, per-lane argument and
// history slices at capacity, cached RHS vectors — must allocate nothing
// per group, across the blocked (cg) and sequential-fallback (pcg) paths.
func TestZeroAllocWarmBatchPath(t *testing.T) {
	s := New(Config{Concurrency: 1, QueueDepth: 4})
	defer s.Shutdown()

	cases := []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"cg", "abft-detection"},
		{"cg", "unprotected"},
		{"pcg", "abft-correction"},
	}
	for _, tc := range cases {
		name := tc.solver + "/" + tc.scheme
		spec, err := harness.NewMatrixSpec("poisson2d", 576, 0)
		if err != nil {
			t.Fatal(err)
		}
		req := &api.SolveRequest{Matrix: &spec, Solver: tc.solver, Scheme: tc.scheme, Seed: 3}
		ent, sc := warmEntry(t, s, req)

		// One 3-wide task, reused across runs exactly as the scheduler
		// reuses a coalesced group (outs are overwritten in place).
		tk := newTask("", []api.BatchRHS{{Seed: 3}, {Seed: 4}, {Seed: 5}})
		group := []*task{tk}
		solve := func() {
			s.runGroup(ent, sc, group)
			for i, out := range tk.outs {
				if out.err != nil {
					t.Fatalf("%s lane %d: %v", name, i, out.err)
				}
			}
		}
		solve()
		solve() // warm: block workspaces, lane slices, RHS cache, history capacity
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s: %v allocs per warm batched solve, want 0", name, allocs)
		}
	}
}
