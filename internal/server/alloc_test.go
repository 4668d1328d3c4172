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
// request dispatch and outcome (Server.runGroup). JSON transport framing is
// deliberately outside the gate; the solve itself — workspace reuse,
// cached RHS/preconditioner/intervals, residual-history fingerprint —
// must not touch the heap.

// warmGroup runs a reused task of the given right-hand-side seeds through
// runGroup exactly as the scheduler runs a group (outs are overwritten in
// place) and returns the run and the task.
func warmGroup(t *testing.T, s *Server, ent *entry, sc harness.Scenario, name string, seeds ...int64) (func(), *task) {
	specs := make([]api.BatchRHS, len(seeds))
	for i, seed := range seeds {
		specs[i].Seed = seed
	}
	tk := newTask("", specs)
	group := []*task{tk}
	return func() {
		s.runGroup(ent, sc, group)
		for i, out := range tk.outs {
			if out.err != nil {
				t.Fatalf("%s lane %d: %v", name, i, out.err)
			}
		}
	}, tk
}

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

		// A single request is a group of one.
		solve, tk := warmGroup(t, s, ent, sc, name, req.Seed)
		solve()
		solve() // warm: workspaces, RHS, preconditioner, intervals, history capacity
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s: %v allocs per warm solve, want 0", name, allocs)
		}

		// Traced solves ride the same context, so attaching an active trace
		// must not cost a single allocation either. The Active is drawn
		// outside the measured region — per-request trace setup is
		// handler-side, off the solve hot path, and the Active itself is
		// pooled there.
		tr := s.tracer.Start("")
		tk.trace = tr
		solve()
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s: %v allocs per warm traced solve, want 0", name, allocs)
		}
		s.tracer.Finish(tr)
	}
}

// TestZeroAllocWarmBatchPath extends the gate to wider groups: a warm
// batched solve — pooled block workspace, per-lane argument and history
// slices at capacity, cached RHS vectors — must allocate nothing per group,
// whatever the solver and scheme.
func TestZeroAllocWarmBatchPath(t *testing.T) {
	s := New(Config{Concurrency: 1, QueueDepth: 4})
	defer s.Shutdown()

	cases := []struct{ solver, scheme string }{
		{"cg", "abft-correction"},
		{"cg", "abft-detection"},
		{"cg", "online-detection"},
		{"cg", "unprotected"},
		{"pcg", "abft-correction"},
		{"pcg", "unprotected"},
		{"bicgstab", "abft-correction"},
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
		// reuses a coalesced group.
		solve, _ := warmGroup(t, s, ent, sc, name, 3, 4, 5)
		solve()
		solve() // warm: block workspace, lane slices, RHS cache, history capacity
		if allocs := testing.AllocsPerRun(10, solve); allocs != 0 {
			t.Errorf("%s: %v allocs per warm batched solve, want 0", name, allocs)
		}
	}
}
