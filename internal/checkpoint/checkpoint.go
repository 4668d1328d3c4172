// Package checkpoint implements the backward-recovery substrate: an
// in-memory snapshot store for the resilient solver state.
//
// The paper (Section 3.1) has a checkpoint save the current iteration
// vectors *and the sparse matrix A*: "if this error comes from a corruption
// in data memory, we need to recover with a valid copy of the data matrix A.
// This holds for the three methods under study … which have exactly the same
// checkpoint cost." Two things follow from that sentence, and the repo keeps
// them apart:
//
//   - What the model prices. Tcp and Trec are the cost of writing and reading
//     that full checkpoint — matrix, preconditioner and vectors
//     (core.NewCosts) — and every modeled time, Table 1 and Figure 1 are in
//     that currency.
//   - What the wall pays. A is read-only input, so a valid copy already
//     exists: the caller's own matrix, which the engine never writes (the
//     injector strikes a working copy) and already trusts for the residual it
//     reports. The engine's checkpoints therefore carry vectors and scalars
//     only, and a rollback restores the live matrices from the caller's.
//
// A State may still name the matrix A, and Save and Restore copy it like
// any vector — the benchmark's checkpoint probes time exactly that, the
// full checkpoint the engine no longer takes.
//
// Checkpoints are only ever taken right after a verification, so the saved
// state is always valid; recovery rolls the live state back to it. Both
// operations are error-free in the model (selective reliability).
package checkpoint

import (
	"repro/internal/sparse"
)

// State is the solver state covered by a checkpoint: the matrix and the
// named iteration vectors (CG needs x, r, p; other solvers register what
// they use). A is nil in the engine's own view (see the package doc).
type State struct {
	A         *sparse.CSR
	Vectors   map[string][]float64
	Iteration int
	// Scalars preserves recurrence scalars (e.g. ‖r‖² of the checkpointed
	// iteration) that the solver needs to resume mid-stream.
	Scalars map[string]float64
}

// Store holds the last snapshot.
type Store struct {
	saved *State
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Save deep-copies the live state into the store, replacing any previous
// snapshot. When the previous snapshot has exactly the live state's shape
// (same matrix dimensions, same vector names and lengths) the copy happens
// in place, so periodic checkpointing in a steady-state solve allocates
// nothing; otherwise fresh storage is taken.
func (s *Store) Save(live *State) {
	if s.saved != nil && sameShape(s.saved, live) {
		snap := s.saved
		snap.Iteration = live.Iteration
		if live.A != nil {
			snap.A.CopyFrom(live.A)
		}
		for name, v := range live.Vectors {
			copy(snap.Vectors[name], v)
		}
		clear(snap.Scalars)
		for name, v := range live.Scalars {
			snap.Scalars[name] = v
		}
		return
	}
	snap := &State{
		Iteration: live.Iteration,
		Vectors:   make(map[string][]float64, len(live.Vectors)),
		Scalars:   make(map[string]float64, len(live.Scalars)),
	}
	if live.A != nil {
		snap.A = live.A.Clone()
	}
	for name, v := range live.Vectors {
		cp := make([]float64, len(v))
		copy(cp, v)
		snap.Vectors[name] = cp
	}
	for name, v := range live.Scalars {
		snap.Scalars[name] = v
	}
	s.saved = snap
}

// sameShape reports whether the snapshot can absorb the live state without
// reallocating.
func sameShape(snap, live *State) bool {
	if (snap.A == nil) != (live.A == nil) {
		return false
	}
	if snap.A != nil && (snap.A.Rows != live.A.Rows || snap.A.Cols != live.A.Cols || len(snap.A.Val) != len(live.A.Val)) {
		return false
	}
	if len(snap.Vectors) != len(live.Vectors) {
		return false
	}
	for name, v := range live.Vectors {
		sv, ok := snap.Vectors[name]
		if !ok || len(sv) != len(v) {
			return false
		}
	}
	return true
}

// Restore copies the snapshot back into the live state (in place: the live
// arrays keep their identity so aliases held by the solver stay valid).
// Panics if no snapshot exists or shapes mismatch — both are programming
// errors in the drivers.
func (s *Store) Restore(live *State) {
	snap := s.saved
	if snap == nil {
		panic("checkpoint: Restore without a snapshot")
	}
	if (snap.A == nil) != (live.A == nil) {
		panic("checkpoint: matrix presence mismatch")
	}
	if snap.A != nil {
		live.A.CopyFrom(snap.A)
	}
	for name, v := range snap.Vectors {
		dst, ok := live.Vectors[name]
		if !ok || len(dst) != len(v) {
			panic("checkpoint: vector shape mismatch for " + name)
		}
		copy(dst, v)
	}
	live.Iteration = snap.Iteration
	if live.Scalars == nil {
		live.Scalars = make(map[string]float64, len(snap.Scalars))
	}
	for name, v := range snap.Scalars {
		live.Scalars[name] = v
	}
}
