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
//     only, and a rollback restores an injected solve's working copies from
//     the caller's (a fault-free solve reads the caller's matrices in place).
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
// snapshot. The snapshot's vectors are refilled in place wherever their
// capacity suffices, and only a vector that is too short or newly named is
// allocated, so periodic checkpointing allocates nothing once the store has
// seen the largest state — across solves, solvers and matrix sizes alike. A
// vector the live state no longer names keeps its storage at length 0, out
// of Restore's reach.
func (s *Store) Save(live *State) {
	snap := s.saved
	if snap == nil {
		snap = &State{
			Vectors: make(map[string][]float64, len(live.Vectors)),
			Scalars: make(map[string]float64, len(live.Scalars)),
		}
		s.saved = snap
	}
	snap.Iteration = live.Iteration
	switch {
	case live.A == nil:
		snap.A = nil
	case snap.A == nil:
		snap.A = live.A.Clone()
	default:
		snap.A.CopyFrom(live.A)
	}
	for name, v := range snap.Vectors {
		if _, ok := live.Vectors[name]; !ok {
			snap.Vectors[name] = v[:0]
		}
	}
	for name, v := range live.Vectors {
		snap.Vectors[name] = append(snap.Vectors[name][:0], v...)
	}
	clear(snap.Scalars)
	for name, v := range live.Scalars {
		snap.Scalars[name] = v
	}
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
	for name, dst := range live.Vectors {
		v, ok := snap.Vectors[name]
		if !ok || len(v) != len(dst) {
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
