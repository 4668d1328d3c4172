package core

import (
	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// Workspace is the reusable arena of the solver. A solve that carries one
// (Config.Ws) draws its iteration vectors, checksum encodings, vector guards,
// checkpoint stores and working matrix copies from the workspace instead of
// the heap, so repeated solves — the inner loop of every fault campaign, a
// shard's solves of whichever matrix — allocate nothing once the workspace
// is warm. The fault-free systems of a block hold no matrix copy: they read
// the caller's A and M, through one encoding of each under ABFT, and a
// wrapper takes a private copy only before a repair writes a word
// (abft.Protected.Valid), which the fault model leaves to injected faults.
// An injected system owns a working copy of each, which its injector
// strikes; checkpoints carry vectors and scalars only, and recovery re-reads
// the caller's matrix.
// Storage grows with the widest block, the largest matrix and the longest
// recurrence seen, and is recycled across solvers, schemes and sizes;
// sharing one workspace between concurrent solves is not supported.
type Workspace struct {
	shared [2]*abft.Protected // the fault-free systems' wrappers of A and M
	lanes  []*arena           // one per system, in block order
	k      int                // width of the block in flight
	// The round's pending products: by matrix slot those that may join
	// another system's, and those that run alone.
	pend  [2][]*engine
	alone []*engine
	// operand headers of one blocked product, and the returned solution
	// headers — reused across rounds and solves.
	ps, qs [][]float64
	xs     [][]float64
	// Solve's block of one.
	b1   [1][]float64
	st1  [1]Stats
	err1 [1]error
}

// NewWorkspace returns an empty workspace; storage is created on first use
// and recycled afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// lane returns the arena of system j, growing the pool as needed.
func (w *Workspace) lane(j int) *arena {
	for len(w.lanes) <= j {
		w.lanes = append(w.lanes, &arena{})
	}
	return w.lanes[j]
}

// arena is the solve state of one system: its vectors, guards, checkpoint
// store and engine, and — when it has an injector — its working copies of A
// (slot 0) and M (slot 1) with their ABFT wrappers.
type arena struct {
	live   [2]*sparse.CSR
	prot   [2]*abft.Protected
	bufs   [][]float64
	next   int
	guards [6]*abft.VectorGuard
	store  *checkpoint.Store
	state  fault.State
	view   checkpoint.State
	run    engine
	err    error // why the system could not start; nil once it has
}

// take returns the next length-n scratch buffer, NOT zeroed: the take
// order of a solve is fixed, and every use site initialises its buffer
// explicitly.
func (w *arena) take(n int) []float64 {
	if w.next < len(w.bufs) {
		b := w.bufs[w.next]
		if cap(b) >= n {
			w.bufs[w.next] = b[:n]
			w.next++
			return b[:n]
		}
	}
	b := make([]float64, n)
	if w.next < len(w.bufs) {
		w.bufs[w.next] = b
	} else {
		w.bufs = append(w.bufs, b)
	}
	w.next++
	return b
}

// takeZero is take with the buffer cleared.
func (w *arena) takeZero(n int) []float64 {
	b := w.take(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// liveCopy returns the working copy of a in the given matrix slot, refreshed
// from a in the arrays it already has (sparse.CSR.CopyFrom): the caller's
// matrix is never aliased, and a workspace that alternates matrices
// reallocates only to grow.
func (w *arena) liveCopy(slot int, a *sparse.CSR) *sparse.CSR {
	if w.live[slot] == nil {
		w.live[slot] = new(sparse.CSR)
	}
	w.live[slot].CopyFrom(a)
	return w.live[slot]
}

// restore makes matrix slot the caller's again, as a rollback or a re-read
// needs it: a working copy is refreshed from it, and a system without one
// drops the copy its wrapper may have taken at a repair by pointing the
// wrapper back at the caller's matrix — nothing is copied.
func (e *engine) restore(slot int) {
	if e.mat[slot] != e.src[slot] {
		e.mat[slot].CopyFrom(e.src[slot])
	} else if p := e.prot[slot]; p != nil {
		p.A = p.Valid
	}
}

// rearm returns *p re-armed over live, which holds the bits of the caller's
// matrix src — src itself for the fault-free systems, a working copy for an
// injected one — with src as the valid copy its repairs are finished
// against.
func rearm(p **abft.Protected, live, src *sparse.CSR, mode abft.Mode) *abft.Protected {
	if *p == nil {
		*p = abft.NewProtected(live, mode)
	} else {
		(*p).Renew(live, mode)
	}
	(*p).Valid = src
	return *p
}

// guard returns the i-th reusable vector guard re-armed over v.
func (w *arena) guard(i int, v []float64, mode abft.Mode) *abft.VectorGuard {
	if w.guards[i] == nil {
		w.guards[i] = abft.NewGuard(v, mode)
	} else {
		w.guards[i].Reset(v, mode)
	}
	return w.guards[i]
}

// checkpoints returns the rolling checkpoint store. A stale snapshot from a
// previous solve is simply overwritten by the engine's first Save (in place
// wherever its vectors' capacity suffices).
func (w *arena) checkpoints() *checkpoint.Store {
	if w.store == nil {
		w.store = checkpoint.NewStore()
	}
	return w.store
}

// liveView returns the reusable checkpoint view of the live state — vectors
// and scalars, no matrix — with cleared maps (a previous solve may have
// registered different names).
func (w *arena) liveView() *checkpoint.State {
	v := &w.view
	v.Iteration = 0
	if v.Vectors == nil {
		v.Vectors = make(map[string][]float64, 8)
	} else {
		clear(v.Vectors)
	}
	if v.Scalars == nil {
		v.Scalars = make(map[string]float64, 4)
	} else {
		clear(v.Scalars)
	}
	return v
}
