package core

import (
	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// Workspace is the reusable arena of the resilient engine. A solve that
// carries one (Config.Ws) draws its working matrix copies, iteration
// vectors, checksum encodings, vector guards and checkpoint store from the
// workspace instead of the heap, so repeated solves — the inner loop of
// every fault campaign — allocate nothing once the workspace is warm. It
// holds one copy of each matrix, the live one: checkpoints carry vectors
// and scalars only, and recovery re-reads the caller's matrix. Reuse
// across different solvers, schemes and matrix sizes is supported (storage
// grows as needed); sharing one workspace between concurrent solves is not.
type Workspace struct {
	live   [2]*sparse.CSR // slot 0: the system matrix, slot 1: the preconditioner
	prot   [2]*abft.Protected
	bufs   [][]float64
	next   int
	guards [6]*abft.VectorGuard
	store  *checkpoint.Store
	state  fault.State
	view   checkpoint.State
	run    engine
}

// NewWorkspace returns an empty workspace; storage is created on first use
// and recycled afterwards.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin resets the take cursor for a new solve; a nil receiver yields a
// fresh single-use workspace so the entry points can call it unconditionally.
func (w *Workspace) begin() *Workspace {
	if w == nil {
		return &Workspace{}
	}
	w.next = 0
	return w
}

// take returns the next length-n scratch buffer, NOT zeroed: the take
// order of a solve is fixed, and every use site initialises its buffer
// explicitly.
func (w *Workspace) take(n int) []float64 {
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
func (w *Workspace) takeZero(n int) []float64 {
	b := w.take(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// liveCopy returns the workspace's working copy of a in the given matrix
// slot, refreshed from a (in place when the shapes match, so the caller's
// matrix is never aliased and a warm workspace never reallocates it).
func (w *Workspace) liveCopy(slot int, a *sparse.CSR) *sparse.CSR {
	if l := w.live[slot]; l != nil && l.Rows == a.Rows && l.Cols == a.Cols && len(l.Val) == len(a.Val) {
		l.CopyFrom(a)
		return l
	}
	w.live[slot] = a.Clone()
	return w.live[slot]
}

// protected returns the slot's ABFT wrapper re-armed over live, a fresh copy
// of the caller's matrix src, which the wrapper's repairs are finished
// against.
func (w *Workspace) protected(slot int, live, src *sparse.CSR, mode abft.Mode) *abft.Protected {
	if w.prot[slot] == nil {
		w.prot[slot] = abft.NewProtected(live, mode)
	} else {
		w.prot[slot].Renew(live, mode)
	}
	w.prot[slot].Valid = src
	return w.prot[slot]
}

// guard returns the i-th reusable vector guard re-armed over v.
func (w *Workspace) guard(i int, v []float64, mode abft.Mode) *abft.VectorGuard {
	if w.guards[i] == nil {
		w.guards[i] = abft.NewGuard(v, mode)
	} else {
		w.guards[i].Reset(v, mode)
	}
	return w.guards[i]
}

// checkpoints returns the rolling checkpoint store. A stale snapshot from a
// previous solve is simply overwritten by the engine's first Save (in place
// when shapes match).
func (w *Workspace) checkpoints() *checkpoint.Store {
	if w.store == nil {
		w.store = checkpoint.NewStore()
	}
	return w.store
}

// liveView returns the reusable checkpoint view of the live state — vectors
// and scalars, no matrix — with cleared maps (a previous solve may have
// registered different names).
func (w *Workspace) liveView() *checkpoint.State {
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
