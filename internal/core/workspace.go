package core

import (
	"repro/internal/abft"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/sparse"
)

// Workspace is the reusable arena of the solver. A solve that carries one
// (Config.Ws) draws its working matrix copies, iteration vectors, checksum
// encodings, vector guards and checkpoint stores from the workspace instead
// of the heap, so repeated solves — the inner loop of every fault campaign,
// a shard's every request — allocate nothing once the workspace is warm. It
// holds one copy of each matrix per owner, the live one: the fault-free
// systems of a block share one copy and one encoding of A and of M, an
// injected system owns its own; checkpoints carry vectors and scalars only,
// and recovery re-reads the caller's matrix. Storage grows with the widest
// block, the largest matrix and the longest recurrence seen, and is recycled
// across solvers, schemes and sizes; sharing one workspace between
// concurrent solves is not supported.
type Workspace struct {
	shared matrices // what the fault-free systems share
	lanes  []*arena // one per system, in block order
	k      int      // width of the block in flight
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

// matrices holds live working copies of A (slot 0) and M (slot 1) with their
// ABFT wrappers.
type matrices struct {
	live [2]*sparse.CSR
	prot [2]*abft.Protected
}

// arena is the solve state of one system: its vectors, guards, checkpoint
// store and engine, and the live matrices it owns when it does not share the
// block's.
type arena struct {
	matrices
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

// liveCopy returns the workspace's working copy of a in the given matrix
// slot, refreshed from a (in place when the shapes match, so the caller's
// matrix is never aliased and a warm workspace never reallocates it).
func (w *matrices) liveCopy(slot int, a *sparse.CSR) *sparse.CSR {
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
func (w *matrices) protected(slot int, live, src *sparse.CSR, mode abft.Mode) *abft.Protected {
	if w.prot[slot] == nil {
		w.prot[slot] = abft.NewProtected(live, mode)
	} else {
		w.prot[slot].Renew(live, mode)
	}
	w.prot[slot].Valid = src
	return w.prot[slot]
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
// when shapes match).
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
