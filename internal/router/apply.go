package router

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/api"
)

// want is one entry of a desired state: a shard's name and what the control
// plane decides about it. An empty addr means "where it is now" for a shard
// the router holds and "ask the runtime" for a new one.
type want struct {
	name string
	placement
}

// reconcile makes the live membership equal the desired state. It is the
// one writer of r.ring and r.shards, the one caller of the runtime's Start
// and — Shutdown apart — Stop, and the one place key attributions are
// forgotten. Callers hold applyMu, so nothing else writes r.shards while
// this reads it unlocked; ringMu is taken only to publish, never while a
// process starts or a probe runs. A shard's ring points are touched only
// when its vnode count changes, and a vnode keeps its "name#i" position, so
// a reweight moves the keys of the count difference and a join or leave
// only that shard's keys. On error nothing has changed: joiners already
// started are stopped again and the previous ring keeps serving. With
// joinProbe every shard entering the ring — new, or drained before — is
// health-checked first and one failure is enough: a dead shard joins ejected.
func (r *Router) reconcile(desired []want, joinProbe bool) (ApplyReport, error) {
	type step struct {
		s         *shardState
		joins     bool // new to the router: attached or started below
		old, next placement
	}
	var rep ApplyReport
	steps := make([]step, 0, len(desired))
	keep := make(map[string]bool, len(desired))
	for _, w := range desired {
		keep[w.name] = true
		st := step{s: r.shards[w.name], next: w.placement}
		if st.s != nil {
			st.old = st.s.placed()
			if st.next.addr == "" {
				st.next.addr = st.old.addr
			}
		} else {
			addr, err := r.materialize(w)
			if err != nil {
				for _, started := range steps {
					if started.joins && started.s.managed {
						_ = r.runtime.Stop(started.s.name) // the start failure is the error to report
					}
				}
				return rep, err
			}
			st.s = &shardState{name: w.name, managed: w.addr == "", healthy: true}
			st.next.addr = addr
			st.joins, st.old.drained = true, true // a joiner comes from off the ring
		}
		if joinProbe && st.old.drained && !st.next.drained {
			// Off the ring, so the verdict cannot move a key before the
			// placement it was taken for is published below.
			st.s.noteProbe(r.healthCheck(st.next.addr), 1)
		}
		steps = append(steps, st)
	}
	var offRing []string      // left the ring: their key attributions are stale
	var leavers []*shardState // left the router
	r.ringMu.Lock()
	for name, s := range r.shards {
		if !keep[name] {
			r.ring.remove(name)
			delete(r.shards, name)
			rep.Removed = append(rep.Removed, name)
			offRing = append(offRing, name)
			leavers = append(leavers, s)
		}
	}
	for _, st := range steps {
		name := st.s.name
		st.s.place(st.next)
		if was, now := r.ringPoints(st.old), r.ringPoints(st.next); was != now {
			r.ring.remove(name)
			if now > 0 {
				r.ring.addN(name, now)
			} else {
				offRing = append(offRing, name)
			}
		}
		switch {
		case st.joins:
			r.shards[name] = st.s
			rep.Added = append(rep.Added, name)
		case st.next != st.old:
			rep.Updated = append(rep.Updated, name)
		default:
			rep.Kept = append(rep.Kept, name)
		}
	}
	r.ringMu.Unlock()

	for _, name := range offRing {
		r.forgetShardKeys(name)
	}
	for _, s := range leavers {
		if s.managed {
			_ = r.runtime.Stop(s.name) // off the ring whether or not its process goes quietly
		}
	}
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	sort.Strings(rep.Updated)
	sort.Strings(rep.Kept)
	return rep, nil
}

// ringPoints is how many ring points a placement owns: none while drained.
func (r *Router) ringPoints(p placement) int {
	if p.drained {
		return 0
	}
	return r.vnodesFor(p.weight)
}

// materialize says where a joiner listens, starting its process through
// the runtime when the entry names no address.
func (r *Router) materialize(w want) (addr string, err error) {
	if w.addr != "" {
		return w.addr, nil
	}
	if r.runtime == nil {
		return "", fmt.Errorf("router: shard %q has no addr and no runtime is configured", w.name)
	}
	if addr, err = r.runtime.Start(w.name); err != nil {
		return "", fmt.Errorf("router: starting shard %q: %w", w.name, err)
	}
	return addr, nil
}

// current is the live membership as a desired state, for an admin verb to
// edit name's entry of (index i; −1: no such shard). Callers hold applyMu.
func (r *Router) current(name string) (desired []want, i int) {
	i = -1
	for n, s := range r.shards {
		if n == name {
			i = len(desired)
		}
		desired = append(desired, want{n, s.placed()})
	}
	return desired, i
}

// leaving is current for the verbs that take a shard off the ring: refused
// when there is no such shard, or it is the last one on the ring.
func (r *Router) leaving(name string) (desired []want, i int, err error) {
	if desired, i = r.current(name); i < 0 {
		return nil, i, fmt.Errorf("%w: %q", errShardNotFound, name)
	}
	onRing := func(w want) bool { return !w.drained && w.name != name }
	if !desired[i].drained && !slices.ContainsFunc(desired, onRing) {
		return nil, i, fmt.Errorf("%w (%q is the only one left)", errLastShard, name)
	}
	return desired, i, nil
}

// Apply reconciles the live ring with a topology under traffic. Presence
// means desired-active: a drained shard the topology names is re-admitted,
// a shard it does not name leaves, whichever admin verb put it there; an
// entry with a new addr repoints its shard in place. On any error the
// previous ring keeps serving untouched.
func (r *Router) Apply(topo Topology) (ApplyReport, error) {
	if err := topo.validate(); err != nil {
		return ApplyReport{}, err
	}
	desired := make([]want, len(topo.Shards))
	for i, sh := range topo.Shards {
		desired[i] = want{sh.Name, placement{addr: sh.Addr, weight: sh.VnodeWeight}}
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	return r.reconcile(desired, false)
}

// addShard joins a new shard, re-admits a drained one of the same name
// (clearing the latch; a non-empty addr repoints it) or rebalances an
// active one whose weight changed. An empty addr asks the runtime for the
// process; weight 0 is the default vnode count for a new shard and "as it
// is" for a known one. The shard is probed before it enters the ring, so
// its health picture is current the moment keys can land on it: a dead addr
// joins ejected and the first good probe re-admits it like any ejection.
func (r *Router) addShard(name, addr string, weight float64) (api.AdminShard, error) {
	if err := (Shard{Name: name, Addr: addr, VnodeWeight: weight}).validate(); err != nil {
		return api.AdminShard{}, err
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	desired, i := r.current(name)
	switch {
	case i < 0:
		desired = append(desired, want{name, placement{addr: addr, weight: weight}})
	case !desired[i].drained && (weight == 0 || weight == desired[i].weight):
		return api.AdminShard{}, fmt.Errorf("%w: %q", errShardExists, name)
	default:
		if desired[i].drained && addr != "" {
			desired[i].addr = addr
		}
		if weight != 0 {
			desired[i].weight = weight
		}
		desired[i].drained = false
	}
	if _, err := r.reconcile(desired, true); err != nil {
		return api.AdminShard{}, err
	}
	return r.shards[name].adminView(), nil
}

// drainShard latches the shard out of the ring: its keys move to their
// ring successors, in-flight requests finish, probes keep watching it, and
// only an add of the same name or a topology reload brings it back.
// Draining the last routable shard is refused. Idempotent.
func (r *Router) drainShard(name string) (api.AdminShard, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	desired, i, err := r.leaving(name)
	if err == nil {
		desired[i].drained = true
		_, err = r.reconcile(desired, false)
	}
	if err != nil {
		return api.AdminShard{}, err
	}
	return r.shards[name].adminView(), nil
}

// removeShard deletes the shard from the topology, stopping its process
// when the runtime started it. An active shard may be removed directly
// (drain first to let in-flight work finish); removing the last routable
// shard is refused.
func (r *Router) removeShard(name string) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	desired, i, err := r.leaving(name)
	if err == nil {
		_, err = r.reconcile(slices.Delete(desired, i, i+1), false)
	}
	return err
}
