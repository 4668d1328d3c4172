package router

import (
	"fmt"
	"sort"
)

// want is one entry of a desired state: a shard's name and what its topology
// entry decides about it. An empty addr means "where it is now" for a shard
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
// started are stopped again and the previous ring keeps serving. A joiner
// starts healthy; the probes eject it if it does not answer.
func (r *Router) reconcile(desired []want) (ApplyReport, error) {
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

// Apply reconciles the live ring with a topology under traffic. The file is
// the whole desired state: a shard it names is on the ring unless its entry
// sets the drained latch, a shard it does not name leaves, and an entry
// with a new addr repoints its shard in place. On any error the previous
// ring keeps serving untouched.
func (r *Router) Apply(topo Topology) (ApplyReport, error) {
	if err := topo.validate(); err != nil {
		return ApplyReport{}, err
	}
	desired := make([]want, len(topo.Shards))
	for i, sh := range topo.Shards {
		desired[i] = want{sh.Name, placement{addr: sh.Addr, weight: sh.VnodeWeight, drained: sh.Drained}}
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	return r.reconcile(desired)
}
