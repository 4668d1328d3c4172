package router

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/api"
)

// Sentinel errors of the topology verbs; the admin surface maps them to
// HTTP statuses.
var (
	// ErrShardNotFound: the named shard is not in the topology.
	ErrShardNotFound = errors.New("router: shard not found")
	// ErrShardExists: an add named a shard that is already active.
	ErrShardExists = errors.New("router: shard already active")
	// ErrLastShard: draining or removing the shard would leave the ring
	// empty.
	ErrLastShard = errors.New("router: refusing to take the last routable shard out of the ring")
)

// ApplyReport says what a topology apply changed. Shards absent from all
// four lists did not exist before or after.
type ApplyReport struct {
	Added   []string // new shards joined to the ring
	Removed []string // shards taken off the ring and forgotten
	Updated []string // retained shards whose addr changed or drain latch cleared
	Kept    []string // retained shards, untouched
}

// Changed reports whether the apply moved anything.
func (a ApplyReport) Changed() bool {
	return len(a.Added)+len(a.Removed)+len(a.Updated) > 0
}

func (a ApplyReport) String() string {
	return fmt.Sprintf("added=%v removed=%v updated=%v kept=%d", a.Added, a.Removed, a.Updated, len(a.Kept))
}

// Apply reconciles the live ring with a desired topology under traffic,
// with minimal key movement: only shards that join or leave touch the
// ring, so retained shards keep every key they own. Presence in the
// topology means desired-active — a drained shard named by the topology
// is re-admitted (latch cleared, back on the ring). A shard whose entry
// names a new addr is repointed in place without leaving the ring. On any
// error the previous ring keeps serving untouched.
func (r *Router) Apply(topo Topology) (ApplyReport, error) {
	var rep ApplyReport
	if err := topo.Validate(); err != nil {
		return rep, err
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	desired := make(map[string]Shard, len(topo.Shards))
	for _, sh := range topo.Shards {
		desired[sh.Name] = sh
	}

	// Phase 1 (no locks): materialise joiners. A start failure aborts the
	// whole apply — already-started joiners are stopped again and the
	// live ring is left exactly as it was.
	r.ringMu.RLock()
	var joiners []Shard
	for _, sh := range topo.Shards {
		if _, ok := r.shards[sh.Name]; !ok {
			joiners = append(joiners, sh)
		}
	}
	r.ringMu.RUnlock()
	states := make(map[string]*shardState, len(joiners))
	for _, sh := range joiners {
		st, err := r.materialize(sh)
		if err != nil {
			for started, s := range states {
				if s.managed && r.runtime != nil {
					_ = r.runtime.Stop(started)
				}
			}
			return rep, err
		}
		states[sh.Name] = st
	}

	// Phase 2: swap the membership in one critical section.
	var leaverStops []string
	r.ringMu.Lock()
	for name, s := range r.shards {
		want, keep := desired[name]
		if !keep {
			r.ring.Remove(name)
			delete(r.shards, name)
			rep.Removed = append(rep.Removed, name)
			if s.managed {
				leaverStops = append(leaverStops, name)
			}
			continue
		}
		changed := false
		if want.Addr != "" && want.Addr != s.baseURL() {
			s.setAddr(want.Addr)
			changed = true
		}
		if want.VnodeWeight != s.getWeight() {
			// Reweight in place: vnodes keep their canonical "name#i"
			// positions, so only the keys owned by the count difference
			// move — a weighted rebalance is as minimal as a join or leave.
			s.setWeight(want.VnodeWeight)
			if !s.isDrained() {
				r.ring.Remove(name)
				r.ring.AddN(name, r.vnodesFor(want.VnodeWeight))
			}
			changed = true
		}
		if s.isDrained() {
			s.setDrained(false)
			r.ring.AddN(name, r.vnodesFor(s.getWeight()))
			changed = true
		}
		if changed {
			rep.Updated = append(rep.Updated, name)
		} else {
			rep.Kept = append(rep.Kept, name)
		}
	}
	for name, st := range states {
		r.shards[name] = st
		r.ring.AddN(name, r.vnodesFor(st.getWeight()))
		rep.Added = append(rep.Added, name)
	}
	r.ringMu.Unlock()

	for _, name := range rep.Removed {
		r.forgetShardKeys(name)
	}
	if r.runtime != nil {
		for _, name := range leaverStops {
			_ = r.runtime.Stop(name)
		}
	}
	sort.Strings(rep.Added)
	sort.Strings(rep.Removed)
	sort.Strings(rep.Updated)
	sort.Strings(rep.Kept)
	return rep, nil
}

// AddShard joins a new shard to the ring, or re-admits a drained one of
// the same name (clearing the drain latch), or rebalances an active one
// whose weight changed. An empty addr asks the runtime to materialise
// the process; weight 0 selects the router's default vnode count. The
// shard is probed synchronously before it joins, so its health picture
// is current the moment keys can land on it — one failed join probe is
// enough: a dead addr joins as ejected and the first good probe of the
// probe loop re-admits it like any other ejection.
func (r *Router) AddShard(name, addr string, weight float64) (api.AdminShard, error) {
	if err := (Shard{Name: name, Addr: addr, VnodeWeight: weight}).Validate(); err != nil {
		return api.AdminShard{}, err
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	r.ringMu.RLock()
	existing := r.shards[name]
	r.ringMu.RUnlock()

	if existing != nil {
		if !existing.isDrained() {
			if weight != 0 && weight != existing.getWeight() {
				// Weighted re-add of an active shard = in-place rebalance:
				// vnodes keep their canonical positions, so only the keys
				// owned by the count difference change owner.
				existing.setWeight(weight)
				r.ringMu.Lock()
				r.ring.Remove(name)
				r.ring.AddN(name, r.vnodesFor(weight))
				r.ringMu.Unlock()
				return existing.adminView(), nil
			}
			return existing.adminView(), fmt.Errorf("%w: %q", ErrShardExists, name)
		}
		// Re-admission: same state machine as a probe re-admission, just
		// with the latch cleared first so the probe outcome can stick.
		if addr != "" {
			existing.setAddr(addr)
		}
		if weight != 0 {
			existing.setWeight(weight)
		}
		existing.setDrained(false)
		r.probe(existing, 1)
		r.ringMu.Lock()
		r.ring.AddN(name, r.vnodesFor(existing.getWeight()))
		r.ringMu.Unlock()
		return existing.adminView(), nil
	}

	st, err := r.materialize(Shard{Name: name, Addr: addr, VnodeWeight: weight})
	if err != nil {
		return api.AdminShard{}, err
	}
	r.probe(st, 1)
	r.ringMu.Lock()
	r.shards[name] = st
	r.ring.AddN(name, r.vnodesFor(weight))
	r.ringMu.Unlock()
	return st.adminView(), nil
}

// DrainShard latches the shard out of the ring: new keys route past it
// (its keys move to their ring successors), in-flight requests finish,
// probes keep watching it, and only an add of the same name brings it
// back. Draining the last routable shard is refused. Idempotent.
func (r *Router) DrainShard(name string) (api.AdminShard, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	r.ringMu.RLock()
	s := r.shards[name]
	routable := 0
	for _, sh := range r.shards {
		if !sh.isDrained() {
			routable++
		}
	}
	r.ringMu.RUnlock()
	if s == nil {
		return api.AdminShard{}, fmt.Errorf("%w: %q", ErrShardNotFound, name)
	}
	if s.isDrained() {
		return s.adminView(), nil
	}
	if routable <= 1 {
		return api.AdminShard{}, fmt.Errorf("%w (%q is the only one left)", ErrLastShard, name)
	}
	s.setDrained(true)
	r.ringMu.Lock()
	r.ring.Remove(name)
	r.ringMu.Unlock()
	r.forgetShardKeys(name)
	return s.adminView(), nil
}

// RemoveShard deletes the shard from the topology entirely, stopping its
// process when the runtime started it. An active shard may be removed
// directly (drain first to let in-flight work finish); removing the last
// routable shard is refused.
func (r *Router) RemoveShard(name string) error {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()

	r.ringMu.RLock()
	s := r.shards[name]
	routable := 0
	for _, sh := range r.shards {
		if !sh.isDrained() {
			routable++
		}
	}
	r.ringMu.RUnlock()
	if s == nil {
		return fmt.Errorf("%w: %q", ErrShardNotFound, name)
	}
	if !s.isDrained() && routable <= 1 {
		return fmt.Errorf("%w (%q is the only one left)", ErrLastShard, name)
	}
	r.ringMu.Lock()
	r.ring.Remove(name)
	delete(r.shards, name)
	r.ringMu.Unlock()
	r.forgetShardKeys(name)
	if s.managed && r.runtime != nil {
		_ = r.runtime.Stop(name)
	}
	return nil
}

// CurrentTopology snapshots the live shard set for the admin API,
// sorted by name.
func (r *Router) CurrentTopology() api.AdminTopologyResponse {
	r.ringMu.RLock()
	shards := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	r.ringMu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].name < shards[j].name })
	out := api.AdminTopologyResponse{
		Schema:   api.SchemaVersion,
		Vnodes:   r.cfg.Vnodes,
		Replicas: r.cfg.Replicas,
		Shards:   make([]api.AdminShard, 0, len(shards)),
	}
	for _, s := range shards {
		out.Shards = append(out.Shards, s.adminView())
	}
	return out
}

// adminView snapshots the shard for the admin API.
func (s *shardState) adminView() api.AdminShard {
	s.mu.Lock()
	v := api.AdminShard{
		Name:        s.name,
		Addr:        s.addr,
		State:       s.stateLocked(),
		Healthy:     s.healthy,
		VnodeWeight: s.weight,
	}
	s.mu.Unlock()
	v.Inflight = s.inflight.Load()
	return v
}
