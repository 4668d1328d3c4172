package router

import (
	"context"
	"testing"
	"time"

	"repro/internal/api"
)

// TestRingAddNSkewsOwnership: a shard holding more vnodes must own a
// proportionally larger share of the keyspace, and VNodes must report
// what each member actually holds.
func TestRingAddNSkewsOwnership(t *testing.T) {
	r := NewRing(64)
	r.addN("small", 32)
	r.addN("big", 96)
	if got := r.vnodesOf("small"); got != 32 {
		t.Errorf("VNodes(small) = %d, want 32", got)
	}
	if got := r.vnodesOf("big"); got != 96 {
		t.Errorf("VNodes(big) = %d, want 96", got)
	}
	if got := r.vnodesOf("absent"); got != 0 {
		t.Errorf("VNodes(absent) = %d, want 0", got)
	}
	owned := map[string]int{}
	for _, k := range testKeys(3000) {
		owned[r.Lookup(k)]++
	}
	if owned["big"] <= owned["small"] {
		t.Errorf("ownership %v: 3× vnodes did not yield a larger share", owned)
	}
}

// TestRingReweightMinimalMovement pins the rebalancing contract: growing
// a shard's vnode count via Remove+AddN keeps its original vnode
// positions, so no key leaves the reweighted shard and every key that
// moves, moves onto it.
func TestRingReweightMinimalMovement(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s0", "s1", "s2"} {
		r.Add(s)
	}
	keys := testKeys(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	r.remove("s1")
	r.addN("s1", 128) // double s1's share

	gained := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if before[k] == "s1" && after != "s1" {
			t.Errorf("key %q left the upweighted shard (%s)", k, after)
		}
		if after != before[k] {
			if after != "s1" {
				t.Errorf("key %q moved %s -> %s: reweighting s1 must not shuffle bystanders", k, before[k], after)
			}
			gained++
		}
	}
	if gained == 0 {
		t.Error("doubling s1's vnodes moved no keys; test is vacuous")
	}
}

func TestVnodesFor(t *testing.T) {
	r, _, _ := mockRouter(t, Config{}, "s0")
	cases := []struct {
		weight float64
		want   int
	}{
		{0, defaultVnodes},             // zero = default weight
		{1, defaultVnodes},             // explicit default
		{0.5, (defaultVnodes + 1) / 2}, // half share
		{2, 2 * defaultVnodes},         // double share
		{0.001, 1},
	}
	for _, c := range cases {
		if got := r.vnodesFor(c.weight); got != c.want {
			t.Errorf("vnodesFor(%g) = %d, want %d", c.weight, got, c.want)
		}
	}
}

// TestApplyReweightsShard: a topology reload that only changes a shard's
// vnode_weight must rebalance the ring in place and report the shard as
// updated — no restart, no remove/re-add churn.
func TestApplyReweightsShard(t *testing.T) {
	r, _, ts := mockRouter(t, Config{vnodes: 16}, "s0", "s1")
	if got := r.ring.vnodesOf("s0"); got != 16 {
		t.Fatalf("initial VNodes(s0) = %d, want 16", got)
	}

	topo := Topology{Schema: TopologySchemaVersion}
	for _, sh := range r.CurrentTopology().Shards {
		entry := Shard{Name: sh.Name, Addr: sh.Addr}
		if sh.Name == "s0" {
			entry.VnodeWeight = 3
		}
		topo.Shards = append(topo.Shards, entry)
	}
	rep, err := r.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Updated) != 1 || rep.Updated[0] != "s0" || len(rep.Added)+len(rep.Removed) != 0 {
		t.Errorf("report %s: want exactly s0 updated", rep)
	}
	if got := r.ring.vnodesOf("s0"); got != 48 {
		t.Errorf("VNodes(s0) = %d after reweight, want 48", got)
	}
	if got := r.ring.vnodesOf("s1"); got != 16 {
		t.Errorf("VNodes(s1) = %d, want untouched 16", got)
	}

	// statusz reports the lived truth: actual vnode counts and weights.
	rz := routerzOf(t, ts.URL)
	for _, s := range rz.Shards {
		switch s.Name {
		case "s0":
			if s.VNodes != 48 || s.VnodeWeight != 3 {
				t.Errorf("routerz s0: vnodes %d weight %g, want 48 / 3", s.VNodes, s.VnodeWeight)
			}
		case "s1":
			if s.VNodes != 16 || s.VnodeWeight != 0 {
				t.Errorf("routerz s1: vnodes %d weight %g, want 16 / 0", s.VNodes, s.VnodeWeight)
			}
		}
	}

	// Re-applying the same topology is a no-op: reweighting is level-
	// triggered, not edge-triggered.
	rep, err = r.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Errorf("idempotent re-apply reported %s", rep)
	}
}

// TestAdminAddShardWeighted drives the satellite end to end through the
// typed client: a weighted add materializes with the scaled ring share,
// and re-adding an active shard with a new weight rebalances in place.
func TestAdminAddShardWeighted(t *testing.T) {
	r, _, ts := mockRouter(t, Config{vnodes: 16, AdminToken: "sekrit"}, "s0")
	cl := adminClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	add, err := cl.AdminAddShardWeighted(ctx, "w0", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if add.Shard.VnodeWeight != 2 {
		t.Errorf("admin view weight %g, want 2", add.Shard.VnodeWeight)
	}
	if got := r.ring.vnodesOf("w0"); got != 32 {
		t.Errorf("VNodes(w0) = %d, want 32", got)
	}

	// In-place rebalance of an active shard: same name, new weight.
	if _, err := cl.AdminAddShardWeighted(ctx, "w0", "", 0.5); err != nil {
		t.Fatalf("weighted re-add of an active shard: %v", err)
	}
	if got := r.ring.vnodesOf("w0"); got != 8 {
		t.Errorf("VNodes(w0) = %d after rebalance, want 8", got)
	}

	// Same weight again is the plain duplicate-add error.
	if _, err := cl.AdminAddShardWeighted(ctx, "w0", "", 0.5); err == nil {
		t.Error("duplicate add with unchanged weight accepted")
	}

	// Out-of-range weights are rejected at the API boundary.
	if _, err := cl.AdminAddShardWeighted(ctx, "w1", "", maxVnodeWeight+1); err == nil {
		t.Error("over-limit vnode_weight accepted")
	} else if e := asAPIError(t, err); e.Code != api.CodeBadRequest {
		t.Errorf("over-limit vnode_weight: code %q, want %q", e.Code, api.CodeBadRequest)
	}
	if _, err := cl.AdminAddShardWeighted(ctx, "w1", "", -1); err == nil {
		t.Error("negative vnode_weight accepted")
	} else if e := asAPIError(t, err); e.Code != api.CodeBadRequest {
		t.Errorf("negative vnode_weight: code %q, want %q", e.Code, api.CodeBadRequest)
	}
}
