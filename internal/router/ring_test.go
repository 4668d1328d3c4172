package router

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like the real routing keys (spec JSON identities).
		keys[i] = fmt.Sprintf(`spec:{"gen":"poisson2d","n":%d}`, 4+i)
	}
	return keys
}

// TestRingDeterministicPlacement pins that placement is a pure function
// of the member set: insertion order must not matter, and rebuilding the
// ring from scratch reproduces every assignment.
func TestRingDeterministicPlacement(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3", "s4"}
	a := NewRing(64)
	for _, s := range shards {
		a.Add(s)
	}
	b := NewRing(64)
	for i := len(shards) - 1; i >= 0; i-- {
		b.Add(shards[i])
	}
	for _, k := range testKeys(500) {
		if ga, gb := a.Lookup(k), b.Lookup(k); ga != gb {
			t.Fatalf("insertion order changed placement of %q: %s vs %s", k, ga, gb)
		}
	}
}

// TestRingMinimalDisruption counts exactly which keys move when a shard
// leaves: every key the departed shard owned must move (it has no owner
// anymore), and no other key may.
func TestRingMinimalDisruption(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3", "s4"}
	r := NewRing(64)
	for _, s := range shards {
		r.Add(s)
	}
	keys := testKeys(1000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	const victim = "s2"
	owned := 0
	for _, o := range before {
		if o == victim {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("victim shard owned no keys; test is vacuous")
	}

	r.remove(victim)
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k)
		if after == victim {
			t.Fatalf("key %q still routed to the removed shard", k)
		}
		if after != before[k] {
			moved++
			if before[k] != victim {
				t.Errorf("key %q moved from surviving shard %s to %s", k, before[k], after)
			}
		} else if before[k] == victim {
			t.Errorf("key %q did not move off the removed shard", k)
		}
	}
	if moved != owned {
		t.Errorf("%d keys moved, want exactly the %d the departed shard owned", moved, owned)
	}

	// Re-adding the shard restores the original placement bit for bit.
	r.Add(victim)
	for _, k := range keys {
		if got := r.Lookup(k); got != before[k] {
			t.Fatalf("after re-admission key %q routes to %s, originally %s", k, got, before[k])
		}
	}
}

// TestRingDistribution sanity-checks that virtual nodes spread keys over
// every shard instead of dogpiling one.
func TestRingDistribution(t *testing.T) {
	r := NewRing(64)
	shards := []string{"s0", "s1", "s2", "s3"}
	for _, s := range shards {
		r.Add(s)
	}
	counts := make(map[string]int)
	keys := testKeys(2000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for _, s := range shards {
		if share := float64(counts[s]) / float64(len(keys)); share < 0.05 {
			t.Errorf("shard %s owns only %.1f%% of keys: %v", s, 100*share, counts)
		}
	}
}

// TestRingSuccessors pins the failover sequence: distinct shards, the
// owner first, capped at the member count.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s0", "s1", "s2"} {
		r.Add(s)
	}
	for _, k := range testKeys(100) {
		succ := r.successors(k, 5)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 5) = %v, want all 3 distinct shards", k, succ)
		}
		if succ[0] != r.Lookup(k) {
			t.Fatalf("first successor %s is not the owner %s", succ[0], r.Lookup(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("Successors(%q) repeats %s: %v", k, s, succ)
			}
			seen[s] = true
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0) // defaulted vnodes
	if got := r.Lookup("k"); got != "" {
		t.Errorf("empty ring Lookup = %q, want empty", got)
	}
	if got := r.successors("k", 2); got != nil {
		t.Errorf("empty ring Successors = %v, want nil", got)
	}
	r.Add("only")
	r.Add("only") // duplicate add is a no-op
	if len(r.points) != defaultVnodes {
		t.Errorf("duplicate Add grew the ring to %d points", len(r.points))
	}
	if got := r.Lookup("k"); got != "only" {
		t.Errorf("single-shard ring Lookup = %q", got)
	}
	r.remove("absent") // no-op
	r.remove("only")
	if r.size() != 0 || len(r.points) != 0 {
		t.Errorf("ring not empty after removing the only shard: %d shards, %d points", r.size(), len(r.points))
	}
}
