package router

import (
	"errors"
	"fmt"
	"net/url"
)

// TopologySchemaVersion identifies the topology file layout.
const TopologySchemaVersion = 1

// Topology is the JSON shard-set description resrouter consumes:
//
//	{
//	  "schema": 1,
//	  "shards": [
//	    {"name": "s0", "addr": "http://127.0.0.1:9000"},
//	    {"name": "s1", "addr": ""},
//	    {"name": "s2", "addr": "http://127.0.0.1:9002", "drained": true}
//	  ]
//	}
//
// A shard with an addr attaches to a running resilientd; a shard with an
// empty addr is spawned in-process by resrouter on an ephemeral port; a
// drained shard stays in the router, off the ring.
type Topology struct {
	Schema int     `json:"schema"`
	Shards []Shard `json:"shards"`
}

// validate rejects malformed topologies: unknown schema, no shards,
// duplicate names, an entry Shard.validate refuses, or every entry drained
// (the ring would be empty).
func (t *Topology) validate() error {
	if t.Schema != 0 && t.Schema != TopologySchemaVersion {
		return fmt.Errorf("topology: unsupported schema %d (want %d)", t.Schema, TopologySchemaVersion)
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("topology: no shards")
	}
	seen := make(map[string]bool, len(t.Shards))
	onRing := false
	for i, sh := range t.Shards {
		if err := sh.validate(); err != nil {
			return fmt.Errorf("topology: entry %d: %w", i, err)
		}
		if seen[sh.Name] {
			return fmt.Errorf("topology: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
		onRing = onRing || !sh.Drained
	}
	if !onRing {
		return errors.New("topology: every shard is drained; one must stay on the ring")
	}
	return nil
}

// validate is the one check of a shard entry, whichever surface it came in
// by (start-up flags or topology file): a name, a vnode_weight in
// (0, 16] or 0 for the default, and an addr that is an http(s) base URL or
// empty (the runtime starts the process).
func (sh Shard) validate() error {
	if sh.Name == "" {
		return errors.New("shard has no name")
	}
	if !(sh.VnodeWeight >= 0 && sh.VnodeWeight <= maxVnodeWeight) {
		return fmt.Errorf("shard %q: vnode_weight %g out of (0, %g]", sh.Name, sh.VnodeWeight, maxVnodeWeight)
	}
	if sh.Addr == "" {
		return nil
	}
	u, err := url.Parse(sh.Addr)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return fmt.Errorf("shard %q: addr %q is not an http(s) base URL", sh.Name, sh.Addr)
	}
	return nil
}

// ApplyReport says what a topology apply changed. Shards absent from all
// four lists did not exist before or after.
type ApplyReport struct {
	Added   []string // new shards joined to the ring
	Removed []string // shards taken off the ring and forgotten
	Updated []string // retained shards whose addr, weight or drain latch changed
	Kept    []string // retained shards, untouched
}

// Changed reports whether the apply moved anything.
func (a ApplyReport) Changed() bool {
	return len(a.Added)+len(a.Removed)+len(a.Updated) > 0
}

func (a ApplyReport) String() string {
	return fmt.Sprintf("added=%v removed=%v updated=%v kept=%d", a.Added, a.Removed, a.Updated, len(a.Kept))
}
