package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The registry maps scenario names to their definitions. Registration is
// metadata-only (no matrix is built until Run), so packages register whole
// campaigns cheaply at startup.
var registry = struct {
	sync.Mutex
	byName map[string]Scenario
}{byName: make(map[string]Scenario)}

// register adds a scenario to the registry. Re-registering a name is an
// error unless the definition is unchanged.
func register(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("harness: scenario needs a name")
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.byName[sc.Name]; ok {
		// Compare the JSON forms: scenarios may hold pointers (RHSSeed),
		// which must compare by value, not by address.
		prevJSON, err := json.Marshal(prev)
		if err != nil {
			return err
		}
		scJSON, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		if !bytes.Equal(prevJSON, scJSON) {
			return fmt.Errorf("harness: scenario %q already registered with a different definition", sc.Name)
		}
		return nil
	}
	registry.byName[sc.Name] = sc
	return nil
}

// MustRegister is register for static catalogs; it panics on error.
func MustRegister(sc Scenario) {
	if err := register(sc); err != nil {
		panic(err)
	}
}

// Lookup returns the registered scenario with the exact name.
func Lookup(name string) (Scenario, bool) {
	registry.Lock()
	defer registry.Unlock()
	sc, ok := registry.byName[name]
	return sc, ok
}

// registered returns every registered scenario, sorted by name.
func registered() []Scenario {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Scenario, 0, len(registry.byName))
	for _, sc := range registry.byName {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match returns the scenarios whose name or tags contain the filter
// substring (every scenario for an empty filter), sorted by name.
func Match(filter string) []Scenario {
	all := registered()
	if filter == "" {
		return all
	}
	var out []Scenario
	for _, sc := range all {
		if strings.Contains(sc.Name, filter) {
			out = append(out, sc)
			continue
		}
		for _, tag := range sc.Tags {
			if strings.Contains(tag, filter) {
				out = append(out, sc)
				break
			}
		}
	}
	return out
}

// Shard selects the k-th of n round-robin shards of a scenario list (spec
// "k/n" with 0 ≤ k < n), so a campaign can be split across processes and
// the outputs merged back with Merge.
func Shard(scs []Scenario, spec string) ([]Scenario, error) {
	if spec == "" {
		return scs, nil
	}
	parts := strings.Split(spec, "/")
	if len(parts) != 2 {
		return nil, fmt.Errorf("harness: bad shard spec %q, want k/n", spec)
	}
	k, err1 := strconv.Atoi(parts[0])
	n, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || n < 1 || k < 0 || k >= n {
		return nil, fmt.Errorf("harness: bad shard spec %q, want 0 ≤ k < n", spec)
	}
	var out []Scenario
	for i, sc := range scs {
		if i%n == k {
			out = append(out, sc)
		}
	}
	return out, nil
}
