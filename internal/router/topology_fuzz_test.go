package router

import (
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"
)

// maxFuzzTopologyBytes bounds a FuzzTopology input: a few hundred shard
// entries, each an in-process mock shard when it names no addr.
const maxFuzzTopologyBytes = 4 << 10

// FuzzTopology holds a topology file's path into the router — bytes,
// json.Unmarshal, Topology.Validate, one reconcile against a MockRuntime —
// to what a reload owes any bytes: either the state the file describes,
// applied with the report and runtime calls the membership model predicts
// (TestReconcileMatchesModel's invariants), or the JSON decoder's error or
// a "topology:" refusal with the start-up state untouched, within
// fuzzDeadline (1 s; 10 s under -race). The router starts from s0 and s1
// (weight 2), both managed. Apply never probes, so an addr in the input is
// never dialled.
func FuzzTopology(f *testing.F) {
	for _, src := range []string{
		`{"schema":1,"shards":[{"name":"s0","addr":"http://127.0.0.1:9000"},{"name":"s1","addr":""}]}`,
		`{"schema":1,"shards":[{"name":"s0"},{"name":"s1"},{"name":"s2"},{"name":"s3"}]}`,
		`{"schema":1,"shards":[{"name":"s0"},{"name":"s1","addr":"http://127.0.0.1:1"}]}`,
		`{"schema":1,"shards":[{"name":"s0","vnode_weight":0.5},{"name":"s1","vnode_weight":3},{"name":"s2","vnode_weight":16}]}`,
		`{"schema": 1, "shards": [{"name": "s0", "addr": "http://127.0.0.1:9201"}, {"name": "s2", "addr": "http://127.0.0.1:9203"}]}`,
		`{"shards":[{"name":"s1","vnode_weight":2}]}`,
		`{}`,
		`{"schema":99,"shards":[{"name":"s0"}]}`,
		`{"schema":1,"shards":[{"name":"a"},{"name":"a"}]}`,
		`{"schema":1,"shards":[{"name":""}]}`,
		`{"schema":1,"shards":[{"name":"x","addr":"not a url"}]}`,
		`{"schema":1,"shards":[{"name":"s0"},{"name":"s1"},{"name":"s2","addr":"ftp://nope"}]}`,
		`{"schema":1,"shards":[{"name":"s0","vnode_weight":-1}]}`,
		`{"schema":1,"shards":[{"name":"s0","vnode_weight":17}]}`,
		`{"schema":"1","shards":[]}`,
		`{"shards":[{"name":"s0"}`,
		`null`,
	} {
		f.Add([]byte(src))
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > maxFuzzTopologyBytes {
			return
		}
		rt := &recordingRuntime{MockRuntime: NewMockRuntime()}
		r, err := New(Config{Runtime: rt, vnodes: 8, ProbeInterval: time.Hour},
			[]Shard{{Name: "s0"}, {Name: "s1", VnodeWeight: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			r.Shutdown()
			rt.StopAll()
		}()
		model := map[string]*modelShard{
			"s0": {addr: rt.Get("s0").URL(), managed: true},
			"s1": {addr: rt.Get("s1").URL(), weight: 2, managed: true},
		}
		starts := map[string]int{"s0": 1, "s1": 1}
		stops := map[string]int{}

		start := time.Now()
		var topo Topology
		decodeErr := json.Unmarshal(src, &topo)
		var rep ApplyReport
		err = decodeErr
		if err == nil {
			rep, err = r.Apply(topo)
		}
		took := time.Since(start)

		names := []string{"s0", "s1"}
		switch {
		case decodeErr != nil:
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syntax) && !errors.As(err, &typ) {
				t.Fatalf("decode error %T %v is not the JSON decoder's", err, err)
			}
		case err != nil:
			if verr := topo.validate(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("Apply refused %+v with %v, Validate says %v", topo.Shards, err, verr)
			}
		default:
			if verr := topo.validate(); verr != nil {
				t.Fatalf("Apply took %+v, which Validate refuses: %v", topo.Shards, verr)
			}
			var want ApplyReport
			inTopo := map[string]bool{}
			for _, sh := range topo.Shards {
				inTopo[sh.Name] = true
				names = append(names, sh.Name)
				m := model[sh.Name]
				if m == nil {
					m = &modelShard{addr: sh.Addr, weight: sh.VnodeWeight, managed: sh.Addr == ""}
					if m.managed {
						starts[sh.Name]++
						started := rt.Get(sh.Name)
						if started == nil {
							t.Fatalf("Apply(%+v) joined %q without starting it", topo.Shards, sh.Name)
						}
						m.addr = started.URL()
					}
					model[sh.Name] = m
					want.Added = append(want.Added, sh.Name)
					continue
				}
				addr := m.addr
				if sh.Addr != "" {
					addr = sh.Addr
				}
				if addr != m.addr || sh.VnodeWeight != m.weight {
					want.Updated = append(want.Updated, sh.Name)
				} else {
					want.Kept = append(want.Kept, sh.Name)
				}
				m.addr, m.weight = addr, sh.VnodeWeight
			}
			for n, m := range model {
				if !inTopo[n] {
					if m.managed {
						stops[n]++
					}
					delete(model, n)
					want.Removed = append(want.Removed, n)
				}
			}
			for _, l := range []*[]string{&want.Added, &want.Removed, &want.Updated, &want.Kept} {
				sort.Strings(*l)
			}
			if !slices.Equal(rep.Added, want.Added) || !slices.Equal(rep.Removed, want.Removed) ||
				!slices.Equal(rep.Updated, want.Updated) || !slices.Equal(rep.Kept, want.Kept) {
				t.Fatalf("Apply(%+v): report %+v, want %+v", topo.Shards, rep, want)
			}
		}
		assertMatchesModel(t, r, rt, model, starts, stops, names, "FuzzTopology")
		if took > fuzzDeadline {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}
	})
}
