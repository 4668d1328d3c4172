package router

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"
)

// maxFuzzTopologyBytes bounds a FuzzTopology input: a few hundred shard
// entries, each an in-process mock shard when it names no addr.
const maxFuzzTopologyBytes = 4 << 10

// FuzzTopology holds a topology file's path into the router — bytes,
// json.Unmarshal, Topology.validate, one reconcile against a MockRuntime —
// to what a reload owes any bytes: either the state the file describes,
// drain latches included, applied with the report and runtime calls the
// membership model predicts (TestReconcileMatchesModel's invariants), or
// the JSON decoder's error or a "topology:" refusal with the start-up state
// untouched, within fuzzDeadline (1 s; 10 s under -race). The router
// starts from s0 and s1 (weight 2), both managed. Apply never probes, so an
// addr in the input is never dialled.
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
		`{"schema":1,"shards":[{"name":"s0"},{"name":"s1","vnode_weight":2,"drained":true}]}`,
		`{"schema":1,"shards":[{"name":"s0","drained":true},{"name":"s2"},{"name":"s3","addr":"http://127.0.0.1:1","drained":true}]}`,
		`{"schema":1,"shards":[{"name":"s0","drained":true},{"name":"s1","drained":true}]}`,
		`{"schema":1,"shards":[{"name":"s0","drained":"yes"}]}`,
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
		r, rt, m := newModelRouter(t)

		start := time.Now()
		var topo Topology
		decodeErr := json.Unmarshal(src, &topo)
		var rep ApplyReport
		err := decodeErr
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
			for _, sh := range topo.Shards {
				names = append(names, sh.Name)
			}
			want := m.apply(t, rt, topo)
			if !slices.Equal(rep.Added, want.Added) || !slices.Equal(rep.Removed, want.Removed) ||
				!slices.Equal(rep.Updated, want.Updated) || !slices.Equal(rep.Kept, want.Kept) {
				t.Fatalf("Apply(%+v): report %+v, want %+v", topo.Shards, rep, want)
			}
		}
		assertMatchesModel(t, r, rt, m, names, "FuzzTopology")
		if took > fuzzDeadline {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}
	})
}
