package api_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/server"
	"repro/internal/sparse"
)

// admitInline is the shard's request decode on a body of src, step by step
// as server.Decode takes them: json.Unmarshal (exactly one value, nothing
// but whitespace after it), WithDefaults, Validate, ResolveIdentity, and —
// for an inline matrix — the cache fill's Build. stage names the step that
// refused the body.
func admitInline(src []byte) (id server.Identity, a *sparse.CSR, stage string, err error) {
	var req api.SolveRequest
	if err := json.Unmarshal(src, &req); err != nil {
		return id, nil, "decode", err
	}
	req.WithDefaults()
	if err := req.Validate(); err != nil {
		return id, nil, "validate", err
	}
	if id, err = server.ResolveIdentity(&req); err != nil || req.Inline == nil {
		return id, nil, "identity", err
	}
	a, err = id.Build()
	return id, a, "build", err
}

// FuzzInlineCSR holds the shard's decode of an inline operand to what a
// wire surface owes any bytes: a matrix the solvers can take — square,
// valid, keyed by its fingerprint — or an error of the step that refused
// it, in bounded time and memory. The seeds reach every refusal of an
// inline CSR: a decreasing Rowidx, a Colid out of range, dimensions that
// promise more than the arrays hold, and finite values whose column sum
// overflows.
func FuzzInlineCSR(f *testing.F) {
	for _, inline := range []string{
		`{"rows":3,"cols":3,"rowidx":[0,2,5,7],"colid":[0,1,0,1,2,1,2],"val":[4,-1,-1,4,-1,-1,4]}`,
		`{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[-1e20]}`,
		`{"rows":2,"cols":2,"rowidx":[0,2,1],"colid":[0,1],"val":[1,1]}`,
		`{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,2],"val":[1,1]}`,
		`{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,-1],"val":[1,1]}`,
		`{"rows":2,"cols":2,"rowidx":[0,1,3],"colid":[0,0,1],"val":[1e308,1e308,1]}`,
		`{"rows":0,"cols":1125899906842624,"rowidx":[0]}`,
		`{"rows":9223372036854775807,"cols":9223372036854775807,"rowidx":[0]}`,
		`{"rows":2,"cols":2,"rowidx":[0,1],"colid":[0],"val":[1]}`,
		`{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[1e999]}`,
		`{"rows":-1,"cols":-1,"rowidx":[]}`,
	} {
		f.Add([]byte(`{"inline":` + inline + `}`))
		f.Add([]byte(`{"solver":"pcg","scheme":"abft-detection","inline":` + inline + `,"alpha":0.01}`))
	}
	f.Add([]byte(`{"matrix":{"gen":"poisson2d","n":16},"inline":{"rows":0,"cols":0,"rowidx":[0]}}`))
	f.Add([]byte(`{"matrix":{"gen":"poisson2d","n":16}}`))
	f.Add([]byte(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[1]},"schema":9}`))
	f.Add([]byte(`{"inline":`))
	f.Add([]byte(`{"matrix":{"gen":"poisson2d","n":64},"solver":"cg"} trailing`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, src []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		id, a, stage, err := admitInline(src)
		took := time.Since(start)
		runtime.ReadMemStats(&after)

		switch {
		case err == nil && a != nil:
			if a.Rows != a.Cols || a.Validate() != nil {
				t.Fatalf("admitted a %dx%d matrix that does not validate: %v", a.Rows, a.Cols, a.Validate())
			}
			if key := fmt.Sprintf("inline:%016x", a.Fingerprint()); id.Key != key || id.Spec.N != a.Rows {
				t.Fatalf("identity %q n=%d for a matrix keyed %q n=%d", id.Key, id.Spec.N, key, a.Rows)
			}
		case err == nil:
			if !strings.HasPrefix(id.Key, "spec:") {
				t.Fatalf("a spec request resolved to key %q", id.Key)
			}
		case stage == "decode":
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syntax) && !errors.As(err, &typ) {
				t.Fatalf("decode error %T %v is not the JSON decoder's", err, err)
			}
		case stage == "identity":
			if !strings.HasPrefix(err.Error(), "inline matrix: ") {
				t.Fatalf("identity error %q does not name the inline matrix", err)
			}
		case stage == "build":
			if !errors.Is(err, checksum.ErrNoShift) {
				t.Fatalf("build error %v is not checksum.ErrNoShift", err)
			}
		}
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(src)); grew > ceiling {
			t.Fatalf("%d bytes of input allocated %d, ceiling %d", len(src), grew, ceiling)
		}
		if took > time.Second {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}
	})
}
