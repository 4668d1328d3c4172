package api_test

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/server"
	"repro/internal/sparse"
)

// admitInline is the shard's admission of a body of src: server.Decode —
// json.Unmarshal of all but the operand (exactly one value, nothing but
// whitespace after it), WithDefaults, Validate and the key, by the
// operand's bytes — and, for an inline matrix, the cache fill's Build,
// which parses the operand and admits the matrix. stage names the step
// that refused the body, told apart by Decode's error prefixes.
func admitInline(src []byte) (id server.Identity, a *sparse.CSR, stage string, err error) {
	var req api.SolveRequest
	if id, err = server.Decode(src, &req, &req); err != nil {
		switch msg := err.Error(); {
		case strings.HasPrefix(msg, "decoding request: "):
			return id, nil, "decode", err
		case strings.HasPrefix(msg, "inline matrix: "):
			return id, nil, "identity", err
		}
		// Validate refuses the decoded request again, with the same error.
		if again := req.Validate(); again == nil || again.Error() != err.Error() {
			return id, nil, "unknown", err
		}
		return id, nil, "validate", err
	}
	if req.Inline == nil {
		return id, nil, "identity", nil
	}
	a, err = id.Build()
	return id, a, "build", err
}

// plainAdmit is the same admission by the rule the tiers followed before
// they kept an operand's bytes: encoding/json decodes the whole body,
// operand included, then WithDefaults, Validate, server.ResolveIdentity
// and, for an inline matrix, Build. It returns the decoded request.
func plainAdmit(src []byte) (*api.SolveRequest, server.Identity, error) {
	var req api.SolveRequest
	if err := json.Unmarshal(src, &req); err != nil {
		return nil, server.Identity{}, err
	}
	req.WithDefaults()
	if err := req.Validate(); err != nil {
		return nil, server.Identity{}, err
	}
	id, err := server.ResolveIdentity(&req)
	if err != nil || req.Inline == nil {
		return &req, id, err
	}
	_, err = id.Build()
	return &req, id, err
}

// bytesKey is the key of the operand src carries: the SHA-256 of its bytes.
func bytesKey(src []byte) string {
	op, _ := api.SplitInline(src)
	sum := op.Sum()
	return "inline:sha256:" + hex.EncodeToString(sum[:])
}

// FuzzInlineCSR holds the shard's admission of an inline operand to what
// a wire surface owes any bytes: a matrix the solvers can take — square,
// valid, keyed by the SHA-256 of the operand's bytes — or an error of the
// step that refused it (a number the operand's arrays cannot hold, 1e999
// among them, at the Build's parse), in bounded time and memory. Equal
// operand bytes, in a body that differs around them, give an equal key and
// a Build that parses the same matrix bit for bit or refuses it the same
// way. Every body is refused exactly when decoding it whole with
// encoding/json, as the tiers did before they kept an operand's bytes,
// refuses it, and an operand sent as the bytes encoding/json writes for its
// decoded value is keyed as ResolveIdentity keys that value. The seeds
// reach every refusal of an inline CSR: a decreasing Rowidx, a Colid out of
// range, dimensions that promise more than the arrays hold, finite values
// whose column sum overflows, and duplicate or non-object operands.
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
	f.Add([]byte(`{"inline":{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,1]},"inline":{"val":[2,3]}}`))
	f.Add([]byte(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[1]},"inline":null}`))
	f.Add([]byte(`{"inline":5}`))
	f.Add([]byte(`{"matrix":{"gen":"poisson2d","n":16},"inline":{"rowidx":[1.5]},"inline":null}`))
	f.Add([]byte(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[1.0],"val":[null]}}`))
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
			if key := bytesKey(src); id.Key != key {
				t.Fatalf("identity %q for an operand whose bytes key %q", id.Key, key)
			}
		case err == nil:
			if !strings.HasPrefix(id.Key, "spec:") {
				t.Fatalf("a spec request resolved to key %q", id.Key)
			}
		case stage == "decode":
			// The operand's bytes are kept whole: what its arrays hold is
			// refused by the Build's parse, never here.
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syntax) && !errors.As(err, &typ) {
				t.Fatalf("decode error %T %v is not the JSON decoder's", err, err)
			}
			if typ != nil && strings.HasPrefix(typ.Field, "inline") {
				t.Fatalf("decode error %v is inside the operand", err)
			}
		case stage == "unknown":
			t.Fatalf("error %q is neither the decoder's, Validate's nor the inline matrix's", err)
		case stage == "build":
			if !errors.Is(err, checksum.ErrNoShift) && !strings.HasPrefix(err.Error(), "inline matrix: ") {
				t.Fatalf("build error %v is neither the parse's nor checksum.ErrNoShift", err)
			}
		}
		if grew, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(src)); grew > ceiling {
			t.Fatalf("%d bytes of input allocated %d, ceiling %d", len(src), grew, ceiling)
		}
		if took > api.FuzzDeadline {
			t.Fatalf("%d bytes of input took %v", len(src), took)
		}

		// The same operand bytes in another body — trailing whitespace is
		// no error — key alike, and the Build parses the same matrix bit
		// for bit or refuses it with the same error.
		id2, a2, stage2, err2 := admitInline(append(slices.Clip(src), ' '))
		switch {
		case (err == nil) != (err2 == nil) || stage != stage2:
			t.Fatalf("with a trailing space: stage %s err %v, alone stage %s err %v", stage2, err2, stage, err)
		case stage == "build" && id2.Key != id.Key:
			t.Fatalf("equal operand bytes keyed %q and %q", id.Key, id2.Key)
		case stage == "build" && err != nil && err.Error() != err2.Error():
			t.Fatalf("equal operand bytes refused as %v and %v", err, err2)
		case a != nil && !sameCSR(a, a2):
			t.Fatalf("equal operand bytes built different matrices")
		}

		// Refused exactly when the plain decode refuses the body.
		req, plainID, plainErr := plainAdmit(src)
		if (plainErr == nil) != (err == nil) {
			t.Fatalf("refusal %v; the plain decode's %v", err, plainErr)
		}
		if err != nil || req.Inline == nil {
			if err == nil && plainID.Key != id.Key {
				t.Fatalf("spec keyed %q, by the plain decode %q", id.Key, plainID.Key)
			}
			return
		}

		// The operand as encoding/json writes it is keyed as ResolveIdentity
		// keys the value, and builds the same matrix.
		body, merr := json.Marshal(req)
		if merr != nil {
			t.Fatal(merr)
		}
		id3, a3, _, err3 := admitInline(body)
		if err3 != nil || id3.Key != plainID.Key || !sameCSR(a, a3) {
			t.Fatalf("re-encoded operand keyed %q (%v), ResolveIdentity %q", id3.Key, err3, plainID.Key)
		}
	})
}

// sameCSR reports bit-for-bit equality of two matrices.
func sameCSR(a, b *sparse.CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.Rowidx, b.Rowidx) || !slices.Equal(a.Colid, b.Colid) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}
