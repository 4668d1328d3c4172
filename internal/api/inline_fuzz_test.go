package api_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// admitInline is the shard's request decode on a body of src:
// server.OperandMemo.Decode — json.Unmarshal (exactly one value, nothing but
// whitespace after it, the operand kept as bytes), WithDefaults, Validate
// and the identity's resolution, which parses the operand or recalls it —
// and, for an inline matrix, the cache fill's Build. stage names the step
// that refused the body, told apart by Decode's error prefixes.
func admitInline(memo *server.OperandMemo, src []byte) (id server.Identity, a *sparse.CSR, stage string, err error) {
	var req api.SolveRequest
	if id, err = memo.Decode(src, &req, &req); err != nil {
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

// plainAdmit is the same decode by the rule the tiers followed before they
// kept an operand's bytes: encoding/json decodes the whole body, operand
// included, then WithDefaults, Validate, server.ResolveIdentity and, for an
// inline matrix, Build.
func plainAdmit(src []byte) (server.Identity, error) {
	var req api.SolveRequest
	if err := json.Unmarshal(src, &req); err != nil {
		return server.Identity{}, err
	}
	req.WithDefaults()
	if err := req.Validate(); err != nil {
		return server.Identity{}, err
	}
	id, err := server.ResolveIdentity(&req)
	if err != nil || req.Inline == nil {
		return id, err
	}
	_, err = id.Build()
	return id, err
}

// contentKey is the cache key an admitted matrix must carry: the SHA-256 of
// the words its fingerprint hashes, little-endian.
func contentKey(a *sparse.CSR) string {
	words := binary.LittleEndian.AppendUint64(nil, uint64(a.Rows))
	words = binary.LittleEndian.AppendUint64(words, uint64(a.Cols))
	for _, r := range a.Rowidx {
		words = binary.LittleEndian.AppendUint64(words, uint64(r))
	}
	for _, c := range a.Colid {
		words = binary.LittleEndian.AppendUint64(words, uint64(c))
	}
	for _, v := range a.Val {
		words = binary.LittleEndian.AppendUint64(words, math.Float64bits(v))
	}
	sum := sha256.Sum256(words)
	return "inline:sha256:" + hex.EncodeToString(sum[:])
}

// FuzzInlineCSR holds the shard's decode of an inline operand to what a
// wire surface owes any bytes: a matrix the solvers can take — square,
// valid, keyed by a SHA-256 of its content and labelled by its
// fingerprint — or an error of the step that refused it (a number the
// operand's arrays cannot hold, 1e999 among them, at identity resolution),
// in bounded time and memory. The same bytes decoded again through the warm
// memo resolve to the same identity without a parse, and its Build parses
// the same matrix bit for bit or refuses it as before; a body refused
// before the operand parsed is never remembered. Every body is refused
// exactly when decoding it whole with encoding/json, as the tiers did
// before they kept an operand's bytes, refuses it, and keyed alike. The
// seeds reach every refusal of an inline CSR: a decreasing Rowidx, a Colid
// out of range, dimensions that promise more than the arrays hold, finite
// values whose column sum overflows, and duplicate or non-object operands.
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
		memo := server.NewOperandMemo()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		id, a, stage, err := admitInline(memo, src)
		took := time.Since(start)
		runtime.ReadMemStats(&after)

		switch {
		case err == nil && a != nil:
			if a.Rows != a.Cols || a.Validate() != nil {
				t.Fatalf("admitted a %dx%d matrix that does not validate: %v", a.Rows, a.Cols, a.Validate())
			}
			if key := contentKey(a); id.Key != key || id.Spec.N != a.Rows {
				t.Fatalf("identity %q n=%d for a matrix keyed %q n=%d", id.Key, id.Spec.N, key, a.Rows)
			}
			if label := fmt.Sprintf("inline:%016x", a.Fingerprint()); id.Label != label {
				t.Fatalf("identity labelled %q for a matrix fingerprinted %q", id.Label, label)
			}
		case err == nil:
			if !strings.HasPrefix(id.Key, "spec:") {
				t.Fatalf("a spec request resolved to key %q", id.Key)
			}
		case stage == "decode":
			// The operand's bytes are kept whole: what its arrays hold is
			// refused at identity resolution, never here.
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

		// Refused exactly when the plain decode refuses the body, and keyed
		// as it keys it.
		if plainID, plainErr := plainAdmit(src); (plainErr == nil) != (err == nil) || plainID.Key != id.Key {
			t.Fatalf("refusal %v, key %q; the plain decode's %v, %q", err, id.Key, plainErr, plainID.Key)
		}

		// The same bytes again, through the warm memo: an operand that parsed
		// resolves unparsed to the same identity, whose Build parses to the
		// same matrix bit for bit, or is refused again by it; one refused
		// before that was not remembered and is refused again at the same
		// step.
		st := memo.Stats()
		id2, a2, stage2, err2 := admitInline(memo, src)
		st2 := memo.Stats()
		switch {
		case (err == nil) != (err2 == nil) || (err != nil && stage != stage2):
			t.Fatalf("second decode: stage %s err %v, first stage %s err %v", stage2, err2, stage, err)
		case stage == "build":
			if id2.Key != id.Key || id2.Label != id.Label || id2.Spec != id.Spec {
				t.Fatalf("remembered identity %q %q %+v, parsed %q %q %+v", id2.Key, id2.Label, id2.Spec, id.Key, id.Label, id.Spec)
			}
			if st2.Remembered != st.Remembered+1 || st2.Parsed != st.Parsed+1 {
				t.Fatalf("memo counters %+v after %+v: want one recall and only Build's parse", st2, st)
			}
			if err == nil && !sameCSR(a, a2) {
				t.Fatalf("Build of the remembered identity parsed a different matrix")
			}
		case st2.Remembered != st.Remembered:
			t.Fatalf("a body refused at %s (%v) was remembered", stage, err)
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
