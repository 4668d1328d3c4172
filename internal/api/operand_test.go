package api

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// sameArray reports whether two decodes of one value agree: both refused,
// or both accepted with the same nil-ness, length and bits.
func sameArray[T any](got, want []T, gotErr, wantErr error, bits func(T) uint64) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return true
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if bits(got[i]) != bits(want[i]) {
			return false
		}
	}
	return true
}

func intBits(v int) uint64 { return uint64(v) }

// sameOperand reports whether two decoded operands are equal bit for bit,
// nil-ness of the pointer and of each array included.
func sameOperand(got, want *InlineCSR) bool {
	if got == nil || want == nil {
		return got == want
	}
	return got.Rows == want.Rows && got.Cols == want.Cols &&
		sameArray(got.Rowidx, want.Rowidx, nil, nil, intBits) &&
		sameArray(got.Colid, want.Colid, nil, nil, intBits) &&
		sameArray(got.Val, want.Val, nil, nil, math.Float64bits)
}

// FuzzOperandArrays holds the operand decoders to encoding/json on any
// bytes. As a value, the bytes decode through decodeArray exactly as
// encoding/json decodes them into []int and []float64: the same accept or
// refuse decision and, when accepted, the same nil-ness and bit-identical
// elements — null elements, 1.0 or 1e2 as an int, 1e999, nested values,
// whitespace. As a request body, and as the operand of one, an "inline"
// member kept as InlineBytes and parsed is refused exactly when
// encoding/json refuses the body decoded into a *InlineCSR field, and
// otherwise holds the operand that field holds — case-insensitive keys,
// duplicate members decoded in turn and a later null dropping an earlier
// operand included. The hand split of an operand's members never panics or
// hangs, even on bytes that are not JSON.
func FuzzOperandArrays(f *testing.F) {
	for _, s := range []string{
		`[1,2,3]`, ` [ 0 , -0 , null , 17 ] `, `[]`, `[ ]`, `null`, ` null `, `[null]`, `nul`, `[nul]`,
		`[1.0]`, `[1e2]`, `[1E+2]`, `[-1e-2]`, `[1e999]`, `[-1e999]`, `[1e-400]`, `[0e999]`, `[2.5e-3,1e22,1e23]`,
		`[9007199254740993]`, `[0.1000000000000000055511151231257827021181583404541015625]`,
		`[4.9406564584124654e-324]`, `[1.7976931348623157e308]`, `[1.7976931348623159e308]`,
		`[9223372036854775807]`, `[-9223372036854775808]`, `[9223372036854775808]`, `[123456789012345678]`,
		`[[1],2]`, `[{"a":1}]`, `["1"]`, `[true]`, `[1,]`, `[,1]`, `[01]`, `[1.]`, `[.5]`, `[-]`, `[+1]`,
		`[1 2]`, `[1]x`, `[1] `, "[\t1\n,\r2]", `{}`, `"x"`, `7`, ``, `[`,
		`{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,1],"val":[1,2]}`,
		`{"ROWS":1,"Cols":1,"rowIdx":[0,1],"colid":[0],"val":[3],"extra":{"val":[9]}}`,
		`{"rowidx":[1,2,3],"rowidx":[4],"rowidx":[null,null,null,null]}`,
		`{"val":[1.5,2.5],"val":null,"val":[null]}`, `{"rows":5,"rows":null,"cols":"5"}`,
		`{"val":[],"val":[null,7]}`, `{"rows":3,"colid":[1e2]}`, `[{"rows":1}]`,
		`{"inline":{"rows":1,"val":[1,2]},"Inline":{"val":[null]}}`,
		`{"inline":{"rows":1},"inline":null}`, `{"inline":{"rows":"1"},"inline":null}`,
		`{"inline":{"val":[1e999]},"inline":null,"inline":{"cols":2}}`, `{"inline":null,"inline":[1]}`,
		`{"rowſ":1,"\u0063OLS":2,"Val":[1],"vaL":[2,3]}`, `{"inline":5}`, `{"INLINE":"x"}`, `{"inline":{"rows":1}} `, `{"inline":{}}x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var wantInts []int
		wantErr := json.Unmarshal(b, &wantInts)
		gotInts, gotErr := decodeArray(b, nil, parseInt)
		if !sameArray(gotInts, wantInts, gotErr, wantErr, intBits) {
			t.Fatalf("ints of %q: %v (err %v), encoding/json %v (err %v)", b, gotInts, gotErr, wantInts, wantErr)
		}
		var wantFloats []float64
		wantErr = json.Unmarshal(b, &wantFloats)
		gotFloats, gotErr := decodeArray(b, nil, parseFloat)
		if !sameArray(gotFloats, wantFloats, gotErr, wantErr, math.Float64bits) {
			t.Fatalf("floats of %q: %v (err %v), encoding/json %v (err %v)", b, gotFloats, gotErr, wantFloats, wantErr)
		}

		new(InlineCSR).decodeObject(b) // any bytes, valid or not: no panic, no hang

		for _, body := range [][]byte{b, bytes.Join([][]byte{[]byte(`{"inline":`), b, []byte(`}`)}, nil)} {
			var want struct {
				Inline *InlineCSR `json:"inline"`
			}
			wantErr := json.Unmarshal(body, &want)
			var got struct {
				Inline InlineBytes `json:"inline"`
			}
			gotErr := json.Unmarshal(body, &got)
			var parsed *InlineCSR
			if gotErr == nil {
				parsed, gotErr = got.Inline.Parse()
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("body %q: err %v, encoding/json err %v", body, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Inline.Present() != (want.Inline != nil) || !sameOperand(parsed, want.Inline) {
				t.Fatalf("body %q: present %v, %+v; encoding/json %+v", body, got.Inline.Present(), parsed, want.Inline)
			}
			if _, err := got.Inline.ToCSR(); err == nil && !got.Inline.Present() {
				t.Fatalf("body %q: an absent operand admitted", body)
			}
		}
	})
}

// TestInlineCSRRoundTrip holds a plain InlineCSR to its JSON: a request
// decoded with an operand, duplicate members and all, encodes back to the
// operand encoding/json read, and encoding that decodes to the same
// request — what a client that loads a recorded request and sends it again
// relies on.
func TestInlineCSRRoundTrip(t *testing.T) {
	src := []byte(`{"solver":"cg","inline":{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,1],` +
		`"val":[4,0.30000000000000004],"val":[4.5]},"seed":3}`)
	var req SolveRequest
	if err := json.Unmarshal(src, &req); err != nil {
		t.Fatal(err)
	}
	want := &InlineCSR{Rows: 2, Cols: 2, Rowidx: []int{0, 1, 2}, Colid: []int{0, 1}, Val: []float64{4.5}}
	if !sameOperand(req.Inline, want) {
		t.Fatalf("decoded %+v, want %+v", req.Inline, want)
	}
	out, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	const encoded = `{"inline":{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,1],"val":[4.5]},"solver":"cg","seed":3}`
	if string(out) != encoded {
		t.Fatalf("encoded %s, want %s", out, encoded)
	}
	var again SolveRequest
	if err := json.Unmarshal(out, &again); err != nil {
		t.Fatal(err)
	}
	if !sameOperand(again.Inline, want) || again.Solver != req.Solver || again.Seed != req.Seed {
		t.Fatalf("decoded again %+v, want %+v", again, req)
	}
}
