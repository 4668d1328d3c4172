package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
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

// occurrences keeps every value encoding/json hands an Unmarshaler field,
// as the reference for what SplitInline splits out.
type occurrences [][]byte

func (o *occurrences) UnmarshalJSON(b []byte) error {
	*o = append(*o, bytes.Clone(b))
	return nil
}

// operandSeeds are FuzzOperandArrays' seeds, which TestWalkNestingLimit also
// runs at encoding/json's nesting limit.
var operandSeeds = []string{
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
	`{"\u0069nline":{"rows":1},"in\u004cine":{"cols":1},"inline\u0000":7,"\"inline":8}`,
	`{"a":"\ud800\udc00\/\b\f\n\r\t\"\\","b":"\u00e9\uDBFF"}`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"", "\"\xff\xfe\"",
	` {"inline" : [ 1 , { "x" : [ ] } ] , "seed" : 3 } `, `{"inline":{},}`, `{"inline"}`, `{"inline":}`, `{,}`, `{"a":1 "b":2}`,
	`[true,false,null]`, `[tru]`, `[nulll]`, `-0.0e-0`, `-01`, `1e`, `1e+`, "\ufeff{}",
	`[[1]]`, `[{"a":[]}]`, `{"inline":[[]]}`, `[[`, `]]`, "\"\x1f\"", "\"\x20\x7f\"",
}

// FuzzOperandArrays holds the walker and the operand decoders to
// encoding/json on any bytes. As a value, the bytes decode through
// decodeArray exactly as encoding/json decodes them into []int and
// []float64: the same accept or refuse decision and, when accepted, the
// same nil-ness and bit-identical elements — null elements, 1.0 or 1e2 as
// an int, 1e999, nested values, whitespace. As a request body, and as the
// operand of one, the walker accepts exactly what json.Valid accepts (at
// the nesting limit too: TestWalkNestingLimit); SplitInline leaves an
// invalid body whole, for encoding/json to refuse, and from a valid one
// splits out the very occurrences an Unmarshaler field named "inline" is
// handed; decoding the rest with encoding/json and parsing the occurrences
// is refused exactly when encoding/json refuses the body decoded into a
// *InlineCSR field, and otherwise holds the operand that field holds —
// case-insensitive and escaped keys, duplicate members decoded in turn and
// a later null dropping an earlier operand included.
// decodeObject never panics or hangs, even on bytes that are not JSON.
func FuzzOperandArrays(f *testing.F) {
	for _, s := range operandSeeds {
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
			if valid, want := walk(body, nil) != notJSON, json.Valid(body); valid != want {
				t.Fatalf("body %q: walker valid %v, json.Valid %v", body, valid, want)
			}
			op, rest := SplitInline(body)
			if !json.Valid(body) {
				if op.raw != nil || !bytes.Equal(rest, body) {
					t.Fatalf("invalid body %q split into %q and %q", body, op.raw, rest)
				}
				continue
			}
			var seen struct {
				Inline occurrences `json:"inline"`
			}
			json.Unmarshal(body, &seen) // a type error leaves what was seen
			if !slices.EqualFunc(op.raw, seen.Inline, bytes.Equal) {
				t.Fatalf("body %q: split out %q, an Unmarshaler field sees %q", body, op.raw, seen.Inline)
			}

			var want struct {
				Inline *InlineCSR `json:"inline"`
			}
			wantErr := json.Unmarshal(body, &want)
			var got struct {
				Inline *InlineCSR `json:"inline"`
			}
			gotErr := json.Unmarshal(rest, &got)
			if got.Inline != nil {
				t.Fatalf("body %q: the rest %q still carries an operand", body, rest)
			}
			var parsed *InlineCSR
			if gotErr == nil {
				parsed, gotErr = op.Parse()
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("body %q: err %v, encoding/json err %v", body, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if op.Present() != (want.Inline != nil) || !sameOperand(parsed, want.Inline) {
				t.Fatalf("body %q: present %v, %+v; encoding/json %+v", body, op.Present(), parsed, want.Inline)
			}
			if _, err := op.ToCSR(); err == nil && !op.Present() {
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

// TestWalkNestingLimit holds the walker to json.Valid where encoding/json's
// nesting limit decides: every FuzzOperandArrays seed, nested just short of
// maxDepth in arrays, in objects, or in both alternating, is valid only
// while its own nesting keeps the total within maxDepth. (Inputs this large
// would slow the fuzzer's mutator tenfold, so the limit is checked here
// rather than there.)
func TestWalkNestingLimit(t *testing.T) {
	for _, s := range append(operandSeeds, `[]`, `[[]]`, `{}`, `{"a":{}}`, `[{}]`, `1`, `[1]`) {
		for _, wrap := range []struct {
			open, close string
			n           int // times open is repeated; `{"a":[` opens two levels
		}{{"[", "]", maxDepth - 1}, {`{"inline":`, "}", maxDepth - 1}, {`{"a":[`, "]}", (maxDepth - 1) / 2}} {
			deep := []byte(strings.Repeat(wrap.open, wrap.n) + s + strings.Repeat(wrap.close, wrap.n))
			if got, want := walk(deep, nil) != notJSON, json.Valid(deep); got != want {
				t.Errorf("%q inside %d×%s: walker valid %v, json.Valid %v", s, wrap.n, wrap.open, got, want)
			}
		}
	}
}
