package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// sameArray reports whether two decoded arrays agree: the same nil-ness,
// length and bits.
func sameArray[T any](got, want []T, bits func(T) uint64) bool {
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
		sameArray(got.Rowidx, want.Rowidx, intBits) &&
		sameArray(got.Colid, want.Colid, intBits) &&
		sameArray(got.Val, want.Val, math.Float64bits)
}

// occurrences keeps every value encoding/json hands an Unmarshaler field,
// as the reference for what SplitInline splits out.
type occurrences [][]byte

func (o *occurrences) UnmarshalJSON(b []byte) error {
	*o = append(*o, bytes.Clone(b))
	return nil
}

// refWords is the reference for one array member of an operand:
// encoding/json decodes a string or null into a []byte, as it decodes a
// []byte field, and the bytes must be whole words of W; an array, which
// encoding/json would take as a byte array, is refused.
type refWords[W uint32 | uint64] []byte

func (r *refWords[W]) UnmarshalJSON(v []byte) error {
	if v[0] == '[' {
		return errors.New("an array where a string is due")
	}
	if err := json.Unmarshal(v, (*[]byte)(r)); err != nil {
		return err
	}
	if len(*r)%binary.Size(W(0)) != 0 {
		return errors.New("not a whole number of words")
	}
	return nil
}

// refOperand is the reference for an operand: encoding/json decodes it
// into this struct, and csr reads the words.
type refOperand struct {
	Rows   int              `json:"rows"`
	Cols   int              `json:"cols"`
	Rowidx refWords[uint32] `json:"rowidx"`
	Colid  refWords[uint32] `json:"colid"`
	Val    refWords[uint64] `json:"val"`
}

func (r *refOperand) csr() *InlineCSR {
	ic := &InlineCSR{Rows: r.Rows, Cols: r.Cols}
	for _, a := range []struct {
		b   []byte
		dst *[]int
	}{{r.Rowidx, &ic.Rowidx}, {r.Colid, &ic.Colid}} {
		if a.b != nil {
			w := make([]int32, len(a.b)/4)
			binary.Read(bytes.NewReader(a.b), binary.LittleEndian, w)
			*a.dst = make([]int, len(w))
			for k, v := range w {
				(*a.dst)[k] = int(v)
			}
		}
	}
	if r.Val != nil {
		ic.Val = make([]float64, len(r.Val)/8)
		binary.Read(bytes.NewReader(r.Val), binary.LittleEndian, ic.Val)
	}
	return ic
}

// operandSeeds are FuzzOperandArrays' seeds, which TestWalkNestingLimit also
// runs at encoding/json's nesting limit. The first are array members: words
// and every refusal of one — a number array where a string is due, a byte
// outside the base64 alphabet, bad padding, a length that is not a whole
// number of words — then NaN, +Inf and a negative index, which decode and
// which the shard's admission refuses; escapes, and the \r and \n base64
// skips. The number arrays and operands in decimal that follow hold the
// walker's number grammar and whitespace to json.Valid; as an operand's
// member each is refused, as an array or as no string.
var operandSeeds = []string{
	`"AAAAAAEAAAA="`, `"AAAAAAAAAEA="`, `""`, `null`, ` null `, `[0,1]`, `[]`, `[1.5]`, `5`, `true`, `{}`,
	`"!AAA"`, `"AA-_"`, `"AAA="`, `"AA=="`, `"A==="`, `"AA=A"`, `"AAAA===="`, `"AAAAA"`, `"AAAAAA=="`, `"AAAAAAA="`,
	`"AAAAAAAA+H8="`, `"AAAAAAAA8H8="`, `"AAAAAAAA8P8="`, `"/////w=="`, `"AAAAgA=="`,
	`"AAAA\nAAAA"`, `"AAAA\r\nAAAA"`, `"AAAA\tAAAA"`, `"\/////w=="`, `"\u0041AAAAAAAAAA="`, `"AAAAAAA\u003d"`,
	`"\u00e9AAA"`, "\"\xff\xfeAA\"", "\"AA\tAA\"", `"AAAA`, `"x"`,
	`[1,2,3]`, ` [ 0 , -0 , null , 17 ] `, `[ ]`, `[null]`, `nul`, `[nul]`,
	`[1.0]`, `[1e2]`, `[1E+2]`, `[-1e-2]`, `[1e999]`, `[-1e999]`, `[1e-400]`, `[0e999]`, `[2.5e-3,1e22,1e23]`,
	`[9007199254740993]`, `[0.1000000000000000055511151231257827021181583404541015625]`,
	`[4.9406564584124654e-324]`, `[1.7976931348623157e308]`, `[1.7976931348623159e308]`,
	`[9223372036854775807]`, `[-9223372036854775808]`, `[9223372036854775808]`, `[123456789012345678]`,
	`[[1],2]`, `[{"a":1}]`, `["1"]`, `[true]`, `[,1]`, `[1.]`, `[.5]`, `[-]`, `[+1]`,
	`[1] `, "[\t1\n,\r2]", `7`, ``, `[`,
	`{"rows":2,"cols":2,"rowidx":[0,1,2],"colid":[0,1],"val":[1,2]}`,
	`{"ROWS":1,"Cols":1,"rowIdx":[0,1],"colid":[0],"val":[3],"extra":{"val":[9]}}`,
	`{"rowidx":[1,2,3],"rowidx":[4],"rowidx":[null,null,null,null]}`,
	`{"val":[1.5,2.5],"val":null,"val":[null]}`, `{"val":[],"val":[null,7]}`, `{"rows":3,"colid":[1e2]}`,
	`{"inline":{"rows":1,"val":[1,2]},"Inline":{"val":[null]}}`,
	`{"inline":{"val":[1e999]},"inline":null,"inline":{"cols":2}}`, `{"rowſ":1,"\u0063OLS":2,"Val":[1],"vaL":[2,3]}`,
	`{"rows":2,"cols":2,"rowidx":"AAAAAAEAAAACAAAA","colid":"AAAAAAEAAAA=","val":"AAAAAAAA8D8AAAAAAAAAQA=="}`,
	`{"ROWS":1,"Cols":1,"rowIdx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"AAAAAAAACEA=","extra":{"val":[9]}}`,
	`{"rowidx":"AQAAAAIAAAADAAAA","rowidx":"BAAAAA==","rowidx":null}`,
	`{"val":"AAAAAAAA+D8AAAAAAAAEQA==","val":null,"val":"AAAAAAAAHEA="}`, `{"rows":5,"rows":null,"cols":"5"}`,
	`{"val":"","val":[7]}`, `{"val":"AAAA","val":"AAAAAAAAHEA="}`, `{"rows":3,"colid":[1]}`, `{"rows":1e2}`, `[{"rows":1}]`,
	`{"inline":{"rows":1,"val":"AAAAAAAA8D8="},"Inline":{"val":null}}`,
	`{"inline":{"rows":1},"inline":null}`, `{"inline":{"rows":"1"},"inline":null}`,
	`{"inline":{"val":"AAA"},"inline":null,"inline":{"cols":2}}`, `{"inline":null,"inline":[1]}`,
	`{"rowſ":1,"\u0063OLS":2,"Val":"AAAAAAAA8D8=","vaL":"AAAAAAAAAEA="}`, `{"inline":5}`, `{"INLINE":"x"}`, `{"inline":{"rows":1}} `, `{"inline":{}}x`,
	`{"\u0069nline":{"rows":1},"in\u004cine":{"cols":1},"inline\u0000":7,"\"inline":8}`,
	`{"a":"\ud800\udc00\/\b\f\n\r\t\"\\","b":"\u00e9\uDBFF"}`, `"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"", "\"\xff\xfe\"",
	` {"inline" : [ 1 , { "x" : [ ] } ] , "seed" : 3 } `, `{"inline":{},}`, `{"inline"}`, `{"inline":}`, `{,}`, `{"a":1 "b":2}`,
	`[true,false,null]`, `[tru]`, `[nulll]`, `-0.0e-0`, `-01`, `1e`, `1e+`, "\ufeff{}", `[1,]`, `[01]`, `[1 2]`, `[1]x`,
	`[[1]]`, `[{"a":[]}]`, `{"inline":[[]]}`, `[[`, `]]`, "\"\x1f\"", "\"\x20\x7f\"", `"a\"b"`, `"a\\"`, `"\\"x"`,
	`"AAAAAAAAAAAA\/AAAA"`, "\"AAAAAAAAAAAA\x1fAAA\"", "\"AAAAAAAA\x80\xff\x7f\x20AAAA\"", `"AAAAAAAAAAAAAAA\"`,
}

// FuzzOperandArrays holds the walker and the operand decoder to
// encoding/json on any bytes. As each array member of an operand, and
// quoted as one, the bytes decode through decodeObject exactly as
// encoding/json decodes a string or null into a []byte field and the bytes
// are cut into words (refOperand): the same accept or refuse decision and,
// when accepted, the same nil-ness and bit-identical words — escapes,
// '\r' and '\n' (which base64 skips), bad padding, bytes outside the
// alphabet, lengths that are not whole words and arrays where a string is
// due. As a request body, as a string and as the operand of one, the
// walker — its whole-span string path included — accepts exactly what
// json.Valid accepts (at the nesting limit too: TestWalkNestingLimit);
// SplitInline leaves an invalid body whole, for encoding/json to refuse,
// and from a valid one splits out the very occurrences an Unmarshaler
// field named "inline" is handed; decoding the rest with encoding/json and
// parsing the occurrences is refused exactly when encoding/json refuses
// the body decoded into a *InlineCSR field, and otherwise holds the
// operand that field holds — case-insensitive and escaped keys, duplicate
// members decoded in turn and a later null dropping an earlier operand
// included. decodeObject never panics or hangs, even on bytes that are not
// JSON.
func FuzzOperandArrays(f *testing.F) {
	for _, s := range operandSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		quoted := append(append([]byte{'"'}, b...), '"')
		ops := [][]byte{b}
		for _, v := range [][]byte{b, quoted} {
			for _, name := range []string{"rowidx", "colid", "val"} {
				ops = append(ops, []byte(`{"`+name+`":`+string(v)+`}`))
			}
		}
		for _, op := range ops {
			var got InlineCSR
			gotErr := got.decodeObject(op) // any bytes, valid or not: no panic, no hang
			if !json.Valid(op) {
				if gotErr == nil {
					t.Fatalf("operand %q is not JSON, decoded to %+v", op, got)
				}
				continue
			}
			if string(bytes.TrimSpace(op)) == "null" {
				continue // Parse and UnmarshalJSON take null before decodeObject
			}
			var ref refOperand
			wantErr := json.Unmarshal(op, &ref)
			if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !sameOperand(&got, ref.csr()) {
				t.Fatalf("operand %q: %+v (err %v), encoding/json %+v (err %v)", op, got, gotErr, ref.csr(), wantErr)
			}
		}

		for _, body := range [][]byte{b, quoted, bytes.Join([][]byte{[]byte(`{"inline":`), b, []byte(`}`)}, nil)} {
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

// TestInlineCSRRoundTrip holds a plain InlineCSR to its wire form: the
// package doc's 1×1 example, a request decoded with an operand, duplicate
// members and all, that encodes back to the operand encoding/json read and
// decodes again to the same request — what a client that loads a recorded
// request and sends it again relies on — and Client's bodies, whose
// operand is the same bytes. An index outside int32 has no word and is
// refused.
func TestInlineCSRRoundTrip(t *testing.T) {
	one, err := json.Marshal(&InlineCSR{Rows: 1, Cols: 1, Rowidx: []int{0, 1}, Colid: []int{0}, Val: []float64{2}})
	if want := `{"rows":1,"cols":1,"rowidx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"AAAAAAAAAEA="}`; err != nil || string(one) != want {
		t.Fatalf("the 1×1 matrix [2] encoded %s (%v), want %s", one, err, want)
	}

	src := []byte(`{"solver":"cg","inline":{"rows":2,"cols":2,"rowidx":"AAAAAAEAAAACAAAA","colid":"AAAAAAEAAAA=",` +
		`"val":"AAAAAAAAEEA0MzMzMzPTPw==","val":"AAAAAAAAEkA="},"seed":3}`)
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
	const operand = `{"rows":2,"cols":2,"rowidx":"AAAAAAEAAAACAAAA","colid":"AAAAAAEAAAA=","val":"AAAAAAAAEkA="}`
	if encoded := `{"inline":` + operand + `,"solver":"cg","seed":3}`; string(out) != encoded {
		t.Fatalf("encoded %s, want %s", out, encoded)
	}
	var again SolveRequest
	if err := json.Unmarshal(out, &again); err != nil {
		t.Fatal(err)
	}
	if !sameOperand(again.Inline, want) || again.Solver != req.Solver || again.Seed != req.Seed {
		t.Fatalf("decoded again %+v, want %+v", again, req)
	}

	for _, in := range []any{&req, &BatchSolveRequest{SolveRequest: req, RHS: []BatchRHS{{Seed: 1}}}, &BatchSolveRequest{SolveRequest: req}} {
		body, err := marshalBody(in)
		if err != nil {
			t.Fatal(err)
		}
		if op, _ := SplitInline(body); len(op.raw) != 1 || string(op.raw[0]) != operand {
			t.Errorf("the client's body %s carries the operand %q, want %s", body, op.raw, operand)
		}
		plain, _ := json.Marshal(in)
		var got, want map[string]any
		if json.Unmarshal(body, &got) != nil || json.Unmarshal(plain, &want) != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("the client's body %s, json.Marshal's %s", body, plain)
		}
	}

	for _, ic := range []*InlineCSR{{Rowidx: []int{0, 1 << 31}}, {Colid: []int{-1<<31 - 1}}} {
		if _, err := json.Marshal(ic); err == nil || !strings.Contains(err.Error(), "does not fit an int32 word") {
			t.Errorf("%+v encoded, err %v", ic, err)
		}
		if _, err := marshalBody(&SolveRequest{Inline: ic}); err == nil {
			t.Errorf("the client encoded %+v", ic)
		}
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
