package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/sparse"
)

// InlineBytes is a request body's "inline" member kept as the JSON it
// arrived in — every occurrence of it, in order, null included, each a span
// of the body (SplitInline) — for the tiers, which name an operand by the
// SHA-256 of its bytes (Sum) and parse it only to fill a shard's cache.
// Parse decodes the occurrences in turn as encoding/json decodes them into a
// *InlineCSR field. An InlineCSR decoded from JSON holds the parsed operand
// itself.
type InlineBytes struct {
	raw [][]byte
}

// MarshalInline keeps ic as the bytes encoding/json writes for it, which
// are the bytes Client sends as a request's "inline" member.
func MarshalInline(ic *InlineCSR) (InlineBytes, error) {
	b, err := json.Marshal(ic)
	return InlineBytes{raw: [][]byte{b}}, err
}

// inlineWords is the operand's wire form (see the package doc): the arrays
// as the bytes of their words, which encoding/json writes as base64.
// InlineCSR.MarshalJSON writes it, and Client marshals it in place of the
// request's operand, so that encoding/json writes its bytes natively
// instead of compacting a Marshaler's output again: both write the same
// bytes.
type inlineWords struct {
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	Rowidx []byte `json:"rowidx"`
	Colid  []byte `json:"colid"`
	Val    []byte `json:"val"`
}

// words encodes ic's arrays as little-endian words, int32 for the indices
// and IEEE-754 binary64 for the values; a nil array stays nil (null on the
// wire). An index outside int32 is refused.
func (ic *InlineCSR) words() (*inlineWords, error) {
	w := &inlineWords{Rows: ic.Rows, Cols: ic.Cols}
	var err error
	if w.Rowidx, err = indexWords(ic.Rowidx, "rowidx"); err != nil {
		return nil, err
	}
	if w.Colid, err = indexWords(ic.Colid, "colid"); err != nil {
		return nil, err
	}
	if ic.Val != nil {
		w.Val = make([]byte, 8*len(ic.Val))
		for k, v := range ic.Val {
			binary.LittleEndian.PutUint64(w.Val[8*k:], math.Float64bits(v))
		}
	}
	return w, nil
}

// indexWords encodes x as little-endian int32 words, refusing an index
// outside int32.
func indexWords(x []int, name string) ([]byte, error) {
	if x == nil {
		return nil, nil
	}
	b := make([]byte, 4*len(x))
	for k, v := range x {
		if v != int(int32(v)) {
			return nil, fmt.Errorf("%s[%d] = %d does not fit an int32 word", name, k, v)
		}
		binary.LittleEndian.PutUint32(b[4*k:], uint32(v))
	}
	return b, nil
}

// MarshalJSON writes the operand's wire form.
func (ic InlineCSR) MarshalJSON() ([]byte, error) {
	w, err := ic.words()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the operand's wire form as decodeObject does; null,
// by encoding/json's convention, is no change.
func (ic *InlineCSR) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	return ic.decodeObject(b)
}

// SplitInline walks a request body once, validating it as json.Valid
// does, and splits out the operand: op holds the value of every top-level
// member whose key encoding/json maps to an "inline" field, as spans of
// src, and rest is src with each of those values replaced by null. Decoding
// rest with encoding/json then does everything decoding src would, except
// the operand's decode, and never scans the operand's bytes. When src has no
// such member, or is not valid JSON, rest is src itself, which
// encoding/json refuses in the words of its own syntax error.
func SplitInline(src []byte) (op InlineBytes, rest []byte) {
	var spans [][2]int
	valid := walk(src, func(key []byte, start, end int) {
		if keyIs(key, "inline") {
			spans = append(spans, [2]int{start, end})
		}
	}) != notJSON
	if !valid || len(spans) == 0 {
		return InlineBytes{}, src
	}
	op.raw = make([][]byte, len(spans))
	n := len(src)
	for _, s := range spans {
		n += len("null") - (s[1] - s[0])
	}
	rest = make([]byte, 0, n)
	prev := 0
	for k, s := range spans {
		op.raw[k] = src[s[0]:s[1]:s[1]]
		rest = append(append(rest, src[prev:s[0]]...), "null"...)
		prev = s[1]
	}
	return op, append(rest, src[prev:]...)
}

// Present reports whether the member names an operand: it occurred, and
// its last occurrence is not null (encoding/json sets a *InlineCSR field
// to nil on null).
func (o *InlineBytes) Present() bool {
	return len(o.raw) > 0 && string(o.raw[len(o.raw)-1]) != "null"
}

// Sum is the SHA-256 of the kept occurrences, each prefixed by its length.
// Equal sums mean equal bytes, so Parse's outcome for them is equal too.
func (o *InlineBytes) Sum() (sum [sha256.Size]byte) {
	h := sha256.New()
	var n [8]byte
	for _, b := range o.raw {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	h.Sum(sum[:0])
	return sum
}

// Parse decodes the kept occurrences in turn, refusing exactly what
// encoding/json refuses when it decodes them into a *InlineCSR field —
// an occurrence a later null dropped included — and returns the operand
// that field would hold (nil when not Present). encoding/json hands each
// occurrence but null to InlineCSR.UnmarshalJSON, so both decode it alike.
func (o *InlineBytes) Parse() (*InlineCSR, error) {
	var f *InlineCSR
	for _, b := range o.raw {
		if string(b) == "null" {
			f = nil
			continue
		}
		if f == nil {
			f = new(InlineCSR)
		}
		if err := f.decodeObject(b); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ToCSR parses a Present operand and admits it as InlineCSR.toCSR does. A
// member that is not an object of InlineCSR's shape, or whose arrays are
// not base64 strings of whole words, is refused with an "inline matrix:"
// error.
func (o *InlineBytes) ToCSR() (*sparse.CSR, error) {
	ic, err := o.Parse()
	if err == nil && ic == nil {
		err = errors.New("no operand")
	}
	if err != nil {
		return nil, fmt.Errorf("inline matrix: %w", err)
	}
	return ic.toCSR()
}

// decodeObject decodes one occurrence of the operand — a valid JSON value
// other than null, as SplitInline keeps it — into f as encoding/json
// decodes it into inlineWords: a refusal for anything but an object, and
// each member in order into the field its key names, matched as
// encoding/json matches it (unquoted, then equal under Unicode case
// folding; no two of the fields fold alike), rows and cols by encoding/json
// and the arrays by decodeWords. Unknown keys are skipped. The arrays are read once by the walker and once by decodeWords.
func (f *InlineCSR) decodeObject(b []byte) error {
	var err error
	if walk(b, func(key []byte, start, end int) {
		if err != nil {
			return
		}
		switch v := b[start:end]; {
		case keyIs(key, "rows"):
			err = json.Unmarshal(v, &f.Rows)
		case keyIs(key, "cols"):
			err = json.Unmarshal(v, &f.Cols)
		case keyIs(key, "rowidx"):
			f.Rowidx, err = decodeWords(v, "rowidx", 4, indices)
		case keyIs(key, "colid"):
			f.Colid, err = decodeWords(v, "colid", 4, indices)
		case keyIs(key, "val"):
			f.Val, err = decodeWords(v, "val", 8, values)
		}
	}) != object {
		return errNotObject
	}
	return err
}

// decodeWords decodes one array member — a valid JSON value — as
// encoding/json decodes a string or null into a []byte field, and refuses
// any other value, then a length that is not a whole number of size-byte
// words; read cuts the bytes into the words (null stays nil). A string
// without an escape is decoded in place; encoding/json would unquote it to
// the same bytes (invalid UTF-8 becomes U+FFFD, which base64 refuses as it
// refuses the byte it replaces). base64.StdEncoding skips '\r' and '\n', as
// encoding/json's decode does.
func decodeWords[T int | float64](v []byte, name string, size int, read func([]byte) []T) ([]T, error) {
	var w []byte
	switch {
	case v[0] == 'n':
		return nil, nil
	case v[0] != '"':
		return nil, fmt.Errorf("%s: not a base64 string", name)
	case bytes.IndexByte(v, '\\') < 0:
		s := v[1 : len(v)-1]
		w = make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(w, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		w = w[:n]
	default:
		if err := json.Unmarshal(v, &w); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if len(w)%size != 0 {
		return nil, fmt.Errorf("%s: %d bytes is not a whole number of %d-byte words", name, len(w), size)
	}
	return read(w), nil
}

// indices reads b as little-endian int32 words.
func indices(b []byte) []int {
	x := make([]int, len(b)/4)
	for k := range x {
		x[k] = int(int32(binary.LittleEndian.Uint32(b[4*k:])))
	}
	return x
}

// values reads b as little-endian IEEE-754 binary64 words.
func values(b []byte) []float64 {
	x := make([]float64, len(b)/8)
	for k := range x {
		x[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
	return x
}

// errNotObject refuses an operand that is not a JSON object.
var errNotObject = errors.New("not an object")

// keyIs reports whether encoding/json maps an object key — key as
// written, quotes included — to the field name (ASCII): unquoted, then
// equal under Unicode case folding. A key without an escape is compared
// in place: a rune is at most 4 bytes, so a longer key cannot fold to
// name, and a shorter one converts to a string in a stack buffer, without
// allocating.
func keyIs(key []byte, name string) bool {
	inner := key[1 : len(key)-1]
	if bytes.IndexByte(inner, '\\') >= 0 {
		var s string
		json.Unmarshal(key, &s) // a valid JSON string: the walker has read it
		return strings.EqualFold(s, name)
	}
	return len(inner) <= 4*len(name) && strings.EqualFold(string(inner), name)
}

// maxDepth is encoding/json's limit on nested arrays and objects: a value
// inside more of them is a syntax error.
const maxDepth = 10000

// walkResult is what walk found.
type walkResult int

const (
	notJSON   walkResult = iota // b is not valid JSON
	notObject                   // a valid value other than an object
	object                      // a valid object
)

// walk validates b — one JSON value with optional surrounding whitespace —
// in one pass, accepting exactly what json.Valid accepts: the value
// grammar, string escapes and control bytes, the number grammar, literals,
// whitespace and maxDepth. While the value is an object, visit is called
// for each of its members in order, with the member's key as written
// (quotes and escapes included) and its value at b[start:end]; each member
// visited is valid, though a later byte may still make b invalid.
func walk(b []byte, visit func(key []byte, start, end int)) walkResult {
	i := skipSpace(b, 0)
	res := notObject
	var end int
	if i < len(b) && b[i] == '{' {
		res = object
		end = scanObject(b, i, 1, visit)
	} else {
		end = scanValue(b, i, 0)
	}
	if end < 0 || skipSpace(b, end) != len(b) {
		return notJSON
	}
	return res
}

// scanValue returns the end of the valid JSON value starting at b[i], or
// -1 if none starts there. depth counts the arrays and objects around it.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		return scanString(b, i)
	case '{':
		return scanObject(b, i, depth+1, nil)
	case '[':
		return scanArray(b, i, depth+1)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	return scanNumber(b, i)
}

// scanArray returns the end of the valid array opening at b[i], at nesting
// depth depth, or -1.
func scanArray(b []byte, i, depth int) int {
	if depth > maxDepth {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = scanValue(b, i, depth); i < 0 {
			return -1
		}
		if i = skipSpace(b, i); i == len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1
		default:
			return -1
		}
	}
}

// scanObject returns the end of the valid object opening at b[i], at
// nesting depth depth, or -1, calling visit (when not nil) for each member
// as walk describes.
func scanObject(b []byte, i, depth int, visit func(key []byte, start, end int)) int {
	if depth > maxDepth {
		return -1
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		end := scanString(b, i)
		if end < 0 {
			return -1
		}
		key := b[i:end]
		if i = skipSpace(b, end); i == len(b) || b[i] != ':' {
			return -1
		}
		start := skipSpace(b, i+1)
		if end = scanValue(b, start, depth); end < 0 {
			return -1
		}
		if visit != nil {
			visit(key, start, end)
		}
		if i = skipSpace(b, end); i == len(b) {
			return -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1
		default:
			return -1
		}
	}
}

// scanString returns the end of the valid string opening at b[i], past its
// closing quote, or -1: a control byte, or an escape other than \", \\,
// \/, \b, \f, \n, \r, \t and \u with four hex digits, is invalid. Other
// bytes, invalid UTF-8 included, are accepted as json.Valid accepts them.
// The span up to the next quote is taken whole when it holds neither an
// escape nor a control byte (a word array is one long such string); only
// a span that holds one is read byte by byte.
func scanString(b []byte, i int) int {
	if q := bytes.IndexByte(b[i+1:], '"'); q >= 0 && plain(b[i+1:i+1+q]) {
		return i + q + 2
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// plain reports whether s holds neither a backslash nor a control byte.
func plain(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return false
		}
	}
	return true
}

// scanLiteral returns the end of lit at b[i], or -1 if b does not spell it
// there.
func scanLiteral(b []byte, i int, lit string) int {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return -1
	}
	return i + len(lit)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanNumber returns the end of the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if none starts
// there.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i = digits(b, i); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); i < 0 {
			return -1
		}
	}
	return i
}

// digits returns the end of the run of decimal digits at b[i], or -1 if
// none starts there.
func digits(b []byte, i int) int {
	j := i
	for j < len(b) && b[j]-'0' < 10 {
		j++
	}
	if j == i {
		return -1
	}
	return j
}
