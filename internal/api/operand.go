package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
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
// that field would hold (nil when not Present).
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
// member that is not an object of InlineCSR's shape, or whose arrays hold a
// number an int or a float64 cannot (1.5 or 1e2 as an index, 1e999), is
// refused with an "inline matrix:" error.
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
// decodes it into the struct: a type error for anything but an object, and
// each member in order into the field its key names, matched as
// encoding/json matches it (unquoted, then equal under Unicode case
// folding; no two of the fields fold alike), rows and cols by encoding/json
// and the arrays by decodeArray. Unknown keys are skipped. The arrays are
// read once by the walker and once by decodeArray, never by encoding/json.
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
			f.Rowidx, err = decodeArray(v, f.Rowidx, parseInt)
		case keyIs(key, "colid"):
			f.Colid, err = decodeArray(v, f.Colid, parseInt)
		case keyIs(key, "val"):
			f.Val, err = decodeArray(v, f.Val, parseFloat)
		}
	}) != object {
		return errNotObject
	}
	return err
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
func scanString(b []byte, i int) int {
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

// scanLiteral returns the end of lit at b[i], or -1 if b does not spell it
// there.
func scanLiteral(b []byte, i int, lit string) int {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return -1
	}
	return i + len(lit)
}

// errNotNumbers refuses a value encoding/json would not decode into a
// slice of numbers: a syntax error, or a type error it reports as an
// UnmarshalTypeError.
var errNotNumbers = errors.New("not an array of numbers")

// decodeArray decodes b — one JSON value with optional surrounding
// whitespace — exactly as encoding/json decodes it into a slice whose
// current value is prev, refusing every input encoding/json refuses:
//   - null is a nil slice and [] a fresh empty one;
//   - an array is decoded element by element into prev's backing array,
//     grown as needed, then cut to the elements read; a null element keeps
//     what that slot held (zero in new capacity);
//   - a number is converted by conv; any other value is refused.
func decodeArray[T int | float64](b []byte, prev []T, conv func([]byte) (T, bool)) ([]T, error) {
	i := skipSpace(b, 0)
	if bytes.HasPrefix(b[i:], []byte("null")) && skipSpace(b, i+4) == len(b) {
		return nil, nil
	}
	if i == len(b) || b[i] != '[' {
		return prev, errNotNumbers
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		if skipSpace(b, i+1) != len(b) {
			return prev, errNotNumbers
		}
		return []T{}, nil
	}
	buf := prev[:cap(prev)]
	if len(buf) == 0 {
		buf = make([]T, bytes.Count(b, []byte(","))+1)
	}
	n := 0
	for {
		if n == len(buf) {
			buf = append(buf, 0)
			buf = buf[:cap(buf)]
		}
		switch {
		case bytes.HasPrefix(b[i:], []byte("null")):
			i += 4
		default:
			j := scanNumber(b, i)
			if j < 0 {
				return prev, errNotNumbers
			}
			v, ok := conv(b[i:j])
			if !ok {
				return prev, fmt.Errorf("%w: %s does not fit %T", errNotNumbers, b[i:j], v)
			}
			buf[n] = v
			i = j
		}
		n++
		if i = skipSpace(b, i); i == len(b) {
			return prev, errNotNumbers
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			if skipSpace(b, i+1) != len(b) {
				return prev, errNotNumbers
			}
			return buf[:n], nil
		default:
			return prev, errNotNumbers
		}
	}
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

// parseInt converts a JSON number to an int as encoding/json does: the
// literal must be an integer (no fraction or exponent) that fits.
func parseInt(lit []byte) (int, bool) {
	n, err := strconv.Atoi(string(lit))
	return n, err == nil
}

// parseFloat converts a JSON number to a float64 as encoding/json does,
// refusing a literal beyond the float64 range.
func parseFloat(lit []byte) (float64, bool) {
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}
