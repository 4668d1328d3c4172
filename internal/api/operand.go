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

// InlineBytes is a request's "inline" member kept as the JSON it arrived
// in, for a tier that resolves a repeat operand by the SHA-256 of its bytes
// (server.OperandMemo) and parses it only when it must. Decoded as a
// struct field (not a pointer), it sees every occurrence of the member, in
// order, null included; Parse decodes them in turn as encoding/json decodes
// them into a *InlineCSR field. An InlineCSR decoded from JSON holds the
// parsed operand itself.
type InlineBytes struct {
	raw [][]byte
}

// UnmarshalJSON keeps a copy of one occurrence of the member.
func (o *InlineBytes) UnmarshalJSON(b []byte) error {
	o.raw = append(o.raw, bytes.Clone(b))
	return nil
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

// ToCSR parses a Present operand and admits it as InlineCSR.ToCSR does. A
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
	return ic.ToCSR()
}

// decodeObject decodes one occurrence of the operand — a JSON value other
// than null, valid as the json.Unmarshaler contract promises — into f as
// encoding/json decodes it into the struct: a type error for anything but
// an object, and each member in order into the field its key names,
// matched as encoding/json matches it (unquoted, then equal under Unicode
// case folding; no two of the fields fold alike), rows and cols by
// encoding/json and the arrays by decodeArray. Unknown keys are skipped.
// The arrays are read once: the members are split by hand, not by a second
// pass of encoding/json's scanner.
func (f *InlineCSR) decodeObject(b []byte) error {
	keys, vals, ok := members(b)
	if !ok {
		return errNotObject
	}
	for i, key := range keys {
		var name string
		if err := json.Unmarshal(key, &name); err != nil {
			return err
		}
		var err error
		switch v := vals[i]; {
		case strings.EqualFold(name, "rows"):
			err = json.Unmarshal(v, &f.Rows)
		case strings.EqualFold(name, "cols"):
			err = json.Unmarshal(v, &f.Cols)
		case strings.EqualFold(name, "rowidx"):
			f.Rowidx, err = decodeArray(v, f.Rowidx, parseInt)
		case strings.EqualFold(name, "colid"):
			f.Colid, err = decodeArray(v, f.Colid, parseInt)
		case strings.EqualFold(name, "val"):
			f.Val, err = decodeArray(v, f.Val, parseFloat)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errNotObject refuses an operand that is not a JSON object.
var errNotObject = errors.New("not an object")

// members splits the JSON object b into its members: each key as written,
// quotes and escapes included, and the bytes of its value. b must be valid
// JSON; ok is false when it is not an object.
func members(b []byte) (keys, vals [][]byte, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return nil, nil, false
	}
	i = skipSpace(b, i+1)
	for i < len(b) && b[i] == '"' {
		end := skipValue(b, i)
		key := b[i:end]
		if i = skipSpace(b, end); i == len(b) || b[i] != ':' {
			return nil, nil, false
		}
		start := skipSpace(b, i+1)
		end = skipValue(b, start)
		keys, vals = append(keys, key), append(vals, b[start:end])
		if i = skipSpace(b, end); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	return keys, vals, i < len(b) && b[i] == '}'
}

// skipValue returns the end of the valid JSON value starting at b[i]: a
// string's closing quote, the bracket that closes an array or object, or
// the first byte after a literal.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				return min(i+1, len(b))
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i // after a literal
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r', ':':
			if depth == 0 {
				return i
			}
		}
	}
	return len(b)
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
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanNumber returns the end of the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if none starts
// there.
func scanNumber(b []byte, i int) int {
	digits := func(i int) int {
		j := i
		for j < len(b) && b[j] >= '0' && b[j] <= '9' {
			j++
		}
		if j == i {
			return -1
		}
		return j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	default:
		if i = digits(i); i < 0 {
			return -1
		}
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(i + 1); i < 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(i); i < 0 {
			return -1
		}
	}
	return i
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
