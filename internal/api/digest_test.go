package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// referenceDigest is the digest's definition as it was first written: each
// byte folded as a zero-extended word through sparse.FNVMix64, eight
// multiplies a byte. DigestBytes must equal it on every input.
func referenceDigest(b []byte) string {
	h := uint64(sparse.FNV1aOffset64)
	for _, c := range b {
		h = sparse.FNVMix64(h, uint64(c))
	}
	return fmt.Sprintf("fnv1a:%016x", h)
}

// goldenBody returns the compact bytes, newline included, of one response
// body recorded in the shard's wire golden.
func goldenBody(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("../server/testdata/wire_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cells []struct {
		Name string          `json:"name"`
		Body json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(raw, &cells); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Name == name {
			var buf bytes.Buffer
			if err := json.Compact(&buf, c.Body); err != nil {
				t.Fatal(err)
			}
			return append(buf.Bytes(), '\n')
		}
	}
	t.Fatalf("no cell %q in the wire golden", name)
	return nil
}

// TestDigestVectors pins the digest's values. They are wire format: a
// router or client of another build verifies what this one stamps.
func TestDigestVectors(t *testing.T) {
	if got := sparse.FNVMix64(1, 0); got != digestPrime {
		t.Fatalf("digestPrime = %#x, want the word fold of a zero byte %#x", uint64(digestPrime), got)
	}
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		// The empty body leaves the FNV-1a offset basis untouched.
		{"empty", nil, "fnv1a:cbf29ce484222325"},
		// Not FNV-1a's "a" (af63dc4c8601ec8c): the byte is folded as a word.
		{"a", []byte("a"), "fnv1a:6926124a7b1433c4"},
		{"wire golden single inline", goldenBody(t, "single inline"), "fnv1a:3a8d5d1e5379a038"},
	} {
		if got := DigestBytes(c.body); got != c.want {
			t.Errorf("%s: DigestBytes = %q, want %q", c.name, got, c.want)
		}
		if ref := referenceDigest(c.body); ref != c.want {
			t.Errorf("%s: reference digest = %q, want %q", c.name, ref, c.want)
		}
	}
}

func TestDigestBytesFormat(t *testing.T) {
	a := DigestBytes([]byte(`{"schema":1}`))
	if !strings.HasPrefix(a, "fnv1a:") || len(a) != len("fnv1a:")+16 {
		t.Errorf("digest %q: want fnv1a: plus 16 hex digits", a)
	}
	if b := DigestBytes([]byte(`{"schema":2}`)); b == a {
		t.Errorf("distinct bodies share digest %q", a)
	}
	if again := DigestBytes([]byte(`{"schema":1}`)); again != a {
		t.Errorf("digest not stable: %q vs %q", again, a)
	}
}

func TestVerifyDigest(t *testing.T) {
	body := []byte(`{"schema":1,"served_by":"s0"}` + "\n")
	stamp := DigestBytes(body)
	if !VerifyDigest(stamp, body) {
		t.Error("correct stamp rejected")
	}
	// An empty stamp verifies trivially: pre-digest peers stay routable.
	if !VerifyDigest("", body) {
		t.Error("unstamped response rejected")
	}
	corrupt := append([]byte(nil), body...)
	corrupt[5] ^= 0x01
	if VerifyDigest(stamp, corrupt) {
		t.Error("single-bit corruption passed verification")
	}
	if VerifyDigest(stamp, body[:len(body)-1]) {
		t.Error("truncated body passed verification")
	}
	for _, bad := range []string{strings.ToUpper(stamp), stamp[len("fnv1a:"):], stamp + " ", "fnv1a:"} {
		if VerifyDigest(bad, body) {
			t.Errorf("stamp %q verified", bad)
		}
	}
}

// TestDigestAllocs: a verify allocates nothing, a stamp only its string.
func TestDigestAllocs(t *testing.T) {
	body := goldenBody(t, "single inline")
	stamp := DigestBytes(body)
	if n := testing.AllocsPerRun(100, func() {
		if !VerifyDigest(stamp, body) {
			t.Fatal("stamp does not verify")
		}
	}); n != 0 {
		t.Errorf("VerifyDigest: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { stamp = DigestBytes(body) }); n != 1 {
		t.Errorf("DigestBytes: %v allocs, want 1", n)
	}
}

// BenchmarkDigestBytes prices the digest against its reference loop in one
// binary, so both read the same code layout.
func BenchmarkDigestBytes(b *testing.B) {
	body := bytes.Repeat([]byte(`{"schema":1,"rho":0.1234}`), 4096/25+1)[:4096]
	for _, impl := range []struct {
		name   string
		digest func([]byte) string
	}{{"reference", referenceDigest}, {"DigestBytes", DigestBytes}} {
		b.Run(impl.name+"/4KiB", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for range b.N {
				impl.digest(body)
			}
		})
	}
}

// FuzzDigestBytes holds DigestBytes to its reference definition on any
// bytes, and VerifyDigest to catching any single flipped bit: the fold is
// a bijection of the state for a fixed byte, so two bodies that differ in
// one byte never share a digest.
func FuzzDigestBytes(f *testing.F) {
	f.Add([]byte{}, uint(0), uint8(0))
	f.Add([]byte("a"), uint(0), uint8(7))
	f.Add([]byte(`{"schema":1,"served_by":"s0"}`+"\n"), uint(5), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 300), uint(299), uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, pos uint, bit uint8) {
		want := referenceDigest(body)
		if got := DigestBytes(body); got != want {
			t.Fatalf("DigestBytes = %q, reference %q", got, want)
		}
		if !VerifyDigest(want, body) {
			t.Fatal("reference stamp does not verify")
		}
		if len(body) == 0 {
			return
		}
		flipped := append([]byte(nil), body...)
		flipped[pos%uint(len(body))] ^= 1 << (bit % 8)
		if VerifyDigest(want, flipped) {
			t.Fatalf("flip of bit %d at byte %d passed verification", bit%8, pos%uint(len(body)))
		}
	})
}

// TestWriteJSONStampsDigest pins the producer half of the integrity
// contract: every WriteJSON body carries a digest header that verifies
// over the exact bytes written, trailing newline included.
func TestWriteJSONStampsDigest(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusTeapot, map[string]int{"schema": SchemaVersion})

	if rec.Code != http.StatusTeapot {
		t.Errorf("status %d, want %d", rec.Code, http.StatusTeapot)
	}
	body := rec.Body.Bytes()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("body %q: want newline-terminated JSON", body)
	}
	stamp := rec.Header().Get(DigestHeader)
	if stamp == "" {
		t.Fatal("no digest header stamped")
	}
	if !VerifyDigest(stamp, body) {
		t.Errorf("stamp %q does not verify over the written body %q", stamp, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var out map[string]int
	if err := json.Unmarshal(body, &out); err != nil || out["schema"] != SchemaVersion {
		t.Errorf("body round-trip failed: %v, %v", out, err)
	}
}
