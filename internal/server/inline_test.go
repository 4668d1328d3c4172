package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// inlineBody is a 1×1 operand request whose value is v.
func inlineBody(v int) []byte {
	return []byte(fmt.Sprintf(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[%d]}}`, v))
}

// fill is a shard's admission of body: Decode, then the cache fill.
func fill(s *Server, body []byte) (*entry, bool, error) {
	var req api.SolveRequest
	id, err := Decode(body, &req, &req)
	if err != nil {
		return nil, false, err
	}
	return s.resident(id)
}

// TestInlineFillConcurrent fills a few operands from many goroutines
// through one shard's cache: each operand is one entry, under one key and
// one label, missed once and hit by every other request. Only a request
// that misses parses, so each goroutine parses an operand at most once,
// and once every operand is resident a further round parses nothing.
func TestInlineFillConcurrent(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Shutdown)
	const operands, workers, rounds = 4, 8, 25
	labels := make([]sync.Map, operands)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				v := (w + r) % operands
				ent, _, err := fill(s, inlineBody(v+1))
				if err != nil {
					t.Error(err)
					return
				}
				labels[v].Store(ent.key, ent.label)
			}
		}()
	}
	wg.Wait()
	keys := map[string]bool{}
	for v := range labels {
		a := sparse.CSR{Rows: 1, Cols: 1, Rowidx: []int{0, 1}, Colid: []int{0}, Val: []float64{float64(v + 1)}}
		want := fmt.Sprintf("inline:%016x", a.Fingerprint())
		n := 0
		labels[v].Range(func(key, label any) bool {
			n++
			keys[key.(string)] = true
			if label != want {
				t.Errorf("operand %d labelled %q, want its fingerprint %q", v+1, label, want)
			}
			return true
		})
		if n != 1 {
			t.Errorf("operand %d resolved to %d identities", v+1, n)
		}
	}
	if len(keys) != operands {
		t.Errorf("%d operands under %d keys", operands, len(keys))
	}
	const requests = workers * rounds
	if c := s.cache.stats(); c.Misses != operands || c.Hits != requests-operands || c.Entries != operands {
		t.Errorf("cache %+v after %d requests for %d operands", c, requests, operands)
	}
	parsed := s.parsed.Load()
	if parsed < operands || parsed > operands*workers {
		t.Errorf("parsed %d times, want %d to %d", parsed, operands, operands*workers)
	}
	for v := range operands {
		if _, hit, err := fill(s, inlineBody(v+1)); err != nil || !hit {
			t.Errorf("operand %d again: hit %v, %v", v+1, hit, err)
		}
	}
	if got := s.parsed.Load(); got != parsed {
		t.Errorf("resident operands parsed again: %d after %d", got, parsed)
	}
}

// TestInlineShiftRefusalIsSticky fills an operand that parses and
// validates but whose column sums overflow: the refusal names the matrix by
// its fingerprint, and it stays in the cache as a sticky entry, so a repeat
// is refused again from the cache, unparsed.
func TestInlineShiftRefusalIsSticky(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Shutdown)
	body := []byte(`{"inline":{"rows":2,"cols":2,"rowidx":[0,1,3],"colid":[0,0,1],"val":[1e308,1e308,1]}}`)
	for i := range 2 {
		_, hit, err := fill(s, body)
		if !errors.Is(err, checksum.ErrNoShift) || !strings.HasPrefix(err.Error(), "matrix inline:") || hit != (i == 1) {
			t.Fatalf("fill %d: hit %v, error %v; want a refusal with checksum.ErrNoShift, hit %v", i, hit, err, i == 1)
		}
	}
	if c, parsed := s.cache.stats(), s.parsed.Load(); c.Entries != 1 || c.Misses != 1 || c.Hits != 1 || parsed != 1 {
		t.Errorf("cache %+v, parsed %d; want one sticky entry, missed and hit once, parsed once", c, parsed)
	}
}

// BenchmarkDecodeInline prices Decode — the whole decode rule of either
// tier, which keys an inline operand by the SHA-256 of its bytes without
// parsing it — of serve_mixed's two inline body shapes (a 1024-row
// randomspd operand, ≈ 219 KB, and a 1024-row laplacian one, ≈ 52 KB) and
// of a spec body.
func BenchmarkDecodeInline(b *testing.B) {
	rhs := int64(1)
	for _, bc := range []struct {
		name string
		spec harness.MatrixSpec
	}{
		{"randomspd", harness.MatrixSpec{Gen: "randomspd", N: 1024, Seed: 1001}},
		{"laplacian", harness.MatrixSpec{Gen: "laplacian", N: 1024, Seed: 1000}},
		{"spec", harness.MatrixSpec{Gen: "poisson2d", N: 256}},
	} {
		req := api.SolveRequest{Solver: "cg", Scheme: "abft-correction", Seed: 1, RHSSeed: &rhs}
		if bc.name == "spec" {
			req.Matrix = &bc.spec
		} else {
			a, err := bc.spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			req.Inline = &api.InlineCSR{Rows: a.Rows, Cols: a.Cols, Rowidx: a.Rowidx, Colid: a.Colid, Val: a.Val}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/%dKB", bc.name, len(body)>>10), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				var req api.SolveRequest
				if _, err := Decode(body, &req, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
