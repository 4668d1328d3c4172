package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/harness"
)

// inlineBody is a 1×1 operand request whose value is v.
func inlineBody(v int) []byte {
	return []byte(fmt.Sprintf(`{"inline":{"rows":1,"cols":1,"rowidx":[0,1],"colid":[0],"val":[%d]}}`, v))
}

// decodeBuild is a shard's use of the memo on a cache miss: decode, build.
func decodeBuild(t *testing.T, m *OperandMemo, body []byte) Identity {
	var req api.SolveRequest
	id, err := m.Decode(body, &req, &req)
	if err != nil {
		t.Error(err)
		return id
	}
	if _, err := id.Build(); err != nil {
		t.Error(err)
	}
	return id
}

// TestOperandMemoConcurrent decodes a few operands from many goroutines
// through one memo: every operand resolves to one identity, the counters
// add up, and once all are remembered a further round is recalled whole.
func TestOperandMemoConcurrent(t *testing.T) {
	m := NewOperandMemo()
	const operands, workers, rounds = 4, 8, 25
	keys := make([]sync.Map, operands)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := (w + r) % operands
				id := decodeBuild(t, m, inlineBody(v+1))
				keys[v].Store(id.Key, id.Label)
			}
		}()
	}
	wg.Wait()
	// Each decode parses once: at identity resolution, or in the Build of
	// a recalled identity.
	st := m.Stats()
	if st.Parsed != workers*rounds || st.Remembered == 0 {
		t.Errorf("stats %+v after %d decodes", st, workers*rounds)
	}
	for v := range keys {
		n := 0
		keys[v].Range(func(_, _ any) bool { n++; return true })
		if n != 1 {
			t.Errorf("operand %d resolved to %d keys", v+1, n)
		}
	}
	for v := 0; v < operands; v++ {
		decodeBuild(t, m, inlineBody(v+1))
	}
	if got := m.Stats(); got.Remembered != st.Remembered+operands || got.Parsed != st.Parsed+operands {
		t.Errorf("stats %+v after a round of remembered operands, want %d more recalls, each Build parsing (from %+v)", got, operands, st)
	}
}

// TestOperandMemoBounded holds the memo to operandMemoEntries operands: the
// least recently used is forgotten and parsed again, a recalled one stays.
func TestOperandMemoBounded(t *testing.T) {
	m := NewOperandMemo()
	for v := 1; v <= operandMemoEntries+1; v++ {
		decodeBuild(t, m, inlineBody(v))
		if v == operandMemoEntries/2 {
			decodeBuild(t, m, inlineBody(2)) // recalled: now the most recent
		}
	}
	if got := len(m.entries); got != operandMemoEntries {
		t.Fatalf("memo holds %d operands, bound %d", got, operandMemoEntries)
	}
	before := m.Stats()
	for _, v := range []int{2, 1} {
		var req api.SolveRequest
		if _, err := m.Decode(inlineBody(v), &req, &req); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats(); got.Remembered != before.Remembered+1 || got.Parsed != before.Parsed+1 {
		t.Errorf("stats %+v from %+v: want operand 2 recalled and the evicted operand 1 parsed", got, before)
	}
}

// TestOperandMemoRefusedBuild remembers an operand that parses and
// validates but whose column sums overflow: the recalled identity's Build
// parses it again and refuses it as the first one did.
func TestOperandMemoRefusedBuild(t *testing.T) {
	m := NewOperandMemo()
	body := []byte(`{"inline":{"rows":2,"cols":2,"rowidx":[0,1,3],"colid":[0,0,1],"val":[1e308,1e308,1]}}`)
	for i := 0; i < 2; i++ {
		var req api.SolveRequest
		id, err := m.Decode(body, &req, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := id.Build(); !errors.Is(err, checksum.ErrNoShift) {
			t.Fatalf("decode %d: Build error %v, want checksum.ErrNoShift", i, err)
		}
	}
	if got, want := m.Stats(), (api.InlineStats{Parsed: 2, Remembered: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// BenchmarkDecodeInline prices a warm-memo Decode — the whole decode rule of
// either tier on a repeat request — of serve_mixed's two inline body shapes
// (a 1024-row randomspd operand, ≈ 219 KB, and a 1024-row laplacian one,
// ≈ 52 KB) and of a spec body.
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
		m := NewOperandMemo()
		decode := func() {
			var req api.SolveRequest
			if _, err := m.Decode(body, &req, &req); err != nil {
				b.Fatal(err)
			}
		}
		decode() // the memo now holds the operand
		b.Run(fmt.Sprintf("%s/%dKB", bc.name, len(body)>>10), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for range b.N {
				decode()
			}
		})
	}
}
