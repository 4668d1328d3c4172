package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// Identity is the canonical cache identity of a solve request's matrix:
// named generator specs key on their canonical JSON, inline matrices on
// a SHA-256 of their CSR content. It is the single key space shared by the
// per-matrix artifact cache here and the consistent-hash placement in
// internal/router — both resolve it through ResolveIdentity, so the
// routing tier and the cache can never disagree about which requests
// share a matrix.
type Identity struct {
	// Key is the cache/routing key ("spec:{...}" or "inline:sha256:<hex>",
	// see inlineKey).
	Key string
	// Label is the human-readable matrix name used in records.
	Label string
	// Spec is the resolved generator spec (Gen "inline" for inline
	// matrices).
	Spec harness.MatrixSpec
	// Build materialises the matrix; it runs at most once per cache
	// entry. Routing-only callers never invoke it.
	Build func() (*sparse.CSR, error)
}

// ResolveIdentity derives the request's matrix identity. The request must
// already be validated (exactly one of Matrix and Inline set); inline
// matrices are validated here (api.InlineCSR.ToCSR: structure, finite
// values) because their key is only meaningful for a well-formed CSR. An
// inline matrix's Build — the shard's cache fill, which the router never
// runs — also refuses finite values whose ‖A‖₁ overflows: the ABFT schemes
// have no encoding for it (checksum.ErrNoShift), and a matrix the default
// scheme cannot serve is not admitted under any. The generators build
// nothing of that magnitude and are not checked. The tiers resolve a
// request they decode through their OperandMemo, which keeps its operand
// as bytes and parses them at most once.
func ResolveIdentity(req *api.SolveRequest) (Identity, error) {
	if req.Inline != nil {
		a, err := req.Inline.ToCSR()
		if err != nil {
			return Identity{}, err
		}
		return inlineIdentity(a), nil
	}
	if req.Matrix == nil {
		return Identity{}, fmt.Errorf("request names no matrix")
	}
	spec := *req.Matrix
	js, err := json.Marshal(spec)
	if err != nil {
		return Identity{}, err
	}
	return Identity{
		Key:   "spec:" + string(js),
		Label: spec.String(),
		Spec:  spec,
		Build: spec.Build,
	}, nil
}

// inlineIdentity is the identity of a parsed, validated inline matrix.
func inlineIdentity(a *sparse.CSR) Identity {
	return Identity{
		Key:   inlineKey(a),
		Label: fmt.Sprintf("inline:%016x", a.Fingerprint()),
		Spec:  harness.MatrixSpec{Gen: "inline", N: a.Rows},
		Build: func() (*sparse.CSR, error) { return withShift(a) },
	}
}

// withShift admits a parsed inline matrix to the shard's cache: the ABFT
// schemes have no encoding for a matrix whose ‖A‖₁ overflows
// (checksum.ErrNoShift).
func withShift(a *sparse.CSR) (*sparse.CSR, error) {
	if _, err := checksum.ShiftK(a.Norm1()); err != nil {
		return nil, err
	}
	return a, nil
}

// inlineKey is the cache and routing key of an inline matrix: a SHA-256
// over the words its Fingerprint hashes — Rows, Cols, Rowidx, Colid and the
// IEEE-754 bits of Val, each as 8 little-endian bytes, in that order. A
// validated CSR fixes the length of every array, so the word stream names
// one matrix. The 64-bit FNV-1a fingerprint stays the matrix's label in
// records; it is not collision-resistant, and a key it made would let a
// crafted operand be solved against another client's resident matrix.
func inlineKey(a *sparse.CSR) string {
	h := sha256.New()
	var buf [4096]byte
	n := 0
	word := func(w uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], w)
		n += 8
	}
	word(uint64(a.Rows))
	word(uint64(a.Cols))
	for _, r := range a.Rowidx {
		word(uint64(r))
	}
	for _, c := range a.Colid {
		word(uint64(c))
	}
	for _, v := range a.Val {
		word(math.Float64bits(v))
	}
	h.Write(buf[:n])
	return "inline:sha256:" + hex.EncodeToString(h.Sum(nil))
}
