package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// Identity is the canonical cache identity of a solve request's matrix:
// named generator specs key on their canonical JSON, inline operands on a
// SHA-256 of their bytes. It is the single key space shared by the
// per-matrix artifact cache here and the consistent-hash placement in
// internal/router — both derive it through Decode, so the routing tier and
// the cache can never disagree about which requests share a matrix.
type Identity struct {
	// Key is the cache/routing key: "spec:{...}", or "inline:sha256:<hex>"
	// of the operand's bytes (api.InlineBytes.Sum).
	Key string
	// Label is the human-readable matrix name used in records, and Spec
	// the resolved generator spec. An inline operand has them once parsed:
	// its fingerprint, "inline:%016x", and Gen "inline" with N its rows.
	Label string
	Spec  harness.MatrixSpec
	// Build materialises the matrix; it runs at most once per cache
	// entry. An inline operand's parses its bytes and admits the matrix
	// (withShift). Routing-only callers never invoke it.
	Build func() (*sparse.CSR, error)

	// op is an inline operand not yet parsed (see parse).
	op *api.InlineBytes
}

// Decode is the decode rule of both tiers — the shard's admission and the
// router's routing key: src must be exactly one JSON value (anything but
// whitespace after it is refused), which is decoded into body, defaulted
// and validated, and the identity of its matrix (axes, the scenario axes
// body carries) is resolved. body is a *api.SolveRequest or a
// *api.BatchSolveRequest. One walk (api.SplitInline) validates src and
// splits out its inline operand; encoding/json then decodes the rest, so it
// never scans the operand, and refuses an invalid src itself, in the words
// of its own syntax error. A present operand is keyed by its bytes and not
// parsed: only a shard's cache fill parses it (Server.resident), so what
// the parse refuses the shard refuses and the router relays. axes.Inline
// is left an empty InlineCSR that marks it present — the identity, not the
// body, carries it. Every error it returns is the client's (400).
func Decode(src []byte, body SolveBody, axes *api.SolveRequest) (Identity, error) {
	op, rest := api.SplitInline(src)
	if err := json.Unmarshal(rest, body); err != nil {
		return Identity{}, fmt.Errorf("decoding request: %w", err)
	}
	if op.Present() {
		axes.Inline = new(api.InlineCSR)
	}
	body.WithDefaults()
	if err := body.Validate(); err != nil {
		return Identity{}, err
	}
	if op.Present() {
		return inlineIdentity(&op), nil
	}
	// An operand a later "inline":null dropped is still refused where
	// encoding/json refuses it.
	if _, err := op.Parse(); err != nil {
		return Identity{}, fmt.Errorf("inline matrix: %w", err)
	}
	return ResolveIdentity(axes)
}

// ResolveIdentity derives the identity of a request held in memory, which
// must already be validated (exactly one of Matrix and Inline set). An
// inline operand is keyed by the bytes encoding/json writes for it — the
// bytes api.Client sends — so it shares the identity Decode gives the body
// a client sends for it. The generators build nothing whose ‖A‖₁
// overflows, so only an inline operand's Build checks it (withShift).
func ResolveIdentity(req *api.SolveRequest) (Identity, error) {
	if req.Inline != nil {
		op, err := api.MarshalInline(req.Inline)
		if err != nil {
			return Identity{}, fmt.Errorf("inline matrix: %w", err)
		}
		return inlineIdentity(&op), nil
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

// inlineIdentity is the identity of an inline operand kept as bytes: keyed
// by their SHA-256, which makes a forged match infeasible, and built by
// parsing them. Two byte encodings of one matrix are two identities with
// the same answer.
func inlineIdentity(op *api.InlineBytes) Identity {
	sum := op.Sum()
	id := Identity{Key: "inline:sha256:" + hex.EncodeToString(sum[:]), op: op}
	id.Build = func() (*sparse.CSR, error) {
		parsed, err := id.parse()
		if err != nil {
			return nil, err
		}
		return parsed.Build()
	}
	return id
}

// parse parses and validates an inline identity's operand
// (api.InlineBytes.ToCSR) into the identity of the matrix it names:
// labelled by its fingerprint and sized by it, with a Build that admits it.
func (id Identity) parse() (Identity, error) {
	a, err := id.op.ToCSR()
	if err != nil {
		return Identity{}, err
	}
	return Identity{
		Key:   id.Key,
		Label: fmt.Sprintf("inline:%016x", a.Fingerprint()),
		Spec:  harness.MatrixSpec{Gen: "inline", N: a.Rows},
		Build: func() (*sparse.CSR, error) { return withShift(a) },
	}, nil
}

// withShift admits a parsed inline matrix to the shard's cache: the ABFT
// schemes have no encoding for a matrix whose ‖A‖₁ overflows
// (checksum.ErrNoShift), and a matrix the default scheme cannot serve is
// not admitted under any.
func withShift(a *sparse.CSR) (*sparse.CSR, error) {
	if _, err := checksum.ShiftK(a.Norm1()); err != nil {
		return nil, err
	}
	return a, nil
}
