package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/api"
	"repro/internal/checksum"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// Identity is the canonical cache identity of a solve request's matrix:
// named generator specs key on their canonical JSON, inline matrices on
// their CSR content fingerprint. It is the single key space shared by the
// per-matrix artifact cache here and the consistent-hash placement in
// internal/router — both resolve it through ResolveIdentity, so the
// routing tier and the cache can never disagree about which requests
// share a matrix.
type Identity struct {
	// Key is the cache/routing key ("spec:{...}" or "inline:%016x").
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
// values) because their fingerprint is only meaningful for a well-formed
// CSR. An inline matrix's Build — the shard's cache fill, which the router
// never runs — also refuses finite values whose ‖A‖₁ overflows: the ABFT
// schemes have no encoding for it (checksum.ErrNoShift), and a matrix the
// default scheme cannot serve is not admitted under any. The generators build
// nothing of that magnitude and are not checked.
func ResolveIdentity(req *api.SolveRequest) (Identity, error) {
	if req.Inline != nil {
		a, err := req.Inline.ToCSR()
		if err != nil {
			return Identity{}, err
		}
		label := fmt.Sprintf("inline:%016x", a.Fingerprint())
		return Identity{
			Key:   label,
			Label: label,
			Spec:  harness.MatrixSpec{Gen: "inline", N: a.Rows},
			Build: func() (*sparse.CSR, error) {
				if _, err := checksum.ShiftK(a.Norm1()); err != nil {
					return nil, err
				}
				return a, nil
			},
		}, nil
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
