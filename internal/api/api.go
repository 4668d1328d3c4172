// Package api is the single source of truth for the solve service's wire
// contract: every request and response body exchanged between clients
// (cmd/resload, the router's forwarding path, operators' scripts), the
// resident solve service (internal/server) and the sharded routing tier
// (internal/router) is defined here, schema-versioned, and consumed by
// all of them through one set of types — the server cannot drift from the
// clients because they marshal the same structs.
//
// The package also defines the unified error envelope (Error) every
// non-200 answer carries, and a small typed HTTP client (Client) over the
// whole surface.
//
// # Inline operands
//
// A request's "inline" member carries a matrix by content (InlineCSR) as
// the words of its CSR arrays:
//
//	{"rows":1,"cols":1,"rowidx":"AAAAAAEAAAA=","colid":"AAAAAA==","val":"AAAAAAAAAEA="}
//
// is the 1×1 matrix [2]. "rows" and "cols" are JSON numbers. "rowidx" and
// "colid" are base64 strings of little-endian int32 words, and "val" one of
// little-endian IEEE-754 binary64 words; base64 is what encoding/json
// writes for a []byte (standard alphabet, padded), and null is an absent
// array. An index outside int32 has no word: MarshalJSON and Client refuse
// it. A number array, a string that is not base64, or one whose length
// is not a whole number of words is refused, and so are NaN and ±Inf bits
// when the shard admits the matrix. The tiers name an operand by the
// SHA-256 of these bytes as sent (InlineBytes), so two spellings of one
// matrix are two cache entries with one answer.
package api

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/sparse"
)

// SchemaVersion identifies the request/response layout of the /v1 API
// (/v1/statusz on both tiers stamps the same version). Bump it on any
// incompatible change.
const SchemaVersion = 2

// MaxBatchRHS bounds the right-hand sides of one batch request.
const MaxBatchRHS = 64

// InlineCSR carries a matrix by content instead of by named generator
// spec: the standard CSR triplet plus the dimensions. Inline matrices are
// cached under a hash of their content, so resubmitting the same matrix
// hits the warm artifacts. Its JSON is the word form the package doc
// describes (MarshalJSON, UnmarshalJSON). The tiers decode a request's
// operand as InlineBytes instead, and parse it only when they must.
type InlineCSR struct {
	Rows   int
	Cols   int
	Rowidx []int
	Colid  []int
	Val    []float64
}

// toCSR assembles and validates the matrix: its structure, and that every
// value is finite. It is where a shard admits an operand that arrives by
// content, when a cache miss parses it (through InlineBytes.ToCSR, which
// parses it first); the router relays what it refuses. The wire's value
// words can spell NaN and ±Inf, and the finiteness check refuses them.
// Finite values whose column sums overflow are the shard's to refuse, once
// per matrix (the Build of a server.Identity). The solvers take square
// systems only, and a square matrix has no dimension the body has not paid
// for: Rows is bounded by len(Rowidx), so Cols may not be anything else (the
// shard's Build sizes a vector by it).
func (ic *InlineCSR) toCSR() (*sparse.CSR, error) {
	if ic.Rows != ic.Cols {
		return nil, fmt.Errorf("inline matrix: %dx%d is not square", ic.Rows, ic.Cols)
	}
	a := &sparse.CSR{
		Rows: ic.Rows, Cols: ic.Cols,
		Val: ic.Val, Colid: ic.Colid, Rowidx: ic.Rowidx,
	}
	if a.Val == nil {
		a.Val = []float64{}
	}
	if a.Colid == nil {
		a.Colid = []int{}
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("inline matrix: %w", err)
	}
	for k, v := range a.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("inline matrix: val[%d] is not finite", k)
		}
	}
	return a, nil
}

// SolveRequest is the body of POST /v1/solve. Exactly one of Matrix and
// Inline names the system; the remaining fields mirror the scenario axes
// (zero values select the harness defaults: solver cg, scheme
// abft-correction, fault-free).
type SolveRequest struct {
	// Schema must be 0 (current) or SchemaVersion.
	Schema int `json:"schema,omitempty"`
	// Matrix names a generator spec (shared with the campaign records).
	Matrix *harness.MatrixSpec `json:"matrix,omitempty"`
	// Inline carries the matrix by content.
	Inline *InlineCSR `json:"inline,omitempty"`
	// Solver is cg (default), pcg or bicgstab.
	Solver string `json:"solver,omitempty"`
	// Precond is the PCG preconditioner: jacobi (default) or neumann.
	Precond string `json:"precond,omitempty"`
	// Scheme is unprotected, online-detection, abft-detection or
	// abft-correction (default).
	Scheme string `json:"scheme,omitempty"`
	// Alpha is the expected silent errors per iteration (0 = fault-free).
	Alpha float64 `json:"alpha,omitempty"`
	// Tol is the relative residual tolerance (0 = solver default).
	Tol float64 `json:"tol,omitempty"`
	// MaxIters caps the useful iterations (0 = solver default).
	MaxIters int `json:"max_iters,omitempty"`
	// S and D override the model-optimal checkpoint and verification
	// intervals when > 0.
	S int `json:"s,omitempty"`
	D int `json:"d,omitempty"`
	// Seed bases the injector seeding (and the right-hand side unless
	// RHSSeed is set).
	Seed int64 `json:"seed,omitempty"`
	// RHSSeed, when set, seeds the manufactured right-hand side
	// independently of Seed (a pointer so 0 is expressible).
	RHSSeed *int64 `json:"rhs_seed,omitempty"`
	// TimeoutMillis bounds this request's total queue + solve time; 0
	// selects the server default, and the server's maximum clamps it.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// WithDefaults resolves the scenario-axis defaults the same way the
// harness does, so the scenario echoed in the result is fully explicit.
// Clients (cmd/resload) share it to name request cells canonically.
func (r *SolveRequest) WithDefaults() {
	if r.Solver == "" {
		r.Solver = "cg"
	}
	if r.Scheme == "" {
		r.Scheme = "abft-correction"
	}
	if r.Solver == "pcg" && r.Precond == "" {
		r.Precond = "jacobi"
	}
}

// Validate rejects malformed requests before they reach the queue.
func (r *SolveRequest) Validate() error {
	if r.Schema != 0 && r.Schema != SchemaVersion {
		return fmt.Errorf("unsupported schema %d (this server speaks %d)", r.Schema, SchemaVersion)
	}
	if (r.Matrix == nil) == (r.Inline == nil) {
		return fmt.Errorf("exactly one of \"matrix\" and \"inline\" must be set")
	}
	// A file spec names a path on the machine that builds the matrix: the
	// command line's (cgsolve -matrix), never a client's. Refused before
	// anything resolves the spec, so no tier opens what a request names.
	if r.Matrix != nil && (r.Matrix.Gen == "file" || r.Matrix.Path != "") {
		return fmt.Errorf("\"matrix\": file specs (gen \"file\", \"path\") are not accepted on the wire; send the matrix as \"inline\"")
	}
	if r.TimeoutMillis < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	return r.Scenario(harness.MatrixSpec{}, "request").Validate()
}

// Scenario shapes the request as a harness scenario against the resolved
// matrix spec. The name is derived from the axes and the matrix label, so
// identical requests map to identical scenario records.
func (r *SolveRequest) Scenario(spec harness.MatrixSpec, label string) harness.Scenario {
	sc := harness.Scenario{
		Name:     "serve/" + r.Solver + "/" + r.Scheme + "/" + label,
		Matrix:   spec,
		Solver:   r.Solver,
		Precond:  r.Precond,
		Scheme:   r.Scheme,
		Alpha:    r.Alpha,
		Tol:      r.Tol,
		MaxIters: r.MaxIters,
		S:        r.S,
		D:        r.D,
		Reps:     1,
		Seed:     r.Seed,
	}
	if r.RHSSeed != nil {
		sc = sc.WithRHSSeed(*r.RHSSeed)
	}
	return sc
}

// SolveResponse is the body of a successful (HTTP 200) solve. A solve
// that ran but failed numerically (breakdown, iteration budget) is still a
// 200: SolveError carries the reason and the record reports Failures=1.
type SolveResponse struct {
	Schema int `json:"schema"`
	// Result is the standard campaign record of the single-trial run; its
	// deterministic fields (residual hash included) are bit-identical for
	// repeated identical requests, any number of solver slots and warm or
	// cold caches.
	Result harness.Result `json:"result"`
	// CacheHit reports whether the per-matrix artifacts were already
	// resident.
	CacheHit bool `json:"cache_hit"`
	// QueueMillis and SolveMillis break down the measured wall time.
	QueueMillis float64 `json:"queue_ms"`
	SolveMillis float64 `json:"solve_ms"`
	// Coalesced is the total right-hand-side width of the blocked solve
	// this request was merged into (1 or absent when it ran alone). The
	// result bits are identical either way.
	Coalesced int `json:"coalesced,omitempty"`
	// SolveError is set when the solver itself failed.
	SolveError string `json:"solve_error,omitempty"`
}

// BatchRHS names one right-hand side of a batch request: a trial seed
// (injector seeding, and the manufactured RHS unless RHSSeed overrides it),
// mirroring SolveRequest's Seed/RHSSeed pair per system.
type BatchRHS struct {
	Seed    int64  `json:"seed,omitempty"`
	RHSSeed *int64 `json:"rhs_seed,omitempty"`
}

// ResolvedRHSSeed is the seed of this right-hand side's manufactured
// vector.
func (r *BatchRHS) ResolvedRHSSeed() int64 {
	if r.RHSSeed != nil {
		return *r.RHSSeed
	}
	return r.Seed
}

// BatchSolveRequest is the body of POST /v1/solve/batch: one matrix and
// one set of scenario axes (the embedded SolveRequest, whose own Seed and
// RHSSeed are ignored), solved against every right-hand side in RHS as a
// single blocked solve. Each RHS converges independently and its result is
// bit-identical to solving it alone via /v1/solve.
type BatchSolveRequest struct {
	SolveRequest
	RHS []BatchRHS `json:"rhs"`
}

// Validate rejects malformed batch requests before they reach the queue.
func (r *BatchSolveRequest) Validate() error {
	if len(r.RHS) == 0 {
		return fmt.Errorf("batch request needs at least one entry in \"rhs\"")
	}
	if len(r.RHS) > MaxBatchRHS {
		return fmt.Errorf("batch request carries %d right-hand sides, maximum is %d", len(r.RHS), MaxBatchRHS)
	}
	return r.SolveRequest.Validate()
}

// BatchResult is one right-hand side's outcome inside a batch response,
// in RHS order.
type BatchResult struct {
	// Result is the standard campaign record of this system's trial, with
	// the same determinism guarantees as a single solve.
	Result harness.Result `json:"result"`
	// SolveMillis is the wall time of the whole blocked solve this system
	// ran in (shared across the batch, not per-RHS attribution).
	SolveMillis float64 `json:"solve_ms"`
	// SolveError is set when this system's solve failed.
	SolveError string `json:"solve_error,omitempty"`
}

// BatchSolveResponse is the body of a successful (HTTP 200) batch solve.
type BatchSolveResponse struct {
	Schema   int  `json:"schema"`
	CacheHit bool `json:"cache_hit"`
	// QueueMillis is the time the batch waited for a solver slot.
	QueueMillis float64 `json:"queue_ms"`
	// Coalesced is the total RHS width of the blocked solve that ran,
	// ≥ len(Results) when queued singles were merged in.
	Coalesced int `json:"coalesced"`
	// Results holds one record per requested right-hand side, in order.
	Results []BatchResult `json:"results"`
}

// CacheStats summarises the artifact cache inside StatsResponse.
type CacheStats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes is the estimated resident footprint of the cached matrices
	// and CapacityBytes its budget.
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	// TTLEvictions counts entries aged out idle, a subset of Evictions.
	TTLEvictions int64 `json:"ttl_evictions"`
}

// HealthResponse is the body of GET /v1/healthz. Routers use it as the
// active health-probe answer: Status is "ok" or "draining", and the queue
// fields let a prober prefer less-loaded shards.
type HealthResponse struct {
	Schema        int     `json:"schema"`
	Status        string  `json:"status"`
	Shard         string  `json:"shard,omitempty"`
	Draining      bool    `json:"draining"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Tier names for StatuszResponse.Tier.
const (
	TierRouter = "router"
	TierShard  = "shard"
)

// StatuszResponse is the body of GET /v1/statusz, the introspection
// surface both tiers serve under one path: Tier says which one answered,
// and exactly one of Router and Shard carries its typed status.
type StatuszResponse struct {
	Schema int              `json:"schema"`
	Tier   string           `json:"tier"`
	Build  *BuildInfo       `json:"build,omitempty"`
	Router *RouterzResponse `json:"router,omitempty"`
	Shard  *StatsResponse   `json:"shard,omitempty"`
}

// StatsResponse is the shard section of GET /v1/statusz.
type StatsResponse struct {
	Schema        int        `json:"schema"`
	UptimeSeconds float64    `json:"uptime_seconds"`
	Workers       int        `json:"workers"`
	Concurrency   int        `json:"concurrency"`
	QueueDepth    int        `json:"queue_depth"`
	QueueCapacity int        `json:"queue_capacity"`
	Completed     int64      `json:"completed"`
	Failed        int64      `json:"failed"`
	Rejected      int64      `json:"rejected"`
	Expired       int64      `json:"expired"`
	Draining      bool       `json:"draining"`
	Cache         CacheStats `json:"cache"`
	// Inline counts this shard's inline operands (see InlineStats).
	Inline InlineStats `json:"inline"`
}

// InlineStats counts a shard's inline operands in statusz: Parsed is how
// often it parsed an operand's bytes: once per cache fill, and once more
// for each request that raced the fill of the same operand. A cache hit is
// served by the SHA-256 of the bytes, unparsed.
type InlineStats struct {
	Parsed int64 `json:"parsed"`
}
