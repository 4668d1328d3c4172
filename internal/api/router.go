package api

// RouterzResponse is the router section of GET /v1/statusz.
type RouterzResponse struct {
	Schema        int           `json:"schema"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Vnodes        int           `json:"vnodes"`
	Replicas      int           `json:"replicas"`
	Draining      bool          `json:"draining"`
	Shards        []ShardStatus `json:"shards"`
	HealthyShards int           `json:"healthy_shards"`
	// Routed counts requests answered through the ring; Failovers counts
	// retries past a request's first attempt; Spilled counts buffered
	// requests whose first attempt went to the key's ring successor because
	// the owner held more than its bounded share of in-flight right-hand
	// sides; Unroutable counts requests every candidate failed.
	Routed     int64           `json:"routed"`
	Failovers  int64           `json:"failovers"`
	Spilled    int64           `json:"spilled"`
	Unroutable int64           `json:"unroutable"`
	Keys       KeyDistribution `json:"keys"`
	// Integrity reports the router's end-to-end response verification.
	Integrity IntegrityStats `json:"integrity"`
	// Hedge reports the tail-latency hedging tier (always present; Enabled
	// is false when the router runs unhedged).
	Hedge HedgeStats `json:"hedge"`
	// Chaos is present only when the router runs with a fault-injection
	// plan (-chaos-plan); it snapshots the injector.
	Chaos *ChaosStats `json:"chaos,omitempty"`
}

// IntegrityStats counts the router's response-integrity verdicts: every
// forwarded shard response is digest- and schema-checked before relay,
// and a corrupt response is treated exactly like a connection failure.
type IntegrityStats struct {
	// DigestVerified counts responses whose stamped digest matched the
	// received bytes.
	DigestVerified int64 `json:"digest_verified"`
	// CorruptResponses counts responses rejected before relay: digest
	// mismatch or schema violation. None of these reached a client.
	CorruptResponses int64 `json:"corrupt_responses"`
	// RetriesSpent counts attempts beyond each request's first, across
	// all causes (connection failure, 5xx, corruption).
	RetriesSpent int64 `json:"retries_spent"`
	// BudgetExhausted counts requests that burned their whole per-request
	// retry budget without a relayable answer.
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// HedgeStats reports the router's hedged-read tier: for each idempotent
// solve the router picks the two healthiest replicas by EWMA latency,
// sends to the best, and arms the second after a P99-derived delay —
// first digest-verified answer wins, the loser's context is cancelled.
type HedgeStats struct {
	Enabled bool `json:"enabled"`
	// BaseDelayMs is the configured floor of the arm delay; MaxDelayMs its
	// ceiling. Between them, the primary shard's observed P99 decides.
	BaseDelayMs float64 `json:"base_delay_ms,omitempty"`
	MaxDelayMs  float64 `json:"max_delay_ms,omitempty"`
	// Armed counts hedges actually launched (primary outlived the delay).
	Armed int64 `json:"armed"`
	// Wins counts hedges whose second request answered first; PrimaryWins
	// counts armed hedges the primary still won.
	Wins        int64 `json:"wins"`
	PrimaryWins int64 `json:"primary_wins"`
	// LosersCanceled counts in-flight loser requests cancelled after a
	// winner was chosen.
	LosersCanceled int64 `json:"losers_canceled"`
	// StreamedPassthrough counts streaming solves relayed on the
	// non-idempotent fast path (never hedged, never retried).
	StreamedPassthrough int64 `json:"streamed_passthrough"`
}

// ChaosStats snapshots the router's fault injector (-chaos-plan).
type ChaosStats struct {
	Seed          int64 `json:"seed"`
	Requests      int64 `json:"requests"`
	Passed        int64 `json:"passed"`
	Resets        int64 `json:"resets"`
	Storms503     int64 `json:"storms_503"`
	Kills         int64 `json:"kills"`
	Truncations   int64 `json:"truncations"`
	BitFlips      int64 `json:"bit_flips"`
	LatencySpikes int64 `json:"latency_spikes"`
	// TraceHash is the order-independent XOR-fold of every injection
	// decision (identity, attempt, fault). Two runs of the same plan over
	// the same request multiset produce the same hash — the determinism
	// gate resrouter's TestRunChaosPlanKeepsAnswersClean pins.
	TraceHash string `json:"trace_hash"`
}

// Shard lifecycle states reported by statusz and the admin API. A shard
// is active when it is on the ring and passing health probes, ejected
// when probes (or passive circuit-breaking) took it out of rotation, and
// draining when an operator latched it out of the ring: new keys route
// past it, in-flight requests finish, and only an admin re-add returns it
// to service — probe outcomes keep updating its health picture but cannot
// clear the latch.
const (
	ShardActive   = "active"
	ShardEjected  = "ejected"
	ShardDraining = "draining"
)

// ShardStatus is one shard's live picture in the router's statusz.
type ShardStatus struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// State is the lifecycle state: active, ejected or draining.
	State               string  `json:"state"`
	Healthy             bool    `json:"healthy"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	EWMALatencyMs       float64 `json:"ewma_latency_ms"`
	// P99LatencyMs is the nearest-rank P99 over the shard's recent latency
	// window (0 until enough samples accumulate) — the basis of the hedge
	// arm delay.
	P99LatencyMs        float64 `json:"p99_latency_ms,omitempty"`
	LastError           string  `json:"last_error,omitempty"`
	LastProbeAgeSeconds float64 `json:"last_probe_age_seconds,omitempty"`
	// Inflight counts requests forwarded to the shard and not yet
	// answered; Load counts their right-hand sides (a batch counts its
	// width), the measure the router's bounded-load placement compares.
	Inflight int64 `json:"inflight"`
	Load     int64 `json:"load"`
	Routed   int64 `json:"routed"`
	Errors   int64 `json:"errors"`
	// VNodes is the shard's virtual-node count on the ring (0 while
	// draining — a drained shard owns no keys).
	VNodes int `json:"vnodes"`
	// VnodeWeight is the shard's relative ring weight (1.0 = the router's
	// default vnode count; omitted when default).
	VnodeWeight float64 `json:"vnode_weight,omitempty"`
}

// KeyDistribution reports how many distinct routing keys this router has
// seen and which shard each landed on: the one that last answered it, except
// that a request spilled past a busy owner still counts for the owner.
// Tracking is bounded: when Saturated is true, Distinct is a floor and keys
// beyond the bound are unattributed.
type KeyDistribution struct {
	Distinct  int            `json:"distinct"`
	Saturated bool           `json:"saturated,omitempty"`
	PerShard  map[string]int `json:"per_shard"`
}

// RouterHealth is the body of the router's own GET /v1/healthz.
type RouterHealth struct {
	Schema        int    `json:"schema"`
	Status        string `json:"status"`
	HealthyShards int    `json:"healthy_shards"`
	TotalShards   int    `json:"total_shards"`
}

// AdminShard is one shard of the admin API's topology picture.
type AdminShard struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// State is the lifecycle state: active, ejected or draining.
	State   string `json:"state"`
	Healthy bool   `json:"healthy"`
	// Inflight counts requests currently forwarded to this shard — the
	// signal an operator watches reach zero before removing a drained
	// shard.
	Inflight int64 `json:"inflight"`
	// VnodeWeight is the shard's relative ring weight (1.0 when omitted).
	VnodeWeight float64 `json:"vnode_weight,omitempty"`
}

// AdminTopologyResponse is the body of GET /v1/admin/topology.
type AdminTopologyResponse struct {
	Schema   int          `json:"schema"`
	Vnodes   int          `json:"vnodes"`
	Replicas int          `json:"replicas"`
	Shards   []AdminShard `json:"shards"`
}

// AdminAddShardRequest is the body of POST /v1/admin/shards: add a new
// shard to the ring, or re-admit a drained one (matching Name). An empty
// Addr asks the router's shard runtime to materialise the process.
type AdminAddShardRequest struct {
	// Schema must be 0 (current) or SchemaVersion.
	Schema int    `json:"schema,omitempty"`
	Name   string `json:"name"`
	Addr   string `json:"addr,omitempty"`
	// VnodeWeight scales the shard's share of the ring relative to the
	// router's default vnode count (0 or omitted = 1.0). A re-add of a
	// known shard with a different weight rebalances it in place.
	VnodeWeight float64 `json:"vnode_weight,omitempty"`
}

// AdminShardResponse is the body of a successful shard add or drain.
type AdminShardResponse struct {
	Schema int        `json:"schema"`
	Shard  AdminShard `json:"shard"`
}

// AdminRemoveResponse is the body of a successful DELETE
// /v1/admin/shards/{label}.
type AdminRemoveResponse struct {
	Schema  int    `json:"schema"`
	Removed string `json:"removed"`
}
