// Package chaos is the deterministic fault-injection layer of the
// distributed tier: a seeded http.RoundTripper that injects the failure
// modes a sharded deployment actually sees on the wire — connection
// resets, mid-body truncation, single-bit flips in response payloads,
// latency spikes, 5xx storms and shard kill signals mid-solve — between
// the router and its shards (resrouter -chaos-plan).
//
// Every injection decision is a pure function of (plan seed, request
// identity, attempt): the identity fingerprints the request bytes with
// the repository's FNV-1a family, and the attempt counts how many times
// this identity has been sent (so a router's failover resend of the same
// body draws a fresh, but reproducible, fate). An attempt a shard refused
// at connect — down, or restarting after a kill — never left the router and
// does not count: the identity draws the same fate again. The same plan
// against the same request sequence therefore injects the same faults,
// however many requests a restart window refuses — the property
// resrouter's TestRunChaosPlanKeepsAnswersClean pins by comparing trace
// hashes across two routers.
//
// The router's end-to-end integrity machinery is the system under test:
// resets and truncations must surface as retryable transport failures,
// bit flips must be caught by the X-Resilient-Digest check, and none of
// it may ever reach a client as corrupt bytes.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/sparse"
)

// planSchemaVersion identifies the chaos plan file layout.
const planSchemaVersion = 1

// Plan is the seeded fault mix, loaded from JSON:
//
//	{
//	  "schema": 1, "seed": 1234,
//	  "p_reset": 0.05, "p_truncate": 0.05, "p_bitflip": 0.08,
//	  "p_503": 0.03, "p_kill": 0, "max_kills": 1,
//	  "p_latency": 0.05, "latency_ms": 50
//	}
//
// The five primary probabilities are mutually exclusive per attempt (one
// draw, cumulative bands, so they must sum to ≤ 1); the latency spike is
// an independent draw that composes with any of them. Faults apply only
// to solve traffic (POST /v1/solve and /v1/solve/batch) — health probes
// and every other call pass through untouched, so chaos distorts data
// paths, not the control plane that is supposed to observe it.
type Plan struct {
	Schema int   `json:"schema"`
	Seed   int64 `json:"seed"`
	// PReset aborts the exchange with a transport error before the shard
	// sees the request — a connection reset.
	PReset float64 `json:"p_reset"`
	// PTruncate forwards the request, then cuts the response body short
	// at a seeded offset — the shard died mid-answer.
	PTruncate float64 `json:"p_truncate"`
	// PBitFlip forwards the request, then flips one seeded bit in the
	// response payload, length preserved — wire corruption the transport
	// cannot see.
	PBitFlip float64 `json:"p_bitflip"`
	// P503 synthesizes a 503 envelope (with a retry_after_ms hint)
	// without forwarding — a refusing or mid-drain shard.
	P503 float64 `json:"p_503"`
	// PKill forwards the request, sends the target shard a kill signal
	// through the configured KillFunc once the request is written, and
	// fails the attempt as the death would (errInjectedKill) whatever the
	// shard still answered. Downgrades to a reset when no KillFunc is wired
	// or MaxKills is spent.
	PKill float64 `json:"p_kill"`
	// MaxKills bounds process kills per run (default 1 when PKill > 0).
	MaxKills int `json:"max_kills,omitempty"`
	// PLatency stalls the exchange by LatencyMillis before anything else.
	PLatency      float64 `json:"p_latency"`
	LatencyMillis int     `json:"latency_ms,omitempty"`
}

// validate rejects malformed plans.
func (p *Plan) validate() error {
	if p.Schema != 0 && p.Schema != planSchemaVersion {
		return fmt.Errorf("chaos plan: unsupported schema %d (want %d)", p.Schema, planSchemaVersion)
	}
	sum := 0.0
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"p_reset", p.PReset}, {"p_truncate", p.PTruncate}, {"p_bitflip", p.PBitFlip},
		{"p_503", p.P503}, {"p_kill", p.PKill}, {"p_latency", p.PLatency},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("chaos plan: %s = %g out of [0, 1]", pr.name, pr.v)
		}
		if pr.name != "p_latency" {
			sum += pr.v
		}
	}
	if sum > 1 {
		return fmt.Errorf("chaos plan: primary fault probabilities sum to %g > 1", sum)
	}
	if p.LatencyMillis < 0 {
		return fmt.Errorf("chaos plan: negative latency_ms")
	}
	if p.MaxKills < 0 {
		return fmt.Errorf("chaos plan: negative max_kills")
	}
	return nil
}

// LoadPlan reads and validates a chaos plan file.
func LoadPlan(path string) (Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	return parsePlan(path, raw)
}

// parsePlan decodes and validates the bytes of the plan file named path.
func parsePlan(path string, raw []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("chaos plan %s: %w", path, err)
	}
	if err := p.validate(); err != nil {
		return p, fmt.Errorf("%s: %w", path, err)
	}
	if p.PKill > 0 && p.MaxKills == 0 {
		p.MaxKills = 1
	}
	return p, nil
}

// Fault names one injected outcome.
type Fault int

const (
	FaultNone Fault = iota
	FaultReset
	Fault503
	FaultKill
	FaultTruncate
	FaultBitFlip
)

func (f Fault) String() string {
	switch f {
	case FaultReset:
		return "reset"
	case Fault503:
		return "503"
	case FaultKill:
		return "kill"
	case FaultTruncate:
		return "truncate"
	case FaultBitFlip:
		return "bitflip"
	default:
		return "none"
	}
}

// errInjectedReset is the transport error an injected connection reset
// surfaces as.
var errInjectedReset = errors.New("chaos: injected connection reset")

// errInjectedKill is the transport error the attempt that drew a kill
// surfaces as: its shard was signalled with the request on it.
var errInjectedKill = errors.New("chaos: shard killed under the request")

// maxTrackedIdentities bounds the per-identity attempt counters; beyond
// the bound, unseen identities draw as attempt 0 every time (still
// seeded, no longer occurrence-distinct).
const maxTrackedIdentities = 1 << 16

// Injector is the fault-injecting RoundTripper. Wrap a base transport
// with New and hand the result to the router's http.Client (resrouter).
type Injector struct {
	plan Plan
	base http.RoundTripper
	// kill, when set, delivers FaultKill to the shard behind the target
	// host. Reports whether a process was actually signalled.
	kill func(host string) bool
	// sleep is the latency-spike clock, swappable in tests.
	sleep func(time.Duration)

	mu       sync.Mutex
	attempts map[uint64]uint64
	kills    int
	trace    uint64 // XOR-fold of per-event hashes: order-independent

	requests  atomic.Int64
	passed    atomic.Int64
	resets    atomic.Int64
	storms    atomic.Int64
	killsSent atomic.Int64
	truncates atomic.Int64
	bitFlips  atomic.Int64
	spikes    atomic.Int64
}

// Option customises an Injector.
type Option func(*Injector)

// WithKillFunc wires the shard-kill hook: it receives the target host
// ("127.0.0.1:9101") and reports whether a process was signalled. Without
// it, kill faults downgrade to connection resets.
func WithKillFunc(kill func(host string) bool) Option {
	return func(in *Injector) { in.kill = kill }
}

// withSleep substitutes the latency clock (tests).
func withSleep(sleep func(time.Duration)) Option {
	return func(in *Injector) { in.sleep = sleep }
}

// New builds an injector over the base transport (nil selects
// http.DefaultTransport).
func New(plan Plan, base http.RoundTripper, opts ...Option) *Injector {
	if base == nil {
		base = http.DefaultTransport
	}
	in := &Injector{
		plan:     plan,
		base:     base,
		sleep:    time.Sleep,
		attempts: make(map[uint64]uint64),
	}
	for _, opt := range opts {
		opt(in)
	}
	return in
}

// solvePath reports whether the request is solve traffic — the only
// traffic chaos touches.
func solvePath(req *http.Request) bool {
	return req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/v1/solve")
}

// identity fingerprints the request: path plus body bytes, through the
// repository's FNV-1a family. The router resends a bit-identical body on
// failover, so a retry maps to the same identity at the next attempt.
func identity(req *http.Request) (uint64, error) {
	h := sparse.FNV1aString(req.URL.Path)
	if req.GetBody == nil {
		return h, nil
	}
	body, err := req.GetBody()
	if err != nil {
		return 0, err
	}
	defer body.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := body.Read(buf)
		for _, b := range buf[:n] {
			h = sparse.FNVMix64(h, uint64(b))
		}
		if err == io.EOF {
			return h, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// nextAttempt returns this identity's occurrence index and increments it.
func (in *Injector) nextAttempt(id uint64) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	n, ok := in.attempts[id]
	if !ok && len(in.attempts) >= maxTrackedIdentities {
		return 0
	}
	in.attempts[id] = n + 1
	return n
}

// eventHash folds one trace event; XOR in the accumulator makes the
// trace hash independent of cross-identity interleaving, so concurrent
// runs of the same request multiset agree.
func eventHash(id, attempt uint64, f Fault) uint64 {
	h := uint64(sparse.FNV1aOffset64)
	h = sparse.FNVMix64(h, id)
	h = sparse.FNVMix64(h, attempt)
	h = sparse.FNVMix64(h, uint64(f))
	return h
}

func (in *Injector) record(id, attempt uint64, f Fault) {
	in.mu.Lock()
	in.trace ^= eventHash(id, attempt, f)
	in.mu.Unlock()
}

// void takes back an attempt that never reached a shard: its event leaves
// the trace (XOR is its own inverse), it leaves the request and spike
// counts, a kill it drew returns to the budget, and the identity's counter
// rewinds so its next attempt draws the same index. The rewind is exact
// while one request is in flight at a time — the case the trace gate runs.
func (in *Injector) void(id, attempt uint64, f Fault, spike bool) {
	in.mu.Lock()
	in.trace ^= eventHash(id, attempt, f)
	if _, tracked := in.attempts[id]; tracked {
		in.attempts[id] = attempt
	}
	if f == FaultKill {
		in.kills--
	}
	in.mu.Unlock()
	in.requests.Add(-1)
	if spike && in.plan.LatencyMillis > 0 {
		in.spikes.Add(-1)
	}
}

// seedMix derives the per-(identity, attempt) PRNG seed.
func seedMix(seed int64, id, attempt uint64) int64 {
	h := uint64(sparse.FNV1aOffset64)
	h = sparse.FNVMix64(h, uint64(seed))
	h = sparse.FNVMix64(h, id)
	h = sparse.FNVMix64(h, attempt)
	return int64(h)
}

// draw picks this attempt's fate. The rng is consumed in a fixed order
// (latency first, then the primary band, then any fault-shape draws at
// corruption time), so every decision is reproducible.
func (in *Injector) draw(rng *rand.Rand) (f Fault, spike bool) {
	if in.plan.PLatency > 0 && rng.Float64() < in.plan.PLatency {
		spike = true
	}
	u := rng.Float64()
	switch {
	case u < in.plan.PReset:
		return FaultReset, spike
	case u < in.plan.PReset+in.plan.P503:
		return Fault503, spike
	case u < in.plan.PReset+in.plan.P503+in.plan.PKill:
		return FaultKill, spike
	case u < in.plan.PReset+in.plan.P503+in.plan.PKill+in.plan.PTruncate:
		return FaultTruncate, spike
	case u < in.plan.PReset+in.plan.P503+in.plan.PKill+in.plan.PTruncate+in.plan.PBitFlip:
		return FaultBitFlip, spike
	}
	return FaultNone, spike
}

// RoundTrip implements http.RoundTripper.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	if !solvePath(req) {
		return in.base.RoundTrip(req)
	}
	id, err := identity(req)
	if err != nil {
		return nil, err
	}
	attempt := in.nextAttempt(id)
	rng := rand.New(rand.NewSource(seedMix(in.plan.Seed, id, attempt)))
	fault, spike := in.draw(rng)
	in.requests.Add(1)
	if spike && in.plan.LatencyMillis > 0 {
		in.spikes.Add(1)
		in.sleep(time.Duration(in.plan.LatencyMillis) * time.Millisecond)
	}

	// A kill with no hook (or a spent kill budget) degrades to a reset so
	// the draw sequence — and with it the trace — stays plan-shaped.
	if fault == FaultKill {
		in.mu.Lock()
		spent := in.kill == nil || (in.plan.MaxKills > 0 && in.kills >= in.plan.MaxKills)
		if !spent {
			in.kills++
		}
		in.mu.Unlock()
		if spent {
			fault = FaultReset
		}
	}
	in.record(id, attempt, fault)

	switch fault {
	case FaultReset:
		in.resets.Add(1)
		return nil, errInjectedReset
	case Fault503:
		in.storms.Add(1)
		return synth503(req), nil
	case FaultKill:
		if err := in.killInFlight(req); err != nil {
			in.void(id, attempt, fault, spike)
			return nil, err
		}
		in.killsSent.Add(1)
		return nil, errInjectedKill
	}

	resp, err := in.base.RoundTrip(req)
	if refused(err) {
		in.void(id, attempt, fault, spike)
		return nil, err
	}
	if err != nil || resp.StatusCode != http.StatusOK || resp.Body == nil {
		// Only successful payloads are worth corrupting: errors already
		// exercise the retry path.
		return resp, err
	}
	switch fault {
	case FaultTruncate:
		in.truncates.Add(1)
		resp.Body = &truncatingBody{rc: resp.Body, frac: 0.1 + 0.8*rng.Float64()}
	case FaultBitFlip:
		in.bitFlips.Add(1)
		if err := flipBit(resp, rng); err != nil {
			resp.Body.Close()
			return nil, err
		}
	default:
		in.passed.Add(1)
	}
	return resp, nil
}

// killInFlight forwards the request and signals the shard behind it once the
// request is written, so the process dies with the solve in it. The attempt
// fails either way: whatever the dying shard still answered is discarded, so
// its fate does not depend on whether the answer beat the signal. A connect
// the shard refused reached no process; it is returned and nothing is
// signalled.
func (in *Injector) killInFlight(req *http.Request) error {
	wrote := make(chan struct{})
	var once sync.Once
	ctx := httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { once.Do(func() { close(wrote) }) },
	})
	type answer struct {
		resp *http.Response
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := in.base.RoundTrip(req.WithContext(ctx))
		done <- answer{resp, err}
	}()
	var a answer
	select {
	case <-wrote:
		in.kill(req.URL.Host)
		a = <-done
	case a = <-done:
		if refused(a.err) {
			return a.err
		}
		in.kill(req.URL.Host)
	}
	if a.resp != nil {
		a.resp.Body.Close()
	}
	return nil
}

// refused reports a connect the shard refused: down, or restarting.
func refused(err error) bool { return errors.Is(err, syscall.ECONNREFUSED) }

// synth503 fabricates the refusal a saturated or draining shard would
// answer, retry hint included, so the router's internal retry path sees
// a fully-formed envelope.
func synth503(req *http.Request) *http.Response {
	body, _ := json.Marshal(&api.Error{
		Schema:           api.SchemaVersion,
		Code:             api.CodeDraining,
		Message:          "chaos: injected 503 storm",
		RetryAfterMillis: 10,
	})
	body = append(body, '\n')
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	return &http.Response{
		StatusCode:    http.StatusServiceUnavailable,
		Status:        "503 Service Unavailable",
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatingBody yields a seeded fraction of the underlying body, then
// fails the read — the reader sees a connection that died mid-body.
type truncatingBody struct {
	rc   io.ReadCloser
	frac float64

	buf  []byte
	off  int
	read bool
}

func (t *truncatingBody) Read(p []byte) (int, error) {
	if !t.read {
		all, err := io.ReadAll(t.rc)
		if err != nil {
			return 0, err
		}
		keep := int(t.frac * float64(len(all)))
		if keep >= len(all) && len(all) > 0 {
			keep = len(all) - 1
		}
		t.buf = all[:keep]
		t.read = true
	}
	if t.off >= len(t.buf) {
		return 0, fmt.Errorf("chaos: injected mid-body truncation after %d bytes: %w", len(t.buf), io.ErrUnexpectedEOF)
	}
	n := copy(p, t.buf[t.off:])
	t.off += n
	return n, nil
}

func (t *truncatingBody) Close() error { return t.rc.Close() }

// flipBit rewrites the response body with one seeded bit inverted,
// length and headers preserved — corruption only a content digest can
// see.
func flipBit(resp *http.Response, rng *rand.Rand) error {
	all, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if len(all) > 0 {
		i := rng.Intn(len(all))
		all[i] ^= 1 << uint(rng.Intn(8))
	}
	resp.Body = io.NopCloser(bytes.NewReader(all))
	resp.ContentLength = int64(len(all))
	return nil
}

// Stats snapshots the injector for the router's statusz.
func (in *Injector) Stats() *api.ChaosStats {
	in.mu.Lock()
	trace := in.trace
	in.mu.Unlock()
	return &api.ChaosStats{
		Seed:          in.plan.Seed,
		Requests:      in.requests.Load(),
		Passed:        in.passed.Load(),
		Resets:        in.resets.Load(),
		Storms503:     in.storms.Load(),
		Kills:         in.killsSent.Load(),
		Truncations:   in.truncates.Load(),
		BitFlips:      in.bitFlips.Load(),
		LatencySpikes: in.spikes.Load(),
		TraceHash:     fmt.Sprintf("fnv1a:%016x", trace),
	}
}
