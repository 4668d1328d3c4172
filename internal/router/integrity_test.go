package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/api"
)

func bodyReader(body []byte) io.Reader { return bytes.NewReader(body) }

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// evilShard is a shard stand-in with a settable integrity defect: it
// stamps digests like a real resilientd, then (per mode) corrupts what
// it sends — the upstream half of the router's end-to-end verification.
type evilShard struct {
	stub
	mode       string // "ok", "corrupt", "badschema", "refuse-once"
	retryAfter int    // retry_after_ms carried by "refuse-once"
}

func newEvilShard(t *testing.T, name string) *evilShard {
	t.Helper()
	f := &evilShard{stub: stub{name: name}, mode: "ok"}
	f.serve(t, func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.served++
		mode := f.mode
		retryAfter := f.retryAfter
		if mode == "refuse-once" {
			f.mode = "ok"
		}
		f.mu.Unlock()

		if mode == "refuse-once" {
			api.WriteJSON(w, http.StatusTooManyRequests, &api.Error{
				Schema: api.SchemaVersion, Code: api.CodeSaturated,
				Message: "test refusal", RetryAfterMillis: retryAfter,
			})
			return
		}
		body := []byte(fmt.Sprintf(`{"schema":%d,"served_by":%q}`+"\n", api.SchemaVersion, f.name))
		if mode == "badschema" {
			// Digest-consistent bytes claiming a schema this router does
			// not speak: only the schema gate can catch it.
			body = []byte(fmt.Sprintf(`{"schema":99,"served_by":%q}`+"\n", f.name))
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(api.DigestHeader, api.DigestBytes(body))
		if mode == "corrupt" {
			// Stamp the true digest, then flip one payload bit: wire
			// corruption the transport cannot see.
			body = append([]byte(nil), body...)
			body[len(body)/2] ^= 0x04
		}
		w.Write(body)
	}, nil)
	return f
}

func (f *evilShard) setMode(mode string, retryAfter int) {
	f.mu.Lock()
	f.mode = mode
	f.retryAfter = retryAfter
	f.mu.Unlock()
}

// routerzOf fetches the router section of /v1/statusz.
func routerzOf(t *testing.T, base string) api.RouterzResponse {
	t.Helper()
	sz, err := api.NewClient(base).Statusz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sz.Tier != api.TierRouter || sz.Router == nil {
		t.Fatalf("statusz tier %q carries no router section", sz.Tier)
	}
	return *sz.Router
}

// TestRouterRejectsCorruptResponse is the tentpole gate: a shard whose
// answer fails the digest check must be treated like a connection
// failure — the router retries the replica and the client sees only the
// clean, verified body, never the corrupt bytes.
func TestRouterRejectsCorruptResponse(t *testing.T) {
	s0 := newEvilShard(t, "s0")
	s1 := newEvilShard(t, "s1")
	cfg := Config{ProbeInterval: time.Hour, failThreshold: 100, retryBackoff: time.Millisecond}
	r, ts := testRouter(t, cfg, s0, s1)

	body := solveBody(t, "poisson2d", 48)
	// Discover the owner with both shards clean, then corrupt it.
	_, _, owner := postRouted(t, ts.URL, body)
	shards := map[string]*evilShard{"s0": s0, "s1": s1}
	evil, ok := shards[owner]
	if !ok {
		t.Fatalf("unexpected owner %q", owner)
	}
	var replica string
	for n := range shards {
		if n != owner {
			replica = n
		}
	}
	evil.setMode("corrupt", 0)

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bodyReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		ServedBy string `json:"served_by"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.ServedBy != replica {
		t.Errorf("served by %q, want failover to clean replica %q", out.ServedBy, replica)
	}
	if got := resp.Header.Get("X-Resilient-Failover"); got != "true" {
		t.Errorf("failover header %q, want true", got)
	}
	// The relayed digest must verify over the exact client-side bytes:
	// zero corrupt bytes reached this side of the wire.
	if stamp := resp.Header.Get(api.DigestHeader); stamp == "" || !api.VerifyDigest(stamp, raw) {
		t.Errorf("client-side digest %q does not verify", stamp)
	}

	if got := r.corruptResponses.Load(); got != 1 {
		t.Errorf("corruptResponses = %d, want 1", got)
	}
	rz := routerzOf(t, ts.URL)
	if rz.Integrity.CorruptResponses != 1 || rz.Integrity.RetriesSpent < 1 || rz.Integrity.DigestVerified < 2 {
		t.Errorf("statusz integrity %+v: want 1 corrupt, ≥1 retry, ≥2 verified", rz.Integrity)
	}
	if rz.Integrity.BudgetExhausted != 0 {
		t.Errorf("budget exhausted %d times on a recoverable fault", rz.Integrity.BudgetExhausted)
	}
}

// TestRouterRejectsSchemaViolation: digest-consistent bytes carrying the
// wrong schema stamp are just as unrelayable as flipped bits.
func TestRouterRejectsSchemaViolation(t *testing.T) {
	s0 := newEvilShard(t, "s0")
	s1 := newEvilShard(t, "s1")
	cfg := Config{ProbeInterval: time.Hour, failThreshold: 100, retryBackoff: time.Millisecond}
	r, ts := testRouter(t, cfg, s0, s1)

	body := solveBody(t, "poisson2d", 49)
	_, _, owner := postRouted(t, ts.URL, body)
	shards := map[string]*evilShard{"s0": s0, "s1": s1}
	shards[owner].setMode("badschema", 0)

	status, _, servedBy := postRouted(t, ts.URL, body)
	if status != http.StatusOK || servedBy == owner {
		t.Errorf("status %d served_by %q: want 200 from the replica, not %q", status, servedBy, owner)
	}
	if got := r.corruptResponses.Load(); got != 1 {
		t.Errorf("corruptResponses = %d, want 1", got)
	}
}

// TestRouterRetryBudgetBoundsCorruption: when every candidate keeps
// answering corrupt bytes, the router spends exactly its budget, then
// fails the request — it never relays what it cannot verify and never
// retries forever.
func TestRouterRetryBudgetBoundsCorruption(t *testing.T) {
	s0 := newEvilShard(t, "s0")
	s0.setMode("corrupt", 0)
	cfg := Config{ProbeInterval: time.Hour, failThreshold: 100, RetryBudget: 3, retryBackoff: time.Millisecond}
	r, ts := testRouter(t, cfg, s0)

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bodyReader(solveBody(t, "poisson2d", 50)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeUnroutable {
		t.Errorf("code %q, want %q", e.Code, api.CodeUnroutable)
	}
	if s0.servedCount() != 3 {
		t.Errorf("shard served %d attempts, want exactly the budget of 3", s0.servedCount())
	}
	if got := r.corruptResponses.Load(); got != 3 {
		t.Errorf("corruptResponses = %d, want 3", got)
	}
	if got := r.retriesSpent.Load(); got != 2 {
		t.Errorf("retriesSpent = %d, want 2", got)
	}
	if got := r.budgetExhausted.Load(); got != 1 {
		t.Errorf("budgetExhausted = %d, want 1", got)
	}
}

// TestRouterHonorsRetryAfterHint: a shard's retry_after_ms hint must
// pace the router's internal retry, overriding a (much shorter) default
// backoff.
func TestRouterHonorsRetryAfterHint(t *testing.T) {
	const hintMillis = 150
	s0 := newEvilShard(t, "s0")
	s0.setMode("refuse-once", hintMillis)
	cfg := Config{ProbeInterval: time.Hour, failThreshold: 100, RetryBudget: 2, retryBackoff: time.Millisecond}
	_, ts := testRouter(t, cfg, s0)

	start := time.Now()
	status, _, servedBy := postRouted(t, ts.URL, solveBody(t, "poisson2d", 51))
	elapsed := time.Since(start)
	if status != http.StatusOK || servedBy != "s0" {
		t.Fatalf("status %d served_by %q, want recovery on the retry", status, servedBy)
	}
	if s0.servedCount() != 2 {
		t.Errorf("shard saw %d requests, want refusal + retry", s0.servedCount())
	}
	// The base backoff tops out at 1.5ms; only the honored hint explains
	// a wait of this order.
	if elapsed < (hintMillis-50)*time.Millisecond {
		t.Errorf("retry came after %s, want the %dms shard hint honored", elapsed, hintMillis)
	}
}
