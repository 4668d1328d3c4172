package router

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// mockRouter builds a router whose shards are all MockRuntime-managed
// mock processes, plus an HTTP front end — the contract-test rig, no real
// solver processes involved.
func mockRouter(t *testing.T, cfg Config, names ...string) (*Router, *MockRuntime, *httptest.Server) {
	t.Helper()
	rt := NewMockRuntime()
	cfg.Runtime = rt
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // probes by hand in tests
	}
	shards := make([]Shard, len(names))
	for i, n := range names {
		shards[i] = Shard{Name: n}
	}
	r, err := New(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		ts.Close()
		r.Shutdown()
		rt.StopAll()
	})
	return r, rt, ts
}

// The knobs and counters of MockShard that only this package's tests turn
// and read, and the runtime that starts MockShards for them.

// Solves counts the solve requests this shard answered.
func (m *MockShard) Solves() int64 { return m.solves.Load() }

// Conns counts the connections this shard accepted.
func (m *MockShard) Conns() int64 { return m.conns.Load() }

// SetSaturated makes every subsequent solve answer the 429 envelope of a
// full queue (true) or serve again (false).
func (m *MockShard) SetSaturated(on bool) { m.saturated.Store(on) }

// SetDelay stalls every subsequent solve answer by d, making this shard
// the slow replica.
func (m *MockShard) SetDelay(d time.Duration) { m.delayNanos.Store(int64(d)) }

// KillMidStream arms the mid-stream death mode: the next streamed solve
// sends one iteration frame and then the shard dies.
func (m *MockShard) KillMidStream() { m.killMidStream.Store(true) }

// ownerOf posts one solve and returns which shard served it — the ring
// owner for this body's key while every shard is healthy and idle.
func ownerOf(t *testing.T, url string, body []byte) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner probe: status %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Resilient-Shard")
}

// MockRuntime is a ShardRuntime backed by MockShards: the router's
// "materialise this shard" requests start in-memory mock servers instead
// of real processes. Tests reach the underlying shards through Get to
// flip health or kill them.
type MockRuntime struct {
	mu     sync.Mutex
	shards map[string]*MockShard
	// StartErr, when set, makes every Start fail — for exercising the
	// apply-abort path.
	StartErr error
}

// NewMockRuntime builds an empty runtime.
func NewMockRuntime() *MockRuntime {
	return &MockRuntime{shards: make(map[string]*MockShard)}
}

// Start launches a mock shard for the name and returns its base URL.
func (rt *MockRuntime) Start(name string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.StartErr != nil {
		return "", rt.StartErr
	}
	if _, ok := rt.shards[name]; ok {
		return "", fmt.Errorf("mock runtime: shard %q already running", name)
	}
	m, err := NewMockShard(name)
	if err != nil {
		return "", err
	}
	rt.shards[name] = m
	return m.URL(), nil
}

// Stop kills the named mock shard. Idempotent.
func (rt *MockRuntime) Stop(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if m, ok := rt.shards[name]; ok {
		m.Kill()
		delete(rt.shards, name)
	}
	return nil
}

// Get returns the live mock shard for the name, or nil.
func (rt *MockRuntime) Get(name string) *MockShard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.shards[name]
}

// StopAll kills every running mock shard.
func (rt *MockRuntime) StopAll() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for name, m := range rt.shards {
		m.Kill()
		delete(rt.shards, name)
	}
}
