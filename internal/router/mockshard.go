package router

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// MockShard is a stand-in resilientd for contract tests: it speaks just
// enough of the wire protocol — /v1/healthz and deterministic /v1/solve
// answers — that the router's routing, draining, probing and reload paths
// can be exercised without spawning real solver processes. The solve
// answer is a pure function of the request body and the shard's name, so
// a test can tell which shard served a key and assert that re-routing
// moved exactly the keys it expected.
type MockShard struct {
	name string
	srv  *http.Server
	ln   net.Listener
	url  string

	solves atomic.Int64
	// conns counts the connections the shard accepted.
	conns atomic.Int64
	// saturated makes every solve answer 429, like a shard whose queue is
	// full.
	saturated atomic.Bool
	// delayNanos stalls every solve answer — the knob tests turn to make
	// this shard the slow replica.
	delayNanos atomic.Int64
	// killMidStream makes a streamed solve emit one iteration frame, flush
	// it, then hard-kill the shard — the mid-stream death scenario.
	killMidStream atomic.Bool

	closeOnce sync.Once
}

// NewMockShard starts a mock shard on an ephemeral localhost port.
func NewMockShard(name string) (*MockShard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &MockShard{
		name: name,
		ln:   ln,
		url:  "http://" + ln.Addr().String(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", m.handleHealthz)
	mux.HandleFunc("/v1/solve", m.handleSolve)
	mux.HandleFunc("/v1/solve/batch", m.handleSolve)
	m.srv = &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			m.conns.Add(1)
		}
	}}
	go m.srv.Serve(ln)
	return m, nil
}

// URL returns the shard's base URL.
func (m *MockShard) URL() string { return m.url }

// Name returns the shard's label.
func (m *MockShard) Name() string { return m.name }

// Kill hard-closes the listener — from the router's side the shard
// vanishes mid-flight, like a kill -9.
func (m *MockShard) Kill() {
	m.closeOnce.Do(func() {
		m.ln.Close()
		m.srv.Close()
	})
}

func (m *MockShard) handleHealthz(w http.ResponseWriter, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.HealthResponse{Schema: api.SchemaVersion, Status: "ok"})
}

// handleSolve answers with a deterministic fake result: the residual-hash
// field is an FNV-1a digest of the request body alone (stable across
// shards, like the real engine), while the X-Mock-Shard header names the
// serving shard so tests can observe placement.
func (m *MockShard) handleSolve(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, fmt.Errorf("POST only"), 0)
		return
	}
	var body json.RawMessage
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err, 0)
		return
	}
	m.solves.Add(1)
	if m.saturated.Load() {
		api.WriteError(w, http.StatusTooManyRequests, api.CodeSaturated, fmt.Errorf("%s: queue full", m.name), 0)
		return
	}
	if d := time.Duration(m.delayNanos.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return // canceled request: give the connection back
		}
	}
	canon, _ := json.Marshal(body)
	h := fnv.New64a()
	h.Write(canon)
	resp := api.SolveResponse{Schema: api.SchemaVersion}
	resp.Result.Schema = api.SchemaVersion
	resp.Result.Reps = 1
	resp.Result.Converged = 1
	resp.Result.ResidualHash = fmt.Sprintf("mock-%016x", h.Sum64())
	if req.URL.Path == "/v1/solve" && api.WantsStream(req) {
		m.streamSolve(w, &resp)
		return
	}
	w.Header().Set("X-Mock-Shard", m.name)
	api.WriteJSON(w, http.StatusOK, resp)
}

// streamSolve answers a streamed solve: one iteration frame, then the
// terminal result — the same ResidualHash the buffered path computes,
// so pass-through tests can assert stream/buffered hash equality. In
// killMidStream mode the shard dies right after the first frame.
func (m *MockShard) streamSolve(w http.ResponseWriter, resp *api.SolveResponse) {
	sw, err := api.NewSSEWriter(w)
	if err != nil {
		api.WriteJSON(w, http.StatusOK, resp)
		return
	}
	_ = sw.Send(&api.SolveEvent{Kind: api.EventIteration, Iteration: 1, Rho: 0.5})
	if m.killMidStream.Load() {
		m.Kill()
		// Killing closes the listener and active connections; returning
		// without a terminal frame is the point.
		return
	}
	_ = sw.Send(&api.SolveEvent{Kind: api.EventResult, Result: resp})
}
