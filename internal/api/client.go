package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxResponseBytes bounds a decoded response body.
const maxResponseBytes = 64 << 20

// ErrDigestMismatch marks a buffered response whose stamped content digest
// did not match the received bytes: corrupt bytes reached this client.
// Callers tell it from a transport failure with errors.Is.
var ErrDigestMismatch = errors.New("response digest mismatch (corrupt body)")

// Client is the typed HTTP client over the whole wire contract: the solve
// and status surface of a resilientd shard or a resrouter front end, plus
// the router's token-authenticated /v1/admin surface.
// Non-200 answers decode the unified envelope and come back as *Error, so
// callers branch on the machine-readable code, never on message strings.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// ClientOption customises a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithAdminToken attaches the bearer token the admin endpoints require.
func WithAdminToken(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithTimeout bounds every request issued by the client.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.hc.Timeout = d }
}

// NewClient builds a client for the service at base (e.g.
// "http://127.0.0.1:8723").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: 2 * time.Minute},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Solve posts one solve request.
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	var out SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SolveStream posts one solve request with "Accept: text/event-stream"
// and delivers every decoded progress event to onEvent (nil skips
// delivery); the terminal result event is returned like a buffered
// Solve. A terminal error event comes back as *Error, exactly as a
// buffered non-200 would. onEvent returning an error aborts the stream
// (cancelling the solve's delivery, not the solve). Servers that do not
// stream (or a non-flushing hop) answer plain JSON; SolveStream falls
// back to decoding that buffered body, so callers never need to probe
// capability first.
func (c *Client) SolveStream(ctx context.Context, req *SolveRequest, onEvent func(*SolveEvent) error) (*SolveResponse, error) {
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v1/solve", req)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// Buffered answer (old server, non-streaming hop, or an error
		// envelope rejected before streaming began): decode it the
		// buffered way, digest check included.
		var out SolveResponse
		if err := decode(resp, http.MethodPost, "/v1/solve", &out); err != nil {
			return nil, err
		}
		return &out, nil
	}

	rd := NewSSEReader(resp.Body)
	var terminal *SolveEvent
	var terminalData []byte
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("POST /v1/solve: %w", err)
		}
		if onEvent != nil {
			if err := onEvent(ev); err != nil {
				return nil, err
			}
		}
		if ev.Terminal() {
			terminal = ev
			terminalData = append([]byte(nil), rd.LastFrameData()...)
			// Drain to EOF so the trailer becomes visible.
			for {
				if _, err := rd.Next(); err != nil {
					break
				}
			}
			break
		}
	}
	if terminal == nil {
		return nil, fmt.Errorf("POST /v1/solve: stream ended without a terminal event")
	}
	// The trailer repeats the terminal frame's digest; verify it against
	// the exact wire bytes when the transport delivered one (an absent
	// trailer verifies trivially, like an absent header).
	if !VerifyDigest(resp.Trailer.Get(DigestHeader), terminalData) {
		return nil, fmt.Errorf("POST /v1/solve: stream trailer digest mismatch (corrupt terminal frame)")
	}
	if terminal.Kind == EventError {
		if terminal.Error != nil {
			return nil, terminal.Error
		}
		return nil, fmt.Errorf("POST /v1/solve: stream ended with an empty error event")
	}
	if terminal.Result == nil {
		return nil, fmt.Errorf("POST /v1/solve: stream result event carries no result")
	}
	return terminal.Result, nil
}

// SolveBatch posts one batched multi-RHS solve request.
func (c *Client) SolveBatch(ctx context.Context, req *BatchSolveRequest) (*BatchSolveResponse, error) {
	var out BatchSolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Statusz fetches /v1/statusz, the unified introspection surface both
// tiers serve: Tier says who answered.
func (c *Client) Statusz(ctx context.Context) (*StatuszResponse, error) {
	var out StatuszResponse
	if err := c.do(ctx, http.MethodGet, "/v1/statusz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tracez fetches /v1/tracez: the most recently completed traces on the
// target tier. n caps the number returned (0 = all retained); a
// non-empty id looks one trace up exactly.
func (c *Client) Tracez(ctx context.Context, n int, id string) (*TraceResponse, error) {
	path := "/v1/tracez"
	sep := "?"
	if n > 0 {
		path += fmt.Sprintf("%sn=%d", sep, n)
		sep = "&"
	}
	if id != "" {
		path += sep + "id=" + id
	}
	var out TraceResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdminTopology fetches the live topology through the admin API.
func (c *Client) AdminTopology(ctx context.Context) (*AdminTopologyResponse, error) {
	var out AdminTopologyResponse
	if err := c.do(ctx, http.MethodGet, "/v1/admin/topology", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdminAddShard adds a shard to the ring (or re-admits a drained one).
// An empty addr asks the router's shard runtime to materialise it.
func (c *Client) AdminAddShard(ctx context.Context, name, addr string) (*AdminShardResponse, error) {
	return c.AdminAddShardWeighted(ctx, name, addr, 0)
}

// AdminAddShardWeighted is AdminAddShard with an explicit ring weight
// (0 = the router's default). Re-adding a known shard with a different
// weight rebalances it in place.
func (c *Client) AdminAddShardWeighted(ctx context.Context, name, addr string, weight float64) (*AdminShardResponse, error) {
	var out AdminShardResponse
	req := AdminAddShardRequest{Name: name, Addr: addr, VnodeWeight: weight}
	if err := c.do(ctx, http.MethodPost, "/v1/admin/shards", &req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdminDrainShard latches the shard out of the ring: new keys route past
// it, in-flight requests finish.
func (c *Client) AdminDrainShard(ctx context.Context, name string) (*AdminShardResponse, error) {
	var out AdminShardResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/shards/"+name+"/drain", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AdminRemoveShard removes the shard from the topology entirely.
func (c *Client) AdminRemoveShard(ctx context.Context, name string) (*AdminRemoveResponse, error) {
	var out AdminRemoveResponse
	if err := c.do(ctx, http.MethodDelete, "/v1/admin/shards/"+name, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// newRequest builds one request: the JSON body when in is non-nil and the
// client's bearer token.
func (c *Client) newRequest(ctx context.Context, method, path string, in any) (*http.Request, error) {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(raw)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.token)
	}
	return hreq, nil
}

// do issues one request and decodes the buffered answer.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	hreq, err := c.newRequest(ctx, method, path, in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, method, path, out)
}

// decode reads one buffered answer: 200 into out, anything else into the
// unified envelope returned as *Error. A non-envelope error body (a
// crashed proxy, a non-API server) still yields an *Error with
// CodeInternal and the raw body as the message; a body that fails its
// stamped digest is ErrDigestMismatch whatever its status.
func decode(resp *http.Response, method, path string, out any) error {
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if !VerifyDigest(resp.Header.Get(DigestHeader), raw) {
		return fmt.Errorf("%s %s: %w", method, path, ErrDigestMismatch)
	}
	if resp.StatusCode != http.StatusOK {
		var e Error
		if json.Unmarshal(raw, &e) != nil || e.Message == "" {
			e = Error{
				Schema:  SchemaVersion,
				Code:    codeForStatus(resp.StatusCode),
				Message: fmt.Sprintf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw)),
			}
		}
		return &e
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}
