package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/harness"
)

// TestRouteTable enumerates the shard's mux: every path it serves resolves
// to the pattern registered for it and answers a schema-stamped body even
// to a bare GET (the POST-only routes with their 405 envelope, pprof with
// its 403, /metrics with the schema gauge), and the retired status aliases
// resolve to nothing.
func TestRouteTable(t *testing.T) {
	s, ts := testServer(t, Config{})
	routes := map[string]string{ // request path → registered pattern, "" = 404
		"/v1/solve":                "/v1/solve",
		"/v1/solve/batch":          "/v1/solve/batch",
		"/v1/statusz":              "/v1/statusz",
		"/v1/healthz":              "/v1/healthz",
		"/v1/tracez":               "/v1/tracez",
		"/metrics":                 "/metrics",
		"/debug/pprof/":            "/debug/pprof/",
		"/debug/pprof/goroutine":   "/debug/pprof/",
		"/debug/pprof/profile":     "/debug/pprof/profile",
		"/v1/stats":                "",
		"/routerz":                 "",
		"/v1/solve/batch/anything": "",
		"/":                        "",
	}
	for path, want := range routes {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, pattern := s.mux.Handler(req); pattern != want {
			t.Errorf("%s: mux pattern %q, want %q", path, pattern, want)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var stamped struct {
			Schema int `json:"schema"`
		}
		switch {
		case want == "":
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
			}
		case path == "/metrics":
			if !bytes.Contains(raw, []byte(fmt.Sprintf("\nresilient_schema_version %d\n", api.SchemaVersion))) {
				t.Errorf("/metrics does not report the schema version")
			}
		case json.Unmarshal(raw, &stamped) != nil || stamped.Schema != api.SchemaVersion:
			t.Errorf("%s: status %d body carries no schema stamp: %s", path, resp.StatusCode, raw)
		}
	}
}

// TestEveryEndpointStampsSchema sweeps the shard's HTTP surface — success
// bodies and error envelopes alike — and asserts every response carries
// the wire schema version.
func TestEveryEndpointStampsSchema(t *testing.T) {
	_, ts := testServer(t, Config{})

	spec, err := harness.NewMatrixSpec("tridiag", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(api.SolveRequest{Matrix: &spec, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"solve ok", http.MethodPost, "/v1/solve", string(good), http.StatusOK},
		{"solve wrong method", http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed},
		{"solve bad body", http.MethodPost, "/v1/solve", "{not json", http.StatusBadRequest},
		{"solve bad request", http.MethodPost, "/v1/solve", `{"matrix":{"kind":"nope","n":4}}`, http.StatusBadRequest},
		{"batch wrong method", http.MethodGet, "/v1/solve/batch", "", http.StatusMethodNotAllowed},
		{"batch bad body", http.MethodPost, "/v1/solve/batch", "{not json", http.StatusBadRequest},
		{"stats", http.MethodGet, "/v1/stats", "", http.StatusNotFound}, // removed: statusz carries the shard section
		{"statusz", http.MethodGet, "/v1/statusz", "", http.StatusOK},
		{"statusz wrong method", http.MethodPost, "/v1/statusz", "", http.StatusMethodNotAllowed},
		{"healthz", http.MethodGet, "/v1/healthz", "", http.StatusOK},
		{"tracez", http.MethodGet, "/v1/tracez", "", http.StatusOK},
		{"tracez last-n", http.MethodGet, "/v1/tracez?n=2", "", http.StatusOK},
		{"tracez by id", http.MethodGet, "/v1/tracez?id=nosuchtrace", "", http.StatusOK},
		{"tracez wrong method", http.MethodPost, "/v1/tracez", "", http.StatusMethodNotAllowed},
		{"pprof no token", http.MethodGet, "/debug/pprof/", "", http.StatusForbidden},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.wantStatus == http.StatusNotFound {
				return // no route, so no handler of ours to stamp anything
			}
			var stamped struct {
				Schema int `json:"schema"`
			}
			if err := json.Unmarshal(raw, &stamped); err != nil {
				t.Fatalf("response is not JSON: %v (body %s)", err, raw)
			}
			if stamped.Schema != api.SchemaVersion {
				t.Errorf("schema %d, want %d (body %s)", stamped.Schema, api.SchemaVersion, raw)
			}
		})
	}
}
