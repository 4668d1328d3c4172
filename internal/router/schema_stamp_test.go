package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestRouteTable enumerates the router's mux: every path it serves
// resolves to the pattern registered for it and answers a schema-stamped
// body even to a bare, unauthenticated GET (the POST-only routes with their
// 405 envelope, pprof with its 401, /metrics with the schema gauge), and
// the retired status aliases resolve to nothing.
func TestRouteTable(t *testing.T) {
	r, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	routes := map[string]string{ // request path → registered pattern, "" = 404
		"/v1/solve":            "/v1/solve",
		"/v1/solve/batch":      "/v1/solve/batch",
		"/v1/statusz":          "/v1/statusz",
		"/v1/healthz":          "/v1/healthz",
		"/v1/tracez":           "/v1/tracez",
		"/metrics":             "/metrics",
		"/debug/pprof/":        "/debug/pprof/",
		"/debug/pprof/profile": "/debug/pprof/profile",
		"/routerz":             "",
		"/v1/stats":            "",
		"/":                    "",
	}
	for path, want := range routes {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, pattern := r.mux.Handler(req); pattern != want {
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

// TestEveryEndpointStampsSchema sweeps the router's whole HTTP surface —
// success bodies, error envelopes, auth failures — and
// asserts every single response carries the wire schema version. A client
// must be able to version-check any answer it gets, including rejections.
// The one exception is a profile the admin token unlocked: pprof writes it.
func TestEveryEndpointStampsSchema(t *testing.T) {
	_, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0", "s1")
	_, _, tsNoAdmin := mockRouter(t, Config{}, "s0")

	good := solveBody(t, "poisson2d", 16)
	cases := []struct {
		name       string
		base       string
		method     string
		path       string
		body       string
		token      string
		wantStatus int
	}{
		{"routerz", ts.URL, http.MethodGet, "/routerz", "", "", http.StatusNotFound}, // removed: statusz carries the router section
		{"statusz", ts.URL, http.MethodGet, "/v1/statusz", "", "", http.StatusOK},
		{"statusz wrong method", ts.URL, http.MethodPost, "/v1/statusz", "", "", http.StatusMethodNotAllowed},
		{"healthz", ts.URL, http.MethodGet, "/v1/healthz", "", "", http.StatusOK},
		{"solve ok", ts.URL, http.MethodPost, "/v1/solve", string(good), "", http.StatusOK},
		{"solve wrong method", ts.URL, http.MethodGet, "/v1/solve", "", "", http.StatusMethodNotAllowed},
		{"solve bad body", ts.URL, http.MethodPost, "/v1/solve", "{not json", "", http.StatusBadRequest},
		{"batch wrong method", ts.URL, http.MethodGet, "/v1/solve/batch", "", "", http.StatusMethodNotAllowed},
		{"batch bad body", ts.URL, http.MethodPost, "/v1/solve/batch", "{not json", "", http.StatusBadRequest},
		{"tracez", ts.URL, http.MethodGet, "/v1/tracez", "", "", http.StatusOK},
		{"tracez last-n", ts.URL, http.MethodGet, "/v1/tracez?n=2", "", "", http.StatusOK},
		{"tracez by id", ts.URL, http.MethodGet, "/v1/tracez?id=nosuchtrace", "", "", http.StatusOK},
		{"tracez wrong method", ts.URL, http.MethodPost, "/v1/tracez", "", "", http.StatusMethodNotAllowed},
		{"pprof no token", tsNoAdmin.URL, http.MethodGet, "/debug/pprof/", "", "", http.StatusForbidden},
		{"pprof missing token", ts.URL, http.MethodGet, "/debug/pprof/", "", "", http.StatusUnauthorized},
		{"pprof with token", ts.URL, http.MethodGet, "/debug/pprof/", "", "sekrit", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, tc.base+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			if tc.token != "" {
				req.Header.Set("Authorization", "Bearer "+tc.token)
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
			switch {
			case tc.wantStatus == http.StatusNotFound:
				return // no route, so no handler of ours to stamp anything
			case tc.wantStatus == http.StatusOK && strings.HasPrefix(tc.path, "/debug/pprof/"):
				return // net/http/pprof's own page, past the token gate
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("content type %q, want application/json", ct)
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

// TestAdminAuth pins the admin token's contract on the one surface it
// gates, profiling: a router without a token answers 403, a missing,
// wrong or near-miss bearer token answers 401 — both in the
// schema-stamped envelope — and the right token passes.
func TestAdminAuth(t *testing.T) {
	_, _, tsOff := mockRouter(t, Config{}, "s0")
	_, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	cases := []struct {
		base, token string
		wantStatus  int
		wantCode    string
	}{
		{tsOff.URL, "sekrit", http.StatusForbidden, "forbidden"},
		{ts.URL, "", http.StatusUnauthorized, "unauthorized"},
		{ts.URL, "wrong", http.StatusUnauthorized, "unauthorized"},
		{ts.URL, "sekrit2", http.StatusUnauthorized, "unauthorized"},
		{ts.URL, "sekrit", http.StatusOK, ""},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, tc.base+"/debug/pprof/cmdline", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.token != "" {
			req.Header.Set("Authorization", "Bearer "+tc.token)
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
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("token %q: status %d, want %d (body %s)", tc.token, resp.StatusCode, tc.wantStatus, raw)
			continue
		}
		if tc.wantStatus == http.StatusOK {
			continue // net/http/pprof's own answer
		}
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || e.Code != tc.wantCode || e.Schema != api.SchemaVersion {
			t.Errorf("token %q: envelope %+v (%v), want code %q schema %d", tc.token, e, err, tc.wantCode, api.SchemaVersion)
		}
	}
}

// TestAdminUnknownEndpoint pins the retired control plane: membership is
// the topology file's alone, so every path under /v1/admin/ resolves to no
// route and answers 404, with the admin token or without it — none answers
// 401, as there is nothing behind the token there to guard.
func TestAdminUnknownEndpoint(t *testing.T) {
	r, _, ts := mockRouter(t, Config{AdminToken: "sekrit"}, "s0")
	for _, path := range []string{
		"/v1/admin/topology",
		"/v1/admin/shards",
		"/v1/admin/shards/s0",
		"/v1/admin/shards/s0/drain",
		"/v1/admin/bogus",
		"/v1/admin/anything/else",
	} {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete} {
			for _, token := range []string{"", "sekrit"} {
				req, err := http.NewRequest(method, ts.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				if token != "" {
					req.Header.Set("Authorization", "Bearer "+token)
				}
				if _, pattern := r.mux.Handler(req); pattern != "" {
					t.Errorf("%s %s: mux pattern %q, want none", method, path, pattern)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s %s (token %q): status %d, want 404", method, path, token, resp.StatusCode)
				}
			}
		}
	}
}
