package api

import (
	"crypto/subtle"
	"errors"
	"net/http"
	"net/http/pprof"
	"strings"
)

// MountPprof mounts the net/http/pprof endpoints on mux behind the
// admin bearer token: with no token configured profiling is disabled
// outright (403), a missing or wrong token answers 401, and the comparison
// is constant-time. Both daemons call this so a deployment that already
// carries an admin token gets CPU/heap/goroutine profiles for free
// without exposing them to anonymous callers.
func MountPprof(mux *http.ServeMux, token string) {
	gate := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if token == "" {
				WriteError(w, http.StatusForbidden, codeForbidden,
					errors.New("profiling disabled: no admin token configured"), 0)
				return
			}
			got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			if subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				WriteError(w, http.StatusUnauthorized, codeUnauthorized,
					errors.New("missing or invalid admin token"), 0)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/debug/pprof/", gate(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", gate(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", gate(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", gate(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", gate(pprof.Trace))
}
