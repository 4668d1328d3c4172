package router

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/api"
)

// mountAdmin wires the token-gated control plane:
//
//	GET    /v1/admin/topology              live shard set
//	POST   /v1/admin/shards                add a shard / re-admit a drained one
//	POST   /v1/admin/shards/{label}/drain  latch a shard out of the ring
//	DELETE /v1/admin/shards/{label}        remove a shard entirely
//
// Every endpoint requires "Authorization: Bearer <AdminToken>"; with no
// token configured the whole surface answers 403.
func (r *Router) mountAdmin(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/admin/topology", r.withAdmin(r.handleAdminTopology))
	mux.HandleFunc("POST /v1/admin/shards", r.withAdmin(r.handleAdminAddShard))
	mux.HandleFunc("POST /v1/admin/shards/{label}/drain", r.withAdmin(r.handleAdminDrainShard))
	mux.HandleFunc("DELETE /v1/admin/shards/{label}", r.withAdmin(r.handleAdminRemoveShard))
	// Anything else under the prefix is a 404 in the envelope, not the
	// mux's plain-text default — but still only after passing auth, so
	// the surface leaks nothing unauthenticated.
	mux.HandleFunc("/v1/admin/", r.withAdmin(func(w http.ResponseWriter, req *http.Request) {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
			fmt.Errorf("no admin endpoint %s %s", req.Method, req.URL.Path), 0)
	}))
}

// withAdmin gates a handler behind the bearer token. No configured token
// means the control plane is disabled outright (403 — distinct from the
// 401 a wrong token earns, so operators can tell misconfiguration from
// bad credentials).
func (r *Router) withAdmin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.cfg.AdminToken == "" {
			api.WriteError(w, http.StatusForbidden, api.CodeForbidden,
				errors.New("admin API disabled: router started without an admin token"), 0)
			return
		}
		got := strings.TrimPrefix(req.Header.Get("Authorization"), "Bearer ")
		if subtle.ConstantTimeCompare([]byte(got), []byte(r.cfg.AdminToken)) != 1 {
			api.WriteError(w, http.StatusUnauthorized, api.CodeUnauthorized,
				errors.New("missing or invalid admin token"), 0)
			return
		}
		h(w, req)
	}
}

func (r *Router) handleAdminTopology(w http.ResponseWriter, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, r.CurrentTopology())
}

func (r *Router) handleAdminAddShard(w http.ResponseWriter, req *http.Request) {
	var body api.AdminAddShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20)).Decode(&body); err != nil {
		respondBadRequest(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if body.Schema != 0 && body.Schema != api.SchemaVersion {
		respondBadRequest(w, fmt.Errorf("unsupported schema %d (want %d)", body.Schema, api.SchemaVersion))
		return
	}
	if err := (Shard{Name: body.Name, Addr: body.Addr, VnodeWeight: body.VnodeWeight}).validate(); err != nil {
		respondBadRequest(w, err)
		return
	}
	sh, err := r.addShard(body.Name, body.Addr, body.VnodeWeight)
	if err != nil {
		respondAdminErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.AdminShardResponse{Schema: api.SchemaVersion, Shard: sh})
}

func (r *Router) handleAdminDrainShard(w http.ResponseWriter, req *http.Request) {
	sh, err := r.drainShard(req.PathValue("label"))
	if err != nil {
		respondAdminErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.AdminShardResponse{Schema: api.SchemaVersion, Shard: sh})
}

func (r *Router) handleAdminRemoveShard(w http.ResponseWriter, req *http.Request) {
	label := req.PathValue("label")
	if err := r.removeShard(label); err != nil {
		respondAdminErr(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.AdminRemoveResponse{Schema: api.SchemaVersion, Removed: label})
}

// Sentinel errors of the topology verbs; the admin surface maps them to
// HTTP statuses.
var (
	// errShardNotFound: the named shard is not in the topology.
	errShardNotFound = errors.New("router: shard not found")
	// errShardExists: an add named a shard that is already active.
	errShardExists = errors.New("router: shard already active")
	// errLastShard: draining or removing the shard would leave the ring
	// empty.
	errLastShard = errors.New("router: refusing to take the last routable shard out of the ring")
)

// respondAdminErr maps the topology verbs' sentinel errors onto the
// envelope: unknown shard → 404, already-active add or last-shard guard
// → 409, anything else (runtime start failures) → 500.
func respondAdminErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShardNotFound):
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, err, 0)
	case errors.Is(err, errShardExists), errors.Is(err, errLastShard):
		api.WriteError(w, http.StatusConflict, api.CodeConflict, err, 0)
	default:
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, err, 0)
	}
}

// CurrentTopology snapshots the live shard set for the admin API,
// sorted by name.
func (r *Router) CurrentTopology() api.AdminTopologyResponse {
	out := api.AdminTopologyResponse{Schema: api.SchemaVersion, Vnodes: r.cfg.vnodes, Replicas: replicas}
	r.ringMu.RLock()
	out.Shards = make([]api.AdminShard, 0, len(r.shards))
	for _, s := range r.shards {
		out.Shards = append(out.Shards, s.adminView())
	}
	r.ringMu.RUnlock()
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Name < out.Shards[j].Name })
	return out
}

// adminView snapshots the shard for the admin API.
func (s *shardState) adminView() api.AdminShard {
	s.mu.Lock()
	v := api.AdminShard{
		Name:        s.name,
		Addr:        s.placement.addr,
		State:       s.stateLocked(),
		Healthy:     s.healthy,
		VnodeWeight: s.placement.weight,
	}
	s.mu.Unlock()
	v.Inflight = s.inflight.Load()
	return v
}
