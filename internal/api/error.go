package api

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Machine-readable error codes of the unified envelope. Clients branch on
// these, never on the human-readable message: the codes distinguish
// retryable congestion (saturated, draining) from terminal outcomes
// (bad_request, expired) even where the HTTP status alone is ambiguous.
const (
	// CodeBadRequest marks a malformed or unsupported request (400).
	CodeBadRequest = "bad_request"
	// codeUnauthorized marks a missing or wrong admin token (401).
	codeUnauthorized = "unauthorized"
	// codeForbidden marks a profiling call to a process started without
	// an admin token (403).
	codeForbidden = "forbidden"
	// codeNotFound marks an unknown path (404).
	codeNotFound = "not_found"
	// CodeMethodNotAllowed marks a wrong HTTP method (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeSaturated marks backpressure: the solve queue (or every routing
	// candidate's queue) is full. Retry after RetryAfterMillis (429).
	CodeSaturated = "saturated"
	// CodeExpired marks a request whose deadline passed while it was
	// still queued; the solve never ran (504).
	CodeExpired = "expired"
	// CodeDraining marks a server or router that is shutting down and
	// refuses new work (503).
	CodeDraining = "draining"
	// CodeUnroutable marks a routed request every candidate shard failed
	// to serve (502).
	CodeUnroutable = "unroutable"
	// CodeInternal marks everything else (5xx).
	CodeInternal = "internal"
)

// Error is the unified JSON error envelope: the body of every non-200
// answer from the solve service and the router. It is
// schema-versioned like the success bodies, and it implements error so a
// typed client can return it directly.
type Error struct {
	Schema int `json:"schema"`
	// Code is the machine-readable class (the Code* constants).
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
	// RetryAfterMillis, when > 0, hints how long a client should back off
	// before retrying (saturated and draining answers set it).
	RetryAfterMillis int `json:"retry_after_ms,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// codeForStatus maps an HTTP status to the default envelope code, for
// responders that have no more specific classification.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusUnauthorized:
		return codeUnauthorized
	case http.StatusForbidden:
		return codeForbidden
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return CodeSaturated
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusGatewayTimeout:
		return CodeExpired
	case http.StatusBadGateway:
		return CodeUnroutable
	default:
		return CodeInternal
	}
}

// WriteJSON writes v as the JSON body of the given status, stamped with
// the content digest of the exact bytes written (DigestHeader) so every
// downstream hop can verify end-to-end integrity. The body keeps the
// trailing newline json.Encoder used to emit — existing recorded digests
// and goldens depend on the byte format.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		// Wire types are plain data; a marshal failure is programmer error.
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(DigestHeader, DigestBytes(body))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError writes the unified envelope. code "" selects the default
// mapping for the status; retryMillis > 0 additionally sets the standard
// Retry-After header (rounded up to whole seconds).
func WriteError(w http.ResponseWriter, status int, code string, err error, retryMillis int) {
	if code == "" {
		code = codeForStatus(status)
	}
	if retryMillis > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", (retryMillis+999)/1000))
	}
	WriteJSON(w, status, &Error{
		Schema:           SchemaVersion,
		Code:             code,
		Message:          err.Error(),
		RetryAfterMillis: retryMillis,
	})
}
