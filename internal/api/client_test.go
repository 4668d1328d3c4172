package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClientDecodesEnvelope: a non-200 with a well-formed envelope body
// comes back as *Error with every field intact, reachable via errors.As.
func TestClientDecodesEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusTooManyRequests, CodeSaturated, errors.New("queue full"), 250)
	}))
	defer ts.Close()

	_, err := NewClient(ts.URL).Solve(context.Background(), &SolveRequest{})
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("error %v (%T), want *Error", err, err)
	}
	if e.Schema != SchemaVersion || e.Code != CodeSaturated || e.Message != "queue full" || e.RetryAfterMillis != 250 {
		t.Errorf("decoded envelope %+v", e)
	}
	if e.Error() != "saturated: queue full" {
		t.Errorf("Error() = %q", e.Error())
	}
}

// TestClientSynthesizesEnvelope: a non-200 whose body is not an envelope
// (a crashed proxy, an HTML error page) still yields a typed *Error with
// the status-derived code and the raw body preserved in the message.
func TestClientSynthesizesEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "<html>bad gateway</html>", http.StatusBadGateway)
	}))
	defer ts.Close()

	_, err := NewClient(ts.URL).Statusz(context.Background())
	var e *Error
	if !errors.As(err, &e) {
		t.Fatalf("error %v (%T), want *Error", err, err)
	}
	if e.Code != CodeUnroutable || e.Schema != SchemaVersion {
		t.Errorf("synthesized envelope %+v, want code %q", e, CodeUnroutable)
	}
}

// TestClientDigestSentinel: a body that fails its stamped digest comes back
// as ErrDigestMismatch, not as a transport failure, on buffered and
// streamed requests alike.
func TestClientDigestSentinel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(DigestHeader, DigestBytes([]byte("something else")))
		w.Write([]byte(`{"schema":1}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	_, errBuffered := c.Solve(context.Background(), &SolveRequest{})
	_, errStreamed := c.SolveStream(context.Background(), &SolveRequest{}, nil)
	for _, err := range []error{errBuffered, errStreamed} {
		if !errors.Is(err, ErrDigestMismatch) {
			t.Errorf("error %v, want ErrDigestMismatch", err)
		}
	}
}

// TestCodeForStatusCoversEveryMappedStatus pins the status→code table.
func TestCodeForStatusCoversEveryMappedStatus(t *testing.T) {
	want := map[int]string{
		http.StatusBadRequest:          CodeBadRequest,
		http.StatusUnauthorized:        codeUnauthorized,
		http.StatusForbidden:           codeForbidden,
		http.StatusNotFound:            codeNotFound,
		http.StatusMethodNotAllowed:    CodeMethodNotAllowed,
		http.StatusTooManyRequests:     CodeSaturated,
		http.StatusServiceUnavailable:  CodeDraining,
		http.StatusGatewayTimeout:      CodeExpired,
		http.StatusBadGateway:          CodeUnroutable,
		http.StatusInternalServerError: CodeInternal,
	}
	for status, code := range want {
		if got := codeForStatus(status); got != code {
			t.Errorf("codeForStatus(%d) = %q, want %q", status, got, code)
		}
	}
}

// TestWriteErrorSetsRetryAfterHeader: a retry hint surfaces both in the
// envelope (milliseconds) and the standard header (whole seconds, rounded
// up).
func TestWriteErrorSetsRetryAfterHeader(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteError(rr, http.StatusServiceUnavailable, CodeDraining, errors.New("draining"), 1500)
	if got := rr.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want 2 (1500ms rounded up)", got)
	}
	rr = httptest.NewRecorder()
	WriteError(rr, http.StatusBadRequest, "", errors.New("nope"), 0)
	if got := rr.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After %q on a non-retryable error", got)
	}
}
