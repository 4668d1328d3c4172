// Package lib is the export and field gates' fixture: each name below is
// kept by exactly one of the export gate's caller rules, except Dead, which
// none keeps.
package lib

import "strings"

// Kind is named by cmd/app only through KindOf's result.
type Kind int

// Neither constant is named outside this package; both are values of Kind.
const (
	KindPlain Kind = iota
	KindFancy
)

// KindOf is named by cmd/app.
func KindOf(s string) Kind {
	if strings.HasPrefix(s, "*") {
		return KindFancy
	}
	return KindPlain
}

// Stream is named by nobody; NewStream, which cmd/app calls, returns it.
type Stream struct{ r *strings.Reader }

// NewStream is named by cmd/app.
func NewStream(s string) *Stream { return &Stream{r: strings.NewReader(s)} }

// Read is named by nobody and is kept because it implements io.Reader.
func (s *Stream) Read(p []byte) (int, error) { return s.r.Read(p) }

// Dead is named by nobody.
func Dead() int { return 0 }

// Options is named by cmd/app, which writes Indexed only through an index.
// Nothing writes Never; encoding/json would fill Tagged.
type Options struct {
	Never   int
	Indexed [2]int
	Tagged  string `json:"tagged"`
}

// Pair is named by cmd/app, whose positional literal alone sets its fields.
type Pair struct{ Lo, Hi int }
