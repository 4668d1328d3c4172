//go:build race

package sparse

import "time"

// fuzzDeadline bounds one fuzz input; the race detector slows the parse
// several times over.
const fuzzDeadline = 20 * time.Second
