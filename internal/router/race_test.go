//go:build race

package router

import "time"

// fuzzDeadline bounds one fuzz input; the race detector slows the reload
// several times over.
const fuzzDeadline = 10 * time.Second
