//go:build race

package main

import "time"

// fuzzDeadline bounds one fuzz input; the race detector slows the decode
// several times over.
const fuzzDeadline = 10 * time.Second
