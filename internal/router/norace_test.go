//go:build !race

package router

import "time"

// fuzzDeadline bounds one fuzz input.
const fuzzDeadline = time.Second
