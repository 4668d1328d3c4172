//go:build !race

package main

import "time"

// fuzzDeadline bounds one fuzz input.
const fuzzDeadline = time.Second
