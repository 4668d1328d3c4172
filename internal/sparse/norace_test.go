//go:build !race

package sparse

import "time"

// fuzzDeadline bounds one fuzz input.
const fuzzDeadline = 2 * time.Second
