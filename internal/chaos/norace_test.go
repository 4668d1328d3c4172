//go:build !race

package chaos

import "time"

// fuzzDeadline bounds one fuzz input.
const fuzzDeadline = time.Second
