//go:build !race

package api

import "time"

// FuzzDeadline bounds one fuzz input of this package's targets. It is
// exported for the external test package's FuzzInlineCSR.
const FuzzDeadline = time.Second
