//go:build race

package api

import "time"

// FuzzDeadline bounds one fuzz input of this package's targets; the race
// detector slows the decode several times over. It is exported for the
// external test package's FuzzInlineCSR.
const FuzzDeadline = 10 * time.Second
