// Package bitflip provides the low-level silent-error primitives: flipping
// a single bit in the binary representation of float64 and integer words.
//
// The paper models silent errors as independent bit flips striking memory
// words (matrix arrays and solver vectors) or the results of arithmetic
// operations. This package is the only place in the repository that touches
// raw bit patterns, so the fault model is easy to audit.
package bitflip

import (
	"fmt"
	"math"
)

// Float64Bits is the number of bits in a float64 word.
const Float64Bits = 64

// Float64 returns v with bit `bit` (0 = least significant mantissa bit,
// 63 = sign bit) flipped.
func Float64(v float64, bit uint) float64 {
	if bit >= Float64Bits {
		panic(fmt.Sprintf("bitflip: float64 bit %d out of range", bit))
	}
	return math.Float64frombits(math.Float64bits(v) ^ (1 << bit))
}

// Int flips bit `bit` of an int. Only the low 63 bits are eligible: flipping
// the sign bit of an index word produces a huge negative number that no real
// memory corruption model needs to distinguish from any other invalid index,
// and keeping indices representable avoids undefined behaviour in tests that
// do arithmetic on corrupted values.
func Int(v int, bit uint) int {
	if bit >= 63 {
		panic(fmt.Sprintf("bitflip: int bit %d out of range", bit))
	}
	return v ^ (1 << bit)
}
