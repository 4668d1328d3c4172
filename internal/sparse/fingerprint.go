package sparse

import "math"

// FNV-1a constants, 64-bit variant, shared by every content fingerprint
// in this repository (CSR content hashes here, residual-history hashes in
// internal/harness) so the hash family cannot silently fork.
const (
	FNV1aOffset64 = 14695981039346656037
	fnvPrime64    = 1099511628211
)

// FNVMix64 folds one 64-bit word into an FNV-1a state, byte by byte in
// little-endian order (identical to hashing the word's
// binary.LittleEndian encoding through a hash.Hash64).
func FNVMix64(h, word uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h ^= (word >> shift) & 0xff
		h *= fnvPrime64
	}
	return h
}

// FNV1aString hashes a string through the same 64-bit FNV-1a family as
// every other fingerprint in this repository. The consistent-hash ring in
// internal/router keys shard placement on it, so ring placement is as
// deterministic (and as portable across processes) as the content hashes.
func FNV1aString(s string) uint64 {
	h := uint64(FNV1aOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Fingerprint returns a 64-bit FNV-1a content hash of the matrix: the
// dimensions, the row pointers, the column indices and the IEEE-754 bit
// patterns of the values, in that order. Matrices with identical content
// always agree. The solve service labels a matrix that arrives inline,
// rather than as a named generator spec, with it (a label only: its cache
// keys an inline operand on the SHA-256 of its bytes).
func (m *CSR) Fingerprint() uint64 {
	h := uint64(FNV1aOffset64)
	h = FNVMix64(h, uint64(m.Rows))
	h = FNVMix64(h, uint64(m.Cols))
	for _, r := range m.Rowidx {
		h = FNVMix64(h, uint64(r))
	}
	for _, c := range m.Colid {
		h = FNVMix64(h, uint64(c))
	}
	for _, v := range m.Val {
		h = FNVMix64(h, math.Float64bits(v))
	}
	return h
}
