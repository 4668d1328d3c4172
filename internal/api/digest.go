package api

import "repro/internal/sparse"

// DigestHeader carries the end-to-end content digest: every JSON body the
// solve service or the router writes is stamped with a 64-bit fingerprint
// of its exact bytes (DigestBytes), rendered "fnv1a:" plus 16 lowercase hex
// digits like the harness residual hashes. The router recomputes the digest
// over every buffered shard response before relaying it and treats a
// mismatch like a connection failure (failover to the next ring replica),
// so a bit flip between shard and router can never reach a client. Clients
// (the typed Client, resload) may verify the final hop the same way.
const DigestHeader = "X-Resilient-Digest"

// digestPrime is the FNV-1a 64 prime to the 8th power, mod 2⁶⁴.
const digestPrime = 0x1efac7090aef4a21

const (
	digestPrefix = "fnv1a:"
	digestLen    = len(digestPrefix) + 16
)

// DigestBytes fingerprints a response body. The digest is not FNV-1a over
// the bytes: it folds each byte into the FNV-1a 64 state as a zero-extended
// 64-bit word (sparse.FNVMix64(h, uint64(b))), which is
//
//	h ← sparse.FNV1aOffset64
//	h ← (h ⊕ b) · p⁸ mod 2⁶⁴   for each byte b,
//
// p = 1099511628211 the FNV prime and p⁸ = 0x1efac7090aef4a21, since the
// seven zero bytes of each word xor to nothing. The loop runs the second
// form: one multiply per byte. "a" digests to fnv1a:6926124a7b1433c4.
func DigestBytes(b []byte) string {
	var buf [digestLen]byte
	return string(appendDigest(buf[:0], b))
}

// VerifyDigest recomputes the digest of body and compares it to the
// stamped header value, without allocating. It reports false only on an
// actual mismatch: an empty stamp (a pre-digest peer) verifies trivially.
func VerifyDigest(stamp string, body []byte) bool {
	if stamp == "" {
		return true
	}
	var buf [digestLen]byte
	return stamp == string(appendDigest(buf[:0], body))
}

// appendDigest appends the rendered digest of b to dst.
func appendDigest(dst, b []byte) []byte {
	h := uint64(sparse.FNV1aOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * digestPrime
	}
	dst = append(dst, digestPrefix...)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[h>>shift&0xf])
	}
	return dst
}
