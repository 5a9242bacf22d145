//go:build amd64

package gf

// Assembly region kernels (affine_amd64.s). n must be positive and a
// multiple of 64; callers peel the sub-64-byte tail onto the portable
// kernels.
//
// gf8FusedAsm applies a whole GF(2^8) row batch in one pass:
// dst ^= Σ_k xs[k] ^ Σ_k mats[k]·ts[k], where xs and ts point at nx and
// nt slice headers (each at least n bytes long) and mats at nt affine
// matrices. It is declared noescape so callers can pass stack arrays
// and parameters without moving them to the heap.
//
//go:noescape
func gf8FusedAsm(dst *byte, xs *[]byte, nx int, ts *[]byte, mats *uint64, nt int, n int)

func gf16AffineXorAsm(dst, src *byte, n int, mats *[2][8]uint64)
func gf32AffineXorAsm(dst, src *byte, n int, mats *[4][8]uint64)
