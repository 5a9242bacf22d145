//go:build !amd64

package gf

// No affine kernels off amd64: useAffine can never be switched on, so
// the stubs below are unreachable.
const affineSupported = false

var useAffine = false

func gf8FusedAsm(dst *byte, xs *[]byte, nx int, ts *[]byte, mats *uint64, nt int, n int) {
	panic("gf: no affine kernel")
}
func gf16AffineXorAsm(dst, src *byte, n int, mats *[2][8]uint64) { panic("gf: no affine kernel") }
func gf32AffineXorAsm(dst, src *byte, n int, mats *[4][8]uint64) { panic("gf: no affine kernel") }
