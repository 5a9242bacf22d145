package gf

import (
	"math/rand"
	"testing"
)

// The GF(2^8) region entry points run on stack-held batch arrays and
// assembly that is declared noescape: a 4 KiB call must not allocate on
// either kernel path.
func TestRegionOpsAllocFree(t *testing.T) {
	forBothKernelPaths(t, testRegionOpsAllocFree)
}

func testRegionOpsAllocFree(t *testing.T) {
	const size = 4096
	rng := rand.New(rand.NewSource(405))
	consts := []uint32{1, 0x1d, 1, 0x53, 0, 0xc3}
	srcs := randSrcs(rng, len(consts), size)
	dst := make([]byte, size)
	row := CompileRow(GF8, consts)
	mult := MultiplierFor(GF8, 0x8e)
	cases := []struct {
		name string
		fn   func()
	}{
		{"CompileRow.MultXOR", func() { row.MultXOR(dst, srcs) }},
		{"MultXORsMulti", func() { GF8.MultXORsMulti(dst, srcs, consts) }},
		{"Multiplier.MultXOR", func() { mult.MultXOR(dst, srcs[1]) }},
		{"MultXORs-xor", func() { GF8.MultXORs(dst, srcs[0], 1) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(50, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs per 4 KiB call, want 0", c.name, avg)
		}
	}
}
