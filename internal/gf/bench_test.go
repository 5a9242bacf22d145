package gf

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the mult_XORs primitive. Throughput here bounds
// every encode/decode number in the repository, the way GF-Complete's
// SIMD kernels bounded the paper's.

func benchMultXORs(b *testing.B, f Field, size int) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, size)
	dst := make([]byte, size)
	rng.Read(src)
	rng.Read(dst)
	a := uint32(0x53) & uint32((f.Order()-1)&0xFFFFFFFF)
	if a <= 1 {
		a = 2
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MultXORs(dst, src, a)
	}
}

func BenchmarkMultXORsGF8_4KiB(b *testing.B)    { benchMultXORs(b, GF8, 4096) }
func BenchmarkMultXORsGF8_128KiB(b *testing.B)  { benchMultXORs(b, GF8, 128<<10) }
func BenchmarkMultXORsGF16_4KiB(b *testing.B)   { benchMultXORs(b, GF16, 4096) }
func BenchmarkMultXORsGF16_128KiB(b *testing.B) { benchMultXORs(b, GF16, 128<<10) }
func BenchmarkMultXORsGF32_4KiB(b *testing.B)   { benchMultXORs(b, GF32, 4096) }
func BenchmarkMultXORsGF32_128KiB(b *testing.B) { benchMultXORs(b, GF32, 128<<10) }

func benchXORRegion(b *testing.B, size int) {
	src := make([]byte, size)
	dst := make([]byte, size)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		GF8.MultXORs(dst, src, 1)
	}
}

func BenchmarkXORRegion4KiB(b *testing.B)   { benchXORRegion(b, 4096) }
func BenchmarkXORRegion128KiB(b *testing.B) { benchXORRegion(b, 128<<10) }

// BenchmarkFusedRowGF8 measures one compiled GF(2^8) row pass over the
// row shapes the codes produce: an LRC local repair (all coefficients
// 1), an SD group row (all multiplied) and a mixed row of a full fused
// batch. Throughput counts the source bytes consumed.
func BenchmarkFusedRowGF8(b *testing.B) {
	mixed := make([]uint32, maxFusedTerms)
	for k := range mixed {
		mixed[k] = 1
		if k%3 != 0 {
			mixed[k] = uint32(k*37+2) & 0xFF
		}
	}
	cases := []struct {
		name   string
		consts []uint32
		size   int
	}{
		{"LRC-local-5xor-4KiB", []uint32{1, 1, 1, 1, 1}, 4096},
		{"SD-group-6mul-4KiB", []uint32{2, 0x1d, 0x53, 0x8e, 0xc3, 0xf7}, 4096},
		{"mixed-16-32KiB", mixed, 32 << 10},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(44))
			srcs := randSrcs(rng, len(c.consts), c.size)
			dst := make([]byte, c.size)
			row := CompileRow(GF8, c.consts)
			b.SetBytes(int64(len(c.consts) * c.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row.MultXOR(dst, srcs)
			}
		})
	}
}

// BenchmarkGF32TableMemo shows what the split-table memo buys at w=32:
// "rebuilt" is the seed behaviour (1024 scalar carry-less multiplies per
// region op, dominating small regions), "memoized" is the shipped path
// where every constant's tables are built once and shared.
func BenchmarkGF32TableMemo(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const a = 0x2B5F17D3
	for _, size := range []int{4096, 128 << 10} {
		src := make([]byte, size)
		dst := make([]byte, size)
		rng.Read(src)
		rng.Read(dst)
		f := GF32.(field32)
		b.Run(fmt.Sprintf("rebuilt_%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				multXOR32(f.splitTables32(a), dst, src)
			}
		})
		b.Run(fmt.Sprintf("memoized_%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				f.MultXORs(dst, src, a)
			}
		})
	}
}

func BenchmarkScalarMul(b *testing.B) {
	for _, tf := range testFields {
		tf := tf
		b.Run(tf.name, func(b *testing.B) {
			var acc uint32 = 1
			for i := 0; i < b.N; i++ {
				acc = tf.f.Mul(acc|1, 0x35&tf.mask|1)
			}
			sink = acc
		})
	}
}

var sink uint32
