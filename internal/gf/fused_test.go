package gf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refMultiXOR is the scalar reference for the fused path: one
// word-at-a-time Field.Mul accumulation per nonzero constant, the
// definition MultXORsMulti must match bit for bit.
func refMultiXOR(f Field, dst []byte, srcs [][]byte, consts []uint32) {
	wb := f.WordBytes()
	for k, a := range consts {
		if a == 0 {
			continue
		}
		for i := 0; i+wb <= len(dst); i += wb {
			w := readWord(srcs[k][i:], wb)
			putWord(dst[i:], wb, readWord(dst[i:], wb)^f.Mul(a, w))
		}
	}
}

func readWord(b []byte, wb int) uint32 {
	switch wb {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}

func putWord(b []byte, wb int, w uint32) {
	switch wb {
	case 1:
		b[0] = byte(w)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(w))
	default:
		binary.LittleEndian.PutUint32(b, w)
	}
}

func randConsts(rng *rand.Rand, f Field, n int) []uint32 {
	mask := uint32(f.Order() - 1)
	consts := make([]uint32, n)
	for i := range consts {
		switch rng.Intn(5) {
		case 0:
			consts[i] = 0 // must be skipped
		case 1:
			consts[i] = 1 // plain-XOR lane
		default:
			consts[i] = rng.Uint32() & mask
		}
	}
	return consts
}

func randSrcs(rng *rand.Rand, n, size int) [][]byte {
	srcs := make([][]byte, n)
	for i := range srcs {
		srcs[i] = make([]byte, size)
		rng.Read(srcs[i])
	}
	return srcs
}

// TestMultXORsMultiMatchesScalar: the fused pass equals the scalar
// per-term reference for every field, across term counts that exercise
// batching (beyond maxFusedTerms) and region lengths that exercise the
// scalar tails (0, a single word, 8-byte-loop remainders, and the
// 64-byte affine prefix plus its tail). Runs on both kernel paths.
func TestMultXORsMultiMatchesScalar(t *testing.T) {
	forBothKernelPaths(t, testMultXORsMultiMatchesScalar)
}

func testMultXORsMultiMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, f := range []Field{GF8, GF16, GF32} {
		wb := f.WordBytes()
		sizes := []int{0, wb, 8, 8 + wb, 24, 56 + wb, 256, 248 + wb}
		for _, terms := range []int{1, 2, 3, maxFusedTerms, maxFusedTerms + 1, 2*maxFusedTerms + 3} {
			for _, size := range sizes {
				consts := randConsts(rng, f, terms)
				srcs := randSrcs(rng, terms, size)
				dst := make([]byte, size)
				rng.Read(dst)
				want := append([]byte(nil), dst...)

				f.MultXORsMulti(dst, srcs, consts)
				refMultiXOR(f, want, srcs, consts)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("GF%d terms=%d size=%d: byte %d = %#x want %#x",
							f.W(), terms, size, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// oddRegion returns a random size-byte region that starts off bytes
// into its backing array, so the kernels see unaligned sources.
func oddRegion(rng *rand.Rand, size, off int) []byte {
	buf := make([]byte, off+size)
	rng.Read(buf)
	return buf[off : off+size : off+size]
}

// oddCopy returns a copy of b that starts off bytes into its backing
// array.
func oddCopy(b []byte, off int) []byte {
	buf := make([]byte, off+len(b))
	copy(buf[off:], b)
	return buf[off:]
}

// TestFusedPassSplits pins every part of the GFNI pass's split — the
// 256-byte blocks, the 64-byte remainder blocks and the sub-64-byte
// table tail — for all-XOR, all-multiplied, mixed and full-batch rows,
// with dst and every source sliced at an odd offset. Each case checks
// MultXORsMulti, a compiled row and (for single terms) the bound
// Multiplier against the scalar reference. Runs on both kernel paths.
func TestFusedPassSplits(t *testing.T) {
	forBothKernelPaths(t, testFusedPassSplits)
}

func testFusedPassSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	sizes := []int{64, 192, 256, 320, 4096, 4096 + 8, 32<<10 + 72}
	shapes := []struct {
		name  string
		terms int
		xor   func(k int) bool // coefficient 1 at position k
	}{
		{"single-mul", 1, func(int) bool { return false }},
		{"all-xor", 5, func(int) bool { return true }},
		{"all-mul", 6, func(int) bool { return false }},
		{"mixed", 7, func(k int) bool { return k%2 == 0 }},
		{"full-batch", maxFusedTerms, func(k int) bool { return k%3 == 0 }},
	}
	for _, f := range []Field{GF8, GF16, GF32} {
		mask := uint32(f.Order() - 1)
		for _, sh := range shapes {
			for _, size := range sizes {
				consts := make([]uint32, sh.terms)
				srcs := make([][]byte, sh.terms)
				for k := range consts {
					consts[k] = 1
					if !sh.xor(k) {
						consts[k] = 2 + rng.Uint32()%(mask-1)
					}
					srcs[k] = oddRegion(rng, size, 2*k+1)
				}
				dst := make([]byte, size)
				rng.Read(dst)
				want := append([]byte(nil), dst...)
				refMultiXOR(f, want, srcs, consts)

				check := func(how string, got []byte) {
					t.Helper()
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("GF%d %s size=%d %s: byte %d = %#x want %#x",
								f.W(), sh.name, size, how, i, got[i], want[i])
						}
					}
				}
				multi := oddCopy(dst, 5)
				f.MultXORsMulti(multi, srcs, consts)
				check("MultXORsMulti", multi)

				row := oddCopy(dst, 7)
				CompileRow(f, consts).MultXOR(row, srcs)
				check("CompileRow", row)

				if sh.terms == 1 {
					single := oddCopy(dst, 1)
					MultiplierFor(f, consts[0]).MultXOR(single, srcs[0])
					check("Multiplier", single)
				}
			}
		}
	}
}

// TestCompileRowMatchesMulti: the compiled row kernel computes the same
// result as the on-the-fly fused call, skips zero coefficients
// (tolerating nil sources in those lanes), and reports the nonzero term
// count. Runs on both kernel paths.
func TestCompileRowMatchesMulti(t *testing.T) {
	forBothKernelPaths(t, testCompileRowMatchesMulti)
}

func testCompileRowMatchesMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, f := range []Field{GF8, GF16, GF32} {
		size := 40 * f.WordBytes()
		consts := randConsts(rng, f, 9)
		consts[0], consts[4], consts[8] = 0, 0, 0
		srcs := randSrcs(rng, 9, size)
		srcs[0], srcs[4], srcs[8] = nil, nil, nil // zero lanes must never be touched

		kern := CompileRow(f, consts)
		nz := 0
		for _, a := range consts {
			if a != 0 {
				nz++
			}
		}
		if kern.Terms() != nz {
			t.Fatalf("GF%d: Terms() = %d, want %d", f.W(), kern.Terms(), nz)
		}

		dst := make([]byte, size)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		kern.MultXOR(dst, srcs)

		for k, a := range consts {
			if a == 0 {
				continue
			}
			f.MultXORs(want, srcs[k], a)
		}
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("GF%d: byte %d = %#x want %#x", f.W(), i, dst[i], want[i])
			}
		}
	}
}

// TestCompileRowsReadBack: CompileRows lowers every row of a matrix
// like CompileRow does, and Term reads each row's columns and
// coefficients back in column order, coefficient 1 included.
func TestCompileRowsReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for _, f := range []Field{GF8, GF16, GF32} {
		const rows, cols = 3, 7
		size := 24 * f.WordBytes()
		coeffs := randConsts(rng, f, rows*cols)
		coeffs[1], coeffs[9], coeffs[20] = 0, 1, 1
		srcs := randSrcs(rng, cols, size)
		kerns := CompileRows(f, rows, cols, coeffs)
		for i, kern := range kerns {
			row := coeffs[i*cols : (i+1)*cols]
			k := 0
			for j, a := range row {
				if a == 0 {
					continue
				}
				col, m := kern.Term(k)
				if col != j || m.Coefficient() != a {
					t.Fatalf("GF%d row %d term %d: (%d, %#x), want (%d, %#x)", f.W(), i, k, col, m.Coefficient(), j, a)
				}
				k++
			}
			if kern.Terms() != k {
				t.Fatalf("GF%d row %d: Terms() = %d, want %d", f.W(), i, kern.Terms(), k)
			}
			dst := make([]byte, size)
			want := make([]byte, size)
			kern.MultXOR(dst, srcs)
			CompileRow(f, row).MultXOR(want, srcs)
			if !bytes.Equal(dst, want) {
				t.Fatalf("GF%d row %d: CompileRows and CompileRow disagree", f.W(), i)
			}
		}
	}
}

// TestMultXORsMultiAccumulates: two fused calls accumulate like four
// single-term calls — the ^= contract.
func TestMultXORsMultiAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	f := GF16
	srcs := randSrcs(rng, 2, 32)
	consts := []uint32{0x1234, 0x00FF}
	fused := make([]byte, 32)
	f.MultXORsMulti(fused, srcs, consts)
	f.MultXORsMulti(fused, srcs, consts)
	for i, b := range fused {
		if b != 0 {
			t.Fatalf("double apply did not cancel at byte %d: %#x", i, b)
		}
	}
}

// TestMultXORsMultiMismatchPanics: srcs/consts length disagreement is a
// programming error and must panic, for every field and for compiled
// rows.
func TestMultXORsMultiMismatchPanics(t *testing.T) {
	for _, f := range []Field{GF8, GF16, GF32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("GF%d: mismatched srcs/consts did not panic", f.W())
				}
			}()
			f.MultXORsMulti(make([]byte, 8), make([][]byte, 2), []uint32{1})
		}()
	}
	kern := CompileRow(GF8, []uint32{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("compiled row with wrong src count did not panic")
		}
	}()
	kern.MultXOR(make([]byte, 8), make([][]byte, 3))
}

// FuzzFusedAgainstScalar drives the fused path with arbitrary constants
// and buffer contents and cross-checks the scalar reference on all
// three fields (the buffer is truncated to each field's word multiple),
// at the input's own length and at 320 bytes more, exercising both the
// affine and the portable table kernels.
func FuzzFusedAgainstScalar(f *testing.F) {
	f.Add(uint32(2), uint32(3), uint32(0x1001), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint32(0), uint32(1), uint32(0xFFFFFFFF), make([]byte, 40))
	f.Add(uint32(0x8001), uint32(0xDEAD), uint32(0xBEEF), []byte{0xFF})
	f.Add(uint32(7), uint32(0x1F0F), uint32(0xA5A5A5A5), make([]byte, 200))

	f.Fuzz(func(t *testing.T, a, b, c uint32, data []byte) {
		// The input as given covers the short regions; a copy tiled out
		// to 320+len(data) bytes puts every input through the 256-byte
		// block loop, the 64-byte remainder and the tail as well.
		long := make([]byte, 320+len(data))
		for i := range long {
			long[i] = byte(i * 13)
			if len(data) > 0 {
				long[i] ^= data[i%len(data)]
			}
		}
		for _, affine := range []bool{true, false} {
			prev := SetAffineKernels(affine)
			for _, buf := range [][]byte{data, long} {
				for _, field := range []Field{GF8, GF16, GF32} {
					wb := field.WordBytes()
					n := len(buf) - len(buf)%wb
					if n == 0 {
						continue
					}
					mask := uint32(field.Order() - 1)
					consts := []uint32{a & mask, b & mask, c & mask}
					srcs := [][]byte{buf[:n], make([]byte, n), make([]byte, n)}
					for i := 0; i < n; i++ {
						srcs[1][i] = byte(i * 7)
						srcs[2][i] = buf[n-1-i]
					}
					dst := make([]byte, n)
					copy(dst, buf[:n])
					want := append([]byte(nil), dst...)

					field.MultXORsMulti(dst, srcs, consts)
					refMultiXOR(field, want, srcs, consts)
					for i := range dst {
						if dst[i] != want[i] {
							t.Fatalf("GF%d affine=%v n=%d: byte %d = %#x want %#x",
								field.W(), affine, n, i, dst[i], want[i])
						}
					}
				}
			}
			SetAffineKernels(prev)
		}
	})
}
