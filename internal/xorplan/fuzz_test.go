package xorplan

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// FuzzProgramVsScalar drives arbitrary matrices over all three fields
// through Compile + RunOverwrite/RunAccumulate and cross-checks every
// output word against scalar field arithmetic (gf.Field.Mul — fully
// independent of the table, affine and XOR region kernels). The fuzzer
// owns the whole backend: polynomial lowering, CSE/Prim scheduling,
// slot allocation, tiling and the fused XOR kernels all sit on the
// checked path. (Runs its seed corpus under plain `go test`; explore
// with `go test -fuzz FuzzProgramVsScalar`.)
func FuzzProgramVsScalar(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte("\x01\x00\x00\x00abcdefgh"))
	f.Add(uint8(1), uint8(3), uint8(2), uint8(7), bytes.Repeat([]byte{0x35, 0xA7, 2, 0xFF}, 32))
	f.Add(uint8(2), uint8(2), uint8(4), uint8(255), bytes.Repeat([]byte{9, 0, 0x80, 1, 0x55}, 40))
	// Dense random 5x5 matrices in every field: their expansions share
	// source pairs across rows, so ScheduleSets keeps a CSE program with
	// temps and these seeds hold the CSE arm on the checked path.
	dense := make([]byte, 5*5*4+5*4*16)
	rand.New(rand.NewSource(1)).Read(dense)
	for sel := uint8(0); sel < 3; sel++ {
		f.Add(sel, uint8(4), uint8(4), uint8(3), dense)
	}

	fields := []gf.Field{gf.GF8, gf.GF16, gf.GF32}
	f.Fuzz(func(t *testing.T, fieldSel, r, c, flags uint8, raw []byte) {
		fld := fields[int(fieldSel)%len(fields)]
		rows := int(r%5) + 1
		cols := int(c%5) + 1
		wb := fld.WordBytes()
		coefBytes := rows * cols * 4
		if len(raw) < coefBytes+cols*wb {
			return
		}
		mask := uint32((fld.Order() - 1) & 0xFFFFFFFF)
		m := matrix.New(fld, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, binary.LittleEndian.Uint32(raw[4*(i*cols+j):])&mask)
			}
		}
		data := raw[coefBytes:]
		words := len(data) / (cols * wb)
		if words > 1024 {
			words = 1024
		}
		size := words * wb
		in := make([][]byte, cols)
		for j := range in {
			in[j] = data[j*size : (j+1)*size]
		}

		prog, err := Compile(fld, m)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if prog.XORs() > prog.Ones() {
			t.Fatalf("scheduled %d XORs, naive lowering needs %d", prog.XORs(), prog.Ones())
		}

		word := func(region []byte, w int) uint32 {
			var v uint32
			for b := 0; b < wb; b++ {
				v |= uint32(region[w*wb+b]) << (8 * b)
			}
			return v
		}
		want := make([][]uint32, rows)
		for i := range want {
			want[i] = make([]uint32, words)
			for j := 0; j < cols; j++ {
				a := m.At(i, j)
				if a == 0 {
					continue
				}
				for w := 0; w < words; w++ {
					want[i][w] ^= fld.Mul(a, word(in[j], w))
				}
			}
		}
		check := func(mode string, out [][]byte, base [][]byte, loWord int) {
			for i := range out {
				for w := 0; w < words; w++ {
					got := word(out[i], w)
					exp := want[i][w]
					if w < loWord {
						exp = word(base[i], w) // outside the run window: untouched
					} else if base != nil && mode == "accumulate" {
						exp ^= word(base[i], w)
					}
					if got != exp {
						t.Fatalf("%s: row %d word %d = %#x, want %#x (gf%d %dx%d)",
							mode, i, w, got, exp, fld.W(), rows, cols)
					}
				}
			}
		}

		stale := byte(flags | 1)
		out := make([][]byte, rows)
		for i := range out {
			out[i] = bytes.Repeat([]byte{stale}, size)
		}
		prog.RunOverwrite(in, out, 0, size)
		check("overwrite", out, nil, 0)

		// Partial window: [loWord, words), bytes below left stale.
		loWord := int(flags) % words
		base := make([][]byte, rows)
		outW := make([][]byte, rows)
		for i := range outW {
			base[i] = bytes.Repeat([]byte{stale ^ 0xFF}, size)
			outW[i] = append([]byte(nil), base[i]...)
		}
		prog.RunOverwrite(in, outW, loWord*wb, size)
		check("window", outW, base, loWord)

		if !prog.HasDerivative() {
			acc := make([][]byte, rows)
			for i := range acc {
				acc[i] = append([]byte(nil), base[i]...)
			}
			prog.RunAccumulate(in, acc, 0, size)
			check("accumulate", acc, base, 0)
		}
	})
}

// FuzzExpandApply drives arbitrary GF(2^8) coefficient matrices through
// the scheduler arm on its own: rowSets expands the matrix, and both
// the flat schedule and the ScheduleSets program are lowered, run and
// cross-checked against scalar matrix-vector multiplication, with the
// scheduled XOR count bounded by the flat one. (Runs its seed corpus
// under plain `go test`; explore with `go test -fuzz FuzzExpandApply`.)
func FuzzExpandApply(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(2), uint8(3), []byte{0xAB, 0xCD, 1, 0, 0xFF, 3, 9, 27, 81, 0x1D})
	f.Add(uint8(4), uint8(4), bytes.Repeat([]byte{0x55, 0xAA}, 12))
	// A dense random 4x4 matrix whose expansion is large enough for the
	// CSE arm to compete with plain Prim.
	dense := make([]byte, 4*4+4*8)
	rand.New(rand.NewSource(2)).Read(dense)
	f.Add(uint8(3), uint8(3), dense)

	field := gf.GF8
	const w, words = 8, 8
	f.Fuzz(func(t *testing.T, r, c uint8, raw []byte) {
		rows := int(r%4) + 1
		cols := int(c%4) + 1
		need := rows*cols + cols*words // coefficients, then one region per column
		if len(raw) < need {
			return
		}
		m := matrix.New(field, rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, uint32(raw[i*cols+j]))
			}
		}
		in := make([][]byte, cols)
		for j := range in {
			in[j] = raw[rows*cols+j*words : rows*cols+(j+1)*words]
		}

		want := make([][]byte, rows)
		for i := range want {
			want[i] = make([]byte, words)
			for j := 0; j < cols; j++ {
				a := m.At(i, j)
				for s := 0; s < words; s++ {
					want[i][s] ^= byte(field.Mul(a, uint32(in[j][s])))
				}
			}
		}

		sets, ones := rowSets(w, m)
		inCount := cols * w
		sched := ScheduleSets(sets, inCount)
		if sched.XORCount > ones {
			t.Fatalf("scheduled %d XORs, flat schedule uses %d", sched.XORCount, ones)
		}
		for name, s := range map[string]*SetSchedule{"flat": flatSets(sets, inCount, ones), "scheduled": sched} {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prog, err := lower(w, rows, cols, s, ones)
			if err != nil {
				t.Fatalf("%s: lower: %v", name, err)
			}
			out := make([][]byte, rows)
			for i := range out {
				out[i] = bytes.Repeat([]byte{0xEE}, words)
			}
			prog.RunOverwrite(in, out, 0, words)
			for i := range want {
				if !bytes.Equal(out[i], want[i]) {
					t.Fatalf("%s: row %d = %x, want %x (matrix %dx%d)", name, i, out[i], want[i], rows, cols)
				}
			}
		}
	})
}
