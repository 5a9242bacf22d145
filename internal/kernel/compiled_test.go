package kernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// TestCompiledApplyMatchesApply: the lowered form computes exactly what
// the matrix form computes, with the same operation count.
func TestCompiledApplyMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		f := f
		t.Run(fmt.Sprintf("GF%d", f.W()), func(t *testing.T) {
			m := randMatrix(rng, f, 4, 7)
			m.Set(1, 1, 0)
			m.Set(3, 6, 0)
			n := 32 * f.WordBytes()
			in := randRegions(rng, 7, n)

			plain := AllocRegions(4, n)
			var plainStats Stats
			Apply(f, m, in, plain, &plainStats)

			cm := Compile(f, m)
			if cm.Rows() != 4 || cm.Cols() != 7 {
				t.Fatalf("compiled dims %dx%d", cm.Rows(), cm.Cols())
			}
			if cm.NNZ() != m.NNZ() {
				t.Fatalf("compiled NNZ %d != %d", cm.NNZ(), m.NNZ())
			}
			compiled := AllocRegions(4, n)
			var compiledStats Stats
			cm.Apply(in, compiled, &compiledStats)

			for i := range plain {
				if !bytes.Equal(plain[i], compiled[i]) {
					t.Fatalf("row %d differs", i)
				}
			}
			if plainStats.MultXORs() != compiledStats.MultXORs() {
				t.Fatalf("op counts differ: %d vs %d", plainStats.MultXORs(), compiledStats.MultXORs())
			}
		})
	}
}

func TestCompiledProductBothSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	f := gf.GF16
	finv := randInvertible(rng, f, 3)
	s := randMatrix(rng, f, 3, 6)
	n := 64
	in := randRegions(rng, 6, n)

	ref := AllocRegions(3, n)
	Product(f, finv, s, in, ref, nil, Normal, nil)

	cFinv, cS, cG := Compile(f, finv), Compile(f, s), Compile(f, finv.Mul(s))
	for _, seq := range []Sequence{Normal, MatrixFirst} {
		out := AllocRegions(3, n)
		var stats Stats
		CompiledProduct(cFinv, cS, cG, in, out, nil, seq, &stats)
		for i := range out {
			if !bytes.Equal(out[i], ref[i]) {
				t.Fatalf("%v: row %d differs from reference", seq, i)
			}
		}
		want := int64(cG.NNZ())
		if seq == Normal {
			want = int64(cFinv.NNZ() + cS.NNZ())
		}
		if stats.MultXORs() != want {
			t.Fatalf("%v: ops %d, want %d", seq, stats.MultXORs(), want)
		}
	}
}

func TestCompiledApplyShapePanics(t *testing.T) {
	cm := Compile(gf.GF8, randMatrix(rand.New(rand.NewSource(153)), gf.GF8, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	cm.Apply(AllocRegions(2, 8), AllocRegions(2, 8), nil)
}

// TestCompileSharesMultipliers: equal coefficients compile to one
// multiplier (pointer-shared), keeping table memory proportional to the
// number of distinct coefficients.
func TestCompileSharesMultipliers(t *testing.T) {
	f := gf.GF16
	m := randMatrix(rand.New(rand.NewSource(154)), f, 1, 1)
	m.Set(0, 0, 0x55)
	big := Compile(f, m)
	_ = big
	// Build a 3x3 all-0x55 matrix; all 9 entries must share a multiplier.
	mm := randMatrix(rand.New(rand.NewSource(155)), f, 3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			mm.Set(i, j, 0x55)
		}
	}
	cm := Compile(f, mm)
	first := cm.RowTerms(0)[0].Mult
	for i := 0; i < cm.Rows(); i++ {
		for _, term := range cm.RowTerms(i) {
			if term.Mult != first {
				t.Fatal("equal coefficients got distinct multipliers")
			}
		}
	}
}

// TestRowTermsRebuildCompiledMatrix: reading every row kernel's terms
// back rebuilds exactly the matrix Compile lowered, in every field.
func TestRowTermsRebuildCompiledMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		m := randMatrix(rng, f, 5, 9)
		m.Set(0, 0, 0)
		m.Set(1, 2, 1)
		cm := Compile(f, m)
		got := matrix.New(f, cm.Rows(), cm.Cols())
		for i := 0; i < cm.Rows(); i++ {
			for _, term := range cm.RowTerms(i) {
				got.Set(i, term.Col, term.Mult.Coefficient())
			}
		}
		if !got.Equal(m) || cm.NNZ() != m.NNZ() {
			t.Fatalf("GF(2^%d): row terms rebuild\n%vwant\n%v", f.W(), got, m)
		}
	}
}

func BenchmarkCompiledVsPlainApply(b *testing.B) {
	rng := rand.New(rand.NewSource(156))
	f := gf.GF16
	m := randMatrix(rng, f, 8, 16)
	in := randRegions(rng, 16, 4096)
	out := AllocRegions(8, 4096)
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(16 * 4096))
		for i := 0; i < b.N; i++ {
			Apply(f, m, in, out, nil)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		cm := Compile(f, m)
		b.SetBytes(int64(16 * 4096))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Apply(in, out, nil)
		}
	})
}
