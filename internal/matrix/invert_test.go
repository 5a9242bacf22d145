package matrix

import (
	"errors"
	"math/rand"
	"testing"

	"ppm/internal/gf"
)

func TestInvertIdentity(t *testing.T) {
	for _, tf := range opsFields {
		id := Identity(tf.f, 6)
		inv, err := id.Invert()
		if err != nil {
			t.Fatalf("%s: %v", tf.name, err)
		}
		if !inv.IsIdentity() {
			t.Fatalf("%s: inverse of I is not I", tf.name)
		}
	}
}

func TestInvertRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tf := range opsFields {
		tf := tf
		t.Run(tf.name, func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 5, 8, 16} {
				m := randomInvertible(rng, tf.f, n)
				inv, err := m.Invert()
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !m.Mul(inv).IsIdentity() {
					t.Fatalf("n=%d: A * A^-1 != I", n)
				}
				if !inv.Mul(m).IsIdentity() {
					t.Fatalf("n=%d: A^-1 * A != I", n)
				}
			}
		})
	}
}

func TestInvertSingular(t *testing.T) {
	// Row 1 = 2 * row 0 over GF(2^8).
	f := gf.GF8
	m := FromRows(f, [][]uint32{
		{1, 2, 3},
		{2, 4, 6},
		{0, 0, 5},
	})
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if m.Invertible() {
		t.Fatal("singular matrix reported invertible")
	}
	zero := New(f, 3, 3)
	if _, err := zero.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix err = %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(gf.GF8, 2, 3).Invert(); err == nil {
		t.Fatal("non-square Invert did not error")
	}
	if New(gf.GF8, 2, 3).Invertible() {
		t.Fatal("non-square matrix reported invertible")
	}
}

func TestInvertDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomInvertible(rng, gf.GF8, 5)
	before := m.Clone()
	if _, err := m.Invert(); err != nil {
		t.Fatal(err)
	}
	if !m.Equal(before) {
		t.Fatal("Invert modified its receiver")
	}
}

func TestInvertInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomInvertible(rng, gf.GF16, 6)
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	back, err := inv.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatal("(A^-1)^-1 != A")
	}
}

// TestCauchyAlwaysInvertible pins the property the RS baseline relies
// on: every square Cauchy matrix over a field is invertible.
func TestCauchyAlwaysInvertible(t *testing.T) {
	f := gf.GF8
	for _, n := range []int{1, 2, 3, 4, 6} {
		c := New(f, n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// x_i = i, y_j = n + j: disjoint sets, so x_i + y_j != 0.
				c.Set(i, j, f.Inv(uint32(i)^uint32(n+j)))
			}
		}
		if !c.Invertible() {
			t.Fatalf("Cauchy %dx%d not invertible", n, n)
		}
	}
}

// TestInverseProductNNZ reproduces the paper's §II-B observation on the
// worked example's matrices: u(F^-1 * S) can differ from u(F^-1) + u(S),
// which is exactly why calculation order matters.
func TestInverseProductNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	diffSeen := false
	for trial := 0; trial < 50 && !diffSeen; trial++ {
		fM := randomInvertible(rng, gf.GF8, 4)
		s := randomMatrix(rng, gf.GF8, 4, 7)
		inv, err := fM.Invert()
		if err != nil {
			t.Fatal(err)
		}
		if inv.Mul(s).NNZ() != inv.NNZ()+s.NNZ() {
			diffSeen = true
		}
	}
	if !diffSeen {
		t.Fatal("never observed u(F^-1 S) != u(F^-1)+u(S); NNZ logic suspect")
	}
}

func TestPivotRows(t *testing.T) {
	f := gf.GF8
	// 4 rows, 2 columns; row 1 duplicates row 0.
	m := FromRows(f, [][]uint32{
		{1, 2},
		{1, 2},
		{0, 3},
		{5, 0},
	})
	rows, err := m.PivotRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0] != 0 || rows[1] != 2 {
		t.Fatalf("rows = %v, want greedy [0 2]", rows)
	}
	if !m.SelectRows(rows).Invertible() {
		t.Fatal("selected rows not invertible")
	}
}

func TestPivotRowsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 30; trial++ {
		cols := 1 + rng.Intn(5)
		rows := cols + rng.Intn(4)
		// Build a full-column-rank matrix: random invertible square
		// stacked with random extra rows, then shuffled.
		sq := randomInvertible(rng, gf.GF8, cols)
		m := New(gf.GF8, rows, cols)
		perm := rng.Perm(rows)
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				m.Set(perm[i], j, sq.At(i, j))
			}
		}
		for i := cols; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(perm[i], j, uint32(rng.Intn(256)))
			}
		}
		idx, err := m.PivotRows()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(idx) != cols || !m.SelectRows(idx).Invertible() {
			t.Fatalf("trial %d: bad pivot rows %v", trial, idx)
		}
	}
}

func TestPivotRowsSingular(t *testing.T) {
	// Rank-deficient: both rows proportional.
	m := FromRows(gf.GF8, [][]uint32{
		{1, 2},
		{2, 4},
		{3, 6},
	})
	if _, err := m.PivotRows(); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Fewer rows than columns.
	if _, err := New(gf.GF8, 1, 3).PivotRows(); !errors.Is(err, ErrSingular) {
		t.Fatal("short matrix accepted")
	}
}

// TestIntoHelpersOnCallerStorage: InvertInto and MulInto write F^-1 and
// F^-1 * S into windows of one caller array, without allocating, and
// Wrap views those windows as matrices equal to Invert's and Mul's.
func TestIntoHelpersOnCallerStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, f := range []gf.Field{gf.GF8, gf.GF16, gf.GF32} {
		const n, c = 4, 6
		fm := randomInvertible(rng, f, n)
		sm := randomMatrix(rng, f, n, c)
		slab := make([]uint32, n*n+n*c)
		work := make([]uint32, n*n)
		if avg := testing.AllocsPerRun(10, func() {
			copy(work, fm.Data())
			if err := InvertInto(f, slab[:n*n], work, n); err != nil {
				t.Fatal(err)
			}
			MulInto(f, slab[n*n:], slab[:n*n], sm.Data(), n, n, c)
		}); avg != 0 {
			t.Errorf("GF(2^%d): Into helpers allocate %.1f/op", f.W(), avg)
		}
		want, err := fm.Invert()
		if err != nil {
			t.Fatal(err)
		}
		finv := Wrap(f, n, n, slab[:n*n])
		g := Wrap(f, n, c, slab[n*n:])
		if !finv.Equal(want) || !g.Equal(want.Mul(sm)) {
			t.Fatalf("GF(2^%d): Into helpers disagree with Invert and Mul", f.W())
		}

		copy(work, New(f, n, n).Data()) // all-zero F
		if err := InvertInto(f, slab[:n*n], work, n); !errors.Is(err, ErrSingular) {
			t.Fatalf("GF(2^%d): singular InvertInto returned %v", f.W(), err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap accepted storage of the wrong size")
		}
	}()
	Wrap(gf.GF8, 2, 3, make([]uint32, 5))
}
