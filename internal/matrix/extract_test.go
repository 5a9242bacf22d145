package matrix

import (
	"math/rand"
	"reflect"
	"testing"

	"ppm/internal/gf"
)

func TestSelectColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
	})
	s := m.SelectColumns([]int{3, 1})
	want := FromRows(gf.GF8, [][]uint32{
		{4, 2},
		{8, 6},
	})
	if !s.Equal(want) {
		t.Fatalf("got\n%vwant\n%v", s, want)
	}
	if got := m.SelectColumns(nil); got.Cols() != 0 || got.Rows() != 2 {
		t.Fatalf("empty selection dims = %s", got.Dims())
	}
}

func TestSelectColumnsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	New(gf.GF8, 2, 2).SelectColumns([]int{2})
}

func TestSelectRows(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{1, 2},
		{3, 4},
		{5, 6},
	})
	s := m.SelectRows([]int{2, 0})
	want := FromRows(gf.GF8, [][]uint32{
		{5, 6},
		{1, 2},
	})
	if !s.Equal(want) {
		t.Fatalf("got\n%vwant\n%v", s, want)
	}
}

func TestSelectRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	New(gf.GF8, 2, 2).SelectRows([]int{-1})
}

func TestNonzeroColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{0, 1, 0, 2},
		{0, 0, 0, 3},
	})
	if got := m.NonzeroColumns(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("NonzeroColumns = %v", got)
	}
	if got := New(gf.GF8, 2, 3).NonzeroColumns(); got != nil {
		t.Fatalf("all-zero matrix NonzeroColumns = %v", got)
	}
}

// TestNonzeroColumnsMatchesColumnScan pins the row-major mask pass to
// the column-by-column definition on random sparse matrices, including
// empty and all-zero shapes.
func TestNonzeroColumnsMatchesColumnScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		rows, cols := rng.Intn(9), rng.Intn(24)
		m := New(gf.GF16, rows, cols)
		density := rng.Float64() * 0.3
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if rng.Float64() < density {
					m.Set(i, j, uint32(1+rng.Intn(0xFFFF)))
				}
			}
		}
		var want []int
		for j := 0; j < cols; j++ {
			if !m.ColumnIsZero(j) {
				want = append(want, j)
			}
		}
		if got := m.NonzeroColumns(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%d): NonzeroColumns = %v, column scan = %v", trial, rows, cols, got, want)
		}
	}
}

func TestSplitColumns(t *testing.T) {
	m := FromRows(gf.GF8, [][]uint32{
		{10, 11, 12, 13, 14},
	})
	faulty := map[int]bool{1: true, 4: true}
	sel, rest, selCols, restCols := m.SplitColumns(func(c int) bool { return faulty[c] })
	if !reflect.DeepEqual(selCols, []int{1, 4}) || !reflect.DeepEqual(restCols, []int{0, 2, 3}) {
		t.Fatalf("split cols = %v / %v", selCols, restCols)
	}
	if sel.At(0, 0) != 11 || sel.At(0, 1) != 14 {
		t.Fatalf("sel = %v", sel)
	}
	if rest.At(0, 0) != 10 || rest.At(0, 2) != 13 {
		t.Fatalf("rest = %v", rest)
	}
}

// TestSplitReassemble: selecting complementary column sets preserves all
// entries (F plus S account for every column of H, Step 2 of §II-B).
func TestSplitReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := randomMatrix(rng, gf.GF8, 5, 9)
	isSel := func(c int) bool { return c%3 == 0 }
	sel, rest, selCols, restCols := m.SplitColumns(isSel)
	if sel.Cols()+rest.Cols() != m.Cols() {
		t.Fatal("column counts do not add up")
	}
	for j, c := range selCols {
		for i := 0; i < m.Rows(); i++ {
			if sel.At(i, j) != m.At(i, c) {
				t.Fatal("sel entry mismatch")
			}
		}
	}
	for j, c := range restCols {
		for i := 0; i < m.Rows(); i++ {
			if rest.At(i, j) != m.At(i, c) {
				t.Fatal("rest entry mismatch")
			}
		}
	}
}
