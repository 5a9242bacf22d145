package matrix

import (
	"errors"
	"fmt"

	"ppm/internal/gf"
)

// ErrSingular is returned by Invert when the matrix has no inverse.
// For a decoder this means the failure pattern is not recoverable by
// this code instance (or the coding coefficients are unsuitable).
var ErrSingular = errors.New("matrix: singular matrix")

// Invert returns m^-1 using Gauss–Jordan elimination with row pivoting,
// or ErrSingular. m is not modified. This implements Step 3 of the
// traditional decoding process and Step 3.2 of PPM.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	inv := New(m.field, m.rows, m.rows)
	if err := InvertInto(m.field, inv.data, m.Clone().data, m.rows); err != nil {
		return nil, err
	}
	return inv, nil
}

// InvertInto writes the inverse of the n x n row-major matrix a into
// dst, or returns ErrSingular. a is the elimination workspace and is
// overwritten; dst and a must not overlap. It allocates nothing, so a
// planner can invert in pooled scratch straight into its own storage.
func InvertInto(f gf.Field, dst, a []uint32, n int) error {
	if len(a) != n*n || len(dst) != n*n {
		panic(fmt.Sprintf("matrix: InvertInto on %d and %d entries for n=%d", len(dst), len(a), n))
	}
	clear(dst)
	for i := 0; i < n; i++ {
		dst[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Pivot: first nonzero at or below the diagonal.
		pivot := -1
		for i := col; i < n; i++ {
			if a[i*n+col] != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		swapRows(a, n, col, pivot)
		swapRows(dst, n, col, pivot)

		if pv := a[col*n+col]; pv != 1 {
			s := f.Inv(pv)
			scaleRow(f, a, n, col, s)
			scaleRow(f, dst, n, col, s)
		}
		for i := 0; i < n; i++ {
			if i == col {
				continue
			}
			if c := a[i*n+col]; c != 0 {
				addScaledRow(f, a, n, i, col, c)
				addScaledRow(f, dst, n, i, col, c)
			}
		}
	}
	return nil
}

// Invertible reports whether m is square and nonsingular.
func (m *Matrix) Invertible() bool {
	if m.rows != m.cols {
		return false
	}
	return m.Rank() == m.rows
}

// PivotRows returns indices of rows of m forming a square invertible
// basis: exactly m.Cols() rows whose restriction to all columns has full
// rank. It is used when a decode is over-determined (fewer erasures than
// parity-check rows, e.g. LRC degraded reads): the decoder keeps only
// the selected equations so F becomes square. Rows are chosen greedily
// in order, so equations earlier in H (for LRC: the cheap local rows)
// are preferred over later ones (the dense global rows) — which is also
// what minimises u(S) for the surviving part.
func (m *Matrix) PivotRows() ([]int, error) {
	want := m.cols
	if m.rows < want {
		return nil, ErrSingular
	}
	f := m.field
	var chosen []int
	// reduced holds the chosen rows after forward elimination, and
	// pivotCol[i] the leading column of reduced row i.
	var reduced [][]uint32
	var pivotCol []int
	for r := 0; r < m.rows && len(chosen) < want; r++ {
		row := append([]uint32(nil), m.Row(r)...)
		for i, pc := range pivotCol {
			if row[pc] != 0 {
				c := f.Div(row[pc], reduced[i][pc])
				for k := range row {
					if reduced[i][k] != 0 {
						row[k] ^= f.Mul(c, reduced[i][k])
					}
				}
			}
		}
		lead := -1
		for k, v := range row {
			if v != 0 {
				lead = k
				break
			}
		}
		if lead < 0 {
			continue // linearly dependent on the chosen rows
		}
		chosen = append(chosen, r)
		reduced = append(reduced, row)
		pivotCol = append(pivotCol, lead)
	}
	if len(chosen) != want {
		return nil, ErrSingular
	}
	return chosen, nil
}
