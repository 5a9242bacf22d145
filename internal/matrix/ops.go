package matrix

import (
	"fmt"

	"ppm/internal/gf"
)

// Mul returns the matrix product m * o. The scalar cost of matrix-matrix
// products is negligible next to matrix-times-block-region products
// (paper §II-B footnote 2), so no cost accounting happens here.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	if m.field != o.field {
		panic("matrix: mixed fields in Mul")
	}
	p := New(m.field, m.rows, o.cols)
	MulInto(m.field, p.data, m.data, o.data, m.rows, m.cols, o.cols)
	return p
}

// MulInto writes the product of the row-major r x k matrix a and k x c
// matrix b into dst (r x c), overwriting it. dst must not overlap a or
// b. Like InvertInto it works on caller storage and allocates nothing.
func MulInto(f gf.Field, dst, a, b []uint32, r, k, c int) {
	if len(a) != r*k || len(b) != k*c || len(dst) != r*c {
		panic(fmt.Sprintf("matrix: MulInto shapes %dx%d * %dx%d with %d, %d, %d entries", r, k, k, c, len(a), len(b), len(dst)))
	}
	clear(dst)
	for i := 0; i < r; i++ {
		ai := a[i*k : (i+1)*k]
		pi := dst[i*c : (i+1)*c]
		for l, x := range ai {
			if x == 0 {
				continue
			}
			bl := b[l*c : (l+1)*c]
			if x == 1 {
				for j, y := range bl {
					pi[j] ^= y
				}
				continue
			}
			for j, y := range bl {
				if y != 0 {
					pi[j] ^= f.Mul(x, y)
				}
			}
		}
	}
}

// Add returns the entrywise sum (XOR) m + o.
func (m *Matrix) Add(o *Matrix) *Matrix {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("matrix: cannot add %dx%d and %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	s := New(m.field, m.rows, m.cols)
	for i, v := range m.data {
		s.data[i] = v ^ o.data[i]
	}
	return s
}

// MulVec multiplies m by a column vector of field scalars (used in tests
// to check H*B = 0 relations on scalar words).
func (m *Matrix) MulVec(v []uint32) []uint32 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: vector length %d, want %d", len(v), m.cols))
	}
	f := m.field
	out := make([]uint32, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var acc uint32
		for j, a := range row {
			if a != 0 && v[j] != 0 {
				acc ^= f.Mul(a, v[j])
			}
		}
		out[i] = acc
	}
	return out
}

// Transpose returns the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.field, m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// IsIdentity reports whether m is a square identity matrix.
func (m *Matrix) IsIdentity() bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			want := uint32(0)
			if i == j {
				want = 1
			}
			if m.data[i*m.cols+j] != want {
				return false
			}
		}
	}
	return true
}

// Rank returns the rank of m, computed on a scratch copy by Gaussian
// elimination.
func (m *Matrix) Rank() int {
	a := m.Clone()
	f := a.field
	rank := 0
	for col := 0; col < a.cols && rank < a.rows; col++ {
		// Find a pivot at or below `rank` in this column.
		pivot := -1
		for i := rank; i < a.rows; i++ {
			if a.data[i*a.cols+col] != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		swapRows(a.data, a.cols, rank, pivot)
		pv := a.data[rank*a.cols+col]
		scaleRow(f, a.data, a.cols, rank, f.Inv(pv))
		for i := rank + 1; i < a.rows; i++ {
			if c := a.data[i*a.cols+col]; c != 0 {
				addScaledRow(f, a.data, a.cols, i, rank, c)
			}
		}
		rank++
	}
	return rank
}

// swapRows exchanges rows i and j of the row-major matrix d with the
// given column count.
func swapRows(d []uint32, cols, i, j int) {
	if i == j {
		return
	}
	ri := d[i*cols : (i+1)*cols]
	rj := d[j*cols : (j+1)*cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// scaleRow multiplies row i of d by the scalar a.
func scaleRow(f gf.Field, d []uint32, cols, i int, a uint32) {
	row := d[i*cols : (i+1)*cols]
	for k, v := range row {
		if v != 0 {
			row[k] = f.Mul(v, a)
		}
	}
}

// addScaledRow does row_i ^= a * row_j on d.
func addScaledRow(f gf.Field, d []uint32, cols, i, j int, a uint32) {
	ri := d[i*cols : (i+1)*cols]
	rj := d[j*cols : (j+1)*cols]
	if a == 1 {
		for k, v := range rj {
			ri[k] ^= v
		}
		return
	}
	for k, v := range rj {
		if v != 0 {
			ri[k] ^= f.Mul(a, v)
		}
	}
}
