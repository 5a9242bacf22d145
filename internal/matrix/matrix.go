// Package matrix implements dense matrix algebra over GF(2^w) for the
// parity-check method: construction, multiplication, Gauss–Jordan
// inversion, row/column extraction and the nonzero count u(M) that the
// PPM paper's cost model C1..C4 is defined on.
package matrix

import (
	"fmt"

	"ppm/internal/gf"
)

// Matrix is a dense rows x cols matrix with entries in the field.
// Entries are stored row-major. The zero Matrix is not usable; build
// with New or one of the derivation helpers.
type Matrix struct {
	rows, cols int
	data       []uint32
	field      gf.Field
}

// New returns a zero-filled rows x cols matrix over the field.
func New(field gf.Field, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{
		rows:  rows,
		cols:  cols,
		data:  make([]uint32, rows*cols),
		field: field,
	}
}

// Wrap returns a rows x cols matrix over caller storage: data holds the
// entries row-major and is used, not copied. It lets a caller lay many
// small matrices out in one backing array and keep their headers in
// one slice.
func Wrap(field gf.Field, rows, cols int, data []uint32) Matrix {
	if rows < 0 || cols < 0 || len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: %d entries for a %dx%d matrix", len(data), rows, cols))
	}
	return Matrix{rows: rows, cols: cols, data: data[:len(data):len(data)], field: field}
}

// FromRows builds a matrix from row slices (all the same length).
// Intended for tests and worked examples.
func FromRows(field gf.Field, rows [][]uint32) *Matrix {
	if len(rows) == 0 {
		return New(field, 0, 0)
	}
	m := New(field, len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("matrix: row %d has %d entries, want %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(field gf.Field, n int) *Matrix {
	m := New(field, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Field returns the field the entries live in.
func (m *Matrix) Field() gf.Field { return m.field }

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) uint32 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Matrix) Set(i, j int, v uint32) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Row returns a read-only view of row i. Callers must not modify it.
func (m *Matrix) Row(i int) []uint32 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Data returns a read-only row-major view of every entry. Callers must
// not modify it.
func (m *Matrix) Data() []uint32 { return m.data[:len(m.data):len(m.data)] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.field, m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and entries.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if o.data[i] != v {
			return false
		}
	}
	return true
}

// NNZ returns u(M), the number of nonzero coefficients. One nonzero
// coefficient costs exactly one mult_XORs() in a matrix-times-blocks
// product, which is why the paper's C1..C4 are sums of NNZ values.
func (m *Matrix) NNZ() int {
	n := 0
	for _, v := range m.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool { return m.NNZ() == 0 }

// ColumnIsZero reports whether column j is entirely zero.
func (m *Matrix) ColumnIsZero(j int) bool {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: column %d out of range [0,%d)", j, m.cols))
	}
	for i := 0; i < m.rows; i++ {
		if m.data[i*m.cols+j] != 0 {
			return false
		}
	}
	return true
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}
