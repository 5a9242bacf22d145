package matrix

import "fmt"

// SelectColumns returns the sub-matrix made of the given columns, in the
// given order. This is Step 2 of the decoding process: the faulty-block
// columns become F, the surviving-block columns become S.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	s := New(m.field, m.rows, len(cols))
	for j, c := range cols {
		if c < 0 || c >= m.cols {
			panic(fmt.Sprintf("matrix: column %d out of range [0,%d)", c, m.cols))
		}
		for i := 0; i < m.rows; i++ {
			s.data[i*s.cols+j] = m.data[i*m.cols+c]
		}
	}
	return s
}

// SelectRows returns the sub-matrix made of the given rows, in order:
// the traditional decode keeps an over-determined F's pivot rows this
// way.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	s := New(m.field, len(rows), m.cols)
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", r, m.rows))
		}
		copy(s.data[i*s.cols:(i+1)*s.cols], m.data[r*m.cols:(r+1)*m.cols])
	}
	return s
}

// SplitColumns partitions the columns of m into (selected, rest) by a
// membership predicate over column indices, preserving order. Used to
// derive F (faulty columns) and S (surviving columns) in one pass.
func (m *Matrix) SplitColumns(selected func(col int) bool) (sel, rest *Matrix, selCols, restCols []int) {
	for j := 0; j < m.cols; j++ {
		if selected(j) {
			selCols = append(selCols, j)
		} else {
			restCols = append(restCols, j)
		}
	}
	return m.SelectColumns(selCols), m.SelectColumns(restCols), selCols, restCols
}
