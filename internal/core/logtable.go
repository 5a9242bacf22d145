// Package core implements the paper's contribution: the Partitioned and
// Parallel Matrix (PPM) algorithm. A decode is planned in three steps —
// build the log table (§III-A), partition H into p independent
// sub-matrices plus a remaining sub-matrix, and choose the calculation
// sequence with the lowest computational cost (§III-B) — and executed by
// decoding the independent sub-matrices on T worker goroutines before
// merging the recovered blocks into the remaining decode (§III-C/D).
package core

import (
	"fmt"
	"strconv"
	"strings"

	"ppm/internal/matrix"
)

// LogRow is one row (i, t_i, l_i) of the log table: for row i of H,
// T counts the nonzero coefficients that fall in faulty columns and L
// lists those column indices in ascending order.
type LogRow struct {
	Row int
	T   int
	L   []int
}

// LogTable is the §III-A data structure driving the partition. It has
// one entry per row of H.
type LogTable struct {
	Rows []LogRow
}

// BuildLogTable scans H against the faulty column set. faulty must be
// sorted ascending (codes.Scenario guarantees it).
func BuildLogTable(h *matrix.Matrix, faulty []int) *LogTable {
	pl := getPlanner(h, faulty)
	defer pl.release()
	lt := new(LogTable)
	pl.logTable(lt)
	return lt
}

// logTable fills lt from the scanned row supports: l_i is the faulty
// part of row i's support. Every l_i is a window of one backing array,
// capped so that no list can grow into its neighbour's.
func (pl *planner) logTable(lt *LogTable) {
	total := 0
	for _, col := range pl.supp {
		if pl.faulty[col] {
			total++
		}
	}
	cols := make([]int, 0, total)
	lt.Rows = make([]LogRow, len(pl.off)-1)
	for i := range lt.Rows {
		start := len(cols)
		for _, col := range pl.support(i) {
			if pl.faulty[col] {
				cols = append(cols, col)
			}
		}
		lr := LogRow{Row: i, T: len(cols) - start}
		if lr.T > 0 {
			lr.L = cols[start:len(cols):len(cols)]
		}
		lt.Rows[i] = lr
	}
}

// appendKey appends l_i, comma-separated, to dst: the table's printed
// form.
func (lr LogRow) appendKey(dst []byte) []byte {
	for i, c := range lr.L {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

// String renders the table the way Figure 3 prints it.
func (lt *LogTable) String() string {
	var b strings.Builder
	b.WriteString("i   ti  li\n")
	for _, lr := range lt.Rows {
		fmt.Fprintf(&b, "%-3d %-3d (%s)\n", lr.Row, lr.T, lr.appendKey(nil))
	}
	return b.String()
}
