package core

import (
	"fmt"
	"strings"

	"ppm/internal/matrix"
)

// Group is one independent sub-matrix H_i of the partition: Rows are the
// row indices extracted from H and FaultyCols the f faulty blocks the
// group recovers. len(Rows) == len(FaultyCols) == f, and every
// coefficient of the group's rows at those columns is nonzero.
type Group struct {
	Rows       []int
	FaultyCols []int
}

// Partition is the result of PPM Step 2: p independent groups that can
// be decoded in parallel, plus the rows and faulty columns of the
// remaining sub-matrix H_rest.
type Partition struct {
	Groups     []Group
	RestRows   []int
	RestFaulty []int
}

// P returns the degree of parallelism p (§III-C).
func (pt *Partition) P() int { return len(pt.Groups) }

// Case classifies the partition per §III-C.
//   - 1: p == 0, no parallelism (H_rest == H)
//   - 2: p == 1, a single independent sub-matrix
//   - 31: 1 < p, H_rest empty (all faulty blocks independent by groups)
//   - 32: 1 < p, H_rest non-empty (the common case)
//   - 4: every faulty block independent, maximum parallelism
func (pt *Partition) Case() int {
	switch {
	case pt.P() == 0:
		return 1
	case pt.P() == 1:
		return 2
	case len(pt.RestFaulty) == 0 && pt.allSingleton():
		return 4
	case len(pt.RestFaulty) == 0:
		return 31
	default:
		return 32
	}
}

func (pt *Partition) allSingleton() bool {
	for _, g := range pt.Groups {
		if len(g.FaultyCols) != 1 {
			return false
		}
	}
	return true
}

// BuildPartition implements the §III-A independence exploitation on a
// log table. For each row with t_i == 1 the faulty block is independent
// and the row becomes a singleton group; for t_i == f > 1, f rows with
// identical l_i form a group recovering those f blocks together.
//
// Two refinements the paper leaves implicit are made explicit here:
//
//   - Column disjointness. A group is only extracted if its faulty
//     columns are disjoint from every previously extracted group's, so
//     that parallel sub-decodes never write the same block. (In the
//     paper's SD/LRC patterns groups are naturally disjoint — stripe
//     rows and local groups do not share sectors.)
//   - Surplus rows. If more than f rows share the same l_i, the first f
//     are extracted and the surplus goes to H_rest, keeping F_i square.
func BuildPartition(lt *LogTable, faulty []int) *Partition {
	pt := &Partition{}
	maxCol := -1
	for _, col := range faulty {
		maxCol = max(maxCol, col)
	}
	claimed := make([]bool, maxCol+1)
	usedRow := make([]bool, len(lt.Rows))

	// Bucket rows by identical l_i, preserving first-appearance order.
	type bucket struct {
		l    []int
		rows []int
	}
	var order []*bucket
	buckets := make(map[string]*bucket)
	var key []byte
	for _, lr := range lt.Rows {
		if lr.T == 0 {
			continue // row touches no faulty block; it stays in H_rest
		}
		key = lr.appendKey(key[:0])
		b, ok := buckets[string(key)]
		if !ok {
			b = &bucket{l: lr.L}
			buckets[string(key)] = b
			order = append(order, b)
		}
		b.rows = append(b.rows, lr.Row)
	}

	for _, b := range order {
		f := len(b.l)
		if len(b.rows) < f {
			continue // under-determined alone; resolved in H_rest
		}
		disjoint := true
		for _, col := range b.l {
			if claimed[col] {
				disjoint = false
				break
			}
		}
		if !disjoint {
			continue
		}
		g := Group{
			Rows:       append([]int(nil), b.rows[:f]...),
			FaultyCols: append([]int(nil), b.l...),
		}
		for _, col := range g.FaultyCols {
			claimed[col] = true
		}
		for _, r := range g.Rows {
			usedRow[r] = true
		}
		pt.Groups = append(pt.Groups, g)
	}

	for _, lr := range lt.Rows {
		// Rows with t_i == 0 have zero coefficients in every faulty
		// column; they contribute nothing to F_rest and are dropped.
		if !usedRow[lr.Row] && lr.T > 0 {
			pt.RestRows = append(pt.RestRows, lr.Row)
		}
	}
	for _, col := range faulty {
		if !claimed[col] {
			pt.RestFaulty = append(pt.RestFaulty, col)
		}
	}
	return pt
}

// demote moves a group's rows and columns back into H_rest. The plan
// builder uses it when a group's F_i turns out singular — its blocks are
// then recovered by the remaining decode instead, preserving
// correctness at the price of parallelism.
func (pt *Partition) demote(i int) {
	g := pt.Groups[i]
	pt.Groups = append(pt.Groups[:i], pt.Groups[i+1:]...)
	pt.RestRows = append(pt.RestRows, g.Rows...)
	pt.RestFaulty = append(pt.RestFaulty, g.FaultyCols...)
	sortInts(pt.RestRows)
	sortInts(pt.RestFaulty)
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// SubMatrix extracts the group's H_i from H with all-zero columns
// dropped, returning the matrix and the global indices of its columns.
func (g Group) SubMatrix(h *matrix.Matrix) (*matrix.Matrix, []int) {
	sub := h.SelectRows(g.Rows)
	cols := sub.NonzeroColumns()
	return sub.SelectColumns(cols), cols
}

// String renders the partition in Figure 3's vocabulary.
func (pt *Partition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p = %d (case %d)\n", pt.P(), pt.Case())
	for i, g := range pt.Groups {
		fmt.Fprintf(&b, "H%d: rows %v -> blocks %v\n", i, g.Rows, g.FaultyCols)
	}
	if len(pt.RestRows) > 0 {
		fmt.Fprintf(&b, "Hrest: rows %v -> blocks %v\n", pt.RestRows, pt.RestFaulty)
	} else {
		b.WriteString("Hrest: NULL\n")
	}
	return b.String()
}
