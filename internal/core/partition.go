package core

import (
	"fmt"
	"slices"
	"strings"
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
	pl := plannerPool.Get().(*planner)
	defer pl.release()
	pt := new(Partition)
	pl.partition(lt, faulty, pt)
	return pt
}

// partition fills pt from the log table. Rows with identical l_i are
// bucketed by comparing the lists directly, in first-appearance order;
// each extracted group's Rows is a window of one backing array shared
// with H_rest's rows and faulty columns, and its FaultyCols is the
// group's l_i itself.
func (pl *planner) partition(lt *LogTable, faulty []int, pt *Partition) {
	maxCol := -1
	for _, col := range faulty {
		maxCol = max(maxCol, col)
	}
	claimed := cleared(&pl.claimed, maxCol+1)
	bucketed := cleared(&pl.bucketed, len(lt.Rows))
	used := cleared(&pl.used, len(lt.Rows))

	// picks collects each extracted group's rows, group after group (a
	// group's first row carries its l_i), then H_rest's rows and faulty
	// columns: the windows of the partition's one backing array.
	picks := pl.picks[:0]
	groups := 0
	for i, lr := range lt.Rows {
		if lr.T == 0 || bucketed[i] {
			continue // no faulty block (the row stays out), or bucketed
		}
		start := len(picks)
		picks = append(picks, i)
		n := 1
		for j := i + 1; j < len(lt.Rows); j++ {
			if !bucketed[j] && slices.Equal(lt.Rows[j].L, lr.L) {
				bucketed[j] = true
				if n < lr.T {
					picks = append(picks, j)
				}
				n++
			}
		}
		// Too few rows leaves the bucket under-determined alone, and a
		// claimed column would let two sub-decodes write one block:
		// either way the rows are resolved in H_rest.
		disjoint := true
		for _, col := range lr.L {
			disjoint = disjoint && !claimed[col]
		}
		if n < lr.T || !disjoint {
			picks = picks[:start]
			continue
		}
		for _, col := range lr.L {
			claimed[col] = true
		}
		for _, r := range picks[start:] {
			used[r] = true
		}
		groups++
	}

	// Then H_rest: its rows and its faulty columns. Rows with t_i == 0
	// have zero coefficients in every faulty column; they contribute
	// nothing to F_rest and are dropped.
	restStart := len(picks)
	for i, lr := range lt.Rows {
		if lr.T > 0 && !used[i] {
			picks = append(picks, i)
		}
	}
	faultyStart := len(picks)
	for _, col := range faulty {
		if !claimed[col] {
			picks = append(picks, col)
		}
	}
	pl.picks = picks

	ints := make([]int, len(picks))
	copy(ints, picks)
	if groups > 0 {
		pt.Groups = make([]Group, 0, groups)
	}
	for k := 0; k < restStart; {
		lr := lt.Rows[ints[k]]
		end := k + lr.T
		pt.Groups = append(pt.Groups, Group{Rows: ints[k:end:end], FaultyCols: lr.L})
		k = end
	}
	if faultyStart > restStart {
		pt.RestRows = ints[restStart:faultyStart:faultyStart]
	}
	if len(ints) > faultyStart {
		pt.RestFaulty = ints[faultyStart:]
	}
}

// demote moves a group's rows and columns back into H_rest. The plan
// builder uses it when a group's F_i turns out singular — its blocks are
// then recovered by the remaining decode instead, preserving
// correctness at the price of parallelism.
func (pt *Partition) demote(i int) {
	g := pt.Groups[i]
	pt.Groups = slices.Delete(pt.Groups, i, i+1)
	pt.RestRows = slices.Concat(pt.RestRows, g.Rows)
	pt.RestFaulty = slices.Concat(pt.RestFaulty, g.FaultyCols)
	slices.Sort(pt.RestRows)
	slices.Sort(pt.RestFaulty)
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
