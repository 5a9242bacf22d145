package core_test

// BuildPlan derives every stage straight from H's sparse rows into one
// slab per plan. This file keeps the dense derivation it replaced —
// string-keyed partition buckets, then SelectRows, nonzero columns,
// SelectColumns, Invert and Mul on full-width rows — as an oracle, and
// checks that both build the same plans.

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/matrix"
	"ppm/internal/planverify"
)

// denseStage is one sub-decode as the dense derivation builds it.
type denseStage struct {
	faulty, surv []int
	finv, s, g   *matrix.Matrix
}

// densePlan is the dense derivation of one scenario: the PPM stages,
// the whole-matrix stage, and the §III-B costs.
type densePlan struct {
	groups []denseStage
	rest   *denseStage
	whole  *denseStage
	costs  core.Costs
}

// nonzeroColumns lists the columns of m holding a nonzero entry.
func nonzeroColumns(m *matrix.Matrix) []int {
	var cols []int
	for j := 0; j < m.Cols(); j++ {
		if !m.ColumnIsZero(j) {
			cols = append(cols, j)
		}
	}
	return cols
}

// densePartition is the string-keyed bucketing: rows with equal l_i
// share a map entry, in first-appearance order.
func densePartition(h *matrix.Matrix, faulty []int) (groups [][2][]int, restRows, restFaulty []int) {
	type bucket struct{ l, rows []int }
	var order []*bucket
	buckets := map[string]*bucket{}
	var tRows []int
	for i := 0; i < h.Rows(); i++ {
		var l []int
		key := ""
		for _, col := range faulty {
			if h.At(i, col) != 0 {
				l = append(l, col)
				key += strconv.Itoa(col) + ","
			}
		}
		if len(l) == 0 {
			continue
		}
		tRows = append(tRows, i)
		b, ok := buckets[key]
		if !ok {
			b = &bucket{l: l}
			buckets[key] = b
			order = append(order, b)
		}
		b.rows = append(b.rows, i)
	}
	claimed := map[int]bool{}
	used := map[int]bool{}
	for _, b := range order {
		f := len(b.l)
		if len(b.rows) < f || slices.ContainsFunc(b.l, func(c int) bool { return claimed[c] }) {
			continue
		}
		for _, c := range b.l {
			claimed[c] = true
		}
		for _, r := range b.rows[:f] {
			used[r] = true
		}
		groups = append(groups, [2][]int{b.rows[:f], b.l})
	}
	for _, r := range tRows {
		if !used[r] {
			restRows = append(restRows, r)
		}
	}
	for _, c := range faulty {
		if !claimed[c] {
			restFaulty = append(restFaulty, c)
		}
	}
	return groups, restRows, restFaulty
}

// denseStageFor derives one stage from full-width rows of H. With
// pivot set, an over-determined F keeps its first independent rows.
func denseStageFor(h *matrix.Matrix, rows, faulty []int, pivot bool) (*denseStage, error) {
	sub := h.SelectRows(rows)
	fM := sub.SelectColumns(faulty)
	if fM.Rows() < fM.Cols() {
		return nil, fmt.Errorf("%d equations for %d unknowns", fM.Rows(), fM.Cols())
	}
	if pivot && fM.Rows() > fM.Cols() {
		sel, err := fM.PivotRows()
		if err != nil {
			return nil, err
		}
		sub = sub.SelectRows(sel)
		fM = fM.SelectRows(sel)
	}
	var surv []int
	for _, col := range nonzeroColumns(sub) {
		if !slices.Contains(faulty, col) {
			surv = append(surv, col)
		}
	}
	finv, err := fM.Invert()
	if err != nil {
		return nil, err
	}
	sM := sub.SelectColumns(surv)
	return &denseStage{faulty: faulty, surv: surv, finv: finv, s: sM, g: finv.Mul(sM)}, nil
}

// denseBuild is the dense derivation of the plan BuildPlan builds for
// the strategy, or an error exactly when BuildPlan must fail.
func denseBuild(c codes.Code, sc codes.Scenario, strategy core.Strategy) (*densePlan, error) {
	h := c.ParityCheck()
	dp := &densePlan{costs: core.Costs{C1: core.CostUnknown, C2: core.CostUnknown, C3: core.CostUnknown, C4: core.CostUnknown}}
	nnz := func(m *matrix.Matrix) int64 { return int64(m.NNZ()) }

	if strategy == core.StrategyAuto || strategy == core.StrategyWholeNormal || strategy == core.StrategyWholeMatrixFirst {
		var survivors []int
		for col := 0; col < h.Cols(); col++ {
			if !slices.Contains(sc.Faulty, col) {
				survivors = append(survivors, col)
			}
		}
		fM := h.SelectColumns(sc.Faulty)
		sM := h.SelectColumns(survivors)
		if fM.Rows() > fM.Cols() {
			sel, err := fM.PivotRows()
			if err != nil {
				return nil, err
			}
			fM, sM = fM.SelectRows(sel), sM.SelectRows(sel)
		}
		finv, err := fM.Invert()
		if err != nil {
			return nil, err
		}
		dp.whole = &denseStage{faulty: sc.Faulty, surv: survivors, finv: finv, s: sM, g: finv.Mul(sM)}
		dp.costs.C1 = nnz(finv) + nnz(sM)
		dp.costs.C2 = nnz(dp.whole.g)
	}

	if strategy != core.StrategyWholeNormal && strategy != core.StrategyWholeMatrixFirst {
		groups, restRows, restFaulty := densePartition(h, sc.Faulty)
		var ops int64
		for _, g := range groups {
			st, err := denseStageFor(h, g[0], g[1], false)
			if err != nil {
				// Singular F_i: the group is demoted into H_rest.
				restRows = append(restRows, g[0]...)
				restFaulty = append(restFaulty, g[1]...)
				slices.Sort(restRows)
				slices.Sort(restFaulty)
				continue
			}
			dp.groups = append(dp.groups, *st)
			ops += nnz(st.g)
		}
		dp.costs.C3, dp.costs.C4 = ops, ops
		if len(restFaulty) > 0 {
			st, err := denseStageFor(h, restRows, restFaulty, true)
			if err != nil {
				return nil, err
			}
			dp.rest = st
			dp.costs.C3 += nnz(st.g)
			dp.costs.C4 += nnz(st.finv) + nnz(st.s)
		}
	}

	resolved := strategy
	if strategy == core.StrategyAuto {
		resolved = core.StrategyPPM
		if dp.costs.C2 < dp.costs.C4 {
			resolved = core.StrategyWholeMatrixFirst
		}
	}
	dp.costs.Strategy = resolved
	switch resolved {
	case core.StrategyPPM:
		dp.costs.Chosen = dp.costs.C4
	case core.StrategyPPMMatrixFirstRest:
		dp.costs.Chosen = dp.costs.C3
	case core.StrategyWholeNormal:
		dp.costs.Chosen = dp.costs.C1
	case core.StrategyWholeMatrixFirst:
		dp.costs.Chosen = dp.costs.C2
	}
	if strategy == core.StrategyPPM {
		// The one designed difference: StrategyPPM never forms G_rest,
		// so it leaves C3 unevaluated.
		dp.costs.C3 = core.CostUnknown
	}
	return dp, nil
}

// compareStage reports how a built sub-decode differs from the dense
// stage; wantG says whether the sub-decode must carry G.
func compareStage(got *core.SubDecode, want *denseStage, wantG bool) error {
	switch {
	case !slices.Equal(got.FaultyCols, want.faulty):
		return fmt.Errorf("FaultyCols %v, dense %v", got.FaultyCols, want.faulty)
	case !slices.Equal(got.SurvivorCols, want.surv):
		return fmt.Errorf("SurvivorCols %v, dense %v", got.SurvivorCols, want.surv)
	case !got.Finv.Equal(want.finv):
		return fmt.Errorf("Finv differs:\n%v\ndense:\n%v", got.Finv, want.finv)
	case !got.S.Equal(want.s):
		return fmt.Errorf("S differs:\n%v\ndense:\n%v", got.S, want.s)
	case wantG && (got.G == nil || !got.G.Equal(want.g)):
		return fmt.Errorf("G differs:\n%v\ndense:\n%v", got.G, want.g)
	case !wantG && got.G != nil:
		return fmt.Errorf("G formed although the strategy never applies it")
	}
	return nil
}

// comparePlan reports how a built plan differs from the dense one.
func comparePlan(plan *core.Plan, dp *densePlan, strategy core.Strategy) error {
	if plan.Costs != dp.costs {
		return fmt.Errorf("costs %+v, dense %+v", plan.Costs, dp.costs)
	}
	if plan.Whole != nil {
		return compareStage(&plan.Whole.SubDecode, dp.whole, true)
	}
	if len(plan.Groups) != len(dp.groups) {
		return fmt.Errorf("%d groups, dense %d", len(plan.Groups), len(dp.groups))
	}
	for i := range plan.Groups {
		if err := compareStage(&plan.Groups[i], &dp.groups[i], true); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
	}
	if (plan.Rest == nil) != (dp.rest == nil) {
		return fmt.Errorf("rest present %v, dense %v", plan.Rest != nil, dp.rest != nil)
	}
	if plan.Rest != nil {
		if err := compareStage(plan.Rest, dp.rest, strategy != core.StrategyPPM); err != nil {
			return fmt.Errorf("rest: %w", err)
		}
	}
	return nil
}

var allStrategies = []core.Strategy{
	core.StrategyAuto, core.StrategyPPM, core.StrategyPPMMatrixFirstRest,
	core.StrategyWholeNormal, core.StrategyWholeMatrixFirst,
}

// TestBuildPlanMatchesDenseDerivation: over the planverify zoo (SD, LRC
// and RS), SD(8,16,2,2) worst-case patterns and a code whose singular
// group is demoted into H_rest, every strategy builds
// the plan the dense derivation builds — same faulty and survivor
// columns, Finv, S, G and costs — and fails exactly where it fails.
func TestBuildPlanMatchesDenseDerivation(t *testing.T) {
	zoo, err := planverify.StandardZoo()
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		c         codes.Code
		scenarios []codes.Scenario
	}
	var loads []workload
	for _, z := range zoo {
		loads = append(loads, workload{z.Code, planverify.Scenarios(z.Code, 11, 16)})
	}
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var worst []codes.Scenario
	for i := 0; i < 32; i++ {
		sc, err := sd.WorstCaseScenario(rng, 2)
		if err != nil {
			t.Fatal(err)
		}
		worst = append(worst, sc)
	}
	loads = append(loads, workload{sd, worst})
	demoting, sc := newDemotingCode()
	loads = append(loads, workload{demoting, []codes.Scenario{sc}})

	plans := 0
	for _, w := range loads {
		for _, sc := range w.scenarios {
			for _, strategy := range allStrategies {
				plan, err := core.BuildPlan(w.c, sc, strategy)
				dp, derr := denseBuild(w.c, sc, strategy)
				if (err != nil) != (derr != nil) {
					t.Fatalf("%s %v %v: BuildPlan error %v, dense error %v", w.c.Name(), sc.Faulty, strategy, err, derr)
				}
				if err != nil {
					continue
				}
				if cerr := comparePlan(plan, dp, strategy); cerr != nil {
					t.Fatalf("%s %v %v: %v", w.c.Name(), sc.Faulty, strategy, cerr)
				}
				plans++
			}
		}
	}
	t.Logf("%d plans match the dense derivation", plans)
}
