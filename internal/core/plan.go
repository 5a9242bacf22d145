package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ppm/internal/codes"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
)

// Strategy selects how a decode is planned.
type Strategy int

const (
	// StrategyAuto performs the paper's full §III-B optimisation: it
	// evaluates the exact costs C1..C4 and picks whole-matrix
	// MatrixFirst when C2 < C4 (the ~5% of configurations where the
	// partition does not pay off) and PPM otherwise.
	StrategyAuto Strategy = iota
	// StrategyPPM always partitions: independent groups with the
	// MatrixFirst sequence, H_rest with Normal — the C4 plan. This is
	// the production fast path: it never inverts the whole F matrix.
	StrategyPPM
	// StrategyPPMMatrixFirstRest is the C3 plan (groups and H_rest both
	// MatrixFirst); the paper shows it is never optimal, and it exists
	// here for the ablation benchmarks.
	StrategyPPMMatrixFirstRest
	// StrategyWholeNormal is the traditional serial decode with the
	// Normal sequence — the C1 baseline.
	StrategyWholeNormal
	// StrategyWholeMatrixFirst is the traditional decode with the
	// MatrixFirst sequence — the C2 generator-matrix method.
	StrategyWholeMatrixFirst
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyPPM:
		return "ppm"
	case StrategyPPMMatrixFirstRest:
		return "ppm-c3"
	case StrategyWholeNormal:
		return "whole-normal"
	case StrategyWholeMatrixFirst:
		return "whole-matrix-first"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// CostUnknown marks a cost that the chosen strategy did not need to
// evaluate: C1/C2 require inverting the whole F matrix, which the PPM
// strategies deliberately avoid, and C3 requires G_rest = F_rest^-1 *
// S_rest, which StrategyPPM's Normal-sequence rest never applies.
const CostUnknown = -1

// Costs is the §III-B cost model for one scenario, in mult_XORs per
// stripe. Chosen is the predicted cost of the plan actually built; the
// executor's measured operation count must equal it (tested).
type Costs struct {
	C1, C2, C3, C4 int64
	Chosen         int64
	Strategy       Strategy
}

// SubDecode is one matrix-decoding operation of a plan: recover the
// FaultyCols blocks from the SurvivorCols blocks. Depending on Seq the
// executor applies G (MatrixFirst) or S then Finv (Normal). A plan's
// matrices are windows of one slab; G is nil for a StrategyPPM rest,
// which never applies it.
type SubDecode struct {
	FaultyCols   []int
	SurvivorCols []int
	Finv         *matrix.Matrix
	S            *matrix.Matrix
	G            *matrix.Matrix
	Seq          kernel.Sequence

	// Compiled forms of the matrices the chosen sequence uses, lowered
	// once at plan time so repeated decodes skip per-call lookup-table
	// construction (see kernel.CompiledMatrix). Groups of one plan with
	// equal G share G and cG.
	cFinv, cS, cG *kernel.CompiledMatrix
}

// CompiledG returns the compiled MatrixFirst product, or nil when the
// sub-decode runs the Normal sequence.
func (sd *SubDecode) CompiledG() *kernel.CompiledMatrix { return sd.cG }

// CompiledFinv returns the compiled F^-1 of the Normal sequence, or nil
// when the sub-decode runs MatrixFirst.
func (sd *SubDecode) CompiledFinv() *kernel.CompiledMatrix { return sd.cFinv }

// CompiledS returns the compiled S of the Normal sequence, or nil when
// the sub-decode runs MatrixFirst.
func (sd *SubDecode) CompiledS() *kernel.CompiledMatrix { return sd.cS }

// compile lowers the matrices the chosen sequence will apply.
func (sd *SubDecode) compile(f gf.Field) {
	if sd.Seq == kernel.MatrixFirst {
		sd.cG = kernel.Compile(f, sd.G)
		return
	}
	sd.cFinv = kernel.Compile(f, sd.Finv)
	sd.cS = kernel.Compile(f, sd.S)
}

// ops returns the predicted mult_XORs of executing this sub-decode.
func (sd *SubDecode) ops() int64 {
	if sd == nil {
		return 0
	}
	if sd.Seq == kernel.MatrixFirst {
		return int64(sd.G.NNZ())
	}
	return int64(sd.Finv.NNZ() + sd.S.NNZ())
}

// Plan is a fully prepared decode: all sub-matrices extracted, inverted
// and (for MatrixFirst) pre-multiplied. Executing a plan touches only
// block regions.
type Plan struct {
	Scenario  codes.Scenario
	LogTable  *LogTable
	Partition *Partition
	// Groups are the p parallel sub-decodes (Step 3); empty for
	// whole-matrix strategies.
	Groups []SubDecode
	// Rest is the merging sub-decode (Step 4); nil when H_rest is NULL
	// or a whole-matrix strategy is used.
	Rest *SubDecode
	// Whole is the single serial sub-decode of the traditional method;
	// nil for PPM strategies.
	Whole *WholePlan
	Costs Costs
}

// WholePlan wraps the whole-matrix sub-decode so that a nil check
// distinguishes "traditional plan" from "PPM plan".
type WholePlan struct {
	SubDecode
}

// ErrUnrecoverable reports a failure pattern beyond the code's reach.
var ErrUnrecoverable = errors.New("core: failure pattern is unrecoverable")

// planMem holds a plan together with the headers it points to, so a
// cold plan allocates them at once.
type planMem struct {
	plan Plan
	lt   LogTable
	pt   Partition
	rest SubDecode
}

// BuildPlan runs PPM Steps 1-2 plus the sequence optimisation and
// returns an executable plan. The scenario's faulty list must be sorted
// (codes.NewScenario and the generators guarantee this).
func BuildPlan(c codes.Code, sc codes.Scenario, strategy Strategy) (*Plan, error) {
	h := c.ParityCheck()
	mem := new(planMem)
	plan := &mem.plan
	plan.Scenario = sc
	plan.Costs = Costs{C1: CostUnknown, C2: CostUnknown, C3: CostUnknown, C4: CostUnknown}

	if len(sc.Faulty) == 0 {
		plan.Costs.Strategy = strategy
		plan.Costs.Chosen = 0
		return plan, nil
	}
	if len(sc.Faulty) > h.Rows() {
		return nil, fmt.Errorf("%w: %d erasures, %d parity-check rows", ErrUnrecoverable, len(sc.Faulty), h.Rows())
	}

	needWhole := strategy == StrategyAuto || strategy == StrategyWholeNormal || strategy == StrategyWholeMatrixFirst
	var whole *SubDecode
	if needWhole {
		var err error
		whole, err = buildWholeSubDecode(c, sc)
		if err != nil {
			return nil, err
		}
		plan.Costs.C1 = int64(whole.Finv.NNZ() + whole.S.NNZ())
		plan.Costs.C2 = int64(whole.G.NNZ())
	}

	needPPM := strategy != StrategyWholeNormal && strategy != StrategyWholeMatrixFirst
	if needPPM {
		// G_rest only prices C3; the C4 plan runs F_rest^-1 and S_rest.
		needC3 := strategy != StrategyPPM
		if err := buildPPMSubDecodes(h, sc, mem, needC3); err != nil {
			return nil, err
		}
		groupOps := int64(0)
		for i := range plan.Groups {
			groupOps += plan.Groups[i].ops()
		}
		restC3, restC4 := int64(0), int64(0)
		if plan.Rest != nil {
			restC4 = int64(plan.Rest.Finv.NNZ() + plan.Rest.S.NNZ())
			if needC3 {
				restC3 = int64(plan.Rest.G.NNZ())
			}
		}
		if needC3 {
			plan.Costs.C3 = groupOps + restC3
		}
		plan.Costs.C4 = groupOps + restC4
	}

	// Resolve the strategy.
	resolved := strategy
	if strategy == StrategyAuto {
		if plan.Costs.C2 < plan.Costs.C4 {
			resolved = StrategyWholeMatrixFirst
		} else {
			resolved = StrategyPPM
		}
	}
	plan.Costs.Strategy = resolved

	switch resolved {
	case StrategyPPM:
		if plan.Rest != nil {
			plan.Rest.Seq = kernel.Normal
		}
		plan.Costs.Chosen = plan.Costs.C4
	case StrategyPPMMatrixFirstRest:
		if plan.Rest != nil {
			plan.Rest.Seq = kernel.MatrixFirst
		}
		plan.Costs.Chosen = plan.Costs.C3
	case StrategyWholeNormal:
		whole.Seq = kernel.Normal
		plan.Whole = &WholePlan{SubDecode: *whole}
		plan.Groups, plan.Rest, plan.Partition, plan.LogTable = nil, nil, nil, nil
		plan.Costs.Chosen = plan.Costs.C1
	case StrategyWholeMatrixFirst:
		whole.Seq = kernel.MatrixFirst
		plan.Whole = &WholePlan{SubDecode: *whole}
		plan.Groups, plan.Rest, plan.Partition, plan.LogTable = nil, nil, nil, nil
		plan.Costs.Chosen = plan.Costs.C2
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strategy)
	}

	// Lower the plan's matrices into compiled multiplier form. Groups
	// with equal G share one matrix (see buildPPMSubDecodes) and one
	// compiled program: SD stripe rows holding only the lost disks
	// differ by a per-row scale that cancels in F_i^-1 * S_i, so most
	// groups of a plan repeat an earlier one.
	f := c.Field()
	for i := range plan.Groups {
		g := &plan.Groups[i]
		if prev := sharedGroup(plan.Groups[:i], g); prev != nil {
			g.cG = prev.cG
			continue
		}
		g.compile(f)
	}
	if plan.Rest != nil {
		plan.Rest.compile(f)
	}
	if plan.Whole != nil {
		plan.Whole.compile(f)
	}
	return plan, nil
}

// sharedGroup returns an earlier group holding the same G matrix as g,
// or nil when g's program is the first of its kind in the plan.
func sharedGroup(earlier []SubDecode, g *SubDecode) *SubDecode {
	for i := range earlier {
		if earlier[i].G == g.G {
			return &earlier[i]
		}
	}
	return nil
}

// buildWholeSubDecode prepares the traditional Steps 2-3 on the full H.
func buildWholeSubDecode(c codes.Code, sc codes.Scenario) (*SubDecode, error) {
	h := c.ParityCheck()
	faulty := sc.FaultySet()
	fM, sM, fCols, sCols := h.SplitColumns(func(col int) bool { return faulty[col] })
	if fM.Rows() > fM.Cols() {
		rows, err := fM.PivotRows()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
		fM = fM.SelectRows(rows)
		sM = sM.SelectRows(rows)
	}
	finv, err := fM.Invert()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	return &SubDecode{
		FaultyCols:   fCols,
		SurvivorCols: sCols,
		Finv:         finv,
		S:            sM,
		G:            finv.Mul(sM),
	}, nil
}

// planner is the pooled scratch of one cold plan: H's row supports
// (the nonzero columns of every row, found in one pass), column and row
// marks, and the entries of every stage's matrices before they move
// into the plan's slab. BuildPlan runs concurrently, so every call takes
// its own planner from plannerPool.
type planner struct {
	h      *matrix.Matrix
	f      gf.Field
	supp   []int  // nonzero columns of every row of H, row after row
	off    []int  // row i's support is supp[off[i]:off[i+1]]
	faulty []bool // faulty[col]: the scenario erased col

	claimed, bucketed, used []bool // partition marks
	picks                   []int  // partition: extracted groups' rows
	taken                   []bool // survivor union marks

	work   []uint32 // F of the stage being inverted
	ents   []uint32 // Finv, S and G entries of every stage, in order
	cols   []int    // survivor columns of every stage, in order
	stages []stage
}

// stage locates one sub-decode's pieces in the planner's scratch.
type stage struct {
	faulty      []int
	surv, nsurv int // survivor columns: cols[surv:surv+nsurv]
	finv, s, g  int // entry offsets in ents; g < 0 when G was not formed
	shared      int // index of an earlier stage whose G equals this one's, or -1
}

var plannerPool = sync.Pool{New: func() any { return new(planner) }}

// getPlanner takes a planner from the pool and scans H against the
// faulty columns.
func getPlanner(h *matrix.Matrix, faulty []int) *planner {
	pl := plannerPool.Get().(*planner)
	pl.h, pl.f = h, h.Field()
	pl.faulty = cleared(&pl.faulty, h.Cols())
	for _, col := range faulty {
		pl.faulty[col] = true
	}
	// Every column index is stored and the cursor advances only past
	// nonzeros: no branch to mispredict on H's sparse rows.
	pl.supp, pl.off = pl.supp[:0], append(pl.off[:0], 0)
	for i := 0; i < h.Rows(); i++ {
		n := len(pl.supp)
		supp := slices.Grow(pl.supp, h.Cols())[:n+h.Cols()]
		for j, v := range h.Row(i) {
			supp[n] = j
			if v != 0 {
				n++
			}
		}
		pl.supp = supp[:n]
		pl.off = append(pl.off, n)
	}
	return pl
}

// release returns the planner to the pool without pinning H or the
// plan's partition.
func (pl *planner) release() {
	pl.h, pl.f = nil, nil
	clear(pl.stages)
	pl.stages = pl.stages[:0]
	plannerPool.Put(pl)
}

// support returns row i's nonzero columns, ascending.
func (pl *planner) support(i int) []int { return pl.supp[pl.off[i]:pl.off[i+1]] }

// cleared returns *buf resized to n zero values, reusing its storage.
func cleared[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// gather copies the entries of H at rows x cols, row-major, onto dst.
func (pl *planner) gather(dst []uint32, rows, cols []int) []uint32 {
	for _, r := range rows {
		row := pl.h.Row(r)
		for _, c := range cols {
			dst = append(dst, row[c])
		}
	}
	return dst
}

// addStage prepares one sub-decode from H's rows and faulty columns
// (len(rows) == len(faulty)) into scratch: F^-1, the survivors — the
// union of the rows' supports minus the faulty columns, ascending — S
// and, when withG is set, G = F^-1 * S. On a singular F it leaves the
// scratch as it was and returns the error.
func (pl *planner) addStage(rows, faulty []int, withG bool) error {
	n := len(faulty)
	pl.work = pl.gather(pl.work[:0], rows, faulty)
	st := stage{faulty: faulty, finv: len(pl.ents), g: -1, shared: -1}
	pl.ents = slices.Grow(pl.ents, n*n)[:st.finv+n*n]
	if err := matrix.InvertInto(pl.f, pl.ents[st.finv:], pl.work, n); err != nil {
		pl.ents = pl.ents[:st.finv]
		return err
	}

	taken := cleared(&pl.taken, pl.h.Cols())
	for _, col := range faulty {
		taken[col] = true
	}
	st.surv = len(pl.cols)
	for _, r := range rows {
		for _, col := range pl.support(r) {
			if !taken[col] {
				taken[col] = true
				pl.cols = append(pl.cols, col)
			}
		}
	}
	surv := pl.cols[st.surv:]
	slices.Sort(surv)
	st.nsurv = len(surv)

	st.s = len(pl.ents)
	pl.ents = pl.gather(pl.ents, rows, surv)
	if withG {
		st.g = len(pl.ents)
		pl.ents = slices.Grow(pl.ents, n*st.nsurv)[:st.g+n*st.nsurv]
		matrix.MulInto(pl.f, pl.ents[st.g:], pl.ents[st.finv:st.s], pl.ents[st.s:st.g], n, n, st.nsurv)
	}
	pl.stages = append(pl.stages, st)
	return nil
}

// shareG drops the last stage's G when an earlier stage formed an equal
// one, pointing the stage at it instead.
func (pl *planner) shareG() {
	last := &pl.stages[len(pl.stages)-1]
	n := len(last.faulty) * last.nsurv
	g := pl.ents[last.g : last.g+n]
	for k, e := range pl.stages[:len(pl.stages)-1] {
		if e.shared < 0 && len(e.faulty) == len(last.faulty) && e.nsurv == last.nsurv &&
			slices.Equal(pl.ents[e.g:e.g+n], g) {
			pl.ents = pl.ents[:last.g]
			last.g, last.shared = e.g, k
			return
		}
	}
}

// buildPPMSubDecodes performs Steps 1-2 (log table, partition) and
// prepares each group's and H_rest's matrices (Steps 3.1-3.2) straight
// from H's rows. A group whose F_i is singular is demoted into H_rest
// rather than failing the decode. The matrices land in one slab sized
// exactly, so a cached plan pins no scratch; restG also forms
// G_rest = F_rest^-1 * S_rest.
func buildPPMSubDecodes(h *matrix.Matrix, sc codes.Scenario, mem *planMem, restG bool) error {
	pl := getPlanner(h, sc.Faulty)
	defer pl.release()
	plan, pt := &mem.plan, &mem.pt
	pl.logTable(&mem.lt)
	pl.partition(&mem.lt, sc.Faulty, pt)
	plan.LogTable, plan.Partition = &mem.lt, pt

	// Groups run MatrixFirst: the paper proves G_i = F_i^-1 * S_i always
	// cheaper there, since every F_i/S_i entry is nonzero.
	pl.ents, pl.cols = pl.ents[:0], pl.cols[:0]
	for i := 0; i < len(pt.Groups); {
		g := pt.Groups[i]
		if pl.addStage(g.Rows, g.FaultyCols, true) != nil {
			pt.demote(i)
			continue
		}
		pl.shareG()
		i++
	}
	// S_rest spans every other nonzero column of the rest rows,
	// including the blocks the groups recover in Step 3: those are
	// survivors by the time the merge runs.
	if len(pt.RestFaulty) > 0 {
		rows := pt.RestRows
		if len(rows) < len(pt.RestFaulty) {
			return fmt.Errorf("%w: H_rest has %d equations for %d unknowns", ErrUnrecoverable, len(rows), len(pt.RestFaulty))
		}
		if len(rows) > len(pt.RestFaulty) {
			fM := matrix.Wrap(pl.f, len(rows), len(pt.RestFaulty), pl.gather(pl.work[:0], rows, pt.RestFaulty))
			sel, err := fM.PivotRows()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrUnrecoverable, err)
			}
			for k, r := range sel {
				sel[k] = rows[r]
			}
			rows = sel
		}
		if err := pl.addStage(rows, pt.RestFaulty, restG); err != nil {
			return fmt.Errorf("%w: %v", ErrUnrecoverable, err)
		}
	}

	// Move the stages out of scratch: one slab for every matrix, one
	// array for every survivor list, one slice of matrix headers.
	slab := make([]uint32, len(pl.ents))
	copy(slab, pl.ents)
	cols := make([]int, len(pl.cols))
	copy(cols, pl.cols)
	nmats := 0
	for _, st := range pl.stages {
		nmats += 2
		if st.g >= 0 && st.shared < 0 {
			nmats++
		}
	}
	mats := make([]matrix.Matrix, 0, nmats)
	wrap := func(rows, cols, off int) *matrix.Matrix {
		mats = append(mats, matrix.Wrap(pl.f, rows, cols, slab[off:off+rows*cols]))
		return &mats[len(mats)-1]
	}
	plan.Groups = make([]SubDecode, len(pt.Groups))
	for k, st := range pl.stages {
		sd := &mem.rest
		if k < len(plan.Groups) {
			sd = &plan.Groups[k]
			sd.Seq = kernel.MatrixFirst
		} else {
			sd.Seq = kernel.Normal
			plan.Rest = sd
		}
		n := len(st.faulty)
		sd.FaultyCols = st.faulty
		if st.nsurv > 0 {
			sd.SurvivorCols = cols[st.surv : st.surv+st.nsurv : st.surv+st.nsurv]
		}
		sd.Finv = wrap(n, n, st.finv)
		sd.S = wrap(n, st.nsurv, st.s)
		switch {
		case st.shared >= 0:
			sd.G = plan.Groups[st.shared].G
		case st.g >= 0:
			sd.G = wrap(n, st.nsurv, st.g)
		}
	}
	return nil
}
