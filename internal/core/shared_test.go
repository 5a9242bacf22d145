package core_test

// Groups of one plan with equal G share one compiled program. These
// tests pin the sharing itself and check that a sharing plan still
// proves out symbolically and decodes exactly like the traditional
// whole-matrix method.

import (
	"math/rand"
	"testing"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/decode"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/matrix"
	"ppm/internal/planverify"
	"ppm/internal/stripe"
	"ppm/internal/xorplan"
)

// checkSharedPrograms asserts that groups with equal G point at one
// compiled program and groups with different G do not, and returns
// the number of distinct programs.
func checkSharedPrograms(t *testing.T, plan *core.Plan) int {
	t.Helper()
	distinct := map[*kernel.CompiledMatrix]bool{}
	for i := range plan.Groups {
		gi := &plan.Groups[i]
		if gi.CompiledG() == nil {
			t.Fatalf("group %d has no compiled G", i)
		}
		distinct[gi.CompiledG()] = true
		if !gi.G.Equal(gi.Finv.Mul(gi.S)) {
			t.Errorf("group %d: G is not its own Finv * S", i)
		}
		for j := 0; j < i; j++ {
			gj := &plan.Groups[j]
			same := gi.G.Equal(gj.G)
			if shared := gi.CompiledG() == gj.CompiledG(); shared != same {
				t.Errorf("groups %d and %d: equal G %v, shared program %v", j, i, same, shared)
			}
			if same && gi.G != gj.G {
				t.Errorf("groups %d and %d: equal G not shared as one matrix", j, i)
			}
		}
	}
	return len(distinct)
}

// verifyAndDecode proves the plan symbolically and checks that running
// it and a StrategyWholeNormal plan on the same erased stripe give the
// same bytes, equal to the original codeword.
func verifyAndDecode(t *testing.T, c codes.Code, sc codes.Scenario, plan *core.Plan, golden *stripe.Stripe) {
	t.Helper()
	for _, f := range planverify.VerifyDecodePlan(c, plan) {
		t.Errorf("faulty=%v: %s", sc.Faulty, f)
	}
	whole, err := core.BuildPlan(c, sc, core.StrategyWholeNormal)
	if err != nil {
		t.Fatal(err)
	}
	got, want := golden.Clone(), golden.Clone()
	got.Scribble(1, sc.Faulty)
	want.Scribble(1, sc.Faulty)
	if err := core.Execute(plan, got, c.Field(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := core.Execute(whole, want, c.Field(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("faulty=%v: shared-program plan and whole-normal decode differ", sc.Faulty)
	}
	if !got.Equal(golden) {
		t.Fatalf("faulty=%v: decode does not restore the codeword", sc.Faulty)
	}
}

// TestSharedGroupProgramsSD: on SD(8,16,2,2) worst-case patterns every
// stripe row holding only the lost disks yields the same G, so a plan
// compiles far fewer programs than it has groups, with the
// compile-time verification gate (PPM_VERIFY_PLANS) switched on.
func TestSharedGroupProgramsSD(t *testing.T) {
	defer xorplan.SetVerifyPlans(xorplan.SetVerifyPlans(true))
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := stripe.New(sd.NumStrips(), sd.NumRows(), 256)
	if err != nil {
		t.Fatal(err)
	}
	golden.FillDataRandom(3, codes.DataPositions(sd))
	if err := decode.Encode(sd, golden, decode.Options{}); err != nil {
		t.Fatal(err)
	}
	// Besides worst-case patterns, one pattern loses a different pair of
	// disks in each stripe row: its groups have equal shapes but only
	// some have equal G.
	var mixed []int
	for row := 0; row < sd.NumRows(); row++ {
		d := row % 4
		mixed = append(mixed, row*sd.NumStrips()+d, row*sd.NumStrips()+d+4)
	}
	mixedSc, err := codes.NewScenario(sd, mixed)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []codes.Scenario{mixedSc}
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 8; k++ {
		sc, err := sd.WorstCaseScenario(rng, 2)
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, sc)
	}
	for _, sc := range scenarios {
		plan, err := core.BuildPlan(sd, sc, core.StrategyPPM)
		if err != nil {
			t.Fatal(err)
		}
		if n := checkSharedPrograms(t, plan); n >= len(plan.Groups) {
			t.Errorf("faulty=%v: %d groups compiled %d programs, want sharing", sc.Faulty, len(plan.Groups), n)
		}
		verifyAndDecode(t, sd, sc, plan, golden)
	}
}

// demotingCode is a synthetic 12-sector code with three candidate
// groups over the faulty columns {0,1}, {4,5} and {8,9}. The middle
// group's F is singular and is demoted into H_rest; the outer two are
// row-scaled copies of each other, so they share one G.
type demotingCode struct{ h *matrix.Matrix }

// newDemotingCode returns the code and the scenario losing all three
// candidate groups' columns.
func newDemotingCode() (*demotingCode, codes.Scenario) {
	c := &demotingCode{h: matrix.FromRows(gf.GF8, [][]uint32{
		{1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 2, 4, 8, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0},    // proportional to the next
		{0, 0, 0, 0, 2, 2, 0, 1, 0, 0, 0, 0},    // row on {4,5}: singular F
		{0, 0, 0, 0, 1, 2, 1, 1, 0, 0, 0, 0},    // surplus row, breaks the tie
		{0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3},    // 3 * row 0
		{0, 0, 0, 0, 0, 0, 0, 0, 5, 10, 20, 40}, // 5 * row 1
	})}
	return c, codes.Scenario{Faulty: []int{0, 1, 4, 5, 8, 9}}
}

func (c *demotingCode) Name() string                { return "demoting" }
func (c *demotingCode) Field() gf.Field             { return gf.GF8 }
func (c *demotingCode) NumStrips() int              { return 12 }
func (c *demotingCode) NumRows() int                { return 1 }
func (c *demotingCode) ParityCheck() *matrix.Matrix { return c.h }
func (c *demotingCode) ParityPositions() []int      { return []int{0, 1, 4, 5, 7, 8, 9} }

// TestSharedGroupProgramsAfterDemotion: sharing is decided after the
// partition settles, so it survives Partition.demote re-indexing the
// groups.
func TestSharedGroupProgramsAfterDemotion(t *testing.T) {
	c, sc := newDemotingCode()
	plan, err := core.BuildPlan(c, sc, core.StrategyPPM)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 || plan.Rest == nil {
		t.Fatalf("want 2 groups plus H_rest after demotion, got %d groups, rest %v", len(plan.Groups), plan.Rest != nil)
	}
	if n := checkSharedPrograms(t, plan); n != 1 {
		t.Fatalf("the two surviving groups compiled %d programs, want 1", n)
	}

	golden, err := stripe.New(c.NumStrips(), c.NumRows(), 64)
	if err != nil {
		t.Fatal(err)
	}
	golden.FillDataRandom(5, codes.DataPositions(c))
	if err := decode.Encode(c, golden, decode.Options{}); err != nil {
		t.Fatal(err)
	}
	verifyAndDecode(t, c, sc, plan, golden)
}
