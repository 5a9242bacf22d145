package xorplan

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ppm/internal/gf"
	"ppm/internal/matrix"
)

// lowerRun lowers sched for m's shape over f and runs it across src,
// overwriting freshly randomised outputs so stale bytes cannot pass.
func lowerRun(t *testing.T, rng *rand.Rand, f gf.Field, m *matrix.Matrix, sched *SetSchedule, ones int, src [][]byte) [][]byte {
	t.Helper()
	prog, err := lower(f.W(), m.Rows(), m.Cols(), sched, ones)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	size := len(src[0])
	out := randRegions(rng, m.Rows(), size)
	prog.RunOverwrite(src, out, 0, size)
	return out
}

// oracle is the scalar field product m · src.
func oracle(f gf.Field, m *matrix.Matrix, src [][]byte) [][]byte {
	want := make([][]byte, m.Rows())
	for i := range want {
		want[i] = make([]byte, len(src[0]))
	}
	refApply(f, m, src, want)
	return want
}

func equalRegions(a, b [][]byte) int {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// TestScheduleEquivalence: the optimised schedule computes exactly what
// the flat schedule (every row the plain XOR of its sources) computes.
func TestScheduleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(191))
	f := gf.GF8
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(3), 1+rng.Intn(6)
		m := randMatrix(rng, f, rows, cols)
		sets, ones := rowSets(f.W(), m)
		inCount := cols * f.W()
		src := randRegions(rng, cols, 16)
		flat := lowerRun(t, rng, f, m, flatSets(sets, inCount, ones), ones, src)
		opt := lowerRun(t, rng, f, m, ScheduleSets(sets, inCount), ones, src)
		if i := equalRegions(flat, opt); i >= 0 {
			t.Fatalf("trial %d: row %d differs", trial, i)
		}
	}
}

// TestScheduleSavesXORs: identical rows must cost one copy instead of
// |S| XORs, so derivative scheduling beats the flat schedule.
func TestScheduleSavesXORs(t *testing.T) {
	f := gf.GF8
	m := matrix.New(f, 2, 6)
	for j := 0; j < 6; j++ {
		m.Set(0, j, uint32(3+j))
		m.Set(1, j, uint32(3+j))
	}
	sets, ones := rowSets(f.W(), m)
	sched := ScheduleSets(sets, m.Cols()*f.W())
	if sched.XORCount >= ones {
		t.Fatalf("schedule XORs %d not below flat %d", sched.XORCount, ones)
	}
	derived := false
	for _, op := range sched.Ops {
		derived = derived || op.From >= 0
	}
	if !derived {
		t.Fatalf("identical rows not derived from one another: %+v", sched.Ops)
	}
}

// TestScheduleDenseRandomNeverWorse: the root edge of the MST is the
// from-scratch cost and ScheduleSets keeps CSE only when it wins, so on
// random dense matrices in every field the schedule never costs more
// than the flat count or than plain Prim.
func TestScheduleDenseRandomNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(192))
	for _, f := range testFields {
		for trial := 0; trial < 20; trial++ {
			m := randMatrix(rng, f, 2+rng.Intn(3), 2+rng.Intn(5))
			sets, ones := rowSets(f.W(), m)
			inCount := m.Cols() * f.W()
			sched := ScheduleSets(sets, inCount)
			if sched.XORCount > ones {
				t.Fatalf("gf%d trial %d: schedule %d worse than flat %d", f.W(), trial, sched.XORCount, ones)
			}
			if plain := primSets(sets, nil, inCount); sched.XORCount > plain.XORCount {
				t.Fatalf("gf%d trial %d: schedule %d worse than plain Prim %d", f.W(), trial, sched.XORCount, plain.XORCount)
			}
		}
	}
}

// TestScheduleCSEExtractsSharedPairs: rows sharing an input pair must
// have it hoisted into a temp, beat the plain MST count, and still
// compute the right regions. Coefficient-1 entries expand to bit 0
// only, so the pair structure of the row sets is exact.
func TestScheduleCSEExtractsSharedPairs(t *testing.T) {
	// 6 inputs, 5 outputs; pair {0,1} appears in every row plus a
	// distinct extra input per row — plain Prim gains nothing but the
	// repeated last row (rows differ in 2 inputs, as costly as from
	// scratch), while CSE pays 2 XORs for in0^in1 once.
	f := gf.GF8
	m := matrix.New(f, 5, 6)
	for i, extra := range []int{2, 3, 4, 5, 2} {
		m.Set(i, 0, 1)
		m.Set(i, 1, 1)
		m.Set(i, extra, 1)
	}
	sets, ones := rowSets(f.W(), m)
	inCount := m.Cols() * f.W()
	plain := primSets(sets, nil, inCount)
	sched := ScheduleSets(sets, inCount)
	if len(sched.Temps) == 0 {
		t.Fatal("CSE extracted no temps from a 5-way shared pair")
	}
	if sched.XORCount >= plain.XORCount {
		t.Fatalf("CSE schedule %d XORs, plain MST %d", sched.XORCount, plain.XORCount)
	}

	rng := rand.New(rand.NewSource(194))
	src := randRegions(rng, m.Cols(), 32)
	got := lowerRun(t, rng, f, m, sched, ones, src)
	if i := equalRegions(oracle(f, m, src), got); i >= 0 {
		t.Fatalf("row %d differs under the CSE schedule", i)
	}
}

// TestScheduleCSEEquivalenceExpanded: CSE schedules from real GF
// expansions (where shared pairs arise naturally from repeated
// coefficients down columns) stay equivalent to the flat schedule and
// the scalar oracle, and never cost more than plain Prim.
func TestScheduleCSEEquivalenceExpanded(t *testing.T) {
	rng := rand.New(rand.NewSource(195))
	f := gf.GF8
	for trial := 0; trial < 8; trial++ {
		rows, cols := 2+rng.Intn(2), 3+rng.Intn(4)
		m := matrix.New(f, rows, cols)
		// Repeat a small coefficient palette so bit-level pairs recur.
		palette := []uint32{3, 7, uint32(2 + rng.Intn(250))}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, palette[rng.Intn(len(palette))])
			}
		}
		sets, ones := rowSets(f.W(), m)
		inCount := cols * f.W()
		sched := ScheduleSets(sets, inCount)
		if plain := primSets(sets, nil, inCount); sched.XORCount > plain.XORCount {
			t.Fatalf("trial %d: ScheduleSets %d XORs worse than plain MST %d", trial, sched.XORCount, plain.XORCount)
		}

		src := randRegions(rng, cols, 16)
		want := oracle(f, m, src)
		for name, s := range map[string]*SetSchedule{"flat": flatSets(sets, inCount, ones), "scheduled": sched} {
			if i := equalRegions(want, lowerRun(t, rng, f, m, s, ones, src)); i >= 0 {
				t.Fatalf("trial %d: %s row %d differs (temps=%d)", trial, name, i, len(s.Temps))
			}
		}
	}
}

// TestOptimizedSchedulesValidate: every schedule the scheduler emits —
// ScheduleSets' choice, plain Prim and the CSE arm — passes Validate,
// on a structured and a random matrix in every field.
func TestOptimizedSchedulesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(196))
	for _, f := range testFields {
		structured := matrix.New(f, 3, 5)
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				structured.Set(i, j, uint32(1+(i+j)%6))
			}
		}
		for _, m := range []*matrix.Matrix{structured, randMatrix(rng, f, 4, 5)} {
			sets, _ := rowSets(f.W(), m)
			inCount := m.Cols() * f.W()
			scheds := map[string]*SetSchedule{
				"ScheduleSets": ScheduleSets(sets, inCount),
				"primSets":     primSets(sets, nil, inCount),
			}
			if cse := cseSets(sets, inCount); cse != nil {
				scheds["cseSets"] = cse
			}
			for name, s := range scheds {
				if err := s.Validate(); err != nil {
					t.Errorf("gf%d %dx%d: %s schedule fails validation: %v", f.W(), m.Rows(), m.Cols(), name, err)
				}
			}
		}
	}
}

// TestValidateCatchesForwardTempReference is the regression test for
// the unchecked-temp-id bug: a schedule whose CSE round emits a temp
// referencing a *later* temp would read that region before it is
// written (stale memory with a pooled arena). Validate — which Compile
// runs before lowering — must reject it.
func TestValidateCatchesForwardTempReference(t *testing.T) {
	// 1 output row = temp1 over 4 inputs, where temp0 references temp1.
	prog := &SetSchedule{
		Rows:    1,
		InCount: 4,
		Temps: [][2]int{
			{5, 0}, // temp0 := temp1 ^ in0 — temp1 (id 5) is defined later
			{1, 2}, // temp1 := in1 ^ in2
		},
		Ops:      []SetOp{{Dst: 0, From: -1, Srcs: []int{4}}},
		XORCount: 5,
	}
	err := prog.Validate()
	if err == nil {
		t.Fatal("Validate accepted a temp referencing a later temp")
	}
	if !strings.Contains(err.Error(), "temp 0") {
		t.Fatalf("error does not name the offending temp: %v", err)
	}
}

// TestValidateRejectsMalformedPrograms sweeps the remaining corruption
// classes one by one; each must be caught before the schedule is
// lowered.
func TestValidateRejectsMalformedPrograms(t *testing.T) {
	base := func() *SetSchedule {
		return &SetSchedule{
			Rows:    2,
			InCount: 3,
			Temps:   [][2]int{{0, 1}},
			Ops: []SetOp{
				{Dst: 0, From: -1, Srcs: []int{3, 2}},
				{Dst: 1, From: 0, Srcs: []int{2}},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("baseline program invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*SetSchedule)
	}{
		{"temp id out of range", func(p *SetSchedule) { p.Temps[0][1] = 99 }},
		{"negative temp source", func(p *SetSchedule) { p.Temps[0][0] = -1 }},
		{"op source beyond temp arena", func(p *SetSchedule) { p.Ops[0].Srcs[0] = 4 }},
		{"negative op source", func(p *SetSchedule) { p.Ops[1].Srcs[0] = -2 }},
		{"dst out of range", func(p *SetSchedule) { p.Ops[1].Dst = 2 }},
		{"row written twice", func(p *SetSchedule) { p.Ops[1].Dst = 0 }},
		{"derive from unwritten row", func(p *SetSchedule) { p.Ops[0].From = 1 }},
		{"derive from out-of-range row", func(p *SetSchedule) { p.Ops[1].From = 7 }},
		{"row never written", func(p *SetSchedule) { p.Ops = p.Ops[:1] }},
		{"negative shape", func(p *SetSchedule) { p.InCount = -1 }},
	}
	for _, tc := range cases {
		p := base()
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupt program", tc.name)
		}
	}
}
