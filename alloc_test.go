package ppm

import (
	"math/rand"
	"testing"
)

// TestRepeatedDecodeAllocationFree pins the steady-state contract of
// the rebuild workload end to end: with a cached (or explicitly reused)
// plan, every per-stripe structure — compiled row kernels, tile view
// arenas, Normal-sequence scratch, executor sessions and their group
// fan-out task, worker-pool run state — comes from plan state or
// pools, so a repeated decode performs zero heap allocations at one
// thread and across the T=4 group fan-out alike.
func TestRepeatedDecodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	sd, err := NewSD(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(42)), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 512 KiB stripe: sectors span several 32 KiB tiles, so the tiled
	// drivers run their multi-tile loops, while staying below the
	// kernel's byte-range fan-out cutoff.
	st, err := StripeForCode(sd, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	st.FillDataRandom(1, DataPositions(sd))
	if err := TraditionalEncode(sd, st, nil); err != nil {
		t.Fatal(err)
	}

	for _, threads := range []int{1, 4} {
		dec := NewDecoder(sd, WithThreads(threads))
		plan, err := dec.Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(st, sc); err != nil { // warm plan cache and pools
			t.Fatal(err)
		}

		if avg := testing.AllocsPerRun(20, func() {
			if err := dec.DecodeWithPlan(plan, st); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("T=%d: DecodeWithPlan allocates %.1f/op, want 0", threads, avg)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if err := dec.Decode(st, sc); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("T=%d: cached Decode allocates %.1f/op, want 0", threads, avg)
		}
	}
}

// TestBuildPlanAllocCeiling bounds what one cold plan allocates, for a
// fixed SD(8,16,2,2) worst-case pattern (two whole disks plus two
// sectors). Sizing each compiled row once and compiling each distinct
// group program once per plan took this pattern from 1202 allocations
// to 423 (429 with the XOR-program backend), measured with go1.24 on
// amd64; the ceiling leaves room for toolchain drift.
func TestBuildPlanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode instruments allocations; counts are meaningless")
	}
	const ceiling = 700
	sd, err := NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(7)), 2)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := BuildPlan(sd, sc, StrategyPPM); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildPlan allocates %.0f/op", avg)
	if avg > ceiling {
		t.Errorf("BuildPlan allocates %.0f/op, ceiling %d", avg, ceiling)
	}
}
