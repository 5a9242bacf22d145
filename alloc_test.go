package ppm

import (
	"math/rand"
	"testing"

	"ppm/internal/kernel"
)

// TestRepeatedDecodeAllocationFree pins the steady-state contract of
// the rebuild workload end to end: with a cached (or explicitly reused)
// plan, every per-stripe structure — compiled row kernels, tile view
// arenas, Normal-sequence scratch, executor sessions and their group
// fan-out task, worker-pool run state — comes from plan state or
// pools, so a repeated decode performs zero heap allocations at one
// thread and across the T=4 group fan-out alike. The SD(8,16,2,2)
// pattern loses 34 sectors, so its plan-cache key must stay compact to
// be looked up without allocating.
func TestRepeatedDecodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	for _, tc := range []struct{ r, z, wantFaulty int }{
		{r: 8, z: 1, wantFaulty: 18},
		{r: 16, z: 2, wantFaulty: 34},
	} {
		sd, err := NewSD(8, tc.r, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(42)), tc.z)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.Faulty) != tc.wantFaulty {
			t.Fatalf("%s: worst case loses %d sectors, want %d", sd.Name(), len(sc.Faulty), tc.wantFaulty)
		}
		// 512 KiB stripe: large enough for the tiled drivers' multi-tile
		// loops, while staying below the kernel's byte-range fan-out
		// cutoff.
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
				t.Errorf("%s T=%d: DecodeWithPlan allocates %.1f/op, want 0", sd.Name(), threads, avg)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if err := dec.Decode(st, sc); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%s T=%d: cached Decode allocates %.1f/op, want 0", sd.Name(), threads, avg)
			}
		}
	}
}

// TestBuildPlanAllocCeiling bounds what one cold plan allocates, for a
// fixed SD(8,16,2,2) worst-case pattern (two whole disks plus two
// sectors). Sizing each compiled row once and compiling each distinct
// group program once per plan took this pattern from 1202 allocations
// to 423 (429 with the XOR-program backend). Planning from H's row
// supports into one slab per plan, with pooled scratch and each
// compiled matrix's row kernels carved from one array, took it from
// 423 to 21 (429 to 27 with the XOR-program backend), measured with
// go1.24 on amd64. Each ceiling is its count plus 15%.
func TestBuildPlanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode instruments allocations; counts are meaningless")
	}
	ceiling := 24.0
	if kernel.XorplanActive() {
		ceiling = 31
	}
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
		t.Errorf("BuildPlan allocates %.0f/op, ceiling %.0f", avg, ceiling)
	}
}
