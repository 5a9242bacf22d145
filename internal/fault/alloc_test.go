package fault

import (
	"context"
	"testing"
	"time"

	"ppm/internal/codes"
	"ppm/internal/stripe"
)

// TestHealerCleanReadAllocs bounds what a clean Healer read — nothing
// lost beyond the baseline, every checksum matching — allocates per
// call, on the small-read serving setup: LRC(12,2,2) with one data
// disk lost in each local group. What remains is the retry closure of
// each strip read: one for the live sector, fourteen for the stripe.
func TestHealerCleanReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool deliberately drops items; alloc counts are meaningless")
	}
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	const sector = 4096
	ms, _, sums := encodeToStore(t, lrc, 1, sector, 61)
	ms.Lose(0)
	ms.Lose(6)
	baseline, err := codes.NewScenario(lrc, []int{0, 6})
	if err != nil {
		t.Fatal(err)
	}
	h := &Healer{Code: lrc, Store: ms, Sums: sums, Baseline: baseline,
		Policy: Policy{MaxAttempts: 3, BaseDelay: time.Microsecond}}
	st, err := stripe.New(lrc.NumStrips(), lrc.NumRows(), sector)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name    string
		ceiling float64
		read    func() error
	}{
		// Before the healer kept its scratch and validated the baseline
		// once, these were 17 and 28 allocations per call.
		{"ReadSectors-live", 1, func() error { return h.ReadSectors(ctx, 0, st, []int{5}) }},
		{"ReadStripe", 14, func() error { return h.ReadStripe(ctx, 0, st) }},
	}
	for _, c := range cases {
		if err := c.read(); err != nil { // warm the planner and scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.read(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per call", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.1f per call, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
