package repair

import (
	"math/rand"
	"sync"
	"testing"

	"ppm/internal/codes"
)

// lruScenario builds a decodable scenario or fails the test.
func lruScenario(t *testing.T, c codes.Code, faulty []int) codes.Scenario {
	t.Helper()
	sc, err := codes.NewScenario(c, faulty)
	if err != nil {
		t.Fatalf("faulty=%v: %v", faulty, err)
	}
	if !codes.Decodable(c, sc) {
		t.Fatalf("faulty=%v: not decodable", faulty)
	}
	return sc
}

// TestPlannerCacheEviction pins the LRU discipline of a capacity-2
// planner cache: the least recently used plan is evicted, a recently
// touched one survives, and every Plan call is accounted as exactly one
// hit or one miss.
func TestPlannerCacheEviction(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c, WithCacheSize(2))
	sc1 := lruScenario(t, c, []int{1})
	sc2 := lruScenario(t, c, []int{7})
	sc3 := lruScenario(t, c, []int{13})

	p1, err := pl.Plan(sc1, nil) // miss
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Plan(sc2, nil); err != nil { // miss
		t.Fatal(err)
	}
	// Touch sc1 so sc2 is the eviction victim.
	if p, err := pl.Plan(sc1, nil); err != nil || p != p1 { // hit
		t.Fatalf("resident plan was rebuilt (err=%v)", err)
	}
	if _, err := pl.Plan(sc3, nil); err != nil { // miss, evicts sc2
		t.Fatal(err)
	}
	if p, err := pl.Plan(sc1, nil); err != nil || p != p1 { // hit
		t.Fatalf("sc1 evicted out of LRU order (err=%v)", err)
	}
	if _, err := pl.Plan(sc2, nil); err != nil { // miss: was evicted
		t.Fatal(err)
	}
	hits, misses := pl.CacheStats()
	if hits != 2 || misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 2/4", hits, misses)
	}
}

// TestPlannerCacheWantedKeying pins that the wanted set is part of the
// cache key: a partial-recovery plan and the full plan for the same
// failure pattern are distinct entries, and replanning the original
// request after the widened one still hits the cached plan.
func TestPlannerCacheWantedKeying(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	sc := lruScenario(t, c, []int{2, 8})

	partial, err := pl.Plan(sc, []int{2}) // miss
	if err != nil {
		t.Fatal(err)
	}
	full, err := pl.Plan(sc, nil) // miss: different wanted key
	if err != nil {
		t.Fatal(err)
	}
	if partial == full {
		t.Fatal("partial and full recovery requests shared one cache entry")
	}
	if p, err := pl.Plan(sc, []int{2}); err != nil || p != partial { // hit
		t.Fatalf("partial plan was rebuilt after the full plan (err=%v)", err)
	}
	if p, err := pl.Plan(sc, nil); err != nil || p != full { // hit
		t.Fatalf("full plan was rebuilt after the partial plan (err=%v)", err)
	}
	if hits, misses := pl.CacheStats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// TestPlannerCacheConcurrent hammers one planner from many goroutines
// (run with -race): no call errors, every call is accounted exactly
// once, and each key was built at least once.
func TestPlannerCacheConcurrent(t *testing.T) {
	c, err := codes.NewPublishedSD(1)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c)
	scs := []codes.Scenario{
		lruScenario(t, c, []int{0}),
		lruScenario(t, c, []int{5}),
		lruScenario(t, c, []int{11}),
		lruScenario(t, c, []int{3, 9}),
	}

	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(scs))
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range scs {
					sc := scs[(i+g)%len(scs)]
					if _, err := pl.Plan(sc, nil); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := pl.CacheStats()
	const calls = workers * rounds * 4
	if hits+misses != calls {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d calls", hits, misses, hits+misses, calls)
	}
	// Concurrent cold misses on one key may each count, but every key
	// missed at least once and the cache absorbed the rest.
	if misses < int64(len(scs)) {
		t.Fatalf("misses=%d below the %d distinct keys", misses, len(scs))
	}
	if hits == 0 {
		t.Fatal("no hits across repeated rounds: the cache is not retaining plans")
	}
}

// TestPlannerCacheDisabled pins WithCacheSize(0): plans always rebuild
// and the counters stay zero.
func TestPlannerCacheDisabled(t *testing.T) {
	c, err := codes.NewPublishedSD(0)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(c, WithCacheSize(0))
	sc := lruScenario(t, c, []int{4})
	a, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Plan(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("cache-disabled planner returned a cached plan")
	}
	if hits, misses := pl.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d", hits, misses)
	}
}

// TestPlannerCachedHitAllocationFree: a cached Plan lookup renders its
// key into a stack buffer and allocates nothing, for a full repair and
// for a wanted subset of an SD(8,16,2,2) pattern that loses 34 sectors
// (two whole disks plus two sectors).
func TestPlannerCachedHitAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode instruments allocations; counts are meaningless")
	}
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sd.WorstCaseScenario(rand.New(rand.NewSource(42)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faulty) != 34 {
		t.Fatalf("worst case loses %d sectors, want 34", len(sc.Faulty))
	}
	pl := NewPlanner(sd)
	for _, wanted := range [][]int{nil, sc.Faulty[:len(sc.Faulty)/2]} {
		want, err := pl.Plan(sc, wanted) // miss: builds and caches
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if p, err := pl.Plan(sc, wanted); err != nil || p != want {
				t.Fatalf("cached plan not returned (err=%v)", err)
			}
		}); avg != 0 {
			t.Errorf("wanted=%v: cached Plan allocates %.1f/op, want 0", wanted, avg)
		}
	}
}
