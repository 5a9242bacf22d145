package main

import (
	"fmt"
	"math/rand"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

const (
	// repairStripes is the stripe set: 4 MiB of 512 KiB stripes, which
	// stays cache-resident, so planning rather than memory sets the cost.
	repairStripes = 8
	// repairPatterns distinct worst-case patterns are cycled through;
	// far more than core.DefaultPlanCacheSize, so the plan cache misses.
	repairPatterns = 4096
	// repairWindow is the number of repairs per measurement window.
	repairWindow = 1000
	// repairSLO is the latency limit of one stripe repair.
	repairSLO = 2 * time.Millisecond
)

// repairBench is the paper's evaluation run as traffic: every SD(8,16,2,2)
// stripe repair brings its own worst-case pattern (two whole disks plus
// two sectors) and is repaired in place by one shared core.Decoder.
type repairBench struct {
	code     *codes.SD
	raw      []*stripe.Stripe // data sectors only, parity zero
	patterns []codes.Scenario
	warm     []codes.Scenario

	dec    *core.Decoder
	stats  kernel.Stats
	golden []*stripe.Stripe
	work   *stripe.Stripe
	next   int // next pattern; continues across phases so patterns stay cold
}

func newSectorRepair(seed int64) workload {
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	b := &repairBench{code: sd}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < repairStripes; k++ {
		st, err := stripe.New(sd.NumStrips(), sd.NumRows(), sectorBytes)
		if err != nil {
			panic(err)
		}
		st.FillDataRandom(rng.Int63(), codes.DataPositions(sd))
		b.raw = append(b.raw, st)
	}
	gen := func(n int) []codes.Scenario {
		out := make([]codes.Scenario, n)
		for i := range out {
			if out[i], err = sd.WorstCaseScenario(rng, 2); err != nil {
				panic(err)
			}
		}
		return out
	}
	b.patterns = gen(repairPatterns)
	b.warm = gen(4 * core.DefaultPlanCacheSize)
	return b
}

// setup encodes the stripe set (the initial array load) and warms the
// decoder with patterns the timed phase does not use.
func (b *repairBench) setup() error {
	b.dec = core.NewDecoder(b.code, core.WithThreads(nproc), core.WithStats(&b.stats))
	b.golden = make([]*stripe.Stripe, len(b.raw))
	for k, raw := range b.raw {
		b.golden[k] = raw.Clone()
		if err := b.dec.Encode(b.golden[k]); err != nil {
			return err
		}
	}
	b.work = b.golden[0].Clone()
	for i, sc := range b.warm {
		gold := b.golden[i%len(b.golden)]
		copyStripe(b.work, gold)
		b.work.Erase(sc.Faulty)
		if err := b.dec.Decode(b.work, sc); err != nil {
			return err
		}
		if !b.work.Equal(gold) {
			return fmt.Errorf("warm-up repair %d: %w", i, errMismatch)
		}
	}
	return nil
}

func (b *repairBench) close() {
	b.dec, b.golden, b.work = nil, nil, nil
}

// run repairs one stripe after another in a closed loop. Untraced, each
// repair is one Decoder.Decode; traced, it is Decoder.Plan followed by
// DecodeWithPlan, the same work split at the planning boundary.
func (b *repairBench) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{sloLimit: repairSLO}
	settle()
	kc := readKernelCounters()
	mx0 := b.stats.MultXORs()
	h0, m0 := b.dec.PlanCacheStats()

	// The phase ends on a whole cycle of the patterns, so that its counts
	// (mult_XORs per stripe, predicted cost) repeat exactly for a seed.
	start := time.Now()
	w := openWindow()
	root := tr.begin("bench.timed", 0)
	for time.Since(start) < d || b.next%len(b.patterns) != 0 {
		if ph.attempted > 0 && ph.attempted%repairWindow == 0 {
			w.close(ph)
			ph.cut()
			w = openWindow()
		}
		sc := b.patterns[b.next%len(b.patterns)]
		gold := b.golden[b.next%len(b.golden)]
		b.next++
		copyStripe(b.work, gold)
		b.work.Erase(sc.Faulty)

		t0 := time.Now()
		var err error
		if tr == nil {
			err = b.dec.Decode(b.work, sc)
		} else {
			ps := tr.begin("core.plan", root)
			var plan *core.Plan
			plan, err = b.dec.Plan(sc)
			tr.end(ps)
			if err == nil {
				es := tr.begin("core.execute", root)
				err = b.dec.DecodeWithPlan(plan, b.work)
				tr.end(es)
				ph.chosenCost += plan.Costs.Chosen
			}
		}
		lat := time.Since(t0)
		ph.addWork(int64(b.work.TotalBytes()), lat)
		ph.recordOp(lat, err != nil || !b.work.Equal(gold))
	}
	tr.end(root)
	w.close(ph)

	h1, m1 := b.dec.PlanCacheStats()
	ph.planHits, ph.planLooks = h1-h0, (h1-h0)+(m1-m0)
	ph.multXORs = b.stats.MultXORs() - mx0
	kc.addDelta(ph)
	ph.kernelOps, ph.repaired = ph.attempted, ph.attempted
	ph.finish()
	ph.notes = append(ph.notes, fmt.Sprintf("sector-repair: %d repairs over %d stripes, %d patterns",
		ph.attempted, len(b.golden), len(b.patterns)))
	return ph, nil
}

// copyStripe copies src's sectors into dst, which has the same geometry.
func copyStripe(dst, src *stripe.Stripe) {
	for i := 0; i < src.TotalSectors(); i++ {
		copy(dst.Sector(i), src.Sector(i))
	}
}
