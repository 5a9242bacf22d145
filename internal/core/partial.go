package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	"ppm/internal/codes"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Partial decoding (extension). A degraded read needs one block, not
// every lost block in the stripe; the paper's partition makes the
// minimal work explicit: a wanted block recovered by an independent
// sub-matrix needs only that sub-decode, while a block in H_rest needs
// H_rest plus the groups whose outputs H_rest consumes as survivors.
// For an LRC degraded read this collapses to the single local-group
// decode — the core of the code family's design — without any special
// casing.

// PartialSelection lists which sub-decodes of a plan a partial decode
// must execute to materialise the wanted sectors.
type PartialSelection struct {
	// GroupIdx are indices into Plan.Groups, in execution order.
	GroupIdx []int
	// NeedRest marks whether the remaining decode must run.
	NeedRest bool
	// Ops is the predicted mult_XORs of the selection.
	Ops int64
}

// SelectPartial computes the minimal sub-decode closure for the wanted
// sectors. Wanted sectors that are not faulty in the plan's scenario
// are ignored (they are readable as-is). Whole-matrix plans always
// execute fully.
func (p *Plan) SelectPartial(wanted []int) (PartialSelection, error) {
	var sel PartialSelection
	if p.Whole != nil {
		sel.NeedRest = false
		sel.Ops = p.Whole.ops()
		return sel, nil
	}
	faultyWanted := make(map[int]bool)
	inScenario := make(map[int]bool, len(p.Scenario.Faulty))
	for _, c := range p.Scenario.Faulty {
		inScenario[c] = true
	}
	for _, w := range wanted {
		if inScenario[w] {
			faultyWanted[w] = true
		}
	}
	if len(faultyWanted) == 0 {
		return sel, nil
	}

	needGroup := make([]bool, len(p.Groups))
	if p.Rest != nil {
		for _, c := range p.Rest.FaultyCols {
			if faultyWanted[c] {
				sel.NeedRest = true
				break
			}
		}
	}
	// Groups holding wanted blocks directly.
	for gi := range p.Groups {
		for _, c := range p.Groups[gi].FaultyCols {
			if faultyWanted[c] {
				needGroup[gi] = true
				break
			}
		}
	}
	// H_rest consumes recovered group outputs as survivors: pull in
	// every group whose faulty columns feed it.
	if sel.NeedRest {
		restSurvivor := make(map[int]bool, len(p.Rest.SurvivorCols))
		for _, c := range p.Rest.SurvivorCols {
			restSurvivor[c] = true
		}
		for gi := range p.Groups {
			if needGroup[gi] {
				continue
			}
			for _, c := range p.Groups[gi].FaultyCols {
				if restSurvivor[c] {
					needGroup[gi] = true
					break
				}
			}
		}
	}
	for gi, need := range needGroup {
		if need {
			sel.GroupIdx = append(sel.GroupIdx, gi)
			sel.Ops += p.Groups[gi].ops()
		}
	}
	if sel.NeedRest {
		sel.Ops += p.Rest.ops()
	}
	if len(sel.GroupIdx) == 0 && !sel.NeedRest {
		return sel, fmt.Errorf("core: wanted sectors %v are faulty but belong to no sub-decode (plan inconsistent)", wanted)
	}
	return sel, nil
}

// ExecutePartial runs only the selected sub-decodes. On return the
// wanted sectors hold recovered content; other faulty sectors may or
// may not have been recovered (those in executed groups were).
func ExecutePartial(p *Plan, st *stripe.Stripe, field gf.Field, threads int, stats *kernel.Stats, wanted []int) error {
	if p == nil {
		return fmt.Errorf("core: nil plan")
	}
	if p.Whole != nil {
		return runSubDecode(&p.Whole.SubDecode, st, field, stats)
	}
	sel, err := p.SelectPartial(wanted)
	if err != nil {
		return err
	}
	t := effectiveThreads(threads, len(sel.GroupIdx))
	if t <= 1 || len(sel.GroupIdx) <= 1 {
		for _, gi := range sel.GroupIdx {
			if err := runSubDecode(&p.Groups[gi], st, field, stats); err != nil {
				return err
			}
		}
	} else {
		// Stride the selected groups over t workers of the persistent
		// pool; the error from the lowest selected index wins.
		errs := make([]error, len(sel.GroupIdx))
		poolErr := kernel.DefaultWorkers().Run(t, func(w int) error {
			for i := w; i < len(sel.GroupIdx); i += t {
				if err := runSubDecode(&p.Groups[sel.GroupIdx[i]], st, field, stats); err != nil {
					errs[i] = err
					return err
				}
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if poolErr != nil {
			return poolErr
		}
	}
	if sel.NeedRest {
		return runSubDecode(p.Rest, st, field, stats)
	}
	return nil
}

// ExecutePartialRange runs a pre-selected sub-decode closure over the
// [lo, hi) byte sub-range of every sector — the range-restricted
// executor a degraded read of a sector sub-range uses. Views come from
// the pooled session arena and the matrices are pre-compiled, so the
// repeated path allocates nothing per call. lo and hi must be
// word-aligned (the kernels enforce region alignment).
func ExecutePartialRange(p *Plan, st *stripe.Stripe, field gf.Field, threads int, stats *kernel.Stats, sel *PartialSelection, lo, hi int) error {
	if p == nil {
		return fmt.Errorf("core: nil plan")
	}
	s := getSession()
	defer s.release()
	if p.Whole != nil {
		s.reserveViews(viewCount(p))
		in := s.sectorViews(st, p.Whole.SurvivorCols)
		out := s.sectorViews(st, p.Whole.FaultyCols)
		return applySubDecodeRange(&p.Whole.SubDecode, field, in, out, lo, hi, stats)
	}
	n := 0
	for _, gi := range sel.GroupIdx {
		n += len(p.Groups[gi].FaultyCols) + len(p.Groups[gi].SurvivorCols)
	}
	if sel.NeedRest {
		n += len(p.Rest.FaultyCols) + len(p.Rest.SurvivorCols)
	}
	s.reserveViews(n)
	t := effectiveThreads(threads, len(sel.GroupIdx))
	if t <= 1 || len(sel.GroupIdx) <= 1 {
		for _, gi := range sel.GroupIdx {
			g := &p.Groups[gi]
			in := s.sectorViews(st, g.SurvivorCols)
			out := s.sectorViews(st, g.FaultyCols)
			if err := applySubDecodeRange(g, field, in, out, lo, hi, stats); err != nil {
				return err
			}
		}
	} else {
		// Stride the selected groups over t workers of the persistent
		// pool; the error from the lowest selected index wins.
		s.reservePairs(len(sel.GroupIdx))
		for i, gi := range sel.GroupIdx {
			g := &p.Groups[gi]
			s.ins[i] = s.sectorViews(st, g.SurvivorCols)
			s.outs[i] = s.sectorViews(st, g.FaultyCols)
		}
		errs := s.errSlots(len(sel.GroupIdx))
		poolErr := kernel.DefaultWorkers().Run(t, func(w int) error {
			for i := w; i < len(sel.GroupIdx); i += t {
				if err := applySubDecodeRange(&p.Groups[sel.GroupIdx[i]], field, s.ins[i], s.outs[i], lo, hi, stats); err != nil {
					errs[i] = err
					return err
				}
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if poolErr != nil {
			return poolErr
		}
	}
	if sel.NeedRest {
		in := s.sectorViews(st, p.Rest.SurvivorCols)
		out := s.sectorViews(st, p.Rest.FaultyCols)
		return applySubDecodeRange(p.Rest, field, in, out, lo, hi, stats)
	}
	return nil
}

// partialCache is an LRU of computed partial selections keyed by
// failure pattern + wanted set, mirroring planCache: selections are
// immutable after SelectPartial, the cache itself is mutex-guarded,
// and byte-key lookups avoid allocating on the hit path.
type partialCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      list.List // Front is most recently used; values are *partialEntry
}

type partialEntry struct {
	key string
	sel *PartialSelection
}

func newPartialCache(capacity int) *partialCache {
	return &partialCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
	}
}

func (c *partialCache) get(key []byte) *PartialSelection {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		c.lru.MoveToFront(elem)
		return elem.Value.(*partialEntry).sel
	}
	return nil
}

func (c *partialCache) put(key []byte, sel *PartialSelection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.entries[string(key)]; ok {
		elem.Value.(*partialEntry).sel = sel
		c.lru.MoveToFront(elem)
		return
	}
	for c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*partialEntry).key)
	}
	k := string(key)
	c.entries[k] = c.lru.PushFront(&partialEntry{key: k, sel: sel})
}

// partialFor returns the selection for (scenario, wanted), consulting
// the selection cache when enabled. Distinct orderings of the same
// wanted set cache separately — harmless, callers pass stable lists.
func (d *Decoder) partialFor(plan *Plan, sc codes.Scenario, wanted []int) (*PartialSelection, error) {
	if d.partials == nil {
		sel, err := plan.SelectPartial(wanted)
		if err != nil {
			return nil, err
		}
		return &sel, nil
	}
	var arr [160]byte
	key := planKey(arr[:0], sc, d.strategy)
	for _, w := range wanted {
		key = binary.AppendUvarint(key, uint64(w))
	}
	if sel := d.partials.get(key); sel != nil {
		return sel, nil
	}
	sel, err := plan.SelectPartial(wanted)
	if err != nil {
		return nil, err
	}
	d.partials.put(key, &sel)
	return &sel, nil
}

// DecodeSectors recovers only the listed sectors of the scenario — the
// degraded-read path. The remaining faulty sectors are left as they
// are unless their sub-decodes were needed anyway.
func (d *Decoder) DecodeSectors(st *stripe.Stripe, sc codes.Scenario, wanted []int) error {
	return d.DecodeSectorsRange(st, sc, wanted, 0, st.SectorSize())
}

// DecodeSectorsRange is DecodeSectors restricted to the [lo, hi) byte
// sub-range of every sector — a degraded read of part of a block reads
// and computes only that part. Plans and partial selections are both
// LRU-cached, so the repeated path allocates nothing per call.
func (d *Decoder) DecodeSectorsRange(st *stripe.Stripe, sc codes.Scenario, wanted []int, lo, hi int) error {
	if err := d.checkGeometry(st); err != nil {
		return err
	}
	wb := d.code.Field().WordBytes()
	if lo < 0 || hi > st.SectorSize() || lo >= hi {
		return fmt.Errorf("core: byte range [%d,%d) outside sector size %d", lo, hi, st.SectorSize())
	}
	if lo%wb != 0 || hi%wb != 0 {
		return fmt.Errorf("core: byte range [%d,%d) not aligned to the %d-byte GF word", lo, hi, wb)
	}
	plan, err := d.planFor(sc)
	if err != nil {
		return err
	}
	sel, err := d.partialFor(plan, sc, wanted)
	if err != nil {
		return err
	}
	return ExecutePartialRange(plan, st, d.code.Field(), d.threads, d.stats, sel, lo, hi)
}
