package core

import (
	"fmt"
	"runtime"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// Execute runs a plan against a stripe: Step 3 fans the p independent
// sub-decodes over T workers of the persistent kernel pool, Step 4
// merges the recovered blocks into the remaining decode. threads <= 0
// selects the paper's default T = min(4, cores); the effective T never
// exceeds p ("we also restrain the number of threads T (T <= p)",
// §III-C).
//
// Error contract: if any sub-decode fails, Execute returns the error of
// the lowest-indexed failing group (then the remaining decode's),
// deterministically — concurrent failures are never dropped. The
// per-decode state (sector views, error slots, Normal-sequence scratch)
// comes from pools, so repeated executions of one plan allocate
// nothing per stripe.
func Execute(p *Plan, st *stripe.Stripe, field gf.Field, threads int, stats *kernel.Stats) (err error) {
	if p == nil {
		return fmt.Errorf("core: nil plan")
	}
	// View preparation dereferences the plan's column lists; a malformed
	// plan surfaces as an error, like every other executor failure.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: execute failed: %v", r)
		}
	}()
	s := getSession()
	defer s.release()
	s.reserveViews(viewCount(p))

	if p.Whole != nil {
		in := s.sectorViews(st, p.Whole.SurvivorCols)
		out := s.sectorViews(st, p.Whole.FaultyCols)
		return applySubDecode(&p.Whole.SubDecode, field, in, out, stats)
	}
	if len(p.Groups) == 0 && p.Rest == nil {
		return nil // nothing faulty
	}

	// Prepare every group's views serially; the views alias the stripe,
	// so filling them before the fan-out costs pointer writes only.
	s.reservePairs(len(p.Groups))
	for i := range p.Groups {
		s.ins[i] = s.sectorViews(st, p.Groups[i].SurvivorCols)
		s.outs[i] = s.sectorViews(st, p.Groups[i].FaultyCols)
	}

	t := effectiveThreads(threads, len(p.Groups))
	switch {
	case len(p.Groups) == 0:
		// Case 1: no independent sub-matrix; only the remaining decode.
	case t <= 1 || len(p.Groups) == 1:
		// Case 2 (or single worker): decode groups serially.
		for i := range p.Groups {
			if err := applySubDecode(&p.Groups[i], field, s.ins[i], s.outs[i], stats); err != nil {
				return err
			}
		}
	default:
		// Case 3/4: thread (g mod T) processes group g, as in
		// Algorithm 1. Workers pick up a fixed stride of groups on the
		// persistent pool; each group's outcome lands in its own slot
		// and the lowest-indexed failure wins.
		errs := s.errSlots(len(p.Groups))
		s.plan, s.field, s.stride, s.stats = p, field, t, stats
		poolErr := kernel.DefaultWorkers().Run(t, s.groupTask)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if poolErr != nil {
			return poolErr
		}
	}

	if p.Rest != nil {
		in := s.sectorViews(st, p.Rest.SurvivorCols)
		out := s.sectorViews(st, p.Rest.FaultyCols)
		return applySubDecode(p.Rest, field, in, out, stats)
	}
	return nil
}

// DefaultThreads is the paper's thread policy: min(4, core count),
// where the core count is GOMAXPROCS.
func DefaultThreads() int {
	if c := runtime.GOMAXPROCS(0); c < 4 {
		return c
	}
	return 4
}

func effectiveThreads(threads, p int) int {
	t := threads
	if t <= 0 {
		t = DefaultThreads()
	}
	if t > p {
		t = p
	}
	if t < 1 {
		t = 1
	}
	return t
}

// runSubDecode performs one matrix-decoding operation (Step 3.3 or
// Step 4): writes the recovered faulty blocks into the stripe. The
// compiled fast path is used when the plan was lowered (always, for
// plans from BuildPlan); the matrix path remains as the fallback for
// hand-assembled sub-decodes in tests. Failures — including
// out-of-range column lists and kernel shape panics — are returned as
// errors.
func runSubDecode(sd *SubDecode, st *stripe.Stripe, field gf.Field, stats *kernel.Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sub-decode failed: %v", r)
		}
	}()
	out := st.Sectors(sd.FaultyCols)
	in := st.Sectors(sd.SurvivorCols)
	return applySubDecode(sd, field, in, out, stats)
}
