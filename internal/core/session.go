package core

import (
	"fmt"
	"sync"

	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

// execSession is the reusable per-decode state of the standard
// executor: an arena of sector-view slice headers, the per-group
// in/out view pairs, the per-group error slots, and the group fan-out
// task. Sessions circulate through a sync.Pool, so the repeated-decode
// path — one plan executed against thousands of stripes during a
// whole-disk rebuild — allocates nothing per stripe at any thread
// count.
//
// A session is owned by exactly one Execute call; the stripe views and
// plan it holds are cleared on release so the pool never pins them.
//
//ppm:nocopy
type execSession struct {
	views [][]byte
	used  int
	ins   [][][]byte
	outs  [][][]byte
	errs  []error

	// Fan-out state read by runGroups. groupTask is the method value
	// s.runGroups, built once per session so handing it to the worker
	// pool allocates no closure per decode.
	plan      *Plan
	field     gf.Field
	stride    int
	stats     *kernel.Stats
	groupTask func(int) error
}

var sessionPool = sync.Pool{New: func() interface{} {
	s := new(execSession)
	s.groupTask = s.runGroups
	return s
}}

func getSession() *execSession {
	s := sessionPool.Get().(*execSession)
	s.used = 0
	return s
}

func (s *execSession) release() {
	for i := range s.views {
		s.views[i] = nil // do not pin stripe buffers in the pool
	}
	s.plan, s.field, s.stats = nil, nil, nil
	sessionPool.Put(s)
}

// runGroups is worker w's share of Execute's group fan-out: it decodes
// groups w, w+T, w+2T, ... (thread g mod T owns group g, as in
// Algorithm 1), recording each failure in the group's error slot.
//
//ppm:hotpath
func (s *execSession) runGroups(w int) error {
	groups := s.plan.Groups
	for g := w; g < len(groups); g += s.stride {
		if err := applySubDecode(&groups[g], s.field, s.ins[g], s.outs[g], s.stats); err != nil {
			s.errs[g] = err
			return err
		}
	}
	return nil
}

// reserveViews sizes the arena for n sector views.
func (s *execSession) reserveViews(n int) {
	if cap(s.views) < n {
		s.views = make([][]byte, n)
	}
	s.views = s.views[:n]
	s.used = 0
}

// sectorViews takes len(cols) views from the arena and fills them with
// the stripe's sector buffers.
func (s *execSession) sectorViews(st *stripe.Stripe, cols []int) [][]byte {
	v := s.views[s.used : s.used+len(cols) : s.used+len(cols)]
	s.used += len(cols)
	for i, c := range cols {
		v[i] = st.Sector(c)
	}
	return v
}

// reservePairs sizes the per-group in/out tables.
func (s *execSession) reservePairs(n int) {
	if cap(s.ins) < n {
		s.ins = make([][][]byte, n)
		s.outs = make([][][]byte, n)
	}
	s.ins = s.ins[:n]
	s.outs = s.outs[:n]
}

// errSlots returns n cleared error slots.
func (s *execSession) errSlots(n int) []error {
	if cap(s.errs) < n {
		s.errs = make([]error, n)
	}
	s.errs = s.errs[:n]
	for i := range s.errs {
		s.errs[i] = nil
	}
	return s.errs
}

// viewCount returns the number of sector views a plan's execution
// needs, so a session can reserve its arena in one step.
func viewCount(p *Plan) int {
	if p.Whole != nil {
		return len(p.Whole.FaultyCols) + len(p.Whole.SurvivorCols)
	}
	n := 0
	for i := range p.Groups {
		n += len(p.Groups[i].FaultyCols) + len(p.Groups[i].SurvivorCols)
	}
	if p.Rest != nil {
		n += len(p.Rest.FaultyCols) + len(p.Rest.SurvivorCols)
	}
	return n
}

// validate checks the sub-decode's matrices against the view counts the
// executor is about to apply them to, so a malformed or hand-assembled
// sub-decode surfaces as a returned error instead of a kernel panic.
func (sd *SubDecode) validate(inN, outN int) error {
	var rows, cols int
	switch {
	case sd.Seq == kernel.MatrixFirst && sd.cG != nil:
		rows, cols = sd.cG.Rows(), sd.cG.Cols()
	case sd.Seq == kernel.MatrixFirst && sd.G != nil:
		rows, cols = sd.G.Rows(), sd.G.Cols()
	case sd.Seq == kernel.MatrixFirst:
		return fmt.Errorf("core: sub-decode has no matrix-first product")
	case sd.cFinv != nil && sd.cS != nil:
		if sd.cFinv.Rows() != sd.cFinv.Cols() || sd.cFinv.Cols() != sd.cS.Rows() {
			return fmt.Errorf("core: sub-decode F^-1 %dx%d does not chain to S %dx%d",
				sd.cFinv.Rows(), sd.cFinv.Cols(), sd.cS.Rows(), sd.cS.Cols())
		}
		rows, cols = sd.cS.Rows(), sd.cS.Cols()
	case sd.Finv != nil && sd.S != nil:
		if sd.Finv.Rows() != sd.Finv.Cols() || sd.Finv.Cols() != sd.S.Rows() {
			return fmt.Errorf("core: sub-decode F^-1 %s does not chain to S %s", sd.Finv.Dims(), sd.S.Dims())
		}
		rows, cols = sd.S.Rows(), sd.S.Cols()
	default:
		return fmt.Errorf("core: sub-decode has no matrices for the normal sequence")
	}
	if rows != outN || cols != inN {
		return fmt.Errorf("core: sub-decode matrix is %dx%d against %d survivors, %d faulty", rows, cols, inN, outN)
	}
	return nil
}

// applySubDecode runs one sub-decode's kernel product on prepared
// views. Shape mismatches and kernel panics come back as errors — the
// executors' contract is that a failing sub-decode is always reported,
// never dropped and never allowed to kill the process.
//
//ppm:hotpath
func applySubDecode(sd *SubDecode, field gf.Field, in, out [][]byte, stats *kernel.Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			//ppm:allow(hotalloc) panic recovery: this branch is the cold failure path
			err = fmt.Errorf("core: sub-decode failed: %v", r)
		}
	}()
	if verr := sd.validate(len(in), len(out)); verr != nil {
		return verr
	}
	if sd.cG != nil || sd.cFinv != nil {
		kernel.CompiledProduct(sd.cFinv, sd.cS, sd.cG, in, out, nil, sd.Seq, stats)
	} else {
		kernel.Product(field, sd.Finv, sd.S, in, out, nil, sd.Seq, stats)
	}
	return nil
}

// applySubDecodeRange runs one sub-decode over the [lo, hi) byte
// sub-range of the prepared views, serially — the per-chunk body of the
// hybrid executor's byte-range fan-out. Compiled plans go through the
// allocation-free tiled range product; the matrix fallback (only
// hand-assembled sub-decodes in tests reach it) slices the views.
//
//ppm:hotpath
func applySubDecodeRange(sd *SubDecode, field gf.Field, in, out [][]byte, lo, hi int, stats *kernel.Stats) (err error) {
	defer func() {
		if r := recover(); r != nil {
			//ppm:allow(hotalloc) panic recovery: this branch is the cold failure path
			err = fmt.Errorf("core: sub-decode failed: %v", r)
		}
	}()
	if verr := sd.validate(len(in), len(out)); verr != nil {
		return verr
	}
	if sd.cG != nil || sd.cFinv != nil {
		kernel.CompiledProductRange(sd.cFinv, sd.cS, sd.cG, in, out, nil, sd.Seq, lo, hi, stats)
	} else {
		cin := kernel.SliceRegions(in, lo, hi)
		cout := kernel.SliceRegions(out, lo, hi)
		kernel.Product(field, sd.Finv, sd.S, cin, cout, nil, sd.Seq, stats)
	}
	return nil
}
