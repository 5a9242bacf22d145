package kernel

import (
	"errors"
	"fmt"

	"ppm/internal/gf"
	"ppm/internal/matrix"
	"ppm/internal/xorplan"
)

// CompiledMatrix is a matrix pre-lowered into fused per-row kernels:
// every row's nonzero coefficients are bound to their lookup tables at
// compile time (gf.CompileRows), so applying the matrix pays no
// zero-coefficient scan, no per-call table construction, and — because
// the row kernel streams all of a row's terms through each destination
// word in one pass — one destination load/store per row instead of one
// per nonzero term.
//
// Application is cache-blocked: the tiled driver applies the whole
// matrix to one tile of the byte range before the next (see tile.go),
// and regions of FanoutMinBytes() and up fan their tile spans out
// across the persistent worker pool, composing with the executors'
// group-level parallelism.
//
// The row kernels are the only lowering Compile builds (plus the XOR
// program when that backend is active); RowTerms reads them back for
// verification.
//
// A CompiledMatrix is immutable after Compile and safe for concurrent
// use — the PPM executor applies different compiled groups from
// different worker goroutines.
type CompiledMatrix struct {
	rows, cols int
	kerns      []gf.RowKernel
	nnz        int
	// prog, when non-nil, is the compiled XOR program (internal/xorplan)
	// backing the region-application paths instead of the row kernels —
	// attached by Compile when XorplanActive (GFNI absent, or forced).
	prog *xorplan.Program
}

// CompiledTerm is one nonzero coefficient of a compiled row.
type CompiledTerm struct {
	Col  int
	Mult gf.Multiplier
}

// Compile lowers m over the field into one fused gf.RowKernel per row,
// with every row's terms carved from one array. Equal coefficients
// share their multiplier through the field's memo (SD's all-ones
// disk-parity rows compile to plain XOR terms).
func Compile(f gf.Field, m *matrix.Matrix) *CompiledMatrix {
	cm := &CompiledMatrix{
		rows:  m.Rows(),
		cols:  m.Cols(),
		kerns: gf.CompileRows(f, m.Rows(), m.Cols(), m.Data()),
		nnz:   m.NNZ(),
	}
	if XorplanActive() {
		// Compiled programs are memoized process-wide, so recompiling the
		// same matrix (per-stripe decode plans, pooled engines) reuses one
		// schedule. A lowering failure just leaves the row kernels serving
		// — except a plan-verification rejection (PPM_VERIFY_PLANS=1),
		// which means the compiler emitted provably wrong code: falling
		// back would mask exactly the bug the gate exists to catch.
		if prog, err := xorplan.CompileCached(f, m); err == nil {
			cm.prog = prog
		} else if errors.Is(err, xorplan.ErrVerify) {
			panic(err)
		}
	}
	return cm
}

// Rows returns the compiled row count.
func (cm *CompiledMatrix) Rows() int { return cm.rows }

// Cols returns the compiled column count.
func (cm *CompiledMatrix) Cols() int { return cm.cols }

// NNZ returns the nonzero count, i.e. the mult_XORs cost of one Apply.
func (cm *CompiledMatrix) NNZ() int { return cm.nnz }

// RowTerms returns row i's nonzero terms in column order, read back
// from the row kernel the tiled driver runs. It allocates, and is meant
// for verification and tests, not for the apply path.
func (cm *CompiledMatrix) RowTerms(i int) []CompiledTerm {
	kern := cm.kerns[i]
	terms := make([]CompiledTerm, kern.Terms())
	for k := range terms {
		terms[k].Col, terms[k].Mult = kern.Term(k)
	}
	return terms
}

// checkShape panics unless the in/out counts match the matrix.
func (cm *CompiledMatrix) checkShape(in, out [][]byte) {
	if cm.rows != len(out) || cm.cols != len(in) {
		panic(fmt.Sprintf("kernel: compiled %dx%d against %d inputs, %d outputs", cm.rows, cm.cols, len(in), len(out)))
	}
}

// Apply computes out[i] ^= Σ_j M[i][j] * in[j], like kernel.Apply but
// on the pre-lowered form: tiled, fused, and — for regions of
// FanoutMinBytes() and up — fanned out across the worker pool.
func (cm *CompiledMatrix) Apply(in, out [][]byte, stats *Stats) {
	cm.checkShape(in, out)
	size := regionLen(out)
	if spans := fanoutSpans(size); spans != nil {
		if err := DefaultWorkers().Run(len(spans), func(i int) error {
			cm.applySpan(in, out, spans[i][0], spans[i][1])
			return nil
		}); err != nil {
			panic(err)
		}
	} else {
		cm.applySpan(in, out, 0, size)
	}
	stats.AddMultXORs(int64(cm.nnz))
}

// ApplyRange applies the matrix to the [lo, hi) byte sub-range of every
// region, serially tiled — the building block byte-range executors
// (hybrid chunking, the block-parallel baseline) use to run one
// compiled matrix over worker-private chunks. Counts the full nnz as
// operations; callers splitting one logical apply across ranges pass
// nil stats and account once themselves.
func (cm *CompiledMatrix) ApplyRange(in, out [][]byte, lo, hi int, stats *Stats) {
	cm.checkShape(in, out)
	cm.applySpan(in, out, lo, hi)
	stats.AddMultXORs(int64(cm.nnz))
}

// applySpan is the tiled inner driver: whole matrix, one tile at a
// time, with pooled view headers presenting each tile of the sources
// to the fused row kernels.
//
//ppm:hotpath
//ppm:counted Apply/ApplyRange account the full NNZ once per logical application
func (cm *CompiledMatrix) applySpan(in, out [][]byte, lo, hi int) {
	if lo >= hi {
		return
	}
	if cm.prog != nil && !cm.prog.HasDerivative() {
		// The XOR program accumulates the same sum and does its own
		// arena-budget tiling (capped at this driver's tile, so the two
		// blockings compose). Derivative-scheduled programs copy between
		// output rows and only run in overwrite mode — see ApplyOverwrite.
		cm.prog.RunAccumulate(in, out, lo, hi)
		return
	}
	arena := getViewArena(len(in))
	views := arena.take(len(in))
	tile := TileSize()
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		for j := range in {
			views[j] = in[j][t:te]
		}
		for i, kern := range cm.kerns {
			kern.MultXOR(out[i][t:te], views)
		}
	}
	arena.release()
}

// ApplyOverwrite computes out[i] = Σ_j M[i][j] * in[j], fully
// overwriting out — Apply's contract minus the caller-side zeroing
// pass. With an XOR program attached the zeroing disappears entirely
// (overwrite runs seed each destination with its first fused XOR, and
// derivative-scheduled rows start from a sibling row instead of
// nothing); otherwise it zeroes and falls back to Apply.
func (cm *CompiledMatrix) ApplyOverwrite(in, out [][]byte, stats *Stats) {
	cm.checkShape(in, out)
	if cm.prog == nil {
		Zero(out)
		cm.Apply(in, out, stats)
		return
	}
	size := regionLen(out)
	if spans := fanoutSpans(size); spans != nil {
		if err := DefaultWorkers().Run(len(spans), func(i int) error {
			cm.prog.RunOverwrite(in, out, spans[i][0], spans[i][1])
			return nil
		}); err != nil {
			panic(err)
		}
	} else {
		cm.prog.RunOverwrite(in, out, 0, size)
	}
	stats.AddMultXORs(int64(cm.nnz))
}

// chainSpan runs the Normal sequence over [lo, hi) with the
// intermediate product tiled through cache: per tile, S * BS lands in
// a tile-sized scratch and F^-1 consumes it immediately, so the
// intermediate regions never materialise at full size (word positions
// are independent, which makes the per-tile chaining exact). scratch,
// if non-nil, provides caller-owned intermediate regions instead of
// pooled tile scratch.
//
//ppm:hotpath
//ppm:counted CompiledProduct accounts u(S)+u(F^-1) once per logical product
func chainSpan(finv, s *CompiledMatrix, in, out, scratch [][]byte, lo, hi int) {
	if lo >= hi {
		return
	}
	tile := TileSize()
	arena := getViewArena(len(in) + 2*len(out))
	views := arena.take(len(in))
	mid := arena.take(len(out))
	outs := arena.take(len(out))
	var sb *Scratch
	if scratch == nil {
		span := hi - lo
		if span > tile {
			span = tile
		}
		sb = GetScratch(len(out), span)
		scratch = sb.Regions() // tile-relative: sliced [:n] per tile below
	}
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		n := te - t
		for j := range in {
			views[j] = in[j][t:te]
		}
		for i := range out {
			if sb != nil {
				mid[i] = scratch[i][:n]
			} else {
				mid[i] = scratch[i][t:te]
			}
			outs[i] = out[i][t:te]
		}
		// Both stages fully overwrite their destinations, so when a stage
		// carries an XOR program its overwrite run replaces the zeroing
		// pass and the row kernels for that tile.
		if s.prog != nil {
			s.prog.RunOverwrite(views, mid, 0, n)
		} else {
			Zero(mid)
			for i, kern := range s.kerns {
				kern.MultXOR(mid[i], views)
			}
		}
		if finv.prog != nil {
			finv.prog.RunOverwrite(mid, outs, 0, n)
		} else {
			Zero(outs)
			for i, kern := range finv.kerns {
				kern.MultXOR(outs[i], mid)
			}
		}
	}
	sb.Release()
	arena.release()
}

// CompiledProduct mirrors Product for compiled matrices: out =
// F^-1 * S * BS under the given sequence, where g is the compiled
// MatrixFirst product and finv/s the compiled Normal-sequence pair.
// Only the matrices the sequence needs may be non-nil. The Normal
// sequence chains both applications tile-by-tile, so the intermediate
// S * BS stays cache-resident; large regions fan tile spans across the
// worker pool.
func CompiledProduct(finv, s, g *CompiledMatrix, in, out, scratch [][]byte, seq Sequence, stats *Stats) {
	switch seq {
	case MatrixFirst:
		g.ApplyOverwrite(in, out, stats)
	case Normal:
		s.checkShape(in, scratchOrOut(scratch, out))
		finv.checkShape(scratchOrOut(scratch, out), out)
		size := regionLen(out)
		if spans := fanoutSpans(size); spans != nil {
			if err := DefaultWorkers().Run(len(spans), func(i int) error {
				chainSpan(finv, s, in, out, scratch, spans[i][0], spans[i][1])
				return nil
			}); err != nil {
				panic(err)
			}
		} else {
			chainSpan(finv, s, in, out, scratch, 0, size)
		}
		stats.AddMultXORs(int64(s.nnz + finv.nnz))
	default:
		panic(fmt.Sprintf("kernel: unknown sequence %d", int(seq)))
	}
}

// CompiledProductRange is CompiledProduct restricted to the [lo, hi)
// byte sub-range and always serial — for byte-range executors
// (block-parallel decoding, hybrid chunk phases) that own their own
// fan-out and call this from per-chunk workers. Unlike CompiledProduct
// it also zeroes the output range itself for MatrixFirst, so one chunk
// worker never touches another's bytes. Counts the full matrix nnz;
// callers splitting one logical product across ranges pass nil stats
// and account once themselves.
func CompiledProductRange(finv, s, g *CompiledMatrix, in, out, scratch [][]byte, seq Sequence, lo, hi int, stats *Stats) {
	switch seq {
	case MatrixFirst:
		g.checkShape(in, out)
		if g.prog != nil {
			g.prog.RunOverwrite(in, out, lo, hi)
		} else {
			ZeroRange(out, lo, hi)
			g.applySpan(in, out, lo, hi)
		}
		stats.AddMultXORs(int64(g.nnz))
	case Normal:
		s.checkShape(in, scratchOrOut(scratch, out))
		finv.checkShape(scratchOrOut(scratch, out), out)
		chainSpan(finv, s, in, out, scratch, lo, hi)
		stats.AddMultXORs(int64(s.nnz + finv.nnz))
	default:
		panic(fmt.Sprintf("kernel: unknown sequence %d", int(seq)))
	}
}

// ZeroRange clears the [lo, hi) byte range of every region without
// allocating sub-slice headers.
func ZeroRange(regions [][]byte, lo, hi int) {
	for _, r := range regions {
		r := r[lo:hi]
		for i := range r {
			r[i] = 0
		}
	}
}

// scratchOrOut sizes shape checks for the Normal chain: the
// intermediate vector has one region per output row.
func scratchOrOut(scratch, out [][]byte) [][]byte {
	if scratch != nil {
		return scratch
	}
	return out
}

// ChunkRanges splits a region byte range [0, size) into at most parts
// word-aligned, non-empty half-open ranges — the byte-range splitting
// used by block-level parallel decoding and by the hybrid executor's
// chunked serial phases.
func ChunkRanges(size, parts, wordBytes int) [][2]int {
	words := size / wordBytes
	if parts > words {
		parts = words
	}
	if parts < 1 {
		parts = 1
	}
	var ranges [][2]int
	start := 0
	for i := 0; i < parts; i++ {
		w := words / parts
		if i < words%parts {
			w++
		}
		end := start + w*wordBytes
		if end > start {
			ranges = append(ranges, [2]int{start, end})
		}
		start = end
	}
	return ranges
}

// SliceRegions returns the [lo, hi) sub-slices of each region.
func SliceRegions(regions [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, len(regions))
	for i, r := range regions {
		out[i] = r[lo:hi]
	}
	return out
}
