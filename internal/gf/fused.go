package gf

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Fused region kernels: apply a whole row of coefficients in one pass.
//
// The paper's cost unit is the single-term region operation
// mult_XORs(dst, src, a), and every figure counts those. But executing a
// row of r nonzero coefficients as r independent MultXORs calls loads
// and stores the destination region r times — at multi-megabyte region
// sizes the destination traffic dominates. The fused form streams each
// 64-bit word of dst through *all* of the row's coefficients before
// storing it, so dst is read and written once per row:
//
//	dst traffic:  2*r region passes  ->  2 region passes
//	src traffic:  r passes (unchanged)
//
// This is the operation-fusion idea of Uezato ("Accelerating XOR-based
// Erasure Coding using Program Optimization Techniques", SC'21) applied
// to the table-driven GF kernels. The logical mult_XORs count is
// unchanged: one fused row pass performs exactly the same r region
// operations, and the kernel's Stats still count r.
//
// On GFNI hosts a GF(2^8) batch is one assembly pass (gf8FusedAsm):
// each 64-byte dst vector is loaded once, coefficient-1 sources are
// VPXORQ'd in and multiplied sources go through GF2P8AFFINEQB, then the
// vector is stored once. At w=16 and w=32 the coefficient-1 sources
// share that pass and the multiplied ones keep their planar per-term
// sweeps. The portable 64-bit table cores below handle the sub-64-byte
// tails and every batch when the affine kernels are off.
//
// Two entry points:
//
//   - Field.MultXORsMulti(dst, srcs, consts): resolves each constant's
//     lookup tables on the fly (memoized per field, so resolution is a
//     cache hit after first use). Zero constants are skipped.
//   - CompileRows(f, rows, cols, coeffs): pre-resolves the tables once,
//     for plans that apply the same matrix thousands of times. Every
//     row's terms are carved from one array; the returned RowKernels are
//     immutable and safe for concurrent use. CompileRow is its one-row
//     form.
//
// Both batch terms in groups of maxFusedTerms so the per-term table
// pointers live in fixed-size stack arrays — no per-call allocation.

// maxFusedTerms is the batch width of the fused loops: a row with more
// nonzero terms reloads dst once per batch, which still divides the
// destination traffic by up to maxFusedTerms compared with the
// term-at-a-time path.
const maxFusedTerms = 16

// RowKernel is a row of coefficients compiled against its lookup
// tables: MultXOR computes dst[i] ^= Σ_k consts[k] * srcs[k][i] with
// every table resolved at compile time. A RowKernel is immutable and
// safe for concurrent use.
type RowKernel interface {
	// Terms returns the number of nonzero coefficients the row applies —
	// the mult_XORs cost of one MultXOR call.
	Terms() int
	// Term returns the k-th nonzero term in column order: its source
	// column and the multiplier MultXOR applies to it. Reading a
	// compiled row back this way recovers exactly the coefficients the
	// fused loops run.
	Term(k int) (col int, m Multiplier)
	// MultXOR applies the row: dst[i] ^= Σ_k a_k * srcs[k][i].
	// len(srcs) must equal the length of the consts slice the row was
	// compiled from; sources at zero-coefficient positions are ignored
	// (and may be nil).
	MultXOR(dst []byte, srcs [][]byte)
}

// CompileRow lowers one coefficient row over the field. Zero constants
// are skipped at compile time; the fused apply touches only the nonzero
// positions of srcs.
func CompileRow(f Field, consts []uint32) RowKernel {
	return CompileRows(f, 1, len(consts), consts)[0]
}

// CompileRows lowers a rows x cols row-major coefficient matrix into one
// RowKernel per row. The row kernels and all their terms are carved
// from one array each, so compiling a matrix costs three allocations
// whatever its shape.
func CompileRows(f Field, rows, cols int, coeffs []uint32) []RowKernel {
	if len(coeffs) != rows*cols {
		panic(fmt.Sprintf("gf: %d coefficients for a %dx%d matrix", len(coeffs), rows, cols))
	}
	ks := make([]RowKernel, rows)
	switch ff := f.(type) {
	case *field8:
		rs := make([]rowKernel8, rows)
		terms := make([]term8, 0, countNonzero(coeffs, 0xFF))
		for i := range rs {
			start := len(terms)
			for j, a := range coeffs[i*cols : (i+1)*cols] {
				switch a &= 0xFF; a {
				case 0:
				case 1:
					terms = append(terms, term8{idx: j})
				default:
					terms = append(terms, term8{idx: j, m: &ff.muls[a]})
				}
			}
			rs[i] = rowKernel8{n: cols, terms: terms[start:len(terms):len(terms)]}
			ks[i] = &rs[i]
		}
	case *field16:
		rs := make([]rowKernel16, rows)
		terms := make([]term16, 0, countNonzero(coeffs, 0xFFFF))
		for i := range rs {
			start := len(terms)
			for j, a := range coeffs[i*cols : (i+1)*cols] {
				switch a &= 0xFFFF; a {
				case 0:
				case 1:
					terms = append(terms, term16{idx: j})
				default:
					terms = append(terms, term16{idx: j, m: ff.multiplier(a)})
				}
			}
			rs[i] = rowKernel16{n: cols, terms: terms[start:len(terms):len(terms)]}
			ks[i] = &rs[i]
		}
	case field32:
		rs := make([]rowKernel32, rows)
		terms := make([]term32, 0, countNonzero(coeffs, 0xFFFFFFFF))
		for i := range rs {
			start := len(terms)
			for j, a := range coeffs[i*cols : (i+1)*cols] {
				switch a {
				case 0:
				case 1:
					terms = append(terms, term32{idx: j})
				default:
					terms = append(terms, term32{idx: j, m: ff.multiplier(a)})
				}
			}
			rs[i] = rowKernel32{n: cols, terms: terms[start:len(terms):len(terms)]}
			ks[i] = &rs[i]
		}
	default:
		// Unknown Field implementation: term-at-a-time fallback.
		for i := range ks {
			r := &rowKernelGeneric{f: f, n: cols}
			for j, a := range coeffs[i*cols : (i+1)*cols] {
				if a != 0 {
					r.idx = append(r.idx, j)
					r.consts = append(r.consts, a)
				}
			}
			ks[i] = r
		}
	}
	return ks
}

// countNonzero counts the constants that stay nonzero under the field's
// word mask, so a compiled row's terms are sized once.
func countNonzero(consts []uint32, mask uint32) int {
	n := 0
	for _, a := range consts {
		if a&mask != 0 {
			n++
		}
	}
	return n
}

// checkFused validates the srcs/consts pairing shared by the fused
// entry points.
func checkFused(nsrcs, nconsts int) {
	if nsrcs != nconsts {
		panic(fmt.Sprintf("gf: fused row has %d sources for %d coefficients", nsrcs, nconsts))
	}
}

// --- GF(2^8) ---

type term8 struct {
	idx int
	m   *multiplier8 // nil: coefficient 1 (plain XOR)
}

type rowKernel8 struct {
	terms []term8
	n     int
}

func (r *rowKernel8) Terms() int { return len(r.terms) }

func (r *rowKernel8) Term(k int) (int, Multiplier) {
	t := r.terms[k]
	if t.m == nil {
		return t.idx, trivialMults[0][1]
	}
	return t.idx, t.m
}

//ppm:hotpath
func (r *rowKernel8) MultXOR(dst []byte, srcs [][]byte) {
	checkFused(len(srcs), r.n)
	var xs, ts [maxFusedTerms][]byte
	var rows [maxFusedTerms][]uint8
	var affs [maxFusedTerms]uint64
	for i := 0; i < len(r.terms); {
		nx, nt := 0, 0
		for ; i < len(r.terms) && nx+nt < maxFusedTerms; i++ {
			t := r.terms[i]
			s := srcs[t.idx]
			checkRegions(dst, s, 1)
			if t.m == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				rows[nt] = t.m.row
				affs[nt] = t.m.aff
				nt++
			}
		}
		fuse8(dst, xs[:nx], ts[:nt], rows[:nt], affs[:nt])
	}
}

//ppm:hotpath
func (f *field8) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	var xs, ts [maxFusedTerms][]byte
	var rows [maxFusedTerms][]uint8
	var affs [maxFusedTerms]uint64
	for j := 0; j < len(consts); {
		nx, nt := 0, 0
		for ; j < len(consts) && nx+nt < maxFusedTerms; j++ {
			a := consts[j] & 0xFF
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 1)
			if a == 1 {
				xs[nx] = s
				nx++
			} else {
				m := &f.muls[a]
				ts[nt] = s
				rows[nt] = m.row
				affs[nt] = m.aff
				nt++
			}
		}
		fuse8(dst, xs[:nx], ts[:nt], rows[:nt], affs[:nt])
	}
}

// fuse8 applies one batch of GF(2^8) terms. With the affine kernels
// available, the 64-byte-aligned prefix is a single gf8FusedAsm pass —
// each dst vector loaded once, every coefficient-1 source XORed in,
// every multiplied source run through GF2P8AFFINEQB, stored once — and
// the table core handles the sub-64-byte tail.
//
//ppm:hotpath
func fuse8(dst []byte, xs, ts [][]byte, rows [][]uint8, affs []uint64) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	if useAffine && len(dst) >= 64 {
		n64 := len(dst) &^ 63
		gf8FusedAsm(&dst[0], unsafe.SliceData(xs), len(xs), unsafe.SliceData(ts), unsafe.SliceData(affs), len(ts), n64)
		if n64 == len(dst) {
			return
		}
		dst = dst[n64:]
		trimRegions(xs, n64)
		trimRegions(ts, n64)
	}
	fuse8Tables(dst, xs, ts, rows)
}

// trimRegions drops the first n bytes of every region in srcs, once an
// assembly pass has covered them.
func trimRegions(srcs [][]byte, n int) {
	for k := range srcs {
		srcs[k] = srcs[k][n:]
	}
}

// fuse8Tables is the portable GF(2^8) fused core:
// dst ^= Σ xs[k] ^ Σ rows[k][ts[k]], eight bytes per destination
// load/store, scalar tail for the last len(dst) % 8 bytes.
//
//ppm:hotpath
func fuse8Tables(dst []byte, xs, ts [][]byte, rows [][]uint8) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			row := rows[k]
			v := binary.LittleEndian.Uint64(s[i:])
			acc ^= uint64(row[v&0xFF]) |
				uint64(row[v>>8&0xFF])<<8 |
				uint64(row[v>>16&0xFF])<<16 |
				uint64(row[v>>24&0xFF])<<24 |
				uint64(row[v>>32&0xFF])<<32 |
				uint64(row[v>>40&0xFF])<<40 |
				uint64(row[v>>48&0xFF])<<48 |
				uint64(row[v>>56])<<56
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i < len(dst); i++ {
		b := dst[i]
		for _, s := range xs {
			b ^= s[i]
		}
		for k, s := range ts {
			b ^= rows[k][s[i]]
		}
		dst[i] = b
	}
}

// --- GF(2^16) ---

type term16 struct {
	idx int
	m   *multiplier16 // nil: coefficient 1
}

type rowKernel16 struct {
	terms []term16
	n     int
}

func (r *rowKernel16) Terms() int { return len(r.terms) }

func (r *rowKernel16) Term(k int) (int, Multiplier) {
	t := r.terms[k]
	if t.m == nil {
		return t.idx, trivialMults[1][1]
	}
	return t.idx, t.m
}

//ppm:hotpath
func (r *rowKernel16) MultXOR(dst []byte, srcs [][]byte) {
	checkFused(len(srcs), r.n)
	var xs, ts [maxFusedTerms][]byte
	var tabs [maxFusedTerms]*[2][256]uint16
	var affs [maxFusedTerms]*[2][8]uint64
	for i := 0; i < len(r.terms); {
		nx, nt := 0, 0
		for ; i < len(r.terms) && nx+nt < maxFusedTerms; i++ {
			t := r.terms[i]
			s := srcs[t.idx]
			checkRegions(dst, s, 2)
			if t.m == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				tabs[nt] = t.m.t
				affs[nt] = t.m.aff
				nt++
			}
		}
		fuse16(dst, xs[:nx], ts[:nt], tabs[:nt], affs[:nt])
	}
}

//ppm:hotpath
func (f *field16) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	var xs, ts [maxFusedTerms][]byte
	var tabs [maxFusedTerms]*[2][256]uint16
	var affs [maxFusedTerms]*[2][8]uint64
	for j := 0; j < len(consts); {
		nx, nt := 0, 0
		for ; j < len(consts) && nx+nt < maxFusedTerms; j++ {
			a := consts[j] & 0xFFFF
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 2)
			if a == 1 {
				xs[nx] = s
				nx++
			} else {
				m := f.multiplier(a)
				ts[nt] = s
				tabs[nt] = m.t
				affs[nt] = m.aff
				nt++
			}
		}
		fuse16(dst, xs[:nx], ts[:nt], tabs[:nt], affs[:nt])
	}
}

// fuse16 applies one batch of GF(2^16) terms. With the affine kernels
// available, the coefficient-1 terms go through gf8FusedAsm (XOR does
// not depend on the word width), each multiplied term runs one planar
// affine sweep over the 64-byte-aligned prefix, and the table core
// handles the tail.
//
//ppm:hotpath
func fuse16(dst []byte, xs, ts [][]byte, tabs []*[2][256]uint16, affs []*[2][8]uint64) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	if useAffine && len(dst) >= 64 {
		n64 := len(dst) &^ 63
		if len(xs) > 0 {
			gf8FusedAsm(&dst[0], unsafe.SliceData(xs), len(xs), nil, nil, 0, n64)
		}
		for k, s := range ts {
			gf16AffineXorAsm(&dst[0], &s[0], n64, affs[k])
		}
		if n64 == len(dst) {
			return
		}
		dst = dst[n64:]
		trimRegions(xs, n64)
		trimRegions(ts, n64)
	}
	fuse16Tables(dst, xs, ts, tabs)
}

// fuse16Tables is the portable GF(2^16) fused core: four 16-bit
// symbols per destination load/store, scalar 2-byte-word tail for
// region lengths that are not a multiple of 8.
//
//ppm:hotpath
func fuse16Tables(dst []byte, xs, ts [][]byte, tabs []*[2][256]uint16) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint64(s[i:])
			acc ^= uint64(t[0][v&0xFF]^t[1][v>>8&0xFF]) |
				uint64(t[0][v>>16&0xFF]^t[1][v>>24&0xFF])<<16 |
				uint64(t[0][v>>32&0xFF]^t[1][v>>40&0xFF])<<32 |
				uint64(t[0][v>>48&0xFF]^t[1][v>>56])<<48
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i+2 <= len(dst); i += 2 {
		w := binary.LittleEndian.Uint16(dst[i:])
		for _, s := range xs {
			w ^= binary.LittleEndian.Uint16(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint16(s[i:])
			w ^= t[0][v&0xFF] ^ t[1][v>>8]
		}
		binary.LittleEndian.PutUint16(dst[i:], w)
	}
}

// --- GF(2^32) ---

type term32 struct {
	idx int
	m   *multiplier32 // nil: coefficient 1
}

type rowKernel32 struct {
	terms []term32
	n     int
}

func (r *rowKernel32) Terms() int { return len(r.terms) }

func (r *rowKernel32) Term(k int) (int, Multiplier) {
	t := r.terms[k]
	if t.m == nil {
		return t.idx, trivialMults[2][1]
	}
	return t.idx, t.m
}

//ppm:hotpath
func (r *rowKernel32) MultXOR(dst []byte, srcs [][]byte) {
	checkFused(len(srcs), r.n)
	var xs, ts [maxFusedTerms][]byte
	var tabs [maxFusedTerms]*[4][256]uint32
	var affs [maxFusedTerms]*[4][8]uint64
	for i := 0; i < len(r.terms); {
		nx, nt := 0, 0
		for ; i < len(r.terms) && nx+nt < maxFusedTerms; i++ {
			t := r.terms[i]
			s := srcs[t.idx]
			checkRegions(dst, s, 4)
			if t.m == nil {
				xs[nx] = s
				nx++
			} else {
				ts[nt] = s
				tabs[nt] = t.m.t
				affs[nt] = t.m.aff
				nt++
			}
		}
		fuse32(dst, xs[:nx], ts[:nt], tabs[:nt], affs[:nt])
	}
}

//ppm:hotpath
func (f field32) MultXORsMulti(dst []byte, srcs [][]byte, consts []uint32) {
	checkFused(len(srcs), len(consts))
	var xs, ts [maxFusedTerms][]byte
	var tabs [maxFusedTerms]*[4][256]uint32
	var affs [maxFusedTerms]*[4][8]uint64
	for j := 0; j < len(consts); {
		nx, nt := 0, 0
		for ; j < len(consts) && nx+nt < maxFusedTerms; j++ {
			a := consts[j]
			if a == 0 {
				continue
			}
			s := srcs[j]
			checkRegions(dst, s, 4)
			if a == 1 {
				xs[nx] = s
				nx++
			} else {
				m := f.multiplier(a)
				ts[nt] = s
				tabs[nt] = m.t
				affs[nt] = m.aff
				nt++
			}
		}
		fuse32(dst, xs[:nx], ts[:nt], tabs[:nt], affs[:nt])
	}
}

// fuse32 applies one batch of GF(2^32) terms. With the affine kernels
// available, the coefficient-1 terms go through gf8FusedAsm (XOR does
// not depend on the word width), each multiplied term runs one planar
// affine sweep over the 64-byte-aligned prefix, and the table core
// handles the tail.
//
//ppm:hotpath
func fuse32(dst []byte, xs, ts [][]byte, tabs []*[4][256]uint32, affs []*[4][8]uint64) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	if useAffine && len(dst) >= 64 {
		n64 := len(dst) &^ 63
		if len(xs) > 0 {
			gf8FusedAsm(&dst[0], unsafe.SliceData(xs), len(xs), nil, nil, 0, n64)
		}
		for k, s := range ts {
			gf32AffineXorAsm(&dst[0], &s[0], n64, affs[k])
		}
		if n64 == len(dst) {
			return
		}
		dst = dst[n64:]
		trimRegions(xs, n64)
		trimRegions(ts, n64)
	}
	fuse32Tables(dst, xs, ts, tabs)
}

// fuse32Tables is the portable GF(2^32) fused core: two 32-bit symbols
// per destination load/store, scalar 4-byte-word tail.
//
//ppm:hotpath
func fuse32Tables(dst []byte, xs, ts [][]byte, tabs []*[4][256]uint32) {
	if len(xs) == 0 && len(ts) == 0 {
		return
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		acc := binary.LittleEndian.Uint64(dst[i:])
		for _, s := range xs {
			acc ^= binary.LittleEndian.Uint64(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint64(s[i:])
			lo := t[0][v&0xFF] ^ t[1][v>>8&0xFF] ^ t[2][v>>16&0xFF] ^ t[3][v>>24&0xFF]
			hi := t[0][v>>32&0xFF] ^ t[1][v>>40&0xFF] ^ t[2][v>>48&0xFF] ^ t[3][v>>56]
			acc ^= uint64(lo) | uint64(hi)<<32
		}
		binary.LittleEndian.PutUint64(dst[i:], acc)
	}
	for i := n; i+4 <= len(dst); i += 4 {
		w := binary.LittleEndian.Uint32(dst[i:])
		for _, s := range xs {
			w ^= binary.LittleEndian.Uint32(s[i:])
		}
		for k, s := range ts {
			t := tabs[k]
			v := binary.LittleEndian.Uint32(s[i:])
			w ^= t[0][v&0xFF] ^ t[1][(v>>8)&0xFF] ^ t[2][(v>>16)&0xFF] ^ t[3][v>>24]
		}
		binary.LittleEndian.PutUint32(dst[i:], w)
	}
}

// --- generic fallback ---

type rowKernelGeneric struct {
	f      Field
	idx    []int
	consts []uint32
	n      int
}

func (r *rowKernelGeneric) Terms() int { return len(r.idx) }

func (r *rowKernelGeneric) Term(k int) (int, Multiplier) {
	return r.idx[k], genericMultiplier{f: r.f, a: r.consts[k]}
}

//ppm:hotpath
func (r *rowKernelGeneric) MultXOR(dst []byte, srcs [][]byte) {
	checkFused(len(srcs), r.n)
	for k, j := range r.idx {
		r.f.MultXORs(dst, srcs[j], r.consts[k])
	}
}
