package fault

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"

	"ppm/internal/codes"
	"ppm/internal/repair"
	"ppm/internal/stripe"
)

// Checksummed degraded reads. Erasure decode only protects against
// *declared* losses: a sector that reads back wrong bytes without an
// I/O error flows straight through the decoder and "verifies" as
// garbage. Per-sector CRC-32C checksums recorded at encode time close
// the gap — a mismatching sector is *demoted to an erasure* and
// re-decoded from the survivors, turning silent corruption into the
// erasure problem the code already solves.

// castagnoli is the CRC-32C table (the polynomial storage systems use;
// SSE4.2 hosts compute it in hardware via the stdlib).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumSector returns the CRC-32C of one sector.
func ChecksumSector(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SectorChecksums returns the CRC-32C of every sector of a stripe, in
// global (row-major) sector order — the per-stripe checksum row the
// ppmfile manifest records.
func SectorChecksums(st *stripe.Stripe) []uint32 {
	sums := make([]uint32, st.TotalSectors())
	for i := range sums {
		sums[i] = ChecksumSector(st.Sector(i))
	}
	return sums
}

// VerifyStripe compares every sector of st against the expected
// checksum row and returns the global indices that mismatch (nil when
// clean).
func VerifyStripe(st *stripe.Stripe, sums []uint32) []int {
	var bad []int
	for i := 0; i < st.TotalSectors() && i < len(sums); i++ {
		if ChecksumSector(st.Sector(i)) != sums[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// HealStats counts what a Healer saw and did across stripes.
type HealStats struct {
	// Stripes is the number of stripes read.
	Stripes int64 `json:"stripes"`
	// Retries is the number of extra read attempts transient faults
	// cost.
	Retries int64 `json:"retries"`
	// DemotedStrips counts strips demoted to erasures after exhausting
	// their read attempts (I/O errors, hangs past the deadline).
	DemotedStrips int64 `json:"demoted_strips"`
	// CorruptSectors counts sectors whose checksum exposed silent
	// corruption.
	CorruptSectors int64 `json:"corrupt_sectors"`
	// Healed counts stripes the healer re-decoded beyond the baseline
	// scenario.
	Healed int64 `json:"healed"`
	// StripsRead counts strips fetched from the store by the
	// minimal-read path (ReadSectors); ReadStripe reads every live
	// strip and does not tick this.
	StripsRead int64 `json:"strips_read"`
	// Replans counts ReadSectors iterations that widened the survivor
	// set after an unreadable or corrupt strip invalidated the plan.
	Replans int64 `json:"replans"`
}

// Add accumulates o into s.
func (s *HealStats) Add(o HealStats) {
	s.Stripes += o.Stripes
	s.Retries += o.Retries
	s.DemotedStrips += o.DemotedStrips
	s.CorruptSectors += o.CorruptSectors
	s.Healed += o.Healed
	s.StripsRead += o.StripsRead
	s.Replans += o.Replans
}

// Healer performs checksummed degraded stripe reads over a Store: each
// strip is read under the retry policy, surviving sectors are verified
// against the recorded checksums, and any strip or sector that cannot
// be read clean is demoted to an erasure and recovered with a decode
// over the survivors. A Healer is not safe for concurrent use; build
// one per goroutine (they share nothing but the store).
type Healer struct {
	// Code is the stripe's erasure code.
	Code codes.Code
	// Store supplies the strips.
	Store Store
	// Sums[idx] is stripe idx's expected per-sector checksum row; a nil
	// Sums (or short row) skips checksum verification for the missing
	// entries — pre-checksum archives still get retry and erasure
	// demotion, just not silent-corruption detection.
	Sums [][]uint32
	// Baseline lists faulty sectors a downstream consumer already
	// repairs (ppmfile's pipeline decodes the missing disks with its
	// once-compiled plan). The healer re-decodes a stripe itself only
	// when damage *beyond* the baseline appears; baseline sectors are
	// zeroed and left to the consumer.
	Baseline codes.Scenario
	// Policy is the per-strip read retry policy.
	Policy Policy
	// Logf, when non-nil, receives one line per demotion/heal — the
	// degraded-read log.
	Logf func(format string, args ...any)

	// Stats accumulates across ReadStripe calls.
	Stats HealStats

	planner *repair.Planner
	buf     []byte

	// The baseline, validated once: its membership by global sector
	// index, its size, and its scenario (or the reason it has none).
	baseSet []bool
	nBase   int
	baseSc  codes.Scenario
	baseErr error
	baseOK  bool // baseSc is decodable

	// Per-call scratch, reused so clean reads do not allocate.
	faulty  []bool // per sector: baseline or demoted
	demoted []bool // per sector: demoted by this ReadStripe call
	read    []bool // per strip: fetched by this ReadSectors call
	need    []bool // per strip: read by the current plan
	list    []int
	wanted  []int
}

// init lazily builds the repair planner (LRU-cached: repeated demotion
// patterns reuse their compiled plans) and scratch, and validates the
// baseline once.
func (h *Healer) init() {
	if h.planner != nil {
		return
	}
	h.planner = repair.NewPlanner(h.Code)
	h.buf = make([]byte, h.Store.StripBytes())
	total := codes.TotalSectors(h.Code)
	h.baseSet = make([]bool, total)
	var outside []int
	for _, s := range h.Baseline.Faulty {
		switch {
		case s < 0 || s >= total:
			outside = append(outside, s)
		case !h.baseSet[s]:
			h.baseSet[s] = true
			h.nBase++
		}
	}
	// Any faulty set holding the baseline fails NewScenario on the
	// baseline's first bad index, so validating it alone suffices.
	h.baseSc, h.baseErr = codes.NewScenario(h.Code, append(appendMarked(nil, h.baseSet), outside...))
	h.baseOK = h.baseErr == nil && codes.Decodable(h.Code, h.baseSc)
}

// appendMarked appends the indices set in flags to dst, ascending.
func appendMarked(dst []int, flags []bool) []int {
	for i, f := range flags {
		if f {
			dst = append(dst, i)
		}
	}
	return dst
}

// cleared returns (*buf)[:n] zeroed, growing *buf when it is short.
func cleared(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// resetFaulty returns h.faulty sized for a stripe of total sectors and
// marking exactly the baseline.
func (h *Healer) resetFaulty(total int) []bool {
	faulty := cleared(&h.faulty, max(total, len(h.baseSet)))
	copy(faulty, h.baseSet)
	return faulty
}

// isBase reports whether global sector s is a baseline erasure.
func (h *Healer) isBase(s int) bool { return s < len(h.baseSet) && h.baseSet[s] }

// scenario returns the erasure scenario over the nFaulty sectors marked
// in h.faulty, or the error for stripe idx when it is invalid or beyond
// the code's tolerance. While nothing beyond the baseline is marked it
// is the baseline's scenario, validated once in init.
func (h *Healer) scenario(idx, nFaulty int) (codes.Scenario, error) {
	if h.baseErr != nil {
		return codes.Scenario{}, fmt.Errorf("fault: stripe %d: %w", idx, h.baseErr)
	}
	sc, ok := h.baseSc, h.baseOK
	if nFaulty > h.nBase {
		h.list = appendMarked(h.list[:0], h.faulty)
		var err error
		if sc, err = codes.NewScenario(h.Code, h.list); err != nil {
			return codes.Scenario{}, fmt.Errorf("fault: stripe %d: %w", idx, err)
		}
		ok = codes.Decodable(h.Code, sc)
	}
	if !ok {
		return codes.Scenario{}, fmt.Errorf("fault: stripe %d: %d failures exceed %s's tolerance (unrecoverable)",
			idx, nFaulty, h.Code.Name())
	}
	return sc, nil
}

func (h *Healer) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// ReadStripe fills st with stripe idx, degraded-reading around
// transient faults, hung strips and silent corruption. On return the
// stripe holds correct bytes everywhere except the Baseline sectors
// (left zeroed for the downstream decode) — unless the damage exceeded
// the code's tolerance, which is the returned error.
func (h *Healer) ReadStripe(ctx context.Context, idx int, st *stripe.Stripe) error {
	h.init()
	h.Stats.Stripes++
	n, r := st.N(), st.R()
	faulty := h.resetFaulty(st.TotalSectors())
	demoted := cleared(&h.demoted, len(faulty))
	nFaulty, nDemoted := h.nBase, 0
	demote := func(s int) {
		demoted[s] = true
		nDemoted++
		if !faulty[s] {
			faulty[s] = true
			nFaulty++
		}
	}

	for j := 0; j < n; j++ {
		baseMissing := true
		for i := 0; i < r; i++ {
			if !h.isBase(i*n + j) {
				baseMissing = false
				break
			}
		}
		if baseMissing {
			// The whole strip is already declared faulty; zero it for
			// the downstream decode and skip the read.
			for i := 0; i < r; i++ {
				clear(st.SectorAt(i, j))
			}
			continue
		}
		if err := h.readStrip(ctx, idx, j, st); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			h.Stats.DemotedStrips++
			h.logf("stripe %d disk %d: demoting strip to erasure: %v", idx, j, err)
			for i := 0; i < r; i++ {
				clear(st.SectorAt(i, j))
				demote(i*n + j)
			}
		}
	}

	// Checksum the survivors; mismatches join the demoted set.
	if idx < len(h.Sums) && h.Sums[idx] != nil {
		sums := h.Sums[idx]
		for s := 0; s < st.TotalSectors() && s < len(sums); s++ {
			if faulty[s] || ChecksumSector(st.Sector(s)) == sums[s] {
				continue
			}
			h.Stats.CorruptSectors++
			h.logf("stripe %d sector %d (row %d, disk %d): checksum mismatch, demoting to erasure",
				idx, s, s/n, s%n)
			clear(st.Sector(s))
			demote(s)
		}
	}

	if nDemoted == 0 {
		return nil
	}

	// Damage beyond the baseline: repair-plan exactly the demoted
	// sectors over the scenario baseline ∪ demoted. The plan's minimal
	// survivor set skips whole sub-decodes an unrelated failure would
	// have dragged in; baseline sectors stay zeroed for the downstream
	// consumer's once-compiled decode (its plan recovers them anyway).
	sc, err := h.scenario(idx, nFaulty)
	if err != nil {
		return err
	}
	h.wanted = appendMarked(h.wanted[:0], demoted)
	plan, err := h.planner.Plan(sc, h.wanted)
	if err != nil {
		return fmt.Errorf("fault: stripe %d: repair planning: %w", idx, err)
	}
	if err := plan.Execute(st, nil); err != nil {
		return fmt.Errorf("fault: stripe %d: healing repair: %w", idx, err)
	}
	h.Stats.Healed++
	h.logf("stripe %d: healed %d demoted sector(s) via repair plan (%d survivors)",
		idx, nDemoted, len(plan.ReadCols))
	return nil
}

// readStrip fetches strip j of stripe idx into st under the retry
// policy, returning an error when every attempt failed.
func (h *Healer) readStrip(ctx context.Context, idx, j int, st *stripe.Stripe) error {
	sector := st.SectorSize()
	buf, attempts, err := DoVal(ctx, "", h.Policy,
		func() ([]byte, error) {
			b := h.buf
			if h.Policy.OpTimeout > 0 {
				// An abandoned hung read finishing late must not
				// scribble scratch the healer is already reusing.
				b = make([]byte, h.Store.StripBytes())
			}
			if err := h.Store.ReadStrip(idx, j, b); err != nil {
				return nil, err
			}
			return b, nil
		})
	h.Stats.Retries += int64(attempts - 1)
	if err != nil {
		// Name the op only on failure: formatting it for every clean
		// read would cost allocations per strip.
		var oe *OpError
		if errors.As(err, &oe) {
			oe.Op = fmt.Sprintf("read stripe %d disk %d", idx, j)
		}
		return err
	}
	for i := 0; i < st.R(); i++ {
		copy(st.SectorAt(i, j), buf[i*sector:(i+1)*sector])
	}
	return nil
}

// ReadSectors materialises only the wanted sectors of stripe idx into
// st — the minimal-read degraded path. It plans the smallest survivor
// set for the baseline failures, reads only the strips holding it
// (plus the wanted live sectors), checksum-verifies what it read, and
// on any unreadable or corrupt strip demotes the damage to erasures
// and replans over a wider survivor set, until the wanted sectors are
// recovered or the damage exceeds the code's tolerance. Sectors
// outside the plan are left untouched — the caller must only consume
// the wanted ones.
func (h *Healer) ReadSectors(ctx context.Context, idx int, st *stripe.Stripe, wanted []int) error {
	h.init()
	h.Stats.Stripes++
	n, r := st.N(), st.R()
	faulty := h.resetFaulty(st.TotalSectors())
	nFaulty := h.nBase
	read := cleared(&h.read, n)
	codeN := h.Code.NumStrips()

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			h.Stats.Replans++
		}
		sc, err := h.scenario(idx, nFaulty)
		if err != nil {
			return err
		}
		plan, err := h.planner.Plan(sc, wanted)
		if err != nil {
			return fmt.Errorf("fault: stripe %d: repair planning: %w", idx, err)
		}

		// Strips to fetch: the plan's survivor strips plus any strip
		// holding a wanted, still-live sector.
		need := cleared(&h.need, max(n, codeN))
		for _, c := range plan.ReadCols {
			need[c%codeN] = true
		}
		for _, w := range wanted {
			if w >= 0 && (w >= len(faulty) || !faulty[w]) {
				need[w%n] = true
			}
		}

		widened := false
		for j := 0; j < n; j++ {
			if !need[j] || read[j] {
				continue
			}
			if err := h.readStrip(ctx, idx, j, st); err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return ctxErr
				}
				h.Stats.DemotedStrips++
				h.logf("stripe %d disk %d: demoting strip to erasure: %v", idx, j, err)
				for i := 0; i < r; i++ {
					clear(st.SectorAt(i, j))
					if s := i*n + j; !faulty[s] {
						faulty[s] = true
						nFaulty++
					}
				}
				widened = true
				continue
			}
			read[j] = true
			h.Stats.StripsRead++
			if idx < len(h.Sums) && h.Sums[idx] != nil {
				sums := h.Sums[idx]
				for i := 0; i < r; i++ {
					s := i*n + j
					if faulty[s] || s >= len(sums) {
						continue
					}
					if ChecksumSector(st.SectorAt(i, j)) != sums[s] {
						h.Stats.CorruptSectors++
						h.logf("stripe %d sector %d (row %d, disk %d): checksum mismatch, demoting to erasure",
							idx, s, i, j)
						clear(st.SectorAt(i, j))
						faulty[s] = true
						nFaulty++
						widened = true
					}
				}
			}
		}
		if widened {
			// New damage invalidated the plan: replan over the wider
			// erasure set (already-read strips are not re-fetched).
			continue
		}
		if err := plan.Execute(st, nil); err != nil {
			return fmt.Errorf("fault: stripe %d: repair execute: %w", idx, err)
		}
		if nFaulty > h.nBase {
			h.Stats.Healed++
		}
		return nil
	}
}
