package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"ppm"
	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/fault"
	"ppm/internal/kernel"
	"ppm/internal/stripe"
)

const (
	// smallStripes is the LRC(12,2,2) array: 64 stripes of 16 4 KiB
	// strips (4 MiB), which stays cache-resident. With a 64 MiB array
	// the random accesses made DRAM latency, which varied by up to 40%
	// between runs on the shared reference host, the largest cost.
	smallStripes = 64
	// smallRate is the open loop's offered rate, about 40% of the
	// reference host's capacity on this mix (a mean service time of about
	// 8 µs allows some 120000 op/s).
	smallRate = 50000
	// smallReadShare is the share of requests that are reads.
	smallReadShare = 0.7
	// smallSLO is the latency limit of one request, timed from its due
	// time.
	smallSLO = 2 * time.Millisecond
	// smallWindow is the number of requests per measurement window of
	// throughput and CPU cost.
	smallWindow = 1000
	// smallBlocks is the pool of new contents writes draw from.
	smallBlocks = 64
)

// request is one small-io operation on one 4 KiB sector.
type request struct {
	write  bool
	stripe int
	sector int // global sector index (a data sector)
	block  int // smallBlocks index of a write's new content
}

// smallBench serves a seeded mix of 4 KiB reads and writes at a fixed
// rate against an LRC(12,2,2) array in a fault.MemStore that has lost one
// data disk in each local group. Reads go through Healer.ReadSectors;
// writes read the strips Updater.Terms names, patch them with
// Updater.UpdateRange, write them back and refresh their checksums.
type smallBench struct {
	seed   int64
	code   *codes.LRC
	lost   []int
	lostSc codes.Scenario
	isLost map[int]bool
	live   []int // live data sectors, the write targets
	data   []int // every data sector, the read targets
	init   []byte
	blocks [][]byte

	store   *fault.MemStore
	view    *meteredStore
	shadow  []byte // the benchmark's copy of the user data
	healer  *fault.Healer
	upd     *core.Updater
	stats   kernel.Stats
	work    *stripe.Stripe
	wbuf    []byte
	wanted  []int // a read's one wanted sector
	touched []int // the sectors a write reads and writes back
	phases  int
	serial  int64 // write counter stamped into each new content
}

func newSmallIO(seed int64) workload {
	lrc, err := codes.NewLRC(12, 2, 2)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	rng := rand.New(rand.NewSource(seed))
	b := &smallBench{seed: seed, code: lrc, data: codes.DataPositions(lrc), isLost: map[int]bool{}}
	for i, d := range b.data {
		if d != i {
			panic("LRC data sectors are not 0..k-1") // shadowSector relies on it
		}
	}
	for _, g := range lrc.Groups() {
		d := g[rng.Intn(len(g))]
		b.lost = append(b.lost, d)
		b.isLost[d] = true
	}
	if b.lostSc, err = codes.NewScenario(lrc, b.lost); err != nil {
		panic(err)
	}
	for _, d := range b.data {
		if !b.isLost[d] {
			b.live = append(b.live, d)
		}
	}
	b.init = make([]byte, smallStripes*len(b.data)*sectorBytes)
	fill := func(p []byte) {
		for i := 0; i+8 <= len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
		}
	}
	fill(b.init)
	for i := 0; i < smallBlocks; i++ {
		blk := make([]byte, sectorBytes)
		fill(blk)
		b.blocks = append(b.blocks, blk)
	}
	return b
}

// shadowSector returns the benchmark's copy of a data sector.
func (b *smallBench) shadowSector(idx, sector int) []byte {
	off := (idx*len(b.data) + sector) * sectorBytes
	return b.shadow[off : off+sectorBytes]
}

// setup loads the array (encode every stripe, write its strips, record
// its checksums), loses the two disks, and warms the read path.
func (b *smallBench) setup() error {
	n := b.code.NumStrips()
	b.store = fault.NewMemStore(n, sectorBytes)
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	if err := presize(b.store, all, smallStripes); err != nil {
		return err
	}
	b.shadow = append([]byte(nil), b.init...)
	dec := core.NewDecoder(b.code, core.WithThreads(nproc))
	st, err := stripe.New(n, 1, sectorBytes)
	if err != nil {
		return err
	}
	sums := make([][]uint32, smallStripes)
	buf := make([]byte, sectorBytes)
	for idx := 0; idx < smallStripes; idx++ {
		for _, d := range b.data {
			copy(st.Sector(d), b.shadowSector(idx, d))
		}
		for _, p := range b.code.ParityPositions() {
			clear(st.Sector(p))
		}
		if err := dec.Encode(st); err != nil {
			return err
		}
		if err := writeStrips(b.store, idx, st, nil, buf); err != nil {
			return err
		}
		sums[idx] = fault.SectorChecksums(st)
	}
	for _, d := range b.lost {
		b.store.Lose(d)
	}
	b.view = &meteredStore{Store: b.store}
	policy := fault.DefaultPolicy()
	policy.MaxAttempts, policy.OpTimeout = 3, 0 // ppmfile's defaults
	b.healer = &fault.Healer{Code: b.code, Store: b.view, Sums: sums, Baseline: b.lostSc, Policy: policy}
	if b.upd, err = core.NewUpdater(b.code); err != nil {
		return err
	}
	b.work = st
	b.wbuf = make([]byte, sectorBytes)
	b.wanted = make([]int, 1)
	// Warm-up: read every data sector once.
	var ph phase
	for idx := 0; idx < smallStripes; idx++ {
		for _, d := range b.data {
			if b.serve(&ph, nil, 0, request{stripe: idx, sector: d}) {
				return fmt.Errorf("warm-up read of stripe %d sector %d: %w", idx, d, errMismatch)
			}
		}
	}
	return nil
}

func (b *smallBench) close() {
	b.store, b.view, b.shadow, b.healer, b.upd, b.work = nil, nil, nil, nil, nil, nil
}

// requests derives the phase's request sequence from the seed.
func (b *smallBench) requests(count int) []request {
	rng := rand.New(rand.NewSource(b.seed*1000003 + int64(b.phases)))
	b.phases++
	reqs := make([]request, count)
	for i := range reqs {
		r := request{stripe: rng.Intn(smallStripes), block: rng.Intn(smallBlocks)}
		if rng.Float64() < smallReadShare {
			r.sector = b.data[rng.Intn(len(b.data))]
		} else {
			r.write = true
			r.sector = b.live[rng.Intn(len(b.live))]
		}
		reqs[i] = r
	}
	return reqs
}

// run serves the phase's requests in an open loop. Request i is due at
// a fixed time, whatever happened to the requests before it, and the
// requests are served one at a time in due order: a FIFO queue with one
// server. While requests are waiting the server takes the next at once;
// when it is idle it sleeps until the next one is due. Latency runs
// from the due time, so a stall also delays every request queued
// behind it.
func (b *smallBench) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{sloLimit: smallSLO}
	count := int(d.Seconds() * smallRate)
	reqs := b.requests(count)
	interval := time.Second / smallRate
	settle()
	kc := readKernelCounters()
	mx0, heal0 := b.stats.MultXORs(), b.healer.Stats
	b.view.take()

	w := openWindow()
	root := tr.begin("bench.timed", 0)
	start := time.Now().Add(time.Millisecond)
	for i, r := range reqs {
		if i > 0 && i%smallWindow == 0 {
			w.close(ph)
			ph.cut()
			w = openWindow()
		}
		due := start.Add(time.Duration(i) * interval)
		if time.Now().Before(due) {
			w.spun += waitUntil(due)
			ph.genLate = append(ph.genLate, int64(time.Since(due)))
		}
		t0 := time.Now()
		bad := b.serve(ph, tr, root, r)
		ph.addWork(sectorBytes, time.Since(t0))
		lat := time.Since(due)
		ph.recordOp(lat, bad)
		if r.write {
			ph.writeLat = append(ph.writeLat, int64(lat))
		} else {
			ph.readLat = append(ph.readLat, int64(lat))
		}
	}
	tr.end(root)
	w.close(ph)

	ph.multXORs = b.stats.MultXORs() - mx0
	ph.updateMultXORs = ph.multXORs
	ph.kernelOps = ph.writes
	kc.addDelta(ph)
	ph.store = b.view.take()
	ph.heal = healDelta(b.healer.Stats, heal0)
	ph.failed += b.verifyArray()
	ph.finish()
	ph.notes = append(ph.notes, fmt.Sprintf("small-io: %d requests at %d/s over %d stripes, lost disks %v",
		count, smallRate, smallStripes, b.lost))
	return ph, nil
}

// serve performs one request and reports whether it failed or returned
// bytes that differ from the shadow copy.
func (b *smallBench) serve(ph *phase, tr *tracer, root int32, r request) bool {
	if !r.write {
		sp := tr.begin("fault.read_sectors", root)
		b.view.tr, b.view.parent = tr, sp
		before := b.healer.Stats.StripsRead
		b.wanted[0] = r.sector
		err := b.healer.ReadSectors(context.Background(), r.stripe, b.work, b.wanted)
		tr.end(sp)
		if b.isLost[r.sector] {
			ph.degraded++
			ph.degradedReads += b.healer.Stats.StripsRead - before
		}
		return err != nil || !bytes.Equal(b.work.Sector(r.sector), b.shadowSector(r.stripe, r.sector))
	}

	ph.writes++
	ph.userWrite += sectorBytes
	terms, err := b.upd.Terms(r.sector)
	if err != nil {
		return true
	}
	cost, err := b.upd.UpdateCost(r.sector)
	if err != nil {
		return true
	}
	ph.chosenCost += int64(cost)
	b.view.tr, b.view.parent = tr, root
	touched := append(b.touched[:0], r.sector)
	for _, t := range terms {
		touched = append(touched, t.Parity)
	}
	b.touched = touched
	for _, s := range touched { // r == 1: strip j is sector j
		if err := b.view.ReadStrip(r.stripe, s, b.work.Sector(s)); err != nil {
			return true
		}
	}
	content := b.wbuf
	copy(content, b.blocks[r.block])
	b.serial++
	binary.LittleEndian.PutUint64(content, uint64(b.serial))
	sp := tr.begin("core.update", root)
	err = b.upd.UpdateRange(b.work, r.sector, content, 0, sectorBytes, &b.stats)
	tr.end(sp)
	if err != nil {
		return true
	}
	for _, s := range touched {
		if err := b.view.WriteStrip(r.stripe, s, b.work.Sector(s)); err != nil {
			return true
		}
	}
	cs := tr.begin("fault.checksum", root)
	for _, s := range touched {
		b.healer.Sums[r.stripe][s] = fault.ChecksumSector(b.work.Sector(s))
	}
	tr.end(cs)
	ph.checksumBytes += int64(len(touched) * sectorBytes)
	copy(b.shadowSector(r.stripe, r.sector), content)
	return false
}

// verifyArray checks every stripe after the phase: the live data strips
// equal the shadow copy, and the shadow data with the stored parity
// passes ppm.Verify. It returns the number of stripes that fail.
func (b *smallBench) verifyArray() int64 {
	st, err := stripe.New(b.code.NumStrips(), 1, sectorBytes)
	if err != nil {
		return smallStripes
	}
	buf := make([]byte, sectorBytes)
	var bad int64
	for idx := 0; idx < smallStripes; idx++ {
		ok := true
		for _, d := range b.live {
			if b.store.ReadStrip(idx, d, buf) != nil || !bytes.Equal(buf, b.shadowSector(idx, d)) {
				ok = false
			}
		}
		for _, d := range b.data {
			copy(st.Sector(d), b.shadowSector(idx, d))
		}
		for _, p := range b.code.ParityPositions() {
			if b.store.ReadStrip(idx, p, st.Sector(p)) != nil {
				ok = false
			}
		}
		if valid, err := ppm.Verify(b.code, st); err != nil || !valid {
			ok = false
		}
		if !ok {
			bad++
		}
	}
	return bad
}
