package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"ppm/internal/codes"
	"ppm/internal/core"
	"ppm/internal/fault"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/stripe"
)

const (
	// sectorBytes is the sector size of every workload: ppmfile's default.
	sectorBytes = 4096
	// streamStripes sizes the stream array image at 320 MiB of 512 KiB
	// SD(8,16,2,2) stripes, larger than the 300 MiB L3 the reference host
	// reports, so ingest and rebuild stream through memory.
	streamStripes = 640
	// streamSLO is the latency limit of one stripe from its fill to its
	// drain.
	streamSLO = 25 * time.Millisecond
)

// streamBench ingests a payload into an SD(8,16,2,2) array through one
// pipeline engine, then loses two disks and rebuilds them through a
// second engine whose source is Healer.ReadStripe. Each timed pass
// runs one engine over the whole array.
type streamBench struct {
	code    *codes.SD
	dataPos []int
	dataIdx []int // global sector -> index into dataPos, or -1
	payload []byte
	lost    []int
	lostSc  codes.Scenario

	store, repl                    *fault.MemStore
	ingestView, healView, replView *meteredStore
	sums                           [][]uint32
	healer                         *fault.Healer
	ingest, rebuild                *pipeline.Engine
	stats                          kernel.Stats
	starts                         []time.Time // per-stripe fill start of the running pass
	poison                         []byte      // strip content no pass writes
}

func newStream(seed int64) workload {
	sd, err := codes.NewSD(8, 16, 2, 2)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	b := &streamBench{code: sd, dataPos: codes.DataPositions(sd)}
	b.dataIdx = make([]int, codes.TotalSectors(sd))
	for i := range b.dataIdx {
		b.dataIdx[i] = -1
	}
	for k, pos := range b.dataPos {
		b.dataIdx[pos] = k
	}
	rng := rand.New(rand.NewSource(seed))
	b.payload = make([]byte, streamStripes*b.stripePayload())
	for i := 0; i+8 <= len(b.payload); i += 8 {
		binary.LittleEndian.PutUint64(b.payload[i:], rng.Uint64())
	}
	perm := rng.Perm(sd.NumStrips())
	b.lost = []int{min(perm[0], perm[1]), max(perm[0], perm[1])}
	var faulty []int
	for i := 0; i < sd.NumRows(); i++ {
		for _, d := range b.lost {
			faulty = append(faulty, i*sd.NumStrips()+d)
		}
	}
	if b.lostSc, err = codes.NewScenario(sd, faulty); err != nil {
		panic(err)
	}
	b.starts = make([]time.Time, streamStripes)
	b.poison = bytes.Repeat([]byte{0xa5}, b.stripBytes())
	return b
}

func (b *streamBench) stripePayload() int { return len(b.dataPos) * sectorBytes }
func (b *streamBench) stripBytes() int    { return b.code.NumRows() * sectorBytes }

func (b *streamBench) setup() error {
	n := b.code.NumStrips()
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	b.store = fault.NewMemStore(n, b.stripBytes())
	b.repl = fault.NewMemStore(n, b.stripBytes())
	if err := presize(b.store, all, streamStripes); err != nil {
		return err
	}
	if err := presize(b.repl, b.lost, streamStripes); err != nil {
		return err
	}
	b.ingestView = &meteredStore{Store: b.store}
	b.healView = &meteredStore{Store: b.store}
	b.replView = &meteredStore{Store: b.repl}
	b.sums = make([][]uint32, streamStripes)
	policy := fault.DefaultPolicy()
	policy.MaxAttempts, policy.OpTimeout = 3, 0 // ppmfile's defaults
	b.healer = &fault.Healer{Code: b.code, Store: b.healView, Sums: b.sums, Baseline: b.lostSc, Policy: policy}

	cfg := pipeline.Config{Depth: pipeline.DefaultDepth, Workers: nproc, Threads: 1,
		Strategy: core.StrategyAuto, Stats: &b.stats}
	var err error
	if b.ingest, err = pipeline.New(b.code, codes.EncodingScenario(b.code), sectorBytes, cfg); err != nil {
		return err
	}
	if b.rebuild, err = pipeline.New(b.code, b.lostSc, sectorBytes, cfg); err != nil {
		return err
	}
	// Warm-up: both engines over the first stripes.
	const warm = 2 * pipeline.DefaultDepth
	var ph phase
	if _, err := b.ingest.Run(b.ingestSource(nil, 0, warm), b.ingestSink(&ph, nil, 0)); err != nil {
		return err
	}
	_, err = b.rebuild.Run(b.healSource(nil, 0, warm), b.rebuildSink(&ph, nil, 0))
	return err
}

func (b *streamBench) close() {
	if b.ingest != nil {
		b.ingest.Close()
	}
	if b.rebuild != nil {
		b.rebuild.Close()
	}
	b.store, b.repl, b.ingestView, b.healView, b.replView = nil, nil, nil, nil, nil
	b.sums, b.healer, b.ingest, b.rebuild = nil, nil, nil, nil
}

// streamSource adapts a fill function to pipeline.Source over the first
// limit stripes, recording each stripe's fill start and span.
type streamSource struct {
	b     *streamBench
	tr    *tracer
	run   int32
	limit int
	fill  func(idx int, slab *stripe.Stripe, sp int32) error
}

func (s *streamSource) Next(idx int, slab *stripe.Stripe) (*stripe.Stripe, error) {
	if idx >= s.limit {
		return nil, nil
	}
	s.b.starts[idx] = time.Now()
	sp := s.tr.begin("pipeline.fill", s.run)
	err := s.fill(idx, slab, sp)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return slab, nil
}

// streamSink adapts a drain function to pipeline.Sink, recording each
// stripe's latency from fill start to drain end.
type streamSink struct {
	b     *streamBench
	ph    *phase
	tr    *tracer
	run   int32
	drain func(idx int, st *stripe.Stripe, sp int32) error
}

func (k *streamSink) Drain(idx int, st *stripe.Stripe) error {
	sp := k.tr.begin("pipeline.drain", k.run)
	err := k.drain(idx, st, sp)
	k.tr.end(sp)
	k.ph.recordOp(time.Since(k.b.starts[idx]), err != nil)
	return err
}

// ingestSource lays payload bytes into the data sectors.
func (b *streamBench) ingestSource(tr *tracer, run int32, limit int) *streamSource {
	return &streamSource{b: b, tr: tr, run: run, limit: limit, fill: func(idx int, slab *stripe.Stripe, _ int32) error {
		off := idx * b.stripePayload()
		for k, pos := range b.dataPos {
			copy(slab.Sector(pos), b.payload[off+k*sectorBytes:off+(k+1)*sectorBytes])
		}
		return nil
	}}
}

// ingestSink writes every strip to the store and records the stripe's
// sector checksums, as ppmfile's storeSink does.
func (b *streamBench) ingestSink(ph *phase, tr *tracer, run int32) *streamSink {
	buf := make([]byte, b.stripBytes())
	return &streamSink{b: b, ph: ph, tr: tr, run: run, drain: func(idx int, st *stripe.Stripe, sp int32) error {
		b.ingestView.tr, b.ingestView.parent = tr, sp
		if err := writeStrips(b.ingestView, idx, st, nil, buf); err != nil {
			return err
		}
		cs := tr.begin("fault.checksum", sp)
		b.sums[idx] = fault.SectorChecksums(st)
		tr.end(cs)
		ph.checksumBytes += int64(st.TotalBytes())
		return nil
	}}
}

// healSource reads each stripe through the healer; the lost disks'
// sectors come back zeroed for the rebuild engine to recover.
func (b *streamBench) healSource(tr *tracer, run int32, limit int) *streamSource {
	ctx := context.Background()
	return &streamSource{b: b, tr: tr, run: run, limit: limit, fill: func(idx int, slab *stripe.Stripe, sp int32) error {
		rs := tr.begin("fault.read_stripe", sp)
		b.healView.tr, b.healView.parent = tr, rs
		err := b.healer.ReadStripe(ctx, idx, slab)
		tr.end(rs)
		return err
	}}
}

// rebuildSink writes the rebuilt strips of the lost disks to their
// replacements.
func (b *streamBench) rebuildSink(ph *phase, tr *tracer, run int32) *streamSink {
	buf := make([]byte, b.stripBytes())
	return &streamSink{b: b, ph: ph, tr: tr, run: run, drain: func(idx int, st *stripe.Stripe, sp int32) error {
		b.replView.tr, b.replView.parent = tr, sp
		return writeStrips(b.replView, idx, st, b.lost, buf)
	}}
}

// writeStrips writes the given disks' strips of st (every disk when
// disks is nil) through s, assembling each strip in buf.
func writeStrips(s fault.Store, idx int, st *stripe.Stripe, disks []int, buf []byte) error {
	write := func(j int) error {
		for i := 0; i < st.R(); i++ {
			copy(buf[i*st.SectorSize():], st.SectorAt(i, j))
		}
		return s.WriteStrip(idx, j, buf)
	}
	if disks == nil {
		for j := 0; j < st.N(); j++ {
			if err := write(j); err != nil {
				return err
			}
		}
		return nil
	}
	for _, j := range disks {
		if err := write(j); err != nil {
			return err
		}
	}
	return nil
}

func (b *streamBench) run(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{sloLimit: streamSLO}
	settle()
	kc := readKernelCounters()
	mx0, heal0 := b.stats.MultXORs(), b.healer.Stats
	stage0 := b.ingest.StageStats()
	stage0.Add(b.rebuild.StageStats())
	b.ingestView.take()
	b.healView.take()
	b.replView.take()
	perPass := int64(streamStripes)

	for ph.timed < d {
		if err := b.poisonStrips(b.store, nil); err != nil {
			return nil, err
		}
		ph.encodeTime += b.pass(ph, tr, true)
		ph.encodeBytes += perPass * int64(b.stripePayload())
		ph.failed += b.checkIngest()
		if err := b.poisonStrips(b.repl, b.lost); err != nil {
			return nil, err
		}
		ph.rebuildTime += b.pass(ph, tr, false)
		ph.rebuildBytes += perPass * int64(len(b.lost)*b.stripBytes())
		ph.failed += b.checkRebuild()
		ph.cut()
	}
	ph.userWrite = ph.encodeBytes
	passes := ph.attempted / (2 * perPass)
	ph.kernelOps = ph.attempted
	ph.planLooks, ph.planHits = ph.attempted, ph.attempted
	ph.chosenCost = passes * perPass * (b.ingest.Plan().Costs.Chosen + b.rebuild.Plan().Costs.Chosen)
	ph.multXORs = b.stats.MultXORs() - mx0
	kc.addDelta(ph)
	ph.store.add(b.ingestView.take())
	ph.store.add(b.healView.take())
	ph.store.add(b.replView.take())
	ph.heal = healDelta(b.healer.Stats, heal0)
	ph.stage = b.ingest.StageStats()
	ph.stage.Add(b.rebuild.StageStats())
	ph.stage = stageDelta(ph.stage, stage0)
	// Each pass keeps one engine's nproc compute shards active.
	ph.computeBusy = ph.timed*time.Duration(nproc) - time.Duration(ph.stage.ComputeStallNs)
	ph.finish()

	if tr != nil {
		// The serial baseline processes the same passes with no overlap.
		if err := b.serialBaseline(ph, passes); err != nil {
			return nil, err
		}
	}
	ph.notes = append(ph.notes, fmt.Sprintf("stream: %d passes over %d stripes (%d MiB image), lost disks %v",
		passes, streamStripes, streamStripes*b.code.NumStrips()*b.stripBytes()>>20, b.lost))
	return ph, nil
}

// pass runs one engine over the whole array inside a timed window and
// returns its duration.
func (b *streamBench) pass(ph *phase, tr *tracer, ingest bool) time.Duration {
	w := openWindow()
	root := tr.begin("bench.timed", 0)
	run := tr.begin("pipeline.run", root)
	var n int
	var err error
	if ingest {
		n, err = b.ingest.Run(b.ingestSource(tr, run, streamStripes), b.ingestSink(ph, tr, run))
	} else {
		n, err = b.rebuild.Run(b.healSource(tr, run, streamStripes), b.rebuildSink(ph, tr, run))
	}
	tr.end(run)
	tr.end(root)
	t := w.close(ph)
	user := int64(b.stripePayload())
	if !ingest {
		user = int64(len(b.lost) * b.stripBytes())
	}
	ph.addWork(int64(n)*user, t)
	if n < streamStripes || err != nil {
		// Stripes the engine did not drain count as failed operations.
		ph.notes = append(ph.notes, fmt.Sprintf("stream: pass stopped after %d stripes: %v", n, err))
		for i := n; i < streamStripes; i++ {
			ph.recordOp(0, true)
		}
	}
	return t
}

// poisonStrips overwrites the given disks' strips (every disk when disks
// is nil) of every stripe in s, outside the timed windows, so that the
// checks after the next pass see only bytes that pass wrote.
func (b *streamBench) poisonStrips(s *fault.MemStore, disks []int) error {
	if disks == nil {
		disks = make([]int, b.code.NumStrips())
		for j := range disks {
			disks[j] = j
		}
	}
	for idx := 0; idx < streamStripes; idx++ {
		for _, j := range disks {
			if err := s.WriteStrip(idx, j, b.poison); err != nil {
				return err
			}
		}
	}
	return nil
}

// serialBaseline times pipeline.Serial over one ingest and one rebuild
// pass, against the engines' mean pass times.
func (b *streamBench) serialBaseline(ph *phase, passes int64) error {
	var scratch phase
	cfg := pipeline.Config{Workers: nproc, Threads: 1, Strategy: core.StrategyAuto}
	if err := b.poisonStrips(b.store, nil); err != nil {
		return err
	}
	if err := b.poisonStrips(b.repl, b.lost); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := pipeline.Serial(b.code, codes.EncodingScenario(b.code), sectorBytes, cfg,
		b.ingestSource(nil, 0, streamStripes), b.ingestSink(&scratch, nil, 0)); err != nil {
		return err
	}
	ingestTime := time.Since(t0)
	ph.failed += b.checkIngest()
	t1 := time.Now()
	if _, err := pipeline.Serial(b.code, b.lostSc, sectorBytes, cfg,
		b.healSource(nil, 0, streamStripes), b.rebuildSink(&scratch, nil, 0)); err != nil {
		return err
	}
	ph.serialTime = ingestTime + time.Since(t1)
	ph.pipeTime = (ph.encodeTime + ph.rebuildTime) / time.Duration(max(passes, 1))
	ph.failed += b.checkRebuild() + scratch.failed
	return nil
}

// checkIngest compares every stored data sector with the payload and
// returns the number of stripes that differ.
func (b *streamBench) checkIngest() int64 {
	n, r := b.code.NumStrips(), b.code.NumRows()
	buf := make([]byte, b.stripBytes())
	var bad int64
	for idx := 0; idx < streamStripes; idx++ {
		off := idx * b.stripePayload()
		ok := true
		for j := 0; j < n && ok; j++ {
			if err := b.store.ReadStrip(idx, j, buf); err != nil {
				ok = false
				break
			}
			for i := 0; i < r; i++ {
				k := b.dataIdx[i*n+j]
				if k >= 0 && !bytes.Equal(buf[i*sectorBytes:(i+1)*sectorBytes],
					b.payload[off+k*sectorBytes:off+(k+1)*sectorBytes]) {
					ok = false
					break
				}
			}
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// checkRebuild compares every rebuilt strip with the strip ingested on
// the lost disk and returns the number of stripes that differ.
func (b *streamBench) checkRebuild() int64 {
	want, got := make([]byte, b.stripBytes()), make([]byte, b.stripBytes())
	var bad int64
	for idx := 0; idx < streamStripes; idx++ {
		for _, d := range b.lost {
			e1 := b.store.ReadStrip(idx, d, want)
			e2 := b.repl.ReadStrip(idx, d, got)
			if e1 != nil || e2 != nil || !bytes.Equal(want, got) {
				bad++
				break
			}
		}
	}
	return bad
}

func stageDelta(now, before pipeline.StageStats) pipeline.StageStats {
	return pipeline.StageStats{
		FillStallNs:    now.FillStallNs - before.FillStallNs,
		ComputeStallNs: now.ComputeStallNs - before.ComputeStallNs,
		DrainStallNs:   now.DrainStallNs - before.DrainStallNs,
		Stripes:        now.Stripes - before.Stripes,
	}
}

func healDelta(now, before fault.HealStats) fault.HealStats {
	return fault.HealStats{
		Stripes:        now.Stripes - before.Stripes,
		Retries:        now.Retries - before.Retries,
		DemotedStrips:  now.DemotedStrips - before.DemotedStrips,
		CorruptSectors: now.CorruptSectors - before.CorruptSectors,
		Healed:         now.Healed - before.Healed,
		StripsRead:     now.StripsRead - before.StripsRead,
		Replans:        now.Replans - before.Replans,
	}
}
