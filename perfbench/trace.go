package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer, recorded from the benchmark's
// own code around the call. Times are nanoseconds since the tracer's
// epoch; Parent 0 means a root span.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[0] is a placeholder so that ID 0 means "none"
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 1, 1<<16)}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// writeFile writes every span as one JSON object per line, gzipped: a
// traced phase records up to a few million spans.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(z)
	for _, s := range t.spans[1:] {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := z.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's totals: self time is each span's duration
// minus the union of its children's intervals.
type selfTime struct {
	Count  int64
	SelfNs int64
}

func (t *tracer) selfTimes() map[string]selfTime {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans[1:] {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans[1:] {
		d := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.SelfNs += d - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			sum += b - a
		}
	}
	for _, v := range iv {
		if v[0] > curHi {
			if curHi >= 0 {
				flush()
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	flush()
	return sum
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Span   string  `json:"span"`
	Count  int64   `json:"count"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share_of_timed"`
}

// layerMetrics derives the per-layer metrics: self times and span
// counts come from the traced phase, counts from the untraced one
// (they repeat exactly), and the tracing overhead from the two
// phases' throughputs.
func layerMetrics(plain, traced *phase, tr *tracer) (map[string]float64, []layerRow) {
	self := tr.selfTimes()
	selfMs := func(name string) float64 { return float64(self[name].SelfNs) / 1e6 }
	timedMs := float64(traced.timed.Nanoseconds()) / 1e6

	rows := make([]layerRow, 0, len(self))
	for name, st := range self {
		rows = append(rows, layerRow{Span: name, Count: st.Count, SelfMs: float64(st.SelfNs) / 1e6,
			Share: float64(st.SelfNs) / 1e6 / timedMs})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })

	p := plain
	m := map[string]float64{}
	m["gf.ceiling_gb_s"] = gfCeiling()

	user := float64(max(p.userBytes, 1))
	if p.kernelOps > 0 {
		m["kernel.mult_xors_per_stripe"] = float64(p.multXORs) / float64(p.kernelOps)
	}
	m["kernel.computed_bytes_per_user_byte"] = float64(p.multXORs*sectorBytes) / user
	// The kernel runs inside core.execute on sector-repair and core.update
	// on small-io. On stream it runs on the compute shards, concurrently
	// with the fill and drain spans, so the shards' unstalled time stands
	// in for a span there.
	kernelSelf := selfMs("core.execute") + selfMs("core.update") + float64(traced.computeBusy.Nanoseconds())/1e6
	if kernelSelf > 0 {
		m["kernel.achieved_gb_s"] = float64(traced.multXORs*sectorBytes) / 1e9 / (kernelSelf / 1e3)
	}

	if p.xorHits+p.xorMisses > 0 {
		m["xorplan.compiles"] = float64(p.xorMisses)
		m["xorplan.cache_hit_ratio"] = float64(p.xorHits) / float64(p.xorHits+p.xorMisses)
	}

	m["core.plan_ms"] = selfMs("core.plan")
	m["core.execute_ms"] = selfMs("core.execute")
	if p.planLooks > 0 {
		m["core.plan_cache_hit_ratio"] = float64(p.planHits) / float64(p.planLooks)
	}
	if traced.chosenCost > 0 {
		m["core.cost_ratio"] = float64(traced.multXORs) / float64(traced.chosenCost)
	}
	if n := self["core.update"].Count; n > 0 {
		m["core.update_us"] = float64(self["core.update"].SelfNs) / 1e3 / float64(n)
	}
	if p.writes > 0 {
		m["core.update_mult_xors"] = float64(p.updateMultXORs) / float64(p.writes)
	}

	if p.degraded > 0 {
		m["repair.strips_read_per_degraded_read"] = float64(p.degradedReads) / float64(p.degraded)
	}

	m["fault.read_sectors_ms"] = selfMs("fault.read_sectors")
	m["fault.read_stripe_ms"] = selfMs("fault.read_stripe")
	m["fault.store_read_ms"] = selfMs("fault.store_read")
	m["fault.store_write_ms"] = selfMs("fault.store_write")
	m["fault.store_bytes_read"] = float64(p.store.read)
	m["fault.store_bytes_written"] = float64(p.store.written)
	m["fault.checksum_ms"] = selfMs("fault.checksum")
	m["fault.checksum_bytes"] = float64(p.checksumBytes)
	m["fault.replans"] = float64(p.heal.Replans + traced.heal.Replans)
	m["fault.demoted_strips"] = float64(p.heal.DemotedStrips + traced.heal.DemotedStrips)
	m["fault.corrupt_sectors"] = float64(p.heal.CorruptSectors + traced.heal.CorruptSectors)

	m["pipeline.run_ms"] = selfMs("pipeline.run")
	m["pipeline.fill_ms"] = selfMs("pipeline.fill")
	m["pipeline.drain_ms"] = selfMs("pipeline.drain")
	m["pipeline.fill_stall_ms"] = float64(traced.stage.FillStallNs) / 1e6
	m["pipeline.compute_stall_ms"] = float64(traced.stage.ComputeStallNs) / 1e6
	m["pipeline.drain_stall_ms"] = float64(traced.stage.DrainStallNs) / 1e6
	if traced.serialTime > 0 && traced.pipeTime > 0 {
		m["pipeline.speedup_vs_serial"] = traced.serialTime.Seconds() / traced.pipeTime.Seconds()
	}

	m["go.alloc_bytes_per_op"] = p.res.allocBytes / float64(max(p.attempted, 1))
	if p.res.totalCPU > 0 {
		m["go.gc_cpu_fraction"] = p.res.gcCPU / p.res.totalCPU
	}

	m["bench.gen_late_p99_ms"] = ms(p.ls.genLateTail)
	m["bench.uncovered_ms"] = selfMs("bench.timed")
	plainTP, tracedTP := p.endToEnd()["throughput_mb_s"], traced.endToEnd()["throughput_mb_s"]
	m["bench.trace_overhead_pct"] = 100 * (plainTP - tracedTP) / plainTP
	m["bench.read_amp"] = float64(p.store.read) / user
	if p.userWrite > 0 {
		m["bench.write_amp"] = float64(p.store.written) / float64(p.userWrite)
	}
	m["bench.failed_ratio"] = float64(p.failed+traced.failed) / float64(max(p.attempted+traced.attempted, 1))
	m["bench.slo_miss_ratio"] = p.sloMissRatio()
	m["bench.latency_p99_ms"] = ms(p.ls.tail)
	if p.encodeTime > 0 {
		m["bench.encode_mb_s"] = float64(p.encodeBytes) / 1e6 / p.encodeTime.Seconds()
		m["bench.rebuild_mb_s"] = float64(p.rebuildBytes) / 1e6 / p.rebuildTime.Seconds()
	}
	if p.repaired > 0 {
		m["bench.repair_stripes_s"] = float64(p.repaired) / p.busy.Seconds()
	}
	m["bench.read_p50_ms"], m["bench.read_p99_ms"] = ms(p.ls.readP50), ms(p.ls.readTail)
	m["bench.write_p50_ms"], m["bench.write_p99_ms"] = ms(p.ls.writeP50), ms(p.ls.writeTail)
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m[pl.name] = 0
		}
	}
	return m, rows
}

// printLayerTable writes the per-layer self-time table of a traced run.
func printLayerTable(w io.Writer, workload string, timedMs float64, rows []layerRow, m map[string]float64) {
	fmt.Fprintf(w, "\nper-layer self time, %s (traced phase %.0f ms):\n", workload, timedMs)
	fmt.Fprintf(w, "  %-22s %10s %12s %8s\n", "span", "count", "self ms", "share")
	for _, r := range rows {
		label := r.Span
		if label == "bench.timed" {
			label = "(uncovered)"
		}
		fmt.Fprintf(w, "  %-22s %10d %12.2f %7.1f%%\n", label, r.Count, r.SelfMs, 100*r.Share)
	}
	fmt.Fprintf(w, "  tracing overhead: %.1f%% of untraced throughput\n\n", m["bench.trace_overhead_pct"])
}
