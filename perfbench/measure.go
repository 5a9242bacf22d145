package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ppm/internal/fault"
	"ppm/internal/gf"
	"ppm/internal/kernel"
	"ppm/internal/pipeline"
	"ppm/internal/xorplan"
)

// phase is what one timed phase of a workload measured. Counters are
// deltas over the phase; a field a workload does not drive stays zero.
type phase struct {
	attempted, failed int64

	lat       []int64       // per-operation latency, ns; dropped by finish
	ls        latencies     // the latency samples' summary, made by finish
	win       []winStat     // closed measurement windows
	cur       winStat       // the open measurement window
	sloLimit  time.Duration // latency limit an operation must meet
	busy      time.Duration // time spent serving operations
	userBytes int64         // user bytes served (read, written or rebuilt)
	userWrite int64         // user bytes written
	timed     time.Duration // wall time of the timed windows

	cpu       time.Duration // process CPU over the timed windows
	res       runtimeSample
	heapBytes uint64 // live heap after the phase

	multXORs   int64 // kernel.Stats over the phase
	kernelOps  int64 // stripe-level operations that drove the kernel
	chosenCost int64 // Σ predicted mult_XORs of the plans those operations ran
	planHits   int64 // operations served by an already-built plan
	planLooks  int64 // operations that needed a plan
	xorHits    int64
	xorMisses  int64

	store         storeCounts
	checksumBytes int64
	heal          fault.HealStats
	degraded      int64 // degraded (lost-sector) reads
	degradedReads int64 // strips those reads fetched

	repaired       int64 // stripes repaired in place
	writes         int64
	updateMultXORs int64

	stage       pipeline.StageStats
	computeBusy time.Duration // compute shards' time not stalled, over the passes
	serialTime  time.Duration // pipeline.Serial over one ingest + rebuild pass
	pipeTime    time.Duration // the engines over the same passes

	genLate []int64 // how late small-io started requests it was idle for, ns

	encodeBytes, rebuildBytes int64
	encodeTime, rebuildTime   time.Duration
	readLat, writeLat         []int64

	notes []string
}

// winStat is one measurement window of a phase: a run of consecutive
// operations whose throughput and CPU cost are computed on their own.
// Throughput and CPU cost are medians over the windows, so a burst of
// interference from outside the process moves the few windows it falls
// in rather than the whole result. Latency percentiles are taken over
// every operation of the phase, so a stall that hits only some windows,
// such as a garbage collection, still shows in the tail.
type winStat struct {
	ops   int64
	bytes int64
	busy  time.Duration
	cpu   time.Duration
}

func (p *phase) endToEnd() map[string]float64 {
	p.cut()
	var tp, cpu []float64
	for _, w := range p.win {
		mb := float64(w.bytes) / 1e6
		tp = append(tp, mb/w.busy.Seconds())
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e6/mb)
	}
	return map[string]float64{
		"throughput_mb_s": median(tp),
		"latency_p50_ms":  ms(p.ls.p50),
		"cpu_ms_per_mb":   median(cpu),
		"heap_mb":         float64(p.heapBytes) / 1e6,
	}
}

// addWork credits user bytes served and the time spent serving them.
func (p *phase) addWork(bytes int64, busy time.Duration) {
	p.userBytes += bytes
	p.busy += busy
	p.cur.bytes += bytes
	p.cur.busy += busy
}

// recordOp adds one operation's latency and outcome.
func (p *phase) recordOp(lat time.Duration, failed bool) {
	p.attempted++
	p.lat = append(p.lat, int64(lat))
	p.cur.ops++
	if failed {
		p.failed++
	}
}

// cut ends the current measurement window.
func (p *phase) cut() {
	if p.cur.ops > 0 && p.cur.busy > 0 {
		p.win = append(p.win, p.cur)
	}
	p.cur = winStat{}
}

// sloMissRatio is the share of attempted operations that failed or took
// longer than the latency limit. A failed operation that was also slow
// counts twice, capped at every operation.
func (p *phase) sloMissRatio() float64 {
	missed := p.failed + p.ls.overSLO
	return float64(min(missed, p.attempted)) / float64(max(p.attempted, 1))
}

// latencies summarises a phase's latency samples, in ns. Each tail is
// the tailPercentile of its samples.
type latencies struct {
	n                   int   // operations timed
	p50                 int64 // the latency_p50_ms operations: reads where a phase has them, else all
	tail                int64 // over every operation
	readP50, readTail   int64
	writeP50, writeTail int64
	genLateTail         int64
	overSLO             int64 // operations slower than the phase's limit
}

// percentiles sorts v in place and returns its median and tail.
func percentiles(v []int64) (p50, tail int64) {
	slices.Sort(v)
	return percentile(v, 50), percentile(v, tailPercentile(len(v)))
}

// window measures the process-level cost of one timed interval: wall
// time, CPU time and the runtime's allocation and GC counters. The CPU
// time also goes to the phase's open measurement window.
type window struct {
	wall time.Time
	cpu  time.Duration
	rt   runtimeSample
	spun time.Duration // CPU spent spinning until a due time, not serving
}

func openWindow() window {
	return window{wall: time.Now(), cpu: processCPU(), rt: sampleRuntime()}
}

// close adds the window's wall time, CPU time and runtime deltas to p.
func (w window) close(p *phase) time.Duration {
	d := time.Since(w.wall)
	cpu := processCPU() - w.cpu - w.spun
	p.timed += d
	p.cpu += cpu
	p.cur.cpu += cpu
	p.res.add(sampleRuntime().sub(w.rt))
	return d
}

// finish summarises the latency samples and drops them, then records
// the live heap after the phase, with garbage collected: heap_mb is the
// program's heap, not the size of the benchmark's sample arrays, which
// grows with the number of operations a run happens to complete.
func (p *phase) finish() {
	ls := latencies{n: len(p.lat)}
	for _, l := range p.lat {
		if time.Duration(l) > p.sloLimit {
			ls.overSLO++
		}
	}
	ls.p50, ls.tail = percentiles(p.lat)
	ls.readP50, ls.readTail = percentiles(p.readLat)
	if len(p.readLat) > 0 {
		// The median of small-io's mixed reads and writes falls where the
		// fast live reads give way to the writes, a steep part of the
		// distribution that moves with the slightest shift between the
		// two; the read median lies in the reads' flat middle.
		ls.p50 = ls.readP50
	}
	ls.writeP50, ls.writeTail = percentiles(p.writeLat)
	_, ls.genLateTail = percentiles(p.genLate)
	p.ls = ls
	p.lat, p.readLat, p.writeLat, p.genLate = nil, nil, nil, nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapBytes = m.HeapAlloc
}

// cpuTicks is the machine's CPU time from /proc/stat, in clock ticks:
// the total, and the part a hypervisor gave to other guests while this
// one wanted to run (steal). Steal is recorded with every result because
// on a shared host it, not the program, sets the latency tail.
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) stealPct(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return 100 * float64(t.steal-before.steal) / float64(t.total-before.total)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *runtimeSample) add(b runtimeSample) {
	a.allocBytes += b.allocBytes
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

// kernelCounters snapshots the process-wide counters a phase reports as
// deltas.
type kernelCounters struct {
	xorHits, xorMisses int64
}

func readKernelCounters() kernelCounters {
	h, m := xorplan.CacheStats()
	return kernelCounters{xorHits: h, xorMisses: m}
}

func (k kernelCounters) addDelta(p *phase) {
	now := readKernelCounters()
	p.xorHits += now.xorHits - k.xorHits
	p.xorMisses += now.xorMisses - k.xorMisses
}

// settle collects garbage and returns freed memory to the OS, so that a
// set-up repetition or timed phase does not pay for its predecessor.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(float64(len(sorted))*p/100+0.999999) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// tailPercentile is the highest of 99, 95, 90 and 50 that leaves at
// least ten samples above it; with at least 1000 samples it is 99.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostRecord describes the machine and build a result was measured on.
type hostRecord struct {
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	L2Bytes    int64             `json:"l2_bytes_per_core"`
	L3Bytes    int64             `json:"l3_bytes"`
	GFNI       bool              `json:"gfni"`
	Backend    string            `json:"kernel_backend"`
	VectorISA  int               `json:"vector_isa_level"`
	TileBytes  int               `json:"kernel_tile_bytes"`
	FanoutMin  int               `json:"kernel_fanout_min_bytes"`
	GoVersion  string            `json:"go_version"`
	Env        map[string]string `json:"ppm_env"`
	HeldOut    int64             `json:"held_out_seed"`
}

func readHost() hostRecord {
	h := hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GFNI:       gf.AffineKernels(),
		Backend:    backendName(),
		VectorISA:  gf.VectorISALevel(),
		TileBytes:  kernel.TileSize(),
		FanoutMin:  kernel.FanoutMinBytes(),
		GoVersion:  runtime.Version(),
		Env:        map[string]string{},
		HeldOut:    heldOutSeed,
	}
	h.L2Bytes, h.L3Bytes = cacheSize(2), cacheSize(3)
	for _, kv := range os.Environ() {
		if k, v, ok := strings.Cut(kv, "="); ok && strings.HasPrefix(k, "PPM_") {
			h.Env[k] = v
		}
	}
	return h
}

// backendName names the kernel backend a compile made now would use.
func backendName() string {
	switch {
	case kernel.XorplanActive():
		return "xorplan"
	case gf.AffineKernels():
		return "gfni-affine"
	}
	return "table"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cacheSize reads CPU 0's unified or data cache size at the given level
// from sysfs, in bytes (0 when unknown).
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(name string) string {
			b, err := os.ReadFile(filepath.Join(d, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(b))
		}
		if read("level") != strconv.Itoa(level) || read("type") == "Instruction" {
			continue
		}
		s := read("size")
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return n * mult
	}
	return 0
}

// gfCeiling times Field.MultXORs on one sector-size region pair: the
// region-op speed the compiled kernels are measured against, in GB/s
// of destination bytes.
func gfCeiling() float64 {
	f := gf.GF8
	dst, src := make([]byte, sectorBytes), make([]byte, sectorBytes)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	const batch = 4096
	var n int64
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < batch; i++ {
			f.MultXORs(dst, src, 0x53)
		}
		n += batch
	}
	return float64(n*sectorBytes) / 1e9 / time.Since(t0).Seconds()
}
