package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"ppm/internal/pipeline"
	"ppm/internal/stripe"
)

// benchmarkFile is the part of ../BENCHMARK.json the metric lists must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(kind string, code []metric, file []struct{ Name, Unit, Better string }) {
		if len(code) != len(file) {
			t.Errorf("%s: code lists %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
		}
		for i := 0; i < min(len(code), len(file)); i++ {
			c, f := code[i], file[i]
			if c.name != f.Name || c.unit != f.Unit || c.better != f.Better {
				t.Errorf("%s[%d]: code has %s %s %s, BENCHMARK.json has %s %s %s",
					kind, i, c.name, c.unit, c.better, f.Name, f.Unit, f.Better)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(bf.Workloads), len(workloads))
	}
}

// TestPrintedMetricsMatchBenchmarkFile runs every workload briefly in
// both modes and checks that the result line names exactly the metrics
// BENCHMARK.json declares for that mode, with their units.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0.3", "-trace", trace, "-out", t.TempDir()}
			if code := mainErr(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out outputLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace %s: last line is not a result: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for name, v := range out.Metrics {
				unit, ok := want[trace][name]
				if !ok {
					t.Errorf("%s trace %s: printed metric %s is not in BENCHMARK.json", w.Name, trace, name)
				} else if unit != v.Unit {
					t.Errorf("%s trace %s: %s printed in %s, BENCHMARK.json says %s", w.Name, trace, name, v.Unit, unit)
				}
			}
			if len(out.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %s: printed %d metrics, BENCHMARK.json declares %d",
					w.Name, trace, len(out.Metrics), len(want[trace]))
			}
		}
	}
}

// flipSink passes stripes to the benchmark's own sink after flipping one
// byte of one sector of one stripe.
type flipSink struct {
	inner          *streamSink
	stripe, sector int
}

func (k flipSink) Drain(idx int, st *stripe.Stripe) error {
	if idx == k.stripe {
		st.Sector(k.sector)[0] ^= 0x40
	}
	return k.inner.Drain(idx, st)
}

func TestStreamCountsWrongByteInSink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 320 MiB stream array")
	}
	b := newStream(5).(*streamBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var ph phase
	ingest := func(sink pipeline.Sink) {
		t.Helper()
		if _, err := b.ingest.Run(b.ingestSource(nil, 0, streamStripes), sink); err != nil {
			t.Fatal(err)
		}
	}
	// A pass that stops short without an error leaves poisoned stripes.
	if err := b.poisonStrips(b.store, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ingest.Run(b.ingestSource(nil, 0, streamStripes-3), b.ingestSink(&ph, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if bad := b.checkIngest(); bad != 3 {
		t.Errorf("ingest stopped 3 stripes short: %d stripes differ, want 3", bad)
	}
	ingest(flipSink{b.ingestSink(&ph, nil, 0), 7, b.dataPos[0]})
	if bad := b.checkIngest(); bad != 1 {
		t.Errorf("one flipped byte through the ingest sink: %d stripes differ, want 1", bad)
	}
	ingest(b.ingestSink(&ph, nil, 0))
	if bad := b.checkIngest(); bad != 0 {
		t.Fatalf("clean ingest: %d stripes differ", bad)
	}
	if err := b.poisonStrips(b.repl, b.lost); err != nil {
		t.Fatal(err)
	}
	if _, err := b.rebuild.Run(b.healSource(nil, 0, streamStripes-2), b.rebuildSink(&ph, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if bad := b.checkRebuild(); bad != 2 {
		t.Errorf("rebuild stopped 2 stripes short: %d stripes differ, want 2", bad)
	}
	// Sector lost[0] is row 0 of the first lost disk.
	if _, err := b.rebuild.Run(b.healSource(nil, 0, streamStripes), flipSink{b.rebuildSink(&ph, nil, 0), 9, b.lost[0]}); err != nil {
		t.Fatal(err)
	}
	if bad := b.checkRebuild(); bad != 1 {
		t.Errorf("one flipped byte through the rebuild sink: %d stripes differ, want 1", bad)
	}
}

func TestSectorRepairCountsWrongByteInGoldenCopy(t *testing.T) {
	b := newSectorRepair(5).(*repairBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.golden[1].Sector(0)[0] ^= 1
	ph, err := b.run(50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed == 0 || ph.attempted < int64(len(b.golden)) {
		t.Fatalf("%d repairs, %d failed; want every repair of stripe 1 failed", ph.attempted, ph.failed)
	}
	m, _ := layerMetrics(ph, ph, newTracer())
	if m["bench.failed_ratio"] <= 0 {
		t.Errorf("failed_ratio %v with a corrupted golden copy", m["bench.failed_ratio"])
	}
}

func TestSmallIOCountsWrongByteInShadow(t *testing.T) {
	b := newSmallIO(5).(*smallBench)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	var ph phase
	if b.serve(&ph, nil, 0, request{stripe: 3, sector: b.live[0]}) {
		t.Fatal("clean read reported as failed")
	}
	b.shadowSector(3, b.live[0])[17] ^= 1
	if !b.serve(&ph, nil, 0, request{stripe: 3, sector: b.live[0]}) {
		t.Error("read against a corrupted shadow byte was not counted as failed")
	}
	if bad := b.verifyArray(); bad != 1 {
		t.Errorf("verifyArray with one corrupted shadow byte: %d stripes fail, want 1", bad)
	}
}
