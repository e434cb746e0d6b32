package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"caraoke/internal/api"
	"caraoke/internal/city"
	"caraoke/internal/collector"
	"caraoke/internal/telemetry"
)

// tinySizes shrinks every workload so one run takes well under a
// second of measuring.
func tinySizes() sizes {
	return sizes{
		Warmup:        50 * time.Millisecond,
		Window:        50 * time.Millisecond,
		SetupRepeats:  2,
		Fleet:         64,
		CityReaders:   2,
		CityVehicles:  12,
		CityDuration:  2 * time.Second,
		IngestReaders: 8,
		IngestEpochs:  4,
		IngestBatch:   3,
		IngestKeep:    16,
		QueryReaders:  8,
		QueryEpochs:   6,
		QuerySpots:    8,
		WriterBatch:   2,
		WriterPeriod:  10 * time.Millisecond,
	}
}

// runTiny runs one workload at tiny size and checks that it passed its
// correctness checks and printed exactly its mode's metric list.
func runTiny(t *testing.T, w workload, traced bool, d time.Duration) *result {
	t.Helper()
	res, err := w(defaultSeed, d, traced, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Fatalf("correctness checks failed: %v", res.problems)
	}
	if err := complete(res, traced); err != nil {
		t.Fatal(err)
	}
	if res.attempted < 1 || res.failed != 0 {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	if !traced {
		for _, s := range endToEnd {
			if v := res.metrics[s.name].Value; !(v > 0) {
				t.Errorf("%s = %v, want > 0", s.name, v)
			}
		}
	}
	return res
}

func positive(t *testing.T, res *result, names ...string) {
	t.Helper()
	for _, n := range names {
		if v := res.metrics[n].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", n, v)
		}
	}
}

func TestCityTiny(t *testing.T) {
	runTiny(t, runCity, false, 100*time.Millisecond)
	res := runTiny(t, runCity, true, 100*time.Millisecond)
	positive(t, res, "transponder.reply_ms", "rfsim.capture_ms", "core.analyze_ms", "core.decode_ms",
		"reader.report_us", "collector.send_us", "trace.replay_ms_per_reader_epoch", "city.run_ms_per_reader_epoch")
	m := func(n string) float64 { return res.metrics[n].Value }
	if h := m("transponder.reply_ms") + m("rfsim.capture_ms"); !near(h, m("harness_ms_per_reader_epoch")) {
		t.Errorf("harness %v ≠ reply + capture %v", m("harness_ms_per_reader_epoch"), h)
	}
	if y := m("core.decode_yield"); y < 0 || y > 1 {
		t.Errorf("decode yield %v outside [0,1]", y)
	}
	if m("api.serve_us_p50") != 0 || m("telemetry.unmarshal_us") != 0 {
		t.Error("city trace measured a layer it does not call")
	}
}

func near(a, b float64) bool { return a-b < 1e-9*max(1, b) && b-a < 1e-9*max(1, b) }

func TestIngestTiny(t *testing.T) {
	runTiny(t, runIngest, false, 100*time.Millisecond)
	res := runTiny(t, runIngest, true, 100*time.Millisecond)
	positive(t, res, "cluster.route_ns", "telemetry.marshal_us", "telemetry.unmarshal_us", "telemetry.bytes",
		"collector.send_us", "collector.land_wait_us", "collector.store_ingest_us")
}

func TestQueryTiny(t *testing.T) {
	runTiny(t, runQuery, false, 300*time.Millisecond)
	res := runTiny(t, runQuery, true, 300*time.Millisecond)
	positive(t, res, "api.serve_us_p50", "api.http_overhead_us_p50", "cluster.find_car_us",
		"cluster.sightings_by_cfo_us", "collector.speed_check_us", "collector.history_reports",
		"collector.decoded_ids", "loadgen.writer_land_ms_p99")
}

// TestCityChecksCatch breaks a city result in each way the checks look
// for: a missing report and a changed decode.
func TestCityChecksCatch(t *testing.T) {
	sz := tinySizes()
	seen := make(map[int64]string)
	run := func() *city.Result {
		out, err := city.Run(cityConfig(3, sz))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	res := newResult()
	checkCityRun(res, run(), 3, sz, seen)
	checkCityRun(res, run(), 3, sz, seen)
	if len(res.problems) > 0 {
		t.Fatalf("two runs of one seed: %v", res.problems)
	}

	short := run()
	short.TotalReports--
	res = newResult()
	checkCityRun(res, short, 3, sz, map[int64]string{})
	if len(res.problems) == 0 {
		t.Error("a missing report passed")
	}

	changed := run()
	if len(changed.Decoded) == 0 {
		t.Fatal("tiny city decoded nothing")
	}
	changed.Decoded[0].FreqHz++
	res = newResult()
	checkCityRun(res, changed, 3, sz, seen)
	if len(res.problems) == 0 {
		t.Error("a changed fingerprint passed")
	}
}

// TestLandedChecksCatch lands reports directly in a tier's store and
// checks that a lost report, a duplicate and a stale latest report each
// fail the exactly-once check.
func TestLandedChecksCatch(t *testing.T) {
	ids := readerIDs(2)
	tier, err := startIngestTier(ids, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.stop()
	land := func(id uint32, seqs ...uint32) {
		st := tier.cl.Partition(tier.cl.HomeOf(id)).Store
		for _, s := range seqs {
			st.Add(&telemetry.Report{ReaderID: id, Seq: s})
		}
	}
	land(1, 1, 2, 3)
	land(2, 1, 2)
	res := newResult()
	if missing := checkLanded(res, tier.cl, map[uint32]uint32{1: 3, 2: 2}, 0); missing != 0 || len(res.problems) > 0 {
		t.Fatalf("clean landing: missing %d, %v", missing, res.problems)
	}
	res = newResult()
	if missing := checkLanded(res, tier.cl, map[uint32]uint32{1: 4}, 0); missing != 1 || len(res.problems) == 0 {
		t.Errorf("a lost report passed: missing %d, %v", missing, res.problems)
	}
	land(2, 2)
	res = newResult()
	if checkLanded(res, tier.cl, map[uint32]uint32{2: 2}, 0); len(res.problems) == 0 {
		t.Error("a duplicate passed")
	}
	land(1, 5)
	res = newResult()
	if checkLanded(res, tier.cl, map[uint32]uint32{1: 4}, 1); len(res.problems) == 0 {
		t.Error("a wrong latest report passed")
	}
}

// TestProbeAndLoadChecksCatch serves an API over an empty store while
// the probes compare against the populated tier, and counts a 5xx.
func TestProbeAndLoadChecksCatch(t *testing.T) {
	sz := tinySizes()
	in := newQueryInputs(defaultSeed, sz)
	q, err := startQueryTier(in.ids, in.prefill, in.fl, sz.QuerySpots)
	if err != nil {
		t.Fatal(err)
	}
	defer q.stop()

	good := httptest.NewServer(q.api)
	defer good.Close()
	res := newResult()
	// A CFO of exactly 0 Hz (a carrier clamped to the band edge) is a
	// speed probe like any other.
	checkProbes(res, good.Client(), good.URL, q, append(in.probes, newSpeedKey(0)))
	if len(res.problems) > 0 {
		t.Fatalf("probes against the real API: %v", res.problems)
	}

	empty := collector.NewStore(0)
	wrong := httptest.NewServer(api.New(api.Config{
		Directory: empty,
		Speed:     collector.NewSpeedService(empty, querySpeedLimit),
		Parking:   q.parking,
	}))
	defer wrong.Close()
	res = newResult()
	checkProbes(res, wrong.Client(), wrong.URL, q, in.probes)
	if len(res.problems) == 0 {
		t.Error("answers from an empty directory passed")
	}

	res = newResult()
	checkLoad(res, httpLoad{status: map[int]int{http.StatusOK: 3, http.StatusInternalServerError: 1}})
	if len(res.problems) == 0 || res.failed != 1 {
		t.Errorf("a 5xx passed: failed %d, %v", res.failed, res.problems)
	}
}

// TestSelfTime checks the span arithmetic: overlapping children count
// once, a child's interval is clipped to its parent's, and a grandchild
// is charged to its parent only.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "parent", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 20, end: 40, parent: 0},
		{name: "c", start: 90, end: 120, parent: 0},
		{name: "g", start: 12, end: 18, parent: 1},
	}
	lt := newLayerTotals()
	lt.add(spans)
	want := map[string]time.Duration{"parent": 60, "a": 14, "b": 20, "c": 30, "g": 6}
	for name, w := range want {
		if got := lt.self[name]; got != w {
			t.Errorf("self(%s) = %d, want %d", name, got, w)
		}
	}

	tr := newTracer(time.Now())
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	lt = newLayerTotals()
	lt.add(tr.spans)
	if lt.self["outer"] >= lt.self["inner"] || lt.count["inner"] != 1 {
		t.Errorf("outer self %v should exclude inner %v", lt.self["outer"], lt.self["inner"])
	}
	var none *tracer
	none.end(none.begin("untraced")) // a nil tracer records nothing
}

// TestChunkedPercentile checks that one slow chunk out of three does
// not move the median of the chunks' percentiles, where it would set
// the percentile over all the samples, and that a remainder shorter
// than a chunk joins the last chunk.
func TestChunkedPercentile(t *testing.T) {
	var xs []float64
	for c := 0; c < 3; c++ {
		for i := 0; i < 100; i++ {
			x := float64(i%10) / 10 // 0 … 0.9
			if c == 1 {
				x = 50
			}
			xs = append(xs, x)
		}
	}
	if got := chunkedPercentile(xs, 100, 0.99); got != 0.9 {
		t.Errorf("chunked p99 = %g, want 0.9", got)
	}
	if got := chunkedPercentile(xs[:250], 100, 0.5); !near(got, 25.2) {
		t.Errorf("p50 with a remainder = %g, want 25.2 (the median of 0.4 and 50)", got)
	}
	if got := chunkedPercentile(xs[:50], 100, 0.5); got != 0.4 {
		t.Errorf("p50 of one short chunk = %g, want 0.4 (the plain percentile)", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) printed", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if strings.Join(b.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %v", b.Command)
	}
}
