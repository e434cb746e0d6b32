package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"caraoke/internal/city"
	"caraoke/internal/collector"
	"caraoke/internal/core"
	"caraoke/internal/geom"
	"caraoke/internal/reader"
	"caraoke/internal/rfsim"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// The reference city's fixed settings (the caraoke-sim defaults the
// workload keeps): a §8 decode every fifth epoch, one DSP worker per
// reader so that the reader pipelines provide the parallelism.
const (
	cityDecodeEvery  = 5
	cityDecodeBudget = 120
	cityQueries      = 10
	cityBlock        = 200.0
	cityRange        = 30.0
	cityNoiseSigma   = 2e-6
)

func cityConfig(seed int64, sz sizes) city.Config {
	return city.Config{
		Readers:     sz.CityReaders,
		Vehicles:    sz.CityVehicles,
		Duration:    sz.CityDuration,
		Seed:        seed,
		Workers:     1,
		DecodeEvery: cityDecodeEvery,
	}
}

// cityFingerprint hashes what a city run computed: per-intersection
// counts and the decoded ids with their CFOs. Two runs of one seed
// must agree on it exactly.
func cityFingerprint(r *city.Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.TotalReports))
	for _, ix := range r.PerIntersection {
		put(uint64(ix.Index))
		put(uint64(ix.Reports))
		put(uint64(ix.CarSeconds))
		put(uint64(ix.Peak))
	}
	for _, d := range r.Decoded {
		put(d.ID)
		put(math.Float64bits(d.FreqHz))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkCityRun applies the per-run checks: every reader delivered one
// report per epoch, the per-intersection totals add up, and the
// fingerprint matches every earlier run of the same seed.
func checkCityRun(res *result, r *city.Result, seed int64, sz sizes, seen map[int64]string) {
	epochs := int(sz.CityDuration / time.Second)
	want := sz.CityReaders * epochs
	res.check(r.Epochs == epochs, "city seed %d: %d epochs, want %d", seed, r.Epochs, epochs)
	res.check(r.TotalReports == want, "city seed %d: TotalReports %d, want readers×epochs = %d", seed, r.TotalReports, want)
	sum := 0
	for _, ix := range r.PerIntersection {
		sum += ix.Reports
	}
	res.check(sum == r.TotalReports, "city seed %d: intersections report %d, total %d", seed, sum, r.TotalReports)
	fp := cityFingerprint(r)
	if prev, ok := seen[seed]; ok {
		res.check(prev == fp, "city seed %d: fingerprint %s differs from earlier run's %s", seed, fp, prev)
	} else {
		seen[seed] = fp
	}
}

// runCity drives the reference city, with the run's seed as its seed,
// through city.NewSim and Sim.Run, again and again until the measuring
// time is used. Every timed run is one sample of set-up, wall time and
// CPU time; the metrics are medians (and percentiles) over the samples.
// Sim.Run starts the collector backend itself, so the backend start
// falls inside the run's latency, not inside setup_s.
func runCity(seed int64, d time.Duration, traced bool, sz sizes) (*result, error) {
	if traced {
		return traceCity(seed, d, sz)
	}
	res := newResult()
	epochs := int(sz.CityDuration / time.Second)
	perRun := sz.CityReaders * epochs
	fps := make(map[int64]string)
	var setups, lats, rates, cpus []float64

	// one builds and runs the city once and keeps its timings unless
	// it is a warm-up run.
	one := func(timed bool) error {
		t0 := time.Now()
		sim, err := city.NewSim(cityConfig(seed, sz))
		if err != nil {
			return err
		}
		setup := time.Since(t0)
		runtime.GC() // every run starts from the same heap
		c0, t1 := cpuTime(), time.Now()
		out, err := sim.Run()
		wall, cpu := time.Since(t1), cpuTime()-c0
		res.attempted += perRun
		if err != nil {
			res.failed += perRun
			res.check(false, "city seed %d: %v", seed, err)
			return nil
		}
		checkCityRun(res, out, seed, sz, fps)
		if timed {
			setups = append(setups, setup.Seconds())
			lats = append(lats, ms(wall))
			rates = append(rates, float64(perRun)/wall.Seconds())
			cpus = append(cpus, ms(cpu)/float64(perRun))
		}
		return nil
	}

	start := time.Now()
	// Warm up: FFT plans and other lazy set-up.
	for first := true; first || time.Since(start) < sz.Warmup; first = false {
		if err := one(false); err != nil {
			return nil, err
		}
	}
	// At least two timed runs, so the fingerprint is compared across
	// runs; the last one starts only if it should end within the time.
	for len(lats) < 2 || time.Since(start)+time.Duration(lats[len(lats)-1]*float64(time.Millisecond)) <= d {
		if err := one(true); err != nil {
			return nil, err
		}
	}

	res.set("setup_s", median(setups), "s")
	res.set("ops_per_s", median(rates), "1/s")
	res.set("cpu_ms_per_op", median(cpus), "ms")
	res.set("latency_ms_p50", percentile(lats, 0.50), "ms")
	res.set("latency_ms_p99", percentile(lats, 0.99), "ms")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
	res.note("city: %d timed runs of %d readers × %d epochs, seed %d, fingerprint %s",
		len(lats), sz.CityReaders, epochs, seed, fps[seed])
	return res, nil
}

// replayReader is one reader of the traced replay with the state the
// city gives each of its readers: the reader, its private RNG, its
// synthesis and analysis scratch, its intersection and its uplink.
type replayReader struct {
	rd      *reader.Reader
	rng     *rand.Rand
	synth   *rfsim.SynthScratch
	analyze core.Scratch
	cx, cy  float64 // intersection center
	up      *collector.Client
	sent    uint32
	serial  uint64 // of the last device placed
}

// replayStats are the counts one replay goroutine accumulates.
type replayStats struct {
	readerEpochs, decodeEpochs int
	spikes, targets, decoded   int
	decodeCaptures             int
	realDecoded                int
	countAbsErr                int
	reports                    int
}

// replay re-runs the city's reader pipeline from the benchmark's own
// loop, so each layer's public function can be timed. Sim.Run hides
// these calls; the replay makes the same ones, per reader-epoch:
// Device.Reply → rfsim.Capture (×queries) → Scratch.AnalyzeCaptures →
// Reader.Report, on decode epochs DecodeAllParallel over captures from
// the same timed synthesis, then telemetry.MarshalBatch (a direct call
// on the same report) and Client.Send.
//
// The scene differs from the city's: instead of moving vehicles it
// places a Poisson number of fresh devices (mean: the untraced run's
// §5 count per reader-epoch) on the two streets through the reader's
// intersection, within interrogation range. Because it knows every
// device it placed, it scores the §5 count and the decoded ids against
// the truth.
type replay struct {
	meanDevices float64
}

// newReplayReaders builds readers laid out as city.NewSim lays them
// out: two per intersection on a near-square grid, one watching each
// crossing street.
func newReplayReaders(seed int64, n int) ([]*replayReader, error) {
	k := (n + 1) / 2
	gw := int(math.Ceil(math.Sqrt(float64(k))))
	var out []*replayReader
	for j := 0; j < n; j++ {
		ix := j / 2
		cx, cy := float64(ix%gw)*cityBlock, float64(ix/gw)*cityBlock
		rc := reader.Config{ID: uint32(j + 1), PoleHeight: 3.8, TiltDeg: 60, NoiseSigma: cityNoiseSigma, Workers: 1}
		if j%2 == 0 {
			rc.PoleBase, rc.RoadDir = geom.V(cx-5, cy+2, 0), geom.V(1, 0, 0)
		} else {
			rc.PoleBase, rc.RoadDir = geom.V(cx+2, cy-5, 0), geom.V(0, 1, 0)
		}
		rd, err := reader.New(rc)
		if err != nil {
			return nil, err
		}
		out = append(out, &replayReader{
			rd:     rd,
			rng:    rand.New(rand.NewSource(seed ^ int64(j+1)*0x9E3779B9)),
			synth:  rfsim.NewSynthScratch(),
			cx:     cx,
			cy:     cy,
			serial: uint64(j+1) << 32,
		})
	}
	return out, nil
}

// poisson draws a Poisson variate by Knuth's method (small means).
func poisson(rng *rand.Rand, mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// scene places this reader-epoch's devices: on the horizontal or the
// vertical street through the intersection (right-hand lane, as the
// city drives), within interrogation range of the reader. Modulation
// happens here, untimed, as the city's coordinator does it.
func (rp *replay) scene(rr *replayReader) ([]*transponder.Device, error) {
	pop := transponder.DefaultPopulationParams()
	center := rr.rd.Center()
	n := poisson(rr.rng, rp.meanDevices)
	devs := make([]*transponder.Device, 0, n)
	for len(devs) < n {
		s := (2*rr.rng.Float64() - 1) * cityRange
		pos := geom.V(rr.cx+s, rr.cy-2, 0)
		if rr.rng.Intn(2) == 1 {
			pos = geom.V(rr.cx+2, rr.cy+s, 0)
		}
		if pos.Dist(center) > cityRange {
			continue
		}
		rr.serial++
		d := transponder.NewRandomDevice(pop, rr.serial, pos, rr.rng)
		if err := d.PrepareEnvelope(rr.rd.Capture.SampleRate); err != nil {
			return nil, err
		}
		devs = append(devs, d)
	}
	return devs, nil
}

// capture is one reader query, as Reader.Query makes it: every
// triggered device replies, and the array digitizes the collision.
func capture(t *tracer, rr *replayReader, devs []*transponder.Device) (*rfsim.MultiCapture, error) {
	rd := rr.rd
	sp := t.begin("transponder.reply")
	txs := make([]rfsim.Transmission, 0, len(devs))
	center := rd.Center()
	for _, d := range devs {
		if !d.TriggeredFrom(center, rd.QueryAmplitude, rd.Capture.Wavelength) {
			continue
		}
		tx, err := d.Reply(rd.Params.ReaderLO, rd.Params.SampleRate, 0, rr.rng)
		if err != nil {
			t.end(sp)
			return nil, err
		}
		txs = append(txs, tx)
	}
	t.end(sp)
	cfg := rd.Capture
	cfg.Workers = 1
	cfg.Scratch = rr.synth
	sp = t.begin("rfsim.capture")
	mc, err := rfsim.Capture(cfg, rd.Array, txs, rr.rng)
	t.end(sp)
	return mc, err
}

// readerEpoch runs and times one reader-epoch of the replay.
func (rp *replay) readerEpoch(t *tracer, rr *replayReader, epoch int, st *replayStats) error {
	devs, err := rp.scene(rr)
	if err != nil {
		return err
	}
	rd := rr.rd
	truth := 0
	ids := make(map[uint64]bool, len(devs))
	for _, d := range devs {
		ids[d.ID()] = true
		if d.TriggeredFrom(rd.Center(), rd.QueryAmplitude, rd.Capture.Wavelength) {
			truth++
		}
	}
	mcs := make([]*rfsim.MultiCapture, 0, cityQueries)
	for q := 0; q < cityQueries; q++ {
		mc, err := capture(t, rr, devs)
		if err != nil {
			return err
		}
		mcs = append(mcs, mc)
	}
	sp := t.begin("core.analyze")
	spikes, err := rr.analyze.AnalyzeCaptures(mcs, rd.Params, 1)
	t.end(sp)
	if err != nil {
		return err
	}
	cnt := core.CountFromSpikes(spikes)
	st.readerEpochs++
	st.spikes += len(cnt.Spikes)
	st.countAbsErr += abs(cnt.Count - truth)

	sp = t.begin("reader.report")
	rep := rd.Report(cnt, time.Unix(int64(epoch), 0))
	t.end(sp)

	if epoch%cityDecodeEvery == 0 && len(devs) > 0 {
		var freqs []float64
		for _, s := range cnt.Spikes {
			if !s.Multiple {
				freqs = append(freqs, s.Freq)
			}
		}
		if len(freqs) > 0 {
			src := func() ([]complex128, error) {
				st.decodeCaptures++
				mc, err := capture(t, rr, devs)
				if err != nil {
					return nil, err
				}
				return mc.Reference(), nil
			}
			sp = t.begin("core.decode")
			out, err := core.DecodeAllParallel(src, rd.Params.SampleRate, freqs, cityDecodeBudget, 1)
			t.end(sp)
			if err != nil && !errors.Is(err, core.ErrNeedMoreCollisions) {
				return err
			}
			st.decodeEpochs++
			st.targets += len(freqs)
			for i := range rep.Spikes {
				if dr, ok := out[rep.Spikes[i].FreqHz]; ok {
					id := dr.Frame.ID()
					rep.Spikes[i].DecodedID = id
					st.decoded++
					if ids[id] {
						st.realDecoded++
					}
				}
			}
		}
	}

	sp = t.begin("telemetry.marshal")
	_, err = telemetry.MarshalBatch([]*telemetry.Report{rep})
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("collector.send")
	err = rr.up.Send(rep)
	t.end(sp)
	if err != nil {
		return err
	}
	rr.sent = rep.Seq
	st.reports++
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// traceCity times one untraced Sim.Run of the run's city, then
// replays the reader pipeline with spans for the rest of the measuring
// time, on one goroutine per CPU with the readers split among them.
func traceCity(seed int64, d time.Duration, sz sizes) (*result, error) {
	res := newResult()
	start := time.Now()
	sim, err := city.NewSim(cityConfig(seed, sz))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, err := sim.Run()
	runWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	checkCityRun(res, out, seed, sz, map[int64]string{})
	carSeconds := 0
	for _, ix := range out.PerIntersection {
		carSeconds += ix.CarSeconds
	}
	rp := &replay{meanDevices: float64(carSeconds) / float64(out.TotalReports)}

	readers, err := newReplayReaders(seed, sz.CityReaders)
	if err != nil {
		return nil, err
	}
	store := collector.NewStore(0)
	srv := collector.NewServer(store)
	srv.Logf = func(string, ...any) {}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	for _, rr := range readers {
		if rr.up, err = collector.Dial(addr.String(), 5*time.Second); err != nil {
			return nil, err
		}
		defer rr.up.Close()
	}

	workers := min(runtime.NumCPU(), len(readers))
	tracers := make([]*tracer, workers)
	stats := make([]replayStats, workers)
	errs := make([]error, workers)
	deadline := start.Add(d)
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tracers[w] = newTracer(origin)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Whole epochs, at least one decode epoch and one more.
			for epoch := 0; epoch <= cityDecodeEvery || time.Now().Before(deadline); epoch++ {
				for i := w; i < len(readers); i += workers {
					if err := rp.readerEpoch(tracers[w], readers[i], epoch, &stats[w]); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	replayWall := time.Since(origin)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	want := make(map[uint32]uint32, len(readers))
	for _, rr := range readers {
		want[rr.rd.ID] = rr.sent
	}
	if err := store.WaitHighWater(want, 10*time.Second); err != nil {
		res.check(false, "replay uplink: %v", err)
	}

	lt := newLayerTotals()
	var st replayStats
	for w := range tracers {
		lt.add(tracers[w].spans)
		s := stats[w]
		st.readerEpochs += s.readerEpochs
		st.decodeEpochs += s.decodeEpochs
		st.spikes += s.spikes
		st.targets += s.targets
		st.decoded += s.decoded
		st.decodeCaptures += s.decodeCaptures
		st.realDecoded += s.realDecoded
		st.countAbsErr += s.countAbsErr
		st.reports += s.reports
	}
	res.attempted, res.failed = st.readerEpochs, 0
	for _, rr := range readers {
		res.failed += int(rr.sent) - store.SeqsReceived(rr.rd.ID)
	}
	setCityLayers(res, lt, st)
	re := float64(st.readerEpochs)
	res.set("trace.replay_ms_per_reader_epoch", ms(replayWall)/re, "ms")
	res.set("city.run_ms_per_reader_epoch", ms(runWall)/float64(out.TotalReports), "ms")
	res.note("city trace: replay wall %.3f s for %d reader-epochs on %d goroutines; untraced Sim.Run wall %.3f s for %d reader-epochs",
		replayWall.Seconds(), st.readerEpochs, workers, runWall.Seconds(), out.TotalReports)
	res.note("city trace: replay scene mean %.3f devices per reader-epoch (the untraced run's mean §5 count)", rp.meanDevices)
	return res, nil
}

// setCityLayers turns the replay's span totals and counts into the
// city's per-layer metrics. Harness time is device replies plus
// capture synthesis, wherever they ran (decode pulls captures too);
// system time is the self time of every system layer the pipeline
// blocks on. The direct MarshalBatch call is left out of the system
// sum: Client.Send marshals the report itself.
func setCityLayers(res *result, lt layerTotals, st replayStats) {
	re := float64(st.readerEpochs)
	perRE := func(name string) float64 { return ms(lt.self[name]) / re }
	harness := perRE("transponder.reply") + perRE("rfsim.capture")
	res.set("transponder.reply_ms", perRE("transponder.reply"), "ms")
	res.set("rfsim.capture_ms", perRE("rfsim.capture"), "ms")
	res.set("rfsim.captures", float64(lt.count["rfsim.capture"])/re, "count")
	res.set("harness_ms_per_reader_epoch", harness, "ms")
	res.set("core.analyze_ms", perRE("core.analyze"), "ms")
	res.set("core.spikes", float64(st.spikes)/re, "count")
	res.set("core.count_abs_err", float64(st.countAbsErr)/re, "count")
	if st.decodeEpochs > 0 {
		de := float64(st.decodeEpochs)
		res.set("core.decode_ms", ms(lt.self["core.decode"])/de, "ms")
		res.set("core.decode_targets", float64(st.targets)/de, "count")
		res.set("core.decode_collisions", float64(st.decodeCaptures)/de, "count")
	}
	if st.targets > 0 {
		res.set("core.decode_yield", float64(st.decoded)/float64(st.targets), "ratio")
	}
	if st.decoded > 0 {
		res.set("core.decode_precision", float64(st.realDecoded)/float64(st.decoded), "ratio")
	}
	res.set("reader.report_us", us(lt.self["reader.report"])/re, "us")
	res.set("telemetry.marshal_us", us(lt.self["telemetry.marshal"])/float64(st.reports), "us")
	res.set("collector.send_us", us(lt.self["collector.send"])/float64(st.reports), "us")
	system := perRE("core.analyze") + perRE("core.decode") + perRE("reader.report") + perRE("collector.send")
	res.set("system_ms_per_reader_epoch", system, "ms")
	res.note("city trace: harness %.3f ms vs system %.3f ms per reader-epoch", harness, system)
}
