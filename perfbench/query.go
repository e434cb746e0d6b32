package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"caraoke/internal/api"
	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/geom"
	"caraoke/internal/telemetry"
)

const (
	queryTol        = 500.0 // Hz, the API's default CFO tolerance
	querySpeedLimit = 13.0  // m/s
	queryMaxAge     = time.Hour
	// queryURLs is the length of the pre-generated request list the
	// client cycles through.
	queryURLs = 1 << 16
	// latChunk is how many consecutive requests one latency
	// percentile is taken over; the reported figure is the median over
	// chunks.
	latChunk = 1000
	// prefillBatch is how many reports one prefill frame carries.
	prefillBatch = 64
	// writerSpikeSets is how many pre-generated spike sets the
	// background writer cycles through.
	writerSpikeSets = 256
	// Probe set sizes for the HTTP-versus-direct answer check.
	probeCars, probeFreqs, probeSpots = 16, 8, 4
)

// queryTier is the system under test: a populated one-partition
// cluster with its uplink, the speed and parking services, and the API
// server over them.
type queryTier struct {
	cl      *cluster.Cluster
	up      *collector.Client
	speed   *collector.SpeedService
	parking *collector.ParkingService
	api     *api.Server
}

func (q *queryTier) stop() {
	q.up.Close()
	q.cl.Stop()
}

// polePos places synthetic reader id on the street grid the way the
// city does: two readers per intersection, 200 m apart.
func polePos(id uint32) geom.Vec2 {
	ix := int(id-1) / 2
	x, y := float64(ix%16)*cityBlock, float64(ix/16)*cityBlock
	if id%2 == 1 {
		return geom.P(x-5, y+2)
	}
	return geom.P(x+2, y-5)
}

// startQueryTier is the query workload's set-up: cluster start, the
// prefill ingested over the uplink until queryable, the services and
// api.New. The prefill's last epoch is stamped now, so the API's wall
// clock sees it as fresh.
func startQueryTier(ids []uint32, prefill [][]*telemetry.Report, fl fleet, spots int) (*queryTier, error) {
	base := time.Now().Add(-time.Duration(len(prefill)) * time.Second)
	for e, rs := range prefill {
		for _, r := range rs {
			r.Timestamp = epochTime(base, e+1)
		}
	}
	cl, err := cluster.New(cluster.Config{Partitions: 1, Logf: discardLog})
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		cl.Register(id, cellOf(id))
	}
	up, err := collector.Dial(cl.Partition(0).Addr(), 5*time.Second)
	if err != nil {
		cl.Stop()
		return nil, err
	}
	q := &queryTier{cl: cl, up: up}
	for _, rs := range prefill {
		for b := 0; b < len(rs); b += prefillBatch {
			if err := up.SendBatch(rs[b:min(b+prefillBatch, len(rs))]); err != nil {
				q.stop()
				return nil, err
			}
		}
	}
	want := make(map[uint32]uint32, len(ids))
	for _, id := range ids {
		want[id] = uint32(len(prefill))
	}
	if err := cl.WaitHighWater(want, landTimeout); err != nil {
		q.stop()
		return nil, err
	}
	q.speed = collector.NewSpeedService(cl, querySpeedLimit)
	for _, id := range ids {
		q.speed.RegisterReader(id, polePos(id))
	}
	q.parking = collector.NewParkingService()
	for s := 0; s < spots; s++ {
		if err := q.parking.Arrive(s, fl.ids[s%len(fl.ids)], base); err != nil {
			q.stop()
			return nil, err
		}
	}
	q.api = api.New(api.Config{Directory: cl, Speed: q.speed, Parking: q.parking})
	return q, nil
}

// queryKey is one request of the mix: its URL path, its route, and
// the car id, CFO or spot it asks about.
type queryKey struct {
	path string
	kind keyKind
	car  uint64
	freq float64
	spot int
}

type keyKind int

const (
	carKey keyKind = iota
	speedKey
	spotKey
	listKey
)

func newCarKey(id uint64) queryKey {
	return queryKey{path: fmt.Sprintf("/car/%#x", id), kind: carKey, car: id}
}

// newSpeedKey formats the CFO so that it parses back to the same
// float64.
func newSpeedKey(f float64) queryKey {
	q := url.QueryEscape(strconv.FormatFloat(f, 'g', -1, 64))
	return queryKey{path: "/speed?freq=" + q + "&tol=500", kind: speedKey, freq: f}
}

func newSpotKey(spot int) queryKey {
	return queryKey{path: fmt.Sprintf("/parking/%d", spot), kind: spotKey, spot: spot}
}

// queryMix pre-generates the request list: half find-my-car (one in
// eight for an id no transponder has, a legitimate 404), a quarter
// speed checks on fleet CFOs, a quarter parking (one in five the full
// session list). Keys are uniform over the fleet, the CFOs and the
// spots, so most requests miss the API's TTL cache.
func queryMix(rng *rand.Rand, fl fleet, spots, n int) []queryKey {
	out := make([]queryKey, n)
	for i := range out {
		switch roll := rng.Float64(); {
		case roll < 0.5:
			id := fl.ids[rng.Intn(len(fl.ids))]
			if rng.Intn(8) == 0 {
				id = rng.Uint64() | 1<<63 // above every agency code in use
			}
			out[i] = newCarKey(id)
		case roll < 0.75:
			out[i] = newSpeedKey(fl.cfos[rng.Intn(len(fl.cfos))])
		case rng.Intn(5) == 0:
			out[i] = queryKey{path: "/parking", kind: listKey}
		default:
			out[i] = newSpotKey(rng.Intn(spots))
		}
	}
	return out
}

// queryInputs is everything the query workload sends, generated from
// the seed before set-up: the prefill, the writer's spike sets and the
// request list.
type queryInputs struct {
	ids     []uint32
	fl      fleet
	prefill [][]*telemetry.Report // [epoch][reader]
	writes  [][]telemetry.SpikeRecord
	keys    []queryKey
	probes  []queryKey
}

func newQueryInputs(seed int64, sz sizes) queryInputs {
	rng := rand.New(rand.NewSource(seed))
	in := queryInputs{ids: readerIDs(sz.QueryReaders), fl: newFleet(rng, sz.Fleet)}
	for e := 1; e <= sz.QueryEpochs; e++ {
		rs := make([]*telemetry.Report, len(in.ids))
		for i, id := range in.ids {
			rs[i] = &telemetry.Report{ReaderID: id, Seq: uint32(e), Count: 0, Spikes: in.fl.spikes(rng)}
			rs[i].Count = len(rs[i].Spikes)
		}
		in.prefill = append(in.prefill, rs)
	}
	for i := 0; i < writerSpikeSets; i++ {
		in.writes = append(in.writes, in.fl.spikes(rng))
	}
	in.keys = queryMix(rng, in.fl, sz.QuerySpots, queryURLs)
	for i := 0; i < probeCars; i++ {
		id := in.fl.ids[rng.Intn(len(in.fl.ids))]
		if i == 0 {
			id = 1<<63 | 1 // unknown
		}
		in.probes = append(in.probes, newCarKey(id))
	}
	for i := 0; i < probeFreqs; i++ {
		in.probes = append(in.probes, newSpeedKey(in.fl.cfos[rng.Intn(len(in.fl.cfos))]))
	}
	for i := 0; i < probeSpots; i++ {
		in.probes = append(in.probes, newSpotKey(rng.Intn(sz.QuerySpots)))
	}
	return in
}

// httpLoad is the closed-loop client's record of a run.
type httpLoad struct {
	lats      []float64 // ms, every request after the warmup, in order
	all       []time.Duration
	status    map[int]int
	transport int // transport errors
}

// runQuery serves the populated cluster through api.Server over
// loopback HTTP with the wall clock. One closed-loop client cycles
// through the request list while one open-loop writer ingests a batch
// every WriterPeriod; both stop at the deadline.
func runQuery(seed int64, d time.Duration, traced bool, sz sizes) (*result, error) {
	res := newResult()
	in := newQueryInputs(seed, sz)
	// Build the system SetupRepeats times and keep the last; the median
	// build time is the set-up time.
	var q *queryTier
	var setups []float64
	for i := 0; i < sz.SetupRepeats; i++ {
		if q != nil {
			q.stop()
			runtime.GC() // the next build starts from the same heap
		}
		t0 := time.Now()
		var err error
		if q, err = startQueryTier(in.ids, in.prefill, in.fl, sz.QuerySpots); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer q.stop()

	var handler http.Handler = q.api
	var served servedLog
	if traced {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			q.api.ServeHTTP(w, r)
			served.add(time.Since(t0))
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); hs.Serve(ln) }()
	shutdown := func() {
		hs.Shutdown(context.Background())
		<-serveDone
	}
	defer shutdown()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	baseURL := "http://" + ln.Addr().String()

	checkProbes(res, client, baseURL, q, in.probes)
	served.reset()

	loadFor := d
	if traced {
		loadFor = d * 3 / 4 // the rest goes to the direct calls
	}
	hits0, misses0 := q.api.CacheStats()
	var ops atomic.Int64
	start := time.Now()
	warmEnd, deadline := start.Add(sz.Warmup), start.Add(loadFor)
	stop := make(chan struct{})
	var load httpLoad
	var wr writerLog
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		load = runHTTPLoad(client, baseURL, in.keys, warmEnd, deadline, &ops)
	}()
	go func() {
		defer wg.Done()
		wr = runWriter(q.cl, q.up, in, sz, start, warmEnd, deadline)
	}()
	go func() { wg.Wait(); close(stop) }()
	wins := sampleWindows(&ops, sz.Warmup, sz.Window, stop)
	<-stop
	hits1, misses1 := q.api.CacheStats()

	requests := checkLoad(res, load)
	res.attempted += requests + wr.sent
	res.check(wr.err == nil, "background writer: %v", wr.err)
	res.failed += checkLanded(res, q.cl, wr.last, sz.QueryEpochs)

	if traced {
		shutdown() // every handler has logged its serve time
		res.set("api.cache_hit_ratio", float64(hits1-hits0)/float64(max(hits1-hits0+misses1-misses0, 1)), "ratio")
		res.set("api.not_found_ratio", float64(load.status[http.StatusNotFound])/float64(max(requests, 1)), "ratio")
		setServeLayers(res, load.all, served.d)
		res.set("loadgen.writer_lag_ms_p99", percentile(wr.lags, 0.99), "ms")
		res.set("loadgen.writer_land_ms_p99", percentile(wr.lands, 0.99), "ms")
		directCalls(res, q, in.keys, start.Add(d))
		res.set("collector.history_reports", float64(q.cl.TotalReports()), "count")
		res.set("collector.decoded_ids", float64(len(q.cl.Partition(0).Store.SightingsSnapshot())), "count")
		res.note("query trace: %d requests, %d writer reports, writer lag p99 %.3f ms", requests, wr.sent, percentile(wr.lags, 0.99))
		return res, nil
	}
	res.set("setup_s", median(setups), "s")
	opsPerS, cpuPerOp := windowRates(wins)
	res.set("ops_per_s", opsPerS, "1/s")
	res.set("cpu_ms_per_op", cpuPerOp, "ms")
	res.set("latency_ms_p50", chunkedPercentile(load.lats, latChunk, 0.50), "ms")
	res.set("latency_ms_p99", chunkedPercentile(load.lats, latChunk, 0.99), "ms")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
	res.note("query: %d requests (%d timed, p99 over the whole run %.3f ms), status %v; writer landed %d reports, landing p99 %.3f ms from due, lag p99 %.3f ms",
		requests, len(load.lats), percentile(load.lats, 0.99), load.status, wr.sent, percentile(wr.lands, 0.99), percentile(wr.lags, 0.99))
	return res, nil
}

// checkLoad counts the client's failures, transport errors and 5xx
// answers, as failed and as failed checks, and returns the requests
// attempted.
func checkLoad(res *result, load httpLoad) (requests int) {
	fiveXX := 0
	for code, n := range load.status {
		if code >= 500 {
			fiveXX += n
		}
	}
	res.failed += load.transport + fiveXX
	res.check(load.transport == 0, "%d HTTP transport errors", load.transport)
	res.check(fiveXX == 0, "%d HTTP 5xx answers", fiveXX)
	return len(load.all) + load.transport
}

// runHTTPLoad is the closed-loop client: one request at a time, the
// next as soon as the previous answer is read, until the deadline.
func runHTTPLoad(client *http.Client, baseURL string, keys []queryKey, warmEnd, deadline time.Time, ops *atomic.Int64) httpLoad {
	l := httpLoad{status: make(map[int]int)}
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		resp, err := client.Get(baseURL + keys[i%len(keys)].path)
		if err != nil {
			l.transport++
			continue
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			l.transport++
			continue
		}
		lat := time.Since(t0)
		l.all = append(l.all, lat)
		if t0.After(warmEnd) {
			l.lats = append(l.lats, ms(lat))
		}
		l.status[resp.StatusCode]++
		ops.Add(1)
	}
	return l
}

// writerLog is the background writer's record: lateness behind its
// schedule and landing time from when each batch was due, both in ms
// after the warmup, the reports sent and each reader's last seq.
type writerLog struct {
	lags, lands []float64
	sent        int
	last        map[uint32]uint32
	err         error
}

// runWriter is the open-loop writer: batch k is due at start + k ×
// WriterPeriod whatever happened to batch k−1, continuing each reader's
// sequence after the prefill. Landing is timed from the due time, so a
// stall counts against every batch it delays.
func runWriter(cl *cluster.Cluster, up *collector.Client, in queryInputs, sz sizes, start, warmEnd, deadline time.Time) writerLog {
	w := writerLog{last: make(map[uint32]uint32)}
	want := make(map[uint32]uint32, sz.WriterBatch)
	next := 0
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * sz.WriterPeriod)
		if due.After(deadline) {
			return w
		}
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		rs := make([]*telemetry.Report, sz.WriterBatch)
		clear(want)
		for i := range rs {
			id := in.ids[next%len(in.ids)]
			seq := uint32(sz.QueryEpochs + 1 + next/len(in.ids))
			spikes := in.writes[next%len(in.writes)]
			rs[i] = &telemetry.Report{ReaderID: id, Seq: seq, Timestamp: due, Count: len(spikes), Spikes: spikes}
			want[id] = seq
			w.last[id] = seq
			next++
		}
		w.sent += len(rs)
		if err := up.SendBatch(rs); err != nil {
			w.err = err
			return w
		}
		if err := cl.WaitHighWater(want, landTimeout); err != nil {
			w.err = err
			return w
		}
		if due.After(warmEnd) {
			w.lags = append(w.lags, ms(lag))
			w.lands = append(w.lands, ms(time.Since(due)))
		}
	}
}

// servedLog collects the API's serve times in the traced run, one per
// request in arrival order.
type servedLog struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *servedLog) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *servedLog) reset() {
	s.mu.Lock()
	s.d = nil
	s.mu.Unlock()
}

// setServeLayers sets the API's serve-time percentiles and the HTTP
// overhead: the client's latency minus the serve time of the same
// request. With one client and one request in flight, the i-th serve
// time belongs to the i-th request.
func setServeLayers(res *result, client, served []time.Duration) {
	serve := make([]float64, len(served))
	for i, d := range served {
		serve[i] = us(d)
	}
	res.set("api.serve_us_p50", percentile(append([]float64(nil), serve...), 0.50), "us")
	res.set("api.serve_us_p99", percentile(append([]float64(nil), serve...), 0.99), "us")
	if len(client) != len(served) {
		res.check(false, "%d requests answered but %d served", len(client), len(served))
		return
	}
	over := make([]float64, len(client))
	for i := range client {
		over[i] = us(client[i] - served[i])
	}
	res.set("api.http_overhead_us_p50", percentile(over, 0.50), "us")
}

// directCalls times the query plane's public calls on the request
// list's keys, round-robin, until the deadline: find-my-car lookups for
// car keys, and for speed keys the CFO-to-id association, the
// per-reader sightings scan and the whole speed check.
func directCalls(res *result, q *queryTier, keys []queryKey, deadline time.Time) {
	var find, decoded, byCFO, check []float64
	timeCall := func(dst *[]float64, f func()) {
		t0 := time.Now()
		f()
		*dst = append(*dst, us(time.Since(t0)))
	}
	for i := 0; len(find) < 10 || len(check) < 10 || time.Now().Before(deadline); i++ {
		k := keys[i%len(keys)]
		switch k.kind {
		case carKey:
			timeCall(&find, func() { q.cl.FindCar(k.car) })
		case speedKey:
			timeCall(&decoded, func() { q.cl.DecodedIDAt(k.freq, queryTol) })
			timeCall(&byCFO, func() { q.cl.SightingsByCFO(k.freq, queryTol) })
			timeCall(&check, func() { q.speed.Check(k.freq, queryTol, queryMaxAge, time.Now()) })
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	res.set("cluster.find_car_us", mean(find), "us")
	res.set("cluster.decoded_id_at_us", mean(decoded), "us")
	res.set("cluster.sightings_by_cfo_us", mean(byCFO), "us")
	res.set("collector.speed_check_us", mean(check), "us")
}

// Shapes of the API's JSON answers the probes compare.
type carAnswer struct {
	Found  bool    `json:"found"`
	Reader uint32  `json:"reader"`
	SeenNS int64   `json:"seen_ns"`
	FreqHz float64 `json:"freq_hz"`
	Spot   *int    `json:"spot"`
}

type speedAnswer struct {
	SpeedMPS  float64 `json:"speed_mps"`
	OverLimit bool    `json:"over_limit"`
	From      uint32  `json:"from"`
	To        uint32  `json:"to"`
	AtNS      int64   `json:"at_ns"`
	DecodedID string  `json:"decoded_id"`
}

type spotAnswer struct {
	Occupied bool   `json:"occupied"`
	ID       string `json:"id"`
}

// checkProbes asks the API the probe set over HTTP and checks each
// answer against the same question put directly to the cluster and the
// services.
func checkProbes(res *result, client *http.Client, baseURL string, q *queryTier, probes []queryKey) {
	for _, p := range probes {
		resp, err := client.Get(baseURL + p.path)
		if err != nil {
			res.check(false, "probe %s: %v", p.path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			res.check(false, "probe %s: %v", p.path, err)
			continue
		}
		status := resp.StatusCode
		switch p.kind {
		case carKey:
			var got carAnswer
			err = json.Unmarshal(body, &got)
			sgt, ok := q.cl.FindCar(p.car)
			want := carAnswer{Found: ok}
			if ok {
				want.Reader, want.SeenNS, want.FreqHz = sgt.ReaderID, sgt.Seen.UnixNano(), sgt.FreqHz
			}
			if spot, ok := q.parking.FindCar(p.car); ok {
				want.Found, want.Spot = true, &spot
			}
			wantStatus := http.StatusNotFound
			if want.Found {
				wantStatus = http.StatusOK
			}
			res.check(err == nil && status == wantStatus && sameCar(got, want),
				"probe %s: HTTP %d %+v, direct %d %+v", p.path, status, got, wantStatus, want)
		case speedKey:
			v, over, cerr := q.speed.Check(p.freq, queryTol, queryMaxAge, time.Now())
			if cerr != nil {
				res.check(status == http.StatusNotFound, "probe %s: HTTP %d, direct error %v", p.path, status, cerr)
				continue
			}
			var got speedAnswer
			err = json.Unmarshal(body, &got)
			want := speedAnswer{SpeedMPS: v.SpeedMPS, OverLimit: over, From: v.From, To: v.To, AtNS: v.At.UnixNano()}
			if v.DecodedID != 0 {
				want.DecodedID = fmt.Sprintf("%#x", v.DecodedID)
			}
			res.check(err == nil && status == http.StatusOK && got == want,
				"probe %s: HTTP %d %+v, direct %+v", p.path, status, got, want)
		case spotKey:
			var got spotAnswer
			err = json.Unmarshal(body, &got)
			id, ok := q.parking.Occupied(p.spot)
			want := spotAnswer{Occupied: ok}
			if ok {
				want.ID = fmt.Sprintf("%#x", id)
			}
			res.check(err == nil && status == http.StatusOK && got == want,
				"probe %s: HTTP %d %+v, direct %+v", p.path, status, got, want)
		}
	}
}

func sameCar(a, b carAnswer) bool {
	if (a.Spot == nil) != (b.Spot == nil) || (a.Spot != nil && *a.Spot != *b.Spot) {
		return false
	}
	a.Spot, b.Spot = nil, nil
	return a == b
}
