package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/telemetry"
)

const (
	ingestPartitions = 2
	// ingestTemplates is how many distinct spike sets each reader
	// cycles through, epoch by epoch.
	ingestTemplates = 16
	// landTimeout bounds one wait for a batch to become queryable.
	landTimeout = 10 * time.Second
)

// trafficBase stamps synthetic reports that have no wall-clock meaning.
var trafficBase = time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)

func discardLog(string, ...any) {}

// uplink is one load connection of the ingest workload: the readers
// homed on one partition, one report object per reader (re-stamped
// each epoch; the collector keeps its own decoded copies) and the
// spike sets they cycle through.
type uplink struct {
	client  *collector.Client
	addr    string
	reports []*telemetry.Report
	tmpl    [][][]telemetry.SpikeRecord
	// side receives the same batches by a direct Store.AddBatch in the
	// traced run, to time store ingest without the network.
	side *collector.Store
	lats []float64 // batch landing times, ms
	err  error
}

// ingestTier is the system under test: a 2-partition cluster with every
// reader registered and one uplink per partition.
type ingestTier struct {
	cl  *cluster.Cluster
	ups []*uplink
}

// startIngestTier is the workload's set-up: cluster start, reader
// registration and the uplink dials.
func startIngestTier(ids []uint32, keep int) (*ingestTier, error) {
	cl, err := cluster.New(cluster.Config{Partitions: ingestPartitions, Keep: keep, Logf: discardLog})
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		cl.Register(id, cellOf(id))
	}
	t := &ingestTier{cl: cl}
	for p := 0; p < ingestPartitions; p++ {
		addr := cl.Partition(p).Addr()
		c, err := collector.Dial(addr, 5*time.Second)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.ups = append(t.ups, &uplink{client: c, addr: addr})
	}
	return t, nil
}

func (t *ingestTier) stop() {
	for _, u := range t.ups {
		u.client.Close()
	}
	t.cl.Stop()
}

// runIngest sends seeded synthetic reports for IngestReaders readers in
// batch frames over one uplink per partition, closed loop: each uplink
// sends a batch, then waits on the cluster's high-water barrier until
// the batch is queryable. The run is a series of rounds, each on a
// fresh tier carrying IngestEpochs epochs of every reader, so the
// state a round builds, and with it memory, does not depend on how
// fast earlier rounds went. Every round's build is a set-up sample and
// every round after the warm-up a throughput window.
func runIngest(seed int64, d time.Duration, traced bool, sz sizes) (*result, error) {
	res := newResult()
	ids := readerIDs(sz.IngestReaders)
	// Inputs, from the seed alone: each reader's spike sets, in id order.
	rng := rand.New(rand.NewSource(seed))
	fl := newFleet(rng, sz.Fleet)
	tmpl := make(map[uint32][][]telemetry.SpikeRecord, len(ids))
	for _, id := range ids {
		sets := make([][]telemetry.SpikeRecord, ingestTemplates)
		for i := range sets {
			sets[i] = fl.spikes(rng)
		}
		tmpl[id] = sets
	}

	var (
		setups, lats []float64
		wins         []window
		tracers      = make([]*tracer, ingestPartitions)
		bytes        atomic.Int64
		reports      int64
	)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < d; round++ {
		warm := time.Since(start) < sz.Warmup
		if traced && !warm && tracers[0] == nil {
			for i := range tracers {
				tracers[i] = newTracer(time.Now())
			}
		}
		t0 := time.Now()
		tier, err := startIngestTier(ids, sz.IngestKeep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, id := range ids {
			u := tier.ups[tier.cl.HomeOf(id)]
			u.reports = append(u.reports, &telemetry.Report{ReaderID: id})
			u.tmpl = append(u.tmpl, tmpl[id])
		}
		if traced {
			for _, u := range tier.ups {
				u.side = collector.NewShardedStore(sz.IngestKeep, 0)
			}
		}
		c0, w0 := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for i, u := range tier.ups {
			wg.Add(1)
			go func(u *uplink, t *tracer) {
				defer wg.Done()
				u.err = u.run(tier.cl, sz.IngestBatch, sz.IngestEpochs, &bytes, t)
			}(u, tracers[i])
		}
		wg.Wait()
		wall, cpu := time.Since(w0), cpuTime()-c0

		n := 0
		last := make(map[uint32]uint32, len(ids))
		for _, u := range tier.ups {
			res.check(u.err == nil, "uplink %s: %v", u.addr, u.err)
			for _, r := range u.reports {
				last[r.ReaderID] = r.Seq
				n += int(r.Seq)
			}
			if !warm {
				lats = append(lats, u.lats...)
			}
		}
		res.attempted += n
		res.failed += checkLanded(res, tier.cl, last, 0)
		tier.stop()
		if !warm {
			wins = append(wins, window{ops: int64(n), wall: wall, cpu: cpu})
			reports += int64(n)
		}
		runtime.GC() // the next round starts from the same heap
	}
	if traced {
		setIngestLayers(res, tracers, reports, bytes.Load(), lats)
		return res, nil
	}
	res.set("setup_s", median(setups), "s")
	opsPerS, cpuPerOp := windowRates(wins)
	res.set("ops_per_s", opsPerS, "1/s")
	res.set("cpu_ms_per_op", cpuPerOp, "ms")
	res.set("latency_ms_p50", percentile(lats, 0.50), "ms")
	res.set("latency_ms_p99", percentile(lats, 0.99), "ms")
	res.set("max_rss_mb", maxRSSMB(), "MiB")
	res.note("ingest: %d timed rounds, %d reports in %d batches of up to %d over %d uplinks to %d partitions",
		len(wins), reports, len(lats), sz.IngestBatch, ingestPartitions, ingestPartitions)
	return res, nil
}

// run is one uplink's closed loop over epochs 1..epochs, batch by batch
// over its readers. The readers of a batch each get the epoch as their
// sequence number.
func (u *uplink) run(cl *cluster.Cluster, batch, epochs int, bytes *atomic.Int64, t *tracer) error {
	want := make(map[uint32]uint32, batch)
	for epoch := 1; epoch <= epochs; epoch++ {
		for b := 0; b < len(u.reports); b += batch {
			rs := u.reports[b:min(b+batch, len(u.reports))]
			clear(want)
			for i, r := range rs {
				r.Seq = uint32(epoch)
				r.Timestamp = epochTime(trafficBase, epoch)
				r.Spikes = u.tmpl[b+i][epoch%ingestTemplates]
				want[r.ReaderID] = r.Seq
			}
			sp := t.begin("cluster.route")
			for _, r := range rs {
				if a := cl.AddrFor(r.ReaderID); a != u.addr {
					t.end(sp)
					return fmt.Errorf("reader %d routes to %s, not this uplink", r.ReaderID, a)
				}
			}
			t.end(sp)
			if t != nil {
				if err := u.traceCodec(t, rs, bytes); err != nil {
					return err
				}
			}
			t0 := time.Now()
			sp = t.begin("collector.send")
			err := u.client.SendBatch(rs)
			t.end(sp)
			if err != nil {
				return err
			}
			sp = t.begin("collector.land_wait")
			err = cl.WaitHighWater(want, landTimeout)
			t.end(sp)
			if err != nil {
				return err
			}
			u.lats = append(u.lats, ms(time.Since(t0)))
		}
	}
	return nil
}

// traceCodec times the telemetry encoding of a batch and a direct store
// ingest of the decoded copies, beside the real send.
func (u *uplink) traceCodec(t *tracer, rs []*telemetry.Report, bytes *atomic.Int64) error {
	sp := t.begin("telemetry.marshal")
	payload, err := telemetry.MarshalBatch(rs)
	t.end(sp)
	if err != nil {
		return err
	}
	bytes.Add(int64(len(payload)))
	sp = t.begin("telemetry.unmarshal")
	copies, err := telemetry.UnmarshalBatch(payload)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("collector.store_ingest")
	u.side.AddBatch(copies)
	t.end(sp)
	return nil
}

// checkLanded checks that every report sent landed exactly once:
// reader id's distinct count is last[id] − skip (its first skip seqs
// were sent before the checked traffic), nothing was deduplicated,
// and the reader's latest report is seq last[id]. It returns how many
// checked reports did not land.
func checkLanded(res *result, cl *cluster.Cluster, last map[uint32]uint32, skip int) (missing int) {
	for id, seq := range last {
		sent, got := int(seq)-skip, cl.SeqsReceived(id)-skip
		missing += max(sent-got, 0)
		res.check(got == sent, "reader %d: %d reports landed, %d sent", id, got, sent)
		res.check(cl.Deduped(id) == 0, "reader %d: %d duplicates", id, cl.Deduped(id))
		if seq > 0 {
			latest := cl.Partition(cl.HomeOf(id)).Store.Latest(id)
			res.check(latest != nil && latest.Seq == seq, "reader %d: latest report is not seq %d", id, seq)
		}
	}
	return missing
}

// setIngestLayers turns the traced ingest run into per-layer metrics:
// codec, routing and store ingest per report, send and landing wait per
// batch.
func setIngestLayers(res *result, tracers []*tracer, reports, bytes int64, lats []float64) {
	lt := newLayerTotals()
	for _, t := range tracers {
		lt.add(t.spans)
	}
	if reports == 0 {
		res.check(false, "no report was sent")
		return
	}
	n := float64(reports)
	batches := float64(lt.count["collector.send"])
	res.set("cluster.route_ns", float64(lt.self["cluster.route"].Nanoseconds())/n, "ns")
	res.set("telemetry.marshal_us", us(lt.self["telemetry.marshal"])/n, "us")
	res.set("telemetry.unmarshal_us", us(lt.self["telemetry.unmarshal"])/n, "us")
	res.set("telemetry.bytes", float64(bytes)/n, "B")
	res.set("collector.store_ingest_us", us(lt.self["collector.store_ingest"])/n, "us")
	res.set("collector.send_us", us(lt.self["collector.send"])/batches, "us")
	res.set("collector.land_wait_us", us(lt.self["collector.land_wait"])/batches, "us")
	res.note("ingest trace: %d reports in %d batches; landing p50 %.3f ms", reports, int(batches), percentile(lats, 0.5))
}
