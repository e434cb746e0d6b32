package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// defaultSeed is the seed runs use unless told otherwise;
	// heldOutSeed is the one kept back to confirm a claimed gain.
	defaultSeed = 1
	heldOutSeed = 7
)

// sizes holds every workload size. defaultSizes is what the benchmark
// runs; the tests shrink it.
type sizes struct {
	// Warmup is left out of every workload's timings; Window is the
	// length of one timed window of the query workload.
	Warmup, Window time.Duration
	// SetupRepeats is how many times the query workload builds its
	// system to time set-up (city and ingest build once per run or
	// round); the median is reported.
	SetupRepeats int
	// Fleet is how many cars the ingest and query reports sight.
	Fleet int

	// The reference city: readers, vehicles and simulated time per run.
	CityReaders, CityVehicles int
	CityDuration              time.Duration

	// Ingest: reader ids, epochs per round, reports per batch frame and
	// per-reader retention of each partition's store.
	IngestReaders, IngestEpochs, IngestBatch, IngestKeep int

	// Query: prefilled readers × epochs, parking spots, and the
	// background writer's batch size and period.
	QueryReaders, QueryEpochs, QuerySpots int
	WriterBatch                           int
	WriterPeriod                          time.Duration
}

func defaultSizes() sizes {
	return sizes{
		Warmup:        time.Second,
		Window:        time.Second,
		SetupRepeats:  5,
		Fleet:         4096,
		CityReaders:   8,
		CityVehicles:  200,
		CityDuration:  30 * time.Second,
		IngestReaders: 256,
		IngestEpochs:  200,
		IngestBatch:   32,
		IngestKeep:    256,
		QueryReaders:  256,
		QueryEpochs:   200,
		QuerySpots:    256,
		WriterBatch:   8,
		WriterPeriod:  10 * time.Millisecond,
	}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs,
// which it sorts in place; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// chunkedPercentile cuts xs, in the order taken, into chunks of n
// samples (the remainder joins the last chunk, and fewer than n make
// one chunk) and returns the median over chunks of each chunk's
// p-quantile. A burst of load from other tenants of the host that
// covers a few chunks then moves it as little as it moves a median,
// where a quantile over the whole run takes the burst's slowest
// samples as its own. n = 1000 leaves ten samples beyond a p99.
func chunkedPercentile(xs []float64, n int, p float64) float64 {
	if len(xs) < n {
		return percentile(append([]float64(nil), xs...), p)
	}
	var qs []float64
	for i := 0; i+n <= len(xs); i += n {
		end := i + n
		if len(xs)-end < n {
			end = len(xs)
		}
		qs = append(qs, percentile(append([]float64(nil), xs[i:end]...), p))
	}
	return median(qs)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is one timed slice of a run: operations completed, wall time
// and process CPU time spent.
type window struct {
	ops  int64
	wall time.Duration
	cpu  time.Duration
}

// windowRates returns the medians over windows of operations per wall
// second and of CPU milliseconds per operation. Windows with no
// completed operation count as zero throughput and are left out of the
// CPU figure.
func windowRates(ws []window) (opsPerS, cpuMSPerOp float64) {
	var rates, cpus []float64
	for _, w := range ws {
		rates = append(rates, float64(w.ops)/w.wall.Seconds())
		if w.ops > 0 {
			cpus = append(cpus, ms(w.cpu)/float64(w.ops))
		}
	}
	return median(rates), median(cpus)
}

// sampleWindows cuts the time until stop closes into windows of length
// w, after a warmup, reading the completed-operation counter at each
// boundary. It runs on the caller's goroutine beside the load
// goroutines, so it adds no load of its own.
func sampleWindows(ops *atomic.Int64, warmup, w time.Duration, stop <-chan struct{}) []window {
	select {
	case <-time.After(warmup):
	case <-stop:
		return nil
	}
	var out []window
	t0, c0, n0 := time.Now(), cpuTime(), ops.Load()
	tick := time.NewTicker(w)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t1, c1, n1 := time.Now(), cpuTime(), ops.Load()
			out = append(out, window{ops: n1 - n0, wall: t1.Sub(t0), cpu: c1 - c0})
			t0, c0, n0 = t1, c1, n1
		case <-stop:
			return out
		}
	}
}
