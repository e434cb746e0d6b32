package city

import (
	"reflect"
	"testing"
	"time"
)

// assertResultsEqual compares everything a Result summarizes — the
// per-intersection statistics, decoded-id set, parked-spot map, and
// run totals. Store internals and wall-clock are deliberately not
// compared; cross-reader arrival order is allowed to differ.
func assertResultsEqual(t *testing.T, a, b *Result, what string) {
	t.Helper()
	if a.Epochs != b.Epochs || a.TotalReports != b.TotalReports {
		t.Errorf("%s: run sizes diverge: %d/%d reports, %d/%d epochs",
			what, a.TotalReports, b.TotalReports, a.Epochs, b.Epochs)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("%s: per-intersection stats diverge:\n%+v\n%+v",
			what, a.PerIntersection, b.PerIntersection)
	}
	if !reflect.DeepEqual(a.Decoded, b.Decoded) {
		t.Errorf("%s: decoded sets diverge: %v vs %v", what, a.Decoded, b.Decoded)
	}
	if !reflect.DeepEqual(a.ParkedSpots, b.ParkedSpots) {
		t.Errorf("%s: parked spots diverge: %v vs %v", what, a.ParkedSpots, b.ParkedSpots)
	}
}

// TestPipelinedMatchesLockstep is the determinism oracle the tentpole
// rests on: the pipelined default and the legacy lockstep barrier must
// produce identical Results for the same seed — decode epochs, parked
// cars, batched uplinks, and deep lookahead included.
func TestPipelinedMatchesLockstep(t *testing.T) {
	cfgs := map[string]Config{
		"plain": {
			Readers: 3, Vehicles: 24, Duration: 6 * time.Second, Seed: 42,
			DecodeEvery: -1,
		},
		"decode+parked": {
			Readers: 2, Vehicles: 10, Parked: 4, Duration: 6 * time.Second,
			Seed: 7, DecodeEvery: 2,
		},
		"batched+deep": {
			Readers: 4, Vehicles: 30, Duration: 5 * time.Second, Seed: 3,
			DecodeEvery: -1, Batch: 3, Pipeline: 8, Shards: 2,
		},
	}
	for name, cfg := range cfgs {
		lock := cfg
		lock.Lockstep = true
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s pipelined: %v", name, err)
		}
		b, err := Run(lock)
		if err != nil {
			t.Fatalf("%s lockstep: %v", name, err)
		}
		assertResultsEqual(t, a, b, name)
	}
}

// TestPipelinedSkewedReaderMatchesLockstep drives the pipelined mode
// with one deliberately slow reader (injected per-measure delay), so
// fast readers run several epochs ahead and their batches land out of
// order relative to the straggler's. The store must key everything by
// (ReaderID, Seq) — per-reader high-water marks complete, per-reader
// history intact — and the Result must still match lockstep exactly.
// Run under -race this is also the no-shared-mutable-state proof for
// readers executing different epochs concurrently.
func TestPipelinedSkewedReaderMatchesLockstep(t *testing.T) {
	cfg := Config{
		Readers: 3, Vehicles: 24, Duration: 5 * time.Second, Seed: 42,
		DecodeEvery: 2, Batch: 2, Pipeline: 6,
	}
	skewed := cfg
	skewed.measureDelay = func(readerID uint32, epoch int) time.Duration {
		if readerID == 2 {
			return 3 * time.Millisecond
		}
		return 0
	}
	a, err := Run(skewed)
	if err != nil {
		t.Fatal(err)
	}
	lock := cfg
	lock.Lockstep = true
	b, err := Run(lock)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, a, b, "skewed")

	epochs := a.Epochs
	for id := uint32(1); id <= 3; id++ {
		if got := a.Cluster.Partition(0).Store.HighWater(id); got != uint32(epochs) {
			t.Errorf("reader %d high-water %d, want %d", id, got, epochs)
		}
		_, counts := a.Cluster.Partition(0).Store.CountSeries(id, a.Start, a.End)
		if len(counts) != epochs {
			t.Errorf("reader %d retained %d reports, want %d", id, len(counts), epochs)
		}
	}
}

// TestStepWrapLargeStep: a step that carries a vehicle more than one
// lap past the end of its street must still wrap into [0, length) —
// the single-subtraction wrap left s out of range and broke
// vehiclePos (regression).
func TestStepWrapLargeStep(t *testing.T) {
	s, err := NewSim(Config{Readers: 1, Vehicles: 50, Duration: time.Minute, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// One intersection ⇒ streets are 2·margin = 120 m; at 8–14 m/s a
	// 60 s step is 4–7 laps.
	s.step(60 * time.Second)
	for i, v := range s.vehicles {
		l := s.streets[v.street].length
		if v.s < 0 || v.s >= l {
			t.Fatalf("vehicle %d at s=%g outside [0,%g) after a multi-lap step", i, v.s, l)
		}
	}
	// And the claim geometry still works on top of wrapped positions.
	if claims := s.claim(); len(claims) != 1 {
		t.Fatalf("claims = %d sets", len(claims))
	}
}

// TestDrainTimeoutScales: the end-of-run ingest deadline must grow
// with the number of reports in flight instead of being a constant a
// city-day run can outlive (regression for the hard-coded 10 s wait).
func TestDrainTimeoutScales(t *testing.T) {
	if got := drainTimeout(1, 1); got < 10*time.Second {
		t.Errorf("floor = %v, want ≥ 10s", got)
	}
	smoke := drainTimeout(30, 4)
	cityDay := drainTimeout(86400, 64)
	if cityDay <= smoke {
		t.Errorf("city-day timeout %v not above smoke-test timeout %v", cityDay, smoke)
	}
	if cityDay < 10*time.Minute {
		t.Errorf("city-day timeout %v leaves no headroom for 5.5M reports", cityDay)
	}
}
