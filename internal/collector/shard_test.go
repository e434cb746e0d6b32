package collector

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

func shardReport(readerID uint32, seq int) *telemetry.Report {
	return &telemetry.Report{
		ReaderID:  readerID,
		Seq:       uint32(seq),
		Timestamp: at(seq % 60),
		Count:     seq,
		Spikes: []telemetry.SpikeRecord{
			{FreqHz: 1e3 * float64(readerID), DecodedID: uint64(readerID)<<8 | uint64(seq%4)},
		},
	}
}

// TestShardedStoreEquality: every public query must be independent of
// the shard count — the determinism contract the sharding refactor
// keeps. The same report sequence flows into a 1-shard (the old layout)
// and a many-shard store; all read paths must agree.
func TestShardedStoreEquality(t *testing.T) {
	one := NewShardedStore(16, 1)
	many := NewShardedStore(16, 7)
	for seq := 0; seq < 50; seq++ {
		for id := uint32(1); id <= 9; id++ {
			one.Add(shardReport(id, seq))
			many.Add(shardReport(id, seq))
		}
	}
	if a, b := one.Readers(), many.Readers(); !reflect.DeepEqual(a, b) {
		t.Fatalf("Readers diverge: %v vs %v", a, b)
	}
	if a, b := one.TotalReports(), many.TotalReports(); a != b {
		t.Fatalf("TotalReports diverge: %d vs %d", a, b)
	}
	if a, b := one.Ingested(), many.Ingested(); a != b {
		t.Fatalf("Ingested diverge: %d vs %d", a, b)
	}
	for id := uint32(1); id <= 9; id++ {
		if a, b := one.Latest(id), many.Latest(id); a.Seq != b.Seq {
			t.Fatalf("Latest(%d) diverge: %d vs %d", id, a.Seq, b.Seq)
		}
		ta, ca := one.CountSeries(id, at(0), at(59))
		tb, cb := many.CountSeries(id, at(0), at(59))
		if !reflect.DeepEqual(ta, tb) || !reflect.DeepEqual(ca, cb) {
			t.Fatalf("CountSeries(%d) diverge", id)
		}
		sa, oka := one.FindCar(uint64(id) << 8)
		sb, okb := many.FindCar(uint64(id) << 8)
		if oka != okb || sa != sb {
			t.Fatalf("FindCar diverge: %+v/%v vs %+v/%v", sa, oka, sb, okb)
		}
	}
	if a, b := one.SightingsByCFO(3e3, 500), many.SightingsByCFO(3e3, 500); !reflect.DeepEqual(a, b) {
		t.Fatalf("SightingsByCFO diverge: %v vs %v", a, b)
	}
}

// TestFindCarMatchesScan: the secondary index must answer exactly what
// a full history scan answers while the sightings are still retained
// (the pre-index semantics).
func TestFindCarMatchesScan(t *testing.T) {
	s := NewStore(1024)
	for seq := 0; seq < 30; seq++ {
		for id := uint32(1); id <= 5; id++ {
			s.Add(shardReport(id, seq))
		}
	}
	scan := func(want uint64) (CarSighting, bool) {
		var best CarSighting
		found := false
		for _, readerID := range s.Readers() {
			for _, r := range s.historyFor(readerID) {
				for _, sp := range r.Spikes {
					if sp.DecodedID == want && (!found || r.Timestamp.After(best.Seen)) {
						best = CarSighting{ReaderID: readerID, Seen: r.Timestamp, FreqHz: sp.FreqHz}
						found = true
					}
				}
			}
		}
		return best, found
	}
	for id := uint32(1); id <= 5; id++ {
		for tag := uint64(0); tag < 4; tag++ {
			want := uint64(id)<<8 | tag
			gotS, gotOK := s.FindCar(want)
			wantS, wantOK := scan(want)
			if gotOK != wantOK || gotS != wantS {
				t.Fatalf("FindCar(%#x) = %+v/%v, scan says %+v/%v", want, gotS, gotOK, wantS, wantOK)
			}
		}
	}
	if _, ok := s.FindCar(0xDEAD); ok {
		t.Error("unknown id found")
	}
}

// TestShardedStoreConcurrent is the -race stress for the sharded
// layout: many writers spraying reports across reader ids on every
// shard while service queries and the ingest barrier run against them.
func TestShardedStoreConcurrent(t *testing.T) {
	s := NewShardedStore(64, 5)
	const (
		writers   = 8
		perWriter = 300
		readerIDs = 23 // spans every shard of 5 several times over
	)
	// Each reader's final seq mark, walked in the writers' own order:
	// the barrier below runs concurrently with the ingest it waits on.
	want := make(map[uint32]uint32)
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			id, hi := uint32((w*perWriter+i)%readerIDs)+1, uint32(i)
			if i%10 == 0 {
				hi = uint32(i + perWriter)
				i++
			}
			want[id] = max(want[id], hi)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- s.WaitHighWater(want, 30*time.Second)
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := shardReport(uint32((w*perWriter+i)%readerIDs)+1, i)
				if i%10 == 0 {
					// The batch companion takes a seq in a disjoint range:
					// the store dedupes repeated (reader, seq) pairs, and
					// this test stresses concurrency, not redelivery.
					s.AddBatch([]*telemetry.Report{r, shardReport(r.ReaderID, i+perWriter)})
					i++ // AddBatch ingested two
				} else {
					s.Add(r)
				}
			}
		}(w)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Latest(uint32(q + 1))
				s.Readers()
				s.CountSeries(uint32(q+1), at(0), at(59))
				s.FindCar(uint64(q+1)<<8 | 1)
				s.SightingsByCFO(float64(1000*(q+1)), 10)
				s.TotalReports()
				s.Ingested()
			}
		}(q)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("WaitHighWater: %v", err)
	}
	if got := s.Ingested(); got != writers*perWriter {
		t.Errorf("ingested %d, want %d", got, writers*perWriter)
	}
}

// TestWaitIngestedTimesOut: the ingest barrier (Store.WaitHighWater)
// must come back with an error at the deadline when it can never be
// satisfied, not hang, and must return at once when it already is.
func TestWaitIngestedTimesOut(t *testing.T) {
	s := NewStore(8)
	s.Add(shardReport(1, 1))
	start := time.Now()
	err := s.WaitHighWater(map[uint32]uint32{1: 2}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitHighWater returned nil without the mark being reached")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("WaitHighWater took %v to time out", e)
	}
	// Satisfied barriers return immediately even with zero timeout
	// headroom left.
	if err := s.WaitHighWater(map[uint32]uint32{1: 1}, time.Millisecond); err != nil {
		t.Fatalf("satisfied barrier errored: %v", err)
	}
}

// BenchmarkStoreAdd measures ingest throughput under concurrent
// writers at several shard counts — the contention the sharding
// refactor removes. Reader ids are spread so writers hit distinct
// shards when shards exist.
func BenchmarkStoreAdd(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewShardedStore(1024, shards)
			var next sync.Mutex
			id := uint32(0)
			b.RunParallel(func(pb *testing.PB) {
				next.Lock()
				id++
				my := id
				next.Unlock()
				seq := 0
				for pb.Next() {
					s.Add(shardReport(my, seq))
					seq++
				}
			})
		})
	}
}
