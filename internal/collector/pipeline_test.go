package collector

import (
	"strings"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

// TestFlushUnpinsReports is the regression test for the Flush leak:
// re-slicing c.pending[:0] without clearing kept every flushed *Report
// pinned in the backing array. Flush must nil the flushed slots so the
// reports (and their spike/channel payloads) become collectable.
func TestFlushUnpinsReports(t *testing.T) {
	store := NewStore(16)
	srv := NewServer(store)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 5
	for i := 0; i < n; i++ {
		c.Queue(&telemetry.Report{ReaderID: 1, Seq: uint32(i + 1), Timestamp: time.Now()})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after Flush", c.Pending())
	}
	if cap(c.pending) < n {
		t.Fatalf("backing array shrank: cap = %d", cap(c.pending))
	}
	for i, r := range c.pending[:n] {
		if r != nil {
			t.Errorf("pending[%d] still pins flushed report seq %d", i, r.Seq)
		}
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: n}, 5*time.Second); err != nil {
		t.Fatalf("flushed batch never ingested: %v", err)
	}
}

// TestStoreOutOfOrderSeq: a pipelined reader's batches can arrive out
// of order; the store must key history by Seq so CountSeries and
// Latest see the epoch order the reader measured, not arrival order.
func TestStoreOutOfOrderSeq(t *testing.T) {
	s := NewStore(16)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	at := func(seq uint32) *telemetry.Report {
		return &telemetry.Report{
			ReaderID: 7, Seq: seq, Count: int(seq),
			Timestamp: base.Add(time.Duration(seq) * time.Second),
		}
	}
	s.Add(at(1))
	s.Add(at(2))
	s.Add(at(5))                                  // reader raced ahead...
	s.AddBatch([]*telemetry.Report{at(3), at(4)}) // ...then the straggler batch lands

	_, counts := s.CountSeries(7, base, base.Add(time.Minute))
	want := []int{1, 2, 3, 4, 5}
	if len(counts) != len(want) {
		t.Fatalf("CountSeries returned %d points, want %d", len(counts), len(want))
	}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v (seq order, not arrival order)", counts, want)
		}
	}
	if got := s.Latest(7); got.Seq != 5 {
		t.Errorf("Latest.Seq = %d, want 5", got.Seq)
	}
	if got := s.HighWater(7); got != 5 {
		t.Errorf("HighWater = %d, want 5", got)
	}
}

// TestWaitHighWaterSlowIngest: the per-reader barrier must tolerate an
// ingest that trickles in (the whole point of an event-driven barrier
// over a fixed sleep), and when a reader genuinely stalls the
// error must name the laggard with its progress.
func TestWaitHighWaterSlowIngest(t *testing.T) {
	s := NewStore(64)
	const perReader = 20
	go func() {
		for seq := uint32(1); seq <= perReader; seq++ {
			time.Sleep(2 * time.Millisecond)
			s.Add(&telemetry.Report{ReaderID: 1, Seq: seq, Timestamp: time.Now()})
			s.Add(&telemetry.Report{ReaderID: 2, Seq: seq, Timestamp: time.Now()})
		}
	}()
	want := map[uint32]uint32{1: perReader, 2: perReader}
	if err := s.WaitHighWater(want, 10*time.Second); err != nil {
		t.Fatalf("slow ingest should still complete: %v", err)
	}

	// Reader 3 never reports past seq 2; the timeout error must say so.
	s.Add(&telemetry.Report{ReaderID: 3, Seq: 1, Timestamp: time.Now()})
	s.Add(&telemetry.Report{ReaderID: 3, Seq: 2, Timestamp: time.Now()})
	err := s.WaitHighWater(map[uint32]uint32{1: perReader, 3: 9}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("expected timeout for stalled reader 3")
	}
	if msg := err.Error(); !strings.Contains(msg, "reader 3") || strings.Contains(msg, "reader 1") {
		t.Errorf("error should name only the laggard: %q", msg)
	}
}

// TestWaitHighWaterSurplus: one reader overshooting its mark must not
// mask another reader that has not reached its own — the barrier is
// per-reader, not a global count.
func TestWaitHighWaterSurplus(t *testing.T) {
	s := NewStore(64)
	for seq := uint32(1); seq <= 10; seq++ {
		s.Add(&telemetry.Report{ReaderID: 1, Seq: seq, Timestamp: time.Now()})
	}
	// Global ingested count is 10 ≥ 4+4, but reader 2 has nothing.
	err := s.WaitHighWater(map[uint32]uint32{1: 4, 2: 4}, 50*time.Millisecond)
	if err == nil {
		t.Fatal("reader 1's surplus must not satisfy reader 2's mark")
	}
	if msg := err.Error(); !strings.Contains(msg, "reader 2") {
		t.Errorf("error should name reader 2: %q", msg)
	}
}
