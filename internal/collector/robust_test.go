package collector

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"caraoke/internal/faults"
	"caraoke/internal/telemetry"
)

func robustReport(readerID, seq uint32) *telemetry.Report {
	return &telemetry.Report{
		ReaderID:  readerID,
		Seq:       seq,
		Timestamp: at(int(seq) % 60),
		Count:     1,
		Spikes:    []telemetry.SpikeRecord{{FreqHz: 1e3, DecodedID: uint64(readerID)<<8 | uint64(seq)}},
	}
}

// TestStoreDedupesRedelivery: a redelivered (ReaderID, Seq) pair must
// land exactly once — ingest is idempotent — while the copies counter
// still sees every arrival, so chaos runs can account duplicates.
func TestStoreDedupesRedelivery(t *testing.T) {
	s := NewStore(8)
	r := robustReport(7, 3)
	s.Add(r)
	s.Add(r)                           // single-frame redelivery
	s.AddBatch([]*telemetry.Report{r}) // batched redelivery
	s.Add(robustReport(7, 4))          // a fresh seq still lands
	if got := s.Ingested(); got != 2 {
		t.Errorf("Ingested = %d, want 2 distinct reports", got)
	}
	if got := s.TotalReports(); got != 2 {
		t.Errorf("TotalReports = %d, want 2", got)
	}
	if got := s.Deduped(7); got != 2 {
		t.Errorf("Deduped(7) = %d, want 2", got)
	}
	if got := s.DedupedTotal(); got != 2 {
		t.Errorf("DedupedTotal = %d, want 2", got)
	}
	if got := s.SeqsReceived(7); got != 2 {
		t.Errorf("SeqsReceived(7) = %d, want 2", got)
	}
	// Seq 0 marks a legacy sender with no sequence numbering: it must
	// bypass dedupe entirely, or two legacy reports would alias.
	legacy := robustReport(9, 0)
	s.Add(legacy)
	s.Add(legacy)
	if got := s.SeqsReceived(9); got != 2 {
		t.Errorf("SeqsReceived(9) = %d, want 2 (seq 0 bypasses dedupe)", got)
	}
	if got := s.Deduped(9); got != 0 {
		t.Errorf("Deduped(9) = %d, want 0", got)
	}
}

// TestWaitDeliveredLossBudget: the gap-tolerant drain must release on
// want−budget distinct reports, hold out for the full want at budget 0,
// and name the lagging reader with its budget in the timeout error.
func TestWaitDeliveredLossBudget(t *testing.T) {
	s := NewStore(8)
	for _, seq := range []uint32{1, 2, 4, 5} { // seq 3 lost on the wire
		s.Add(robustReport(1, seq))
	}
	want := map[uint32]uint32{1: 5}
	if err := s.WaitDelivered(want, map[uint32]int{1: 1}, time.Second); err != nil {
		t.Fatalf("WaitDelivered with budget 1: %v", err)
	}
	err := s.WaitDelivered(want, nil, 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitDelivered with zero budget returned nil despite a lost report")
	}
	for _, frag := range []string{"reader 1", "delivered 4 of 5", "loss budget 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	if got := s.MissingSeqs(1, 5); len(got) != 1 || got[0] != 3 {
		t.Errorf("MissingSeqs = %v, want [3]", got)
	}
	// The barrier must release the moment the straggler lands, not poll.
	done := make(chan error, 1)
	go func() { done <- s.WaitDelivered(want, nil, 5*time.Second) }()
	s.Add(robustReport(1, 3))
	if err := <-done; err != nil {
		t.Fatalf("WaitDelivered after straggler: %v", err)
	}
}

// TestWaitCopies: the copies barrier counts duplicates too — it is how
// a chaos run waits for in-flight redeliveries to settle before reading
// the dedupe counters.
func TestWaitCopies(t *testing.T) {
	s := NewStore(8)
	r := robustReport(2, 1)
	s.Add(r)
	if err := s.WaitCopies(map[uint32]int{2: 1}, time.Second); err != nil {
		t.Fatal(err)
	}
	err := s.WaitCopies(map[uint32]int{2: 2}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "reader 2 at 1 of 2 copies") {
		t.Fatalf("WaitCopies error = %v, want in-flight copies named", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitCopies(map[uint32]int{2: 2}, 5*time.Second) }()
	s.Add(r) // duplicate arrival satisfies the copies barrier…
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Ingested() != 1 || s.Deduped(2) != 1 {
		t.Errorf("ingested %d deduped %d, want 1 and 1", s.Ingested(), s.Deduped(2))
	}
}

// TestClientReconnectRedelivers is the at-least-once integration test:
// a fault injector kills the uplink on every 3rd frame — after the
// frame reached the collector — and the client must redial and rewrite
// each killed frame, producing exactly the duplicates the store
// dedupes. Every count below is deterministic: kills depend only on
// frame order.
func TestClientReconnectRedelivers(t *testing.T) {
	store := NewStore(8)
	srv := NewServer(store)
	srv.Logf = t.Logf
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	inj := faults.New(faults.Config{Seed: 11, KillEvery: 3})
	dial := inj.WrapDial("uplink", func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr.String(), time.Second)
	})
	c, err := DialFunc(dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 4, BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond}

	const n = 10
	for seq := uint32(1); seq <= n; seq++ {
		if err := c.Send(robustReport(1, seq)); err != nil {
			t.Fatalf("send seq %d: %v", seq, err)
		}
	}
	// Frames per conn: 3rd killed, so conns carry seqs (1 2 3!) (3 4 5!)
	// (5 6 7!) (7 8 9!) (9 10): 4 kills, 4 redelivered duplicates.
	if err := store.WaitDelivered(map[uint32]uint32{1: n}, nil, 5*time.Second); err != nil {
		t.Fatalf("WaitDelivered: %v", err)
	}
	if err := store.WaitCopies(map[uint32]int{1: n + 4}, 5*time.Second); err != nil {
		t.Fatalf("WaitCopies: %v", err)
	}
	st := c.Stats()
	if st.Delivered != n || st.Redelivered != 4 || st.Reconnects != 4 || st.Dropped != 0 {
		t.Errorf("client stats = %+v, want 10 delivered, 4 redelivered, 4 reconnects, 0 dropped", st)
	}
	if got := store.Deduped(1); got != 4 {
		t.Errorf("Deduped = %d, want 4", got)
	}
	if got := store.Ingested(); got != n {
		t.Errorf("Ingested = %d, want %d (dedupe must absorb redelivery)", got, n)
	}
	if fs := inj.Stats("uplink"); fs.Conns != 5 || fs.Kills != 4 {
		t.Errorf("injector stats = %+v, want 5 conns, 4 kills", fs)
	}
	if c.Degraded() {
		t.Error("client degraded despite successful redelivery")
	}
}

// TestClientDegradesPastBudget: when every redial fails, the client
// must give up after its retry budget, surface ErrUplinkDegraded,
// count the loss, and fail later sends immediately (no retry storm
// against a dead collector).
func TestClientDegradesPastBudget(t *testing.T) {
	deadConn := func() (net.Conn, error) {
		client, server := net.Pipe()
		server.Close() // every write fails: io.ErrClosedPipe
		return client, nil
	}
	c, err := DialFunc(deadConn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{Attempts: 3, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond}

	err = c.Send(robustReport(1, 1))
	if !errors.Is(err, ErrUplinkDegraded) {
		t.Fatalf("send over dead uplink = %v, want ErrUplinkDegraded", err)
	}
	if !c.Degraded() {
		t.Error("client not marked degraded")
	}
	start := time.Now()
	if err := c.Send(robustReport(1, 2)); !errors.Is(err, ErrUplinkDegraded) {
		t.Fatalf("degraded send = %v, want immediate ErrUplinkDegraded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("degraded send took %v; must fail fast, not retry", elapsed)
	}
	st := c.Stats()
	if st.Dropped != 2 || st.Delivered != 0 || st.Reconnects != 3 {
		t.Errorf("stats = %+v, want 2 dropped, 0 delivered, 3 reconnects", st)
	}
	// A degraded Flush clears the queue (the drops are accounted) rather
	// than preserving it forever against a collector that is gone.
	c.Queue(robustReport(1, 3))
	if err := c.Flush(); !errors.Is(err, ErrUplinkDegraded) {
		t.Fatalf("degraded Flush = %v", err)
	}
	if c.Pending() != 0 {
		t.Errorf("degraded Flush left %d pending", c.Pending())
	}
	if got := c.Stats().Dropped; got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
}

// TestClientWithoutRedialKeepsLegacyContract: no Redial hook, no retry
// loop — the raw error comes back on the first failure and Flush
// preserves the queue for a caller-driven retry, exactly as before.
func TestClientWithoutRedialKeepsLegacyContract(t *testing.T) {
	client, server := net.Pipe()
	server.Close()
	c := &Client{conn: client}
	err := c.Send(robustReport(1, 1))
	if err == nil || errors.Is(err, ErrUplinkDegraded) {
		t.Fatalf("legacy send error = %v, want the raw write error", err)
	}
	if c.Degraded() {
		t.Error("legacy client must never degrade")
	}
	c.Queue(robustReport(1, 2))
	if err := c.Flush(); err == nil {
		t.Fatal("legacy Flush over dead conn returned nil")
	}
	if c.Pending() != 1 {
		t.Errorf("legacy Flush dropped the queue: %d pending, want 1", c.Pending())
	}
}

// TestCloseRecordsDroppedQueue is the regression test for the silent
// Close drop: reports queued but never flushed are lost by contract
// (Close never blocks on the network), and the loss must show up in
// Stats().Dropped instead of vanishing.
func TestCloseRecordsDroppedQueue(t *testing.T) {
	client, _ := net.Pipe()
	c := &Client{conn: client}
	c.Queue(robustReport(1, 1))
	c.Queue(robustReport(1, 2))
	c.Queue(robustReport(1, 3))
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := c.Stats().Dropped; got != 3 {
		t.Errorf("Stats().Dropped = %d, want the 3 unflushed reports", got)
	}
	if c.Pending() != 0 {
		t.Errorf("Close left %d pending", c.Pending())
	}
}

// TestServerIdleTimeoutReapsHalfOpen: a connection that stops sending
// frames — a reader killed without a FIN — must be closed by the
// read-side idle deadline instead of pinning its serve goroutine. The
// frame it delivered before dying stays ingested.
func TestServerIdleTimeoutReapsHalfOpen(t *testing.T) {
	store := NewStore(8)
	srv := NewServer(store)
	srv.Logf = t.Logf
	srv.IdleTimeout = 100 * time.Millisecond
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	conn, err := net.DialTimeout("tcp", addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := telemetry.WriteFrame(conn, robustReport(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: 1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// …then go silent. The server must close its side; our read unblocks
	// with EOF/RST well before the test deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read returned data from a server that should have gone quiet")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the idle connection open past the idle deadline")
	}
	if got := store.Ingested(); got != 1 {
		t.Errorf("Ingested = %d, want the pre-idle report kept", got)
	}
}
