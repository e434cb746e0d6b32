package collector

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"caraoke/internal/telemetry"
)

// tempAcceptErr is a retryable accept failure (what EMFILE or an
// aborted handshake surfaces as).
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: transient failure" }
func (tempAcceptErr) Temporary() bool { return true }
func (tempAcceptErr) Timeout() bool   { return false }

// flakyListener injects n temporary accept errors between successful
// accepts from the wrapped listener.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, tempAcceptErr{}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTemporaryErrors: a transient accept failure
// must not kill the ingest path — the loop backs off, retries, and
// later connections still land their reports (regression for the
// accept loop returning on the first error of any kind).
func TestAcceptLoopSurvivesTemporaryErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	ln.failures.Store(3)

	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
	srv.ServeListener(ln)
	defer srv.Stop()

	c, err := Dial(inner.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&telemetry.Report{ReaderID: 3, Seq: 1, Timestamp: at(0)}); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{3: 1}, 5*time.Second); err != nil {
		t.Fatalf("report never ingested after temporary accept errors: %v", err)
	}
	if got := store.Latest(3); got == nil || got.Seq != 1 {
		t.Fatalf("latest = %+v", got)
	}
	if ln.failures.Load() >= 0 {
		t.Fatal("listener never surfaced its temporary errors — test proved nothing")
	}
}

// TestServerIngestsBatchFrames: one connection carrying a mix of
// version-1 and version-2 frames must land every report.
func TestServerIngestsBatchFrames(t *testing.T) {
	store := NewStore(100)
	srv := NewServer(store)
	srv.Logf = t.Logf
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
	if err := c.Send(&telemetry.Report{ReaderID: 1, Seq: 1, Timestamp: at(0)}); err != nil {
		t.Fatal(err)
	}
	for seq := 2; seq <= 5; seq++ {
		c.Queue(&telemetry.Report{ReaderID: 1, Seq: uint32(seq), Timestamp: at(seq)})
	}
	if c.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", c.Pending())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending after flush = %d", c.Pending())
	}
	if err := c.SendBatch([]*telemetry.Report{
		{ReaderID: 2, Seq: 9, Timestamp: at(9)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.WaitHighWater(map[uint32]uint32{1: 5, 2: 9}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := store.Latest(1); got == nil || got.Seq != 5 {
		t.Fatalf("reader 1 latest = %+v", got)
	}
	if got := store.Latest(2); got == nil || got.Seq != 9 {
		t.Fatalf("reader 2 latest = %+v", got)
	}
}

// TestClientWriteDeadline: a peer that never drains must fail the send
// once the socket buffers fill, instead of hanging the reader's epoch
// forever.
func TestClientWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn // held open, never read: the stalled collector
		}
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.WriteTimeout = 100 * time.Millisecond

	// A report big enough that repeated sends must overflow the kernel
	// buffers of an unread connection.
	big := &telemetry.Report{ReaderID: 1, Timestamp: at(0)}
	for i := 0; i < 256; i++ {
		big.Spikes = append(big.Spikes, telemetry.SpikeRecord{
			FreqHz:   float64(i),
			Channels: make([]complex128, 8),
		})
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Send(big); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("send failed with %v, want a timeout", err)
			}
			select {
			case conn := <-accepted:
				conn.Close()
			default:
			}
			return
		}
	}
	t.Fatal("sends to a stalled collector never failed")
}
