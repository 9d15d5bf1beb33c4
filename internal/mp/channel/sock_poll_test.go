package channel

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The zero-wait Poll contract on sock: an idle pass checks readiness
// on the descriptor and never reads or arms a deadline; a frame that
// is already in the socket buffer is delivered by the next pass; only
// Wait parks, and it leaves no deadline behind.

// countConn counts the net.Conn calls a poll pass could make, and
// forwards SyscallConn so the channel's readiness peek reaches the
// real socket.
type countConn struct {
	net.Conn
	reads     atomic.Int64
	deadlines atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *countConn) SyscallConn() (syscall.RawConn, error) {
	return c.Conn.(syscall.Conn).SyscallConn()
}

// countedPair returns rank 1 of a 2-rank sock channel whose only
// connection is a counted loopback TCP connection, and the raw peer
// end standing in for rank 0.
func countedPair(t *testing.T) (*SockChannel, *countConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	acc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countConn{Conn: acc}
	sc, err := newSockConn(0, cc)
	if err != nil {
		t.Fatal(err)
	}
	ch := &SockChannel{rank: 1, size: 2, conns: []*sockConn{sc, nil}}
	t.Cleanup(func() { ch.Close() })
	return ch, cc, peer
}

// writeFrame puts one packet on the wire as a peer's Send would.
func writeFrame(t *testing.T, c net.Conn, hdr Header, payload []byte) {
	t.Helper()
	hdr.Size = uint32(len(payload))
	var hb [HeaderSize]byte
	hdr.Marshal(hb[:])
	if _, err := c.Write(append(hb[:], payload...)); err != nil {
		t.Fatal(err)
	}
}

// awaitReadable blocks until the connection has bytes pending, using
// the channel's own non-consuming peek, so the next Poll is known to
// find the frame in the socket buffer.
func awaitReadable(t *testing.T, sc *sockConn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sc.raw.Read(sc.peek); err != nil {
			t.Fatal(err)
		}
		if sc.ready {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never reached the socket buffer")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestSockIdlePollNeverReadsOrWaits(t *testing.T) {
	ch, cc, peer := countedPair(t)
	sink := &collectSink{}
	for i := 0; i < 100; i++ {
		ok, err := ch.Poll(sink)
		if err != nil || ok {
			t.Fatalf("idle Poll %d = %v, %v; want false, nil", i, ok, err)
		}
	}
	if r, d := cc.reads.Load(), cc.deadlines.Load(); r != 0 || d != 0 {
		t.Fatalf("100 idle polls made %d reads and %d SetReadDeadline calls, want 0 and 0", r, d)
	}

	writeFrame(t, peer, Header{Type: PktEager, Source: 0, Tag: 3, Context: 1}, []byte("hello"))
	awaitReadable(t, ch.conns[0])
	ok, err := ch.Poll(sink)
	if err != nil || !ok {
		t.Fatalf("Poll with a buffered frame = %v, %v; want true, nil", ok, err)
	}
	if len(sink.hdrs) != 1 || sink.hdrs[0].Tag != 3 || !bytes.Equal(sink.payloads[0], []byte("hello")) {
		t.Fatalf("delivered %+v / %q, want tag 3 \"hello\"", sink.hdrs, sink.payloads)
	}
	// The payload read arms its deadline and clears it: two calls.
	if d := cc.deadlines.Load(); d != 2 {
		t.Fatalf("SetReadDeadline calls after one payload = %d, want 2", d)
	}

	reads := cc.reads.Load()
	if ok, err := ch.Poll(sink); err != nil || ok {
		t.Fatalf("Poll after delivery = %v, %v; want false, nil", ok, err)
	}
	if got := cc.reads.Load(); got != reads {
		t.Fatalf("idle Poll after delivery read %d times", got-reads)
	}
}

func TestSockWaitLeavesNoDeadline(t *testing.T) {
	ch, cc, peer := countedPair(t)
	ch.Wait() // idle connection: parks until the window ends
	if r, d := cc.reads.Load(), cc.deadlines.Load(); r != 0 || d != 2 {
		t.Fatalf("Wait made %d reads and %d SetReadDeadline calls, want 0 and 2 (arm, clear)", r, d)
	}
	// Outlive any window Wait could have left armed: an expired
	// deadline would fail the next peek and poison the connection.
	time.Sleep(3 * time.Millisecond)
	writeFrame(t, peer, Header{Type: PktEager, Source: 0, Tag: 4, Context: 1}, nil)
	awaitReadable(t, ch.conns[0])
	ch.Wait() // bytes pending: returns without consuming them
	sink := &collectSink{}
	ok, err := ch.Poll(sink)
	if err != nil || !ok || sink.hdrs[0].Tag != 4 {
		t.Fatalf("Poll after Wait = %v, %v (%+v); want the tag-4 frame", ok, err, sink.hdrs)
	}
}

// TestSockPollSkipsWhileWaitParked: a pass that finds the read side
// held by a parked Wait returns empty at once instead of queueing
// behind the wait; the waiter polls as soon as it wakes.
func TestSockPollSkipsWhileWaitParked(t *testing.T) {
	ch, cc, peer := countedPair(t)
	writeFrame(t, peer, Header{Type: PktEager, Source: 0, Tag: 5, Context: 1}, []byte{1})
	awaitReadable(t, ch.conns[0])
	sink := &collectSink{}
	ch.rmu.Lock() // what a parked Wait holds
	ok, err := ch.Poll(sink)
	ch.rmu.Unlock()
	if err != nil || ok || cc.reads.Load() != 0 {
		t.Fatalf("Poll beside a held read side = %v, %v after %d reads; want false, nil, 0", ok, err, cc.reads.Load())
	}
	if ok, err := ch.Poll(sink); err != nil || !ok {
		t.Fatalf("Poll after the wait = %v, %v; want the frame", ok, err)
	}
}

// TestSockPeerCloseVsReset: the readiness peek must not blur the two
// ways a peer can leave between packets. A FIN retires the connection
// (a graceful EOF); an RST poisons it with the reset, even though the
// peek that saw the reset consumed the socket error before any read.
func TestSockPeerCloseVsReset(t *testing.T) {
	for _, reset := range []bool{false, true} {
		ch, _, peer := countedPair(t)
		if reset {
			if err := peer.(*net.TCPConn).SetLinger(0); err != nil { // close sends RST
				t.Fatal(err)
			}
		}
		peer.Close()
		awaitReadable(t, ch.conns[0])
		_, err := ch.Poll(&collectSink{})
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Peer != 0 {
			t.Fatalf("reset=%v: Poll err = %v, want PeerError for peer 0", reset, err)
		}
		st := ch.TransportStats()
		if reset && (st.PoisonedConns != 1 || !errors.Is(err, syscall.ECONNRESET)) {
			t.Fatalf("RST: err %v, stats %+v; want ECONNRESET and one poisoned connection", err, st)
		}
		if !reset && (st.PeersRetired != 1 || !errors.Is(err, io.EOF)) {
			t.Fatalf("FIN: err %v, stats %+v; want io.EOF and one retired peer", err, st)
		}
	}
}
