package channel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"motor/internal/obs"
	"motor/internal/pal"
)

// The sock channel: TCP transport with a rendezvous bootstrap, the
// analogue of MPICH2's sock channel (the configuration the paper's
// evaluation ran on, §6/§8). One connection per rank pair gives the
// per-pair FIFO ordering the device requires.
//
// Receive-side invariant: a packet's payload is consumed entirely
// within the Poll call that saw its header, because the destination
// buffer handed out by the Sink may be a range of a managed heap that
// is only guaranteed stable while the managed thread sits inside this
// call. Only header bytes are buffered across polls.
//
// Poll never waits; only Wait (called by adi Device.idle between
// fruitless passes of a blocking wait) does, bounded by pollWindow. A
// pass first asks each connection whether a read would return at once
// — one recvfrom(MSG_PEEK|MSG_DONTWAIT) through the connection's
// RawConn, which never parks and consumes nothing — and reads through
// the net.Conn only when bytes, an EOF or an error are pending, so an
// idle connection costs one system call and no deadline. A pass must
// not wait because Go's Linux netpoller rounds any sub-millisecond
// wait up to ~1 ms (epoll_wait counts milliseconds) and the collector's
// §7.4 status check makes one pass per scavenge: with a pollWindow
// read deadline in every pass, the end-to-end benchmark's sock
// workload (bulk, 1618 scavenges per solve) spent ~1.6 s of a ~1.8 s
// solve in collector pauses, ~11 ms without (docs/PROGRESS.md has
// both ledgers). Reads still go through the net.Conn, so a
// fault-injecting wrapper that forwards SyscallConn keeps injecting
// read faults.
//
// Failure containment: any error that leaves a connection's framing
// undefined — a write that stopped mid-frame, a read that hit a reset
// or an EOF inside a packet — poisons that connection: it is closed,
// recorded, and every later operation on it fails fast with a
// PeerError naming the peer. Failures never escape the pair: the rest
// of the mesh keeps progressing, and the device layer converts the
// PeerError into typed errors on the affected requests.

const (
	dialTimeout = 10 * time.Second
	bodyTimeout = 30 * time.Second
	// pollWindow bounds one Wait. A parked Wait wakes as soon as
	// bytes arrive, so this bounds the idle cost of a wait step, not
	// delivery latency. Go's netpoller rounds it up to ~1 ms on Linux.
	pollWindow = 100 * time.Microsecond
)

// RetryPolicy bounds the bootstrap's recovery from transient
// transport failures: every dial and the whole rendezvous exchange
// retry with exponential backoff, and mesh accepts are bounded so a
// peer that gave up cannot hang this rank forever.
type RetryPolicy struct {
	DialAttempts      int           // attempts per dial (min 1)
	BootstrapAttempts int           // attempts for the rendezvous exchange (min 1)
	BackoffBase       time.Duration // first retry backoff; doubles per retry
	BackoffMax        time.Duration // backoff ceiling
	AcceptTimeout     time.Duration // bound on the mesh accept phase; 0 = none
}

// DefaultRetryPolicy is the policy used by Bootstrap and world
// construction.
var DefaultRetryPolicy = RetryPolicy{
	DialAttempts:      4,
	BootstrapAttempts: 4,
	BackoffBase:       5 * time.Millisecond,
	BackoffMax:        500 * time.Millisecond,
	AcceptTimeout:     30 * time.Second,
}

// backoff returns the sleep before retry number n (0-based),
// deterministic so fault-plan replays stay identical.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BackoffBase
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < n; i++ {
		d *= 2
		if p.BackoffMax > 0 && d >= p.BackoffMax {
			return p.BackoffMax
		}
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	return d
}

type sockConn struct {
	peer   int
	c      net.Conn
	raw    syscall.RawConn // c's descriptor, for readiness checks only
	hdrBuf [HeaderSize]byte
	hdrGot int
	poison error // non-nil once the framing is undefined; conn is dead

	// peek and park are the method values peekReady and
	// parkUntilReady, bound once so a poll pass allocates nothing.
	peek, park func(fd uintptr) bool
	ready      bool  // answer of the last readiness check
	peekErr    error // socket error a readiness check consumed
	peekBuf    [1]byte
}

// peekReady is the RawConn.Read callback of a readiness check: it
// peeks one byte without consuming it and records in ready whether a
// read would return at once (bytes, an EOF, or a pending socket
// error). It always returns, so the check never parks. The peek that
// sees a socket error consumes it (the kernel clears it), so the error
// is kept in peekErr for the next pass to report instead of the EOF a
// read would then see.
func (sc *sockConn) peekReady(fd uintptr) bool {
	_, _, err := syscall.Recvfrom(int(fd), sc.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	sc.ready = err != syscall.EAGAIN && err != syscall.EINTR
	if sc.ready && err != nil && sc.peekErr == nil {
		sc.peekErr = err
	}
	return true
}

// parkUntilReady is peekReady for Wait: it lets the netpoller park
// the caller while nothing is pending.
func (sc *sockConn) parkUntilReady(fd uintptr) bool {
	sc.peekReady(fd)
	return sc.ready
}

// newSockConn wraps an established mesh connection. The connection
// must expose its descriptor (syscall.Conn): Poll checks readiness
// through it instead of with a read deadline.
func newSockConn(peer int, c net.Conn) (*sockConn, error) {
	sysc, ok := c.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("%w: sock connection to %d has no descriptor (%T)", ErrConfig, peer, c)
	}
	raw, err := sysc.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("sock: descriptor of connection to %d: %w", peer, err)
	}
	sc := &sockConn{peer: peer, c: c, raw: raw}
	sc.peek, sc.park = sc.peekReady, sc.parkUntilReady
	return sc, nil
}

// SockChannel is one rank's endpoint of a TCP-connected world.
type SockChannel struct {
	// rmu serializes the read side — Poll's reads and deadlines
	// against Wait's deadline — so a Wait never cuts short a payload
	// read in flight on another goroutine. Poll only tries it: while a
	// Wait holds it, the pass returns empty instead of waiting, and the
	// waiter polls as soon as it wakes.
	rmu sync.Mutex //motorlint:lockorder 30 channel

	rank  int
	size  int
	conns []*sockConn // indexed by peer rank; nil at self / retired
	next  int         // round-robin poll cursor

	stats struct {
		framesSent       uint64
		framesRecvd      uint64
		bytesSent        uint64
		bytesRecvd       uint64
		dialRetries      uint64
		bootstrapRetries uint64
		poisonedConns    uint64
		peersRetired     uint64
	}
}

var (
	_ Channel     = (*SockChannel)(nil)
	_ Waiter      = (*SockChannel)(nil)
	_ StatsSource = (*SockChannel)(nil)
)

// Rank implements Channel.
func (c *SockChannel) Rank() int { return c.rank }

// Size implements Channel.
func (c *SockChannel) Size() int { return c.size }

// TransportStats implements StatsSource.
func (c *SockChannel) TransportStats() TransportStats {
	return TransportStats{
		FramesSent:       atomic.LoadUint64(&c.stats.framesSent),
		FramesRecvd:      atomic.LoadUint64(&c.stats.framesRecvd),
		BytesSent:        atomic.LoadUint64(&c.stats.bytesSent),
		BytesRecvd:       atomic.LoadUint64(&c.stats.bytesRecvd),
		DialRetries:      atomic.LoadUint64(&c.stats.dialRetries),
		BootstrapRetries: atomic.LoadUint64(&c.stats.bootstrapRetries),
		PoisonedConns:    atomic.LoadUint64(&c.stats.poisonedConns),
		PeersRetired:     atomic.LoadUint64(&c.stats.peersRetired),
	}
}

// poisonConn kills a connection whose framing state is no longer
// defined (partial frame written or read). Deterministic: the conn is
// closed immediately and every later Send/Poll involving it returns a
// PeerError carrying the original cause.
func (c *SockChannel) poisonConn(sc *sockConn, cause error) *PeerError {
	if sc.poison == nil {
		sc.poison = cause
		sc.c.Close()
		atomic.AddUint64(&c.stats.poisonedConns, 1)
	}
	return &PeerError{Peer: sc.peer, Err: sc.poison}
}

// Send implements Channel: write header and payload on the pair
// connection. Any write error mid-frame poisons the connection — a
// half-written frame can never be resynchronized, so the error state
// must be made permanent rather than leaving the framing undefined.
func (c *SockChannel) Send(dest int, hdr Header, payload []byte) error {
	if dest < 0 || dest >= c.size {
		return ErrRank
	}
	if dest == c.rank {
		return fmt.Errorf("%w: sock self-send not supported (use shm or loop)", ErrRank)
	}
	sc := c.conns[dest]
	if sc == nil {
		return &PeerError{Peer: dest, Err: ErrClosed}
	}
	if sc.poison != nil {
		return &PeerError{Peer: dest, Err: sc.poison}
	}
	hdr.Size = uint32(len(payload))
	var hb [HeaderSize]byte
	hdr.Marshal(hb[:])
	if err := sc.c.SetWriteDeadline(time.Now().Add(bodyTimeout)); err != nil {
		return c.poisonConn(sc, fmt.Errorf("sock: send deadline to %d: %w", dest, err))
	}
	if _, err := sc.c.Write(hb[:]); err != nil {
		return c.poisonConn(sc, fmt.Errorf("sock: send header to %d: %w", dest, err))
	}
	if len(payload) > 0 {
		if _, err := sc.c.Write(payload); err != nil {
			return c.poisonConn(sc, fmt.Errorf("sock: send payload to %d: %w", dest, err))
		}
	}
	atomic.AddUint64(&c.stats.framesSent, 1)
	atomic.AddUint64(&c.stats.bytesSent, uint64(len(payload)))
	if tr := obs.Active(); tr != nil {
		tr.Instant(c.rank, obs.KFrame,
			uint64(obs.FrameOut), uint64(hdr.Type), uint64(dest), uint64(len(payload)))
	}
	return nil
}

// Poll implements Channel: readiness checks round-robin over peers,
// reading only from a connection with something pending; when a header
// completes, the payload is drained into the sink's buffer before
// returning. Poll never waits for an arrival. A connection-level
// failure is returned as a PeerError after the connection is
// poisoned; other peers are unaffected and keep being polled on later
// passes.
func (c *SockChannel) Poll(sink Sink) (bool, error) {
	if !c.rmu.TryLock() {
		return false, nil // a Wait is parked on the read side
	}
	defer c.rmu.Unlock()
	n := len(c.conns)
	for i := 0; i < n; i++ {
		peer := (c.next + i) % n
		sc := c.conns[peer]
		if sc == nil || sc.poison != nil {
			continue
		}
		progressed, err := c.pollConn(sc, sink)
		if err != nil {
			return false, err
		}
		if progressed {
			c.next = (peer + 1) % n
			return true, nil
		}
	}
	return false, nil
}

func (c *SockChannel) pollConn(sc *sockConn, sink Sink) (bool, error) {
	// Readiness first: an idle connection costs one non-consuming peek
	// and no read. The connection carries no read deadline here (Wait
	// and the payload read clear theirs), so the peek is always tried,
	// and a read after a positive peek returns at once.
	if err := sc.raw.Read(sc.peek); err != nil {
		return false, c.poisonConn(sc, fmt.Errorf("sock: readiness check: %w", err))
	}
	if sc.peekErr != nil {
		return false, c.poisonConn(sc, fmt.Errorf("sock: read: %w", sc.peekErr))
	}
	if !sc.ready {
		return false, nil
	}
	n, err := sc.c.Read(sc.hdrBuf[sc.hdrGot:])
	sc.hdrGot += n
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if sc.hdrGot < HeaderSize {
				return false, nil
			}
		} else if err == io.EOF {
			if sc.hdrGot == 0 {
				// Close between packets: the peer is gone but framing
				// is intact. Retire the connection and tell the device
				// which peer went away, so requests bound to it can be
				// failed instead of waiting forever; traffic already
				// delivered is unaffected and other peers keep
				// progressing.
				sc.c.Close()
				c.retire(sc)
				atomic.AddUint64(&c.stats.peersRetired, 1)
				return false, &PeerError{Peer: sc.peer, Err: io.EOF}
			}
			return false, c.poisonConn(sc, fmt.Errorf("sock: peer closed mid-packet: %w", err))
		} else {
			return false, c.poisonConn(sc, err)
		}
	}
	if sc.hdrGot < HeaderSize {
		return false, nil
	}
	// Header complete: finish any remainder synchronously.
	var hdr Header
	hdr.Unmarshal(sc.hdrBuf[:])
	sc.hdrGot = 0
	dst := sink.Deliver(hdr)
	if hdr.Size > 0 {
		if err := sc.c.SetReadDeadline(time.Now().Add(bodyTimeout)); err != nil {
			return false, c.poisonConn(sc, err)
		}
		if dst != nil {
			if uint32(len(dst)) < hdr.Size {
				return false, fmt.Errorf("%w: sink buffer %d smaller than payload %d", ErrProtocol, len(dst), hdr.Size)
			}
			if _, err := io.ReadFull(sc.c, dst[:hdr.Size]); err != nil {
				return false, c.poisonConn(sc, fmt.Errorf("sock: payload read: %w", err))
			}
		} else {
			if _, err := io.CopyN(io.Discard, sc.c, int64(hdr.Size)); err != nil {
				return false, c.poisonConn(sc, fmt.Errorf("sock: payload discard: %w", err))
			}
		}
		if err := sc.c.SetReadDeadline(time.Time{}); err != nil {
			return false, c.poisonConn(sc, err)
		}
	}
	sink.Done(hdr)
	atomic.AddUint64(&c.stats.framesRecvd, 1)
	atomic.AddUint64(&c.stats.bytesRecvd, uint64(hdr.Size))
	if tr := obs.Active(); tr != nil {
		tr.Instant(c.rank, obs.KFrame,
			uint64(obs.FrameIn), uint64(hdr.Type), uint64(hdr.Source), uint64(hdr.Size))
	}
	return true, nil
}

// Wait implements Waiter: it parks until the connection next in the
// poll order has bytes, an EOF or an error pending, or pollWindow
// passes. One connection per Wait, rotating, so with several peers a
// packet from another one waits at most one window; a blocking wait
// calls Wait once per fruitless pass. Wait runs outside the device
// lock, so it touches only what rmu guards (the poll set and cursor)
// and never reads sc.poison, which Send writes under the device lock;
// a poisoned connection is closed, so its Wait returns at once.
func (c *SockChannel) Wait() {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	n := len(c.conns)
	for i := 0; i < n; i++ {
		peer := (c.next + i) % n
		sc := c.conns[peer]
		if sc == nil {
			continue
		}
		c.next = (peer + 1) % n
		if sc.c.SetReadDeadline(time.Now().Add(pollWindow)) != nil {
			return // closed: the next Poll reports it
		}
		// The deadline ends the park; an error here is that expiry or
		// a close the next Poll reports.
		_ = sc.raw.Read(sc.park)
		sc.c.SetReadDeadline(time.Time{})
		return
	}
}

// retire drops a gracefully-closed peer connection from the poll set.
func (c *SockChannel) retire(sc *sockConn) {
	for i, cur := range c.conns {
		if cur == sc {
			c.conns[i] = nil
			return
		}
	}
}

// Close implements Channel.
func (c *SockChannel) Close() error {
	var first error
	for _, sc := range c.conns {
		if sc != nil {
			if err := sc.c.Close(); err != nil && first == nil && sc.poison == nil {
				first = err
			}
		}
	}
	return first
}

// --- bootstrap -------------------------------------------------------------

// ServeRoot runs the rendezvous service for an n-rank world on ln: it
// collects one registration line ("rank addr") from every rank and
// answers each with the full address table. It returns after serving
// all ranks. A connection that fails or misbehaves during
// registration is dropped and the service keeps waiting — the rank
// behind it retries with a fresh connection (see Bootstrap) — and a
// re-registration for an already-seen rank replaces the stale entry.
func ServeRoot(ln net.Listener, n int) error {
	addrs := make([]string, n)
	conns := make([]net.Conn, n)
	seen := 0
	for seen < n {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("sock bootstrap: accept: %w", err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			// A rank's registration died mid-exchange; it will retry.
			conn.Close()
			continue
		}
		var rank int
		var addr string
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d %s", &rank, &addr); err != nil {
			conn.Close()
			continue
		}
		if rank < 0 || rank >= n {
			conn.Close()
			continue
		}
		if conns[rank] != nil {
			// Retried registration: the previous exchange failed on
			// the rank's side after we recorded it. Replace it.
			conns[rank].Close()
			seen--
		}
		addrs[rank] = addr
		conns[rank] = conn
		seen++
	}
	table := strings.Join(addrs, " ") + "\n"
	var firstErr error
	for _, conn := range conns {
		if _, err := io.WriteString(conn, table); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sock bootstrap: table write: %w", err)
		}
		conn.Close()
	}
	// Linger: a rank whose table read failed after we recorded its
	// registration will retry the whole exchange, and by then the main
	// loop above is gone — without an answer it would burn its entire
	// retry budget waiting on a table that never comes. Keep answering
	// re-registrations with the completed table until the caller closes
	// the listener.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
					return
				}
				io.WriteString(c, table)
			}(conn)
		}
	}()
	return firstErr
}

// dialRetry dials with bounded attempts and exponential backoff,
// counting retries into the given counter.
func dialRetry(plat pal.Platform, addr string, rp RetryPolicy, retries *uint64) (net.Conn, error) {
	attempts := rp.DialAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			atomic.AddUint64(retries, 1)
			time.Sleep(rp.backoff(a - 1))
		}
		conn, err := plat.Dial(addr, dialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// register performs one rendezvous exchange with the root service and
// returns the address table.
func register(plat pal.Platform, rootAddr, myAddr string, rank, size int, rp RetryPolicy, dials *uint64) ([]string, error) {
	rc, err := dialRetry(plat, rootAddr, rp, dials)
	if err != nil {
		return nil, fmt.Errorf("sock bootstrap: dial root: %w", err)
	}
	defer rc.Close()
	// Bound the exchange: if another rank never registers, this rank
	// must time out and fail (or retry) rather than wait forever on a
	// table that cannot arrive.
	if rp.AcceptTimeout > 0 {
		rc.SetDeadline(time.Now().Add(rp.AcceptTimeout))
	}
	if _, err := fmt.Fprintf(rc, "%d %s\n", rank, myAddr); err != nil {
		return nil, fmt.Errorf("sock bootstrap: register: %w", err)
	}
	tableLine, err := bufio.NewReader(rc).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sock bootstrap: table read: %w", err)
	}
	addrs := strings.Fields(tableLine)
	if len(addrs) != size {
		return nil, fmt.Errorf("%w: bootstrap table has %d entries, want %d", ErrProtocol, len(addrs), size)
	}
	return addrs, nil
}

// Bootstrap joins an n-rank sock world through the rendezvous service
// at rootAddr with the default retry policy (see BootstrapWith).
func Bootstrap(plat pal.Platform, rootAddr string, rank, size int) (*SockChannel, error) {
	return BootstrapWith(plat, rootAddr, rank, size, DefaultRetryPolicy)
}

// BootstrapWith joins an n-rank sock world through the rendezvous
// service at rootAddr and establishes the full connection mesh. Every
// rank of the world must call it concurrently (rank 0 does not host
// the service; see ServeRoot and NewSockGroupLocal). Dials and the
// rendezvous exchange retry per rp; a world that cannot form within
// the policy's bounds fails with an error instead of hanging.
func BootstrapWith(plat pal.Platform, rootAddr string, rank, size int, rp RetryPolicy) (*SockChannel, error) {
	if plat == nil {
		plat = pal.Default
	}
	if size == 1 {
		return &SockChannel{rank: 0, size: 1, conns: make([]*sockConn, 1)}, nil
	}
	ln, err := plat.Listen("")
	if err != nil {
		return nil, fmt.Errorf("sock bootstrap: listen: %w", err)
	}
	defer ln.Close()

	ch := &SockChannel{rank: rank, size: size, conns: make([]*sockConn, size)}

	// Register with the rendezvous service and obtain the table,
	// retrying the whole exchange on transient failure.
	attempts := rp.BootstrapAttempts
	if attempts < 1 {
		attempts = 1
	}
	var addrs []string
	for a := 0; a < attempts; a++ {
		if a > 0 {
			atomic.AddUint64(&ch.stats.bootstrapRetries, 1)
			time.Sleep(rp.backoff(a - 1))
		}
		addrs, err = register(plat, rootAddr, ln.Addr().String(), rank, size, rp, &ch.stats.dialRetries)
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}

	// Bound the mesh accept phase: if a lower rank gave up dialing us
	// we must fail, not wait forever.
	if rp.AcceptTimeout > 0 {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(rp.AcceptTimeout))
		}
	}

	// Mesh: dial every lower rank, accept from every higher rank.
	errc := make(chan error, 2)
	go func() {
		for j := 0; j < rank; j++ {
			conn, err := dialRetry(plat, addrs[j], rp, &ch.stats.dialRetries)
			if err != nil {
				errc <- fmt.Errorf("sock bootstrap: dial rank %d: %w", j, err)
				return
			}
			var id [4]byte
			binary.LittleEndian.PutUint32(id[:], uint32(rank))
			if _, err := conn.Write(id[:]); err != nil {
				errc <- fmt.Errorf("sock bootstrap: identify to %d: %w", j, err)
				return
			}
			sc, err := newSockConn(j, conn)
			if err != nil {
				conn.Close()
				errc <- err
				return
			}
			ch.conns[j] = sc
		}
		errc <- nil
	}()
	go func() {
		for j := rank + 1; j < size; j++ {
			conn, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("sock bootstrap: accept mesh: %w", err)
				return
			}
			var id [4]byte
			if _, err := io.ReadFull(conn, id[:]); err != nil {
				// The dialing peer may be retrying; take the next
				// connection instead of aborting the world.
				conn.Close()
				j--
				continue
			}
			peer := int(binary.LittleEndian.Uint32(id[:]))
			if peer <= rank || peer >= size || ch.conns[peer] != nil {
				errc <- fmt.Errorf("%w: bootstrap got bad mesh peer %d", ErrProtocol, peer)
				return
			}
			sc, err := newSockConn(peer, conn)
			if err != nil {
				conn.Close()
				errc <- err
				return
			}
			ch.conns[peer] = sc
		}
		errc <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			ch.Close()
			return nil, err
		}
	}
	// Disable Nagle where available: the ping-pong pattern is
	// latency-bound. (Interface assertion rather than *net.TCPConn so
	// wrapped connections — fault injection — forward it.)
	for _, sc := range ch.conns {
		if sc != nil {
			if tc, ok := sc.c.(interface{ SetNoDelay(bool) error }); ok {
				tc.SetNoDelay(true)
			}
		}
	}
	return ch, nil
}

// NewSockGroupLocal builds an n-rank sock world entirely within this
// process over loopback TCP — the single-node configuration of the
// paper's evaluation. It hosts the rendezvous service on an ephemeral
// port and bootstraps every rank concurrently.
func NewSockGroupLocal(plat pal.Platform, n int) ([]*SockChannel, error) {
	plats := make([]pal.Platform, n)
	for i := range plats {
		plats[i] = plat
	}
	return NewSockGroupLocalOn(plats, n, DefaultRetryPolicy)
}

// NewSockGroupLocalOn is NewSockGroupLocal with one platform per rank
// and an explicit retry policy — the chaos-testing entry point: each
// rank can carry its own fault plan while the rendezvous service
// stays on the host platform.
func NewSockGroupLocalOn(plats []pal.Platform, n int, rp RetryPolicy) ([]*SockChannel, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: bad sock group size %d", ErrConfig, n)
	}
	if len(plats) != n {
		return nil, fmt.Errorf("%w: %d platforms for %d ranks", ErrConfig, len(plats), n)
	}
	if n == 1 {
		ch, err := BootstrapWith(plats[0], "", 0, 1, rp)
		if err != nil {
			return nil, err
		}
		return []*SockChannel{ch}, nil
	}
	root, err := pal.Default.Listen("")
	if err != nil {
		return nil, err
	}
	defer root.Close()
	rootErr := make(chan error, 1)
	go func() { rootErr <- ServeRoot(root, n) }()

	type res struct {
		rank int
		ch   *SockChannel
		err  error
	}
	results := make(chan res, n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			ch, err := BootstrapWith(plats[rank], root.Addr().String(), rank, n, rp)
			results <- res{rank, ch, err}
		}(r)
	}
	chans := make([]*SockChannel, n)
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		chans[r.rank] = r.ch
	}
	if firstErr != nil {
		// A failed bootstrap may leave ServeRoot waiting on ranks that
		// will never register; closing the root listener unblocks it.
		root.Close()
		<-rootErr
		for _, ch := range chans {
			if ch != nil {
				ch.Close()
			}
		}
		return nil, firstErr
	}
	if err := <-rootErr; err != nil {
		for _, ch := range chans {
			if ch != nil {
				ch.Close()
			}
		}
		return nil, err
	}
	return chans, nil
}
