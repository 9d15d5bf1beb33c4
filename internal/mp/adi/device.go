// Package adi implements the device layer of the message-passing
// core — the analogue of MPICH2's CH3 device over the Abstract
// Device Interface (paper §6): message matching (posted and
// unexpected queues), packetizing, and the eager / rendezvous
// transfer protocols, all driven by a polling progress engine.
//
// The device is transport-agnostic: it talks to any channel.Channel.
// Buffers are abstract (Buffer) so the Motor core can hand the device
// ranges of a managed heap that must be re-resolved after any yield —
// the mechanism behind zero-copy transfers into pinned objects.
package adi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"motor/internal/mp/channel"
	"motor/internal/obs"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Errors surfaced by the device (MPI error classes).
var (
	ErrTruncate = errors.New("adi: message truncated (receive buffer too small)")
	ErrRank     = errors.New("adi: rank out of range")
	ErrState    = errors.New("adi: request in invalid state")
	// ErrTransport is the typed error class for transport failures: a
	// reset, poisoned or prematurely-closed peer connection. Requests
	// bound to the failed peer complete with an error wrapping
	// ErrTransport instead of hanging the progress engine; the rest of
	// the world keeps running.
	ErrTransport = errors.New("adi: transport failure")
	// ErrCancelled is the terminal error of a request abandoned via
	// CancelReq (collective error-drain paths).
	ErrCancelled = errors.New("adi: request cancelled")
)

// Buffer abstracts a contiguous transfer buffer. Bytes must be called
// afresh whenever control may have yielded since the last call: for
// managed-heap ranges the backing array can move when the arena
// grows, even though the object's offset is pinned.
type Buffer interface {
	Len() int
	Bytes() []byte
}

// SliceBuf adapts a plain []byte.
type SliceBuf []byte

// Len implements Buffer.
func (s SliceBuf) Len() int { return len(s) }

// Bytes implements Buffer.
func (s SliceBuf) Bytes() []byte { return s }

// Status describes a completed receive.
type Status struct {
	Source int // world rank of the sender
	Tag    int
	Count  int // delivered bytes
}

// reqKind discriminates requests.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// reqState tracks protocol progress.
type reqState uint32

const (
	stActive   reqState = iota // posted / awaiting protocol step
	stComplete                 // done (check Err)
)

// Request is a pending point-to-point operation.
type Request struct {
	id   uint64
	kind reqKind

	buf  Buffer
	peer int // dest for sends, source (or AnySource) for recvs
	tag  int
	ctx  int32

	sync bool // synchronous send: complete only when matched

	// state is written last on every completion path (an atomic
	// release store in complete) and loaded first by readers (an
	// atomic acquire load in Done), so err and status — written
	// before the store — are visible to any goroutine that has
	// observed Done() == true, without taking the device lock.
	state  atomic.Uint32
	err    error
	status Status

	// onDone holds completion continuations (device lock). They are
	// queued by complete and run after the device lock is released —
	// never under it, since a continuation may re-enter the device
	// (a parked waiter immediately testing its request).
	onDone []func()

	// Trace identity, assigned at post time when a tracer is active.
	// The request's lifetime is an async obs span: it can complete
	// under a different engine op than the one that posted it (or
	// under none), so it cannot live on the lane's span stack.
	traceSpan   uint64
	traceParent uint64
	traceStart  int64

	// edgeSeq remembers the correlation sequence stamped on this
	// send's RTS so the eventual DATA packet carries the same id (the
	// receiver records its edge:recv when the payload lands, not when
	// the announcement arrives).
	edgeSeq uint32
}

// Done reports completion (poll via Device.TestReq). Safe to call
// from any goroutine — this is the check conditional pin requests
// evaluate during the collector's mark phase while a background
// progress engine may be completing the request.
func (r *Request) Done() bool { return reqState(r.state.Load()) == stComplete }

// Err returns the request's terminal error, if any (valid once Done).
func (r *Request) Err() error { return r.err }

// Status returns the receive status (valid once Done).
func (r *Request) Status() Status { return r.status }

// unexpected holds an arrived-but-unmatched message.
type unexpected struct {
	hdr     channel.Header
	payload []byte // eager payload copy; nil for RTS
}

// DeviceStats counts protocol activity; the Motor pinning-policy
// tests and cmd/mpstat read these.
type DeviceStats struct {
	EagerSent   uint64
	RndvSent    uint64
	EagerRecvd  uint64
	DataRecvd   uint64
	Unexpected  uint64
	Polls       uint64
	Deliveries  uint64
	BytesSent   uint64
	BytesRecvd  uint64
	CtrlPackets uint64
	// TransportErrors counts requests (or operation starts) that
	// failed with ErrTransport; PeersLost counts peer connections
	// declared dead by the channel.
	TransportErrors uint64
	PeersLost       uint64
	// Cancelled counts requests abandoned via CancelReq.
	Cancelled uint64
}

// Device is one rank's progress engine and matching state.
//
// Every public method is safe for concurrent use: all matching and
// protocol state is guarded by one mutex, so multiple guest threads
// and a background progress engine (mp.Progress) can share a rank.
// The lock order is strictly device mutex → channel internals; the
// device never blocks on anything but the channel while holding its
// lock, and the embedder yield (Yield, the Motor GC poll) only runs
// from idle, outside the lock — a GC hook may therefore call
// Progress without deadlocking.
type Device struct {
	mu sync.Mutex //motorlint:lockorder 20 device

	ch   channel.Channel
	rank int

	eagerMax int

	posted []*Request   // posted receives, FIFO
	unexp  []unexpected // unexpected arrivals, FIFO
	active map[uint64]*Request
	nextID uint64

	// Yield is invoked inside blocking waits between progress polls.
	// The Motor core points it at the managed thread's GC poll — the
	// polling-wait of paper §7.1/§7.4. Nil is allowed.
	Yield func()

	// tmp is scratch for unexpected eager payload delivery.
	tmp []byte

	// deliver state for the in-flight packet between Deliver and Done.
	curReq   *Request
	curUnexp bool

	ctrl []channel.Header // control packets (barrier tokens etc.)

	// pendingSelfSyncs are synchronous self-sends awaiting their
	// local match.
	pendingSelfSyncs []selfSync

	// lost remembers peers declared dead, with the failure that killed
	// them. Peer death is a sticky condition: a send or receive posted
	// after the failure must fail immediately — the edge-triggered
	// failPeer sweep can only reach requests that already exist, and a
	// later post would otherwise wait forever on a peer that can no
	// longer answer (a receive touches no connection, so the channel
	// cannot refuse it).
	lost map[int]error

	// cbq holds completion continuations queued by complete while the
	// lock was held; unlockNotify drains it after release.
	cbq []func()

	// wake, when set (SetWake), is fired outside the lock after a post
	// leaves new protocol work behind — the background progress
	// engine's doorbell.
	wake func()

	// Stats is guarded by mu. Concurrent readers (the obs registry,
	// mpstat -metrics) must use StatsSnapshot; direct field access is
	// only safe when nothing else touches the device.
	Stats DeviceStats

	// edgeSeq holds the per-destination trace correlation counters
	// (guarded by mu, allocated on first stamped send). Seq 0 is
	// reserved for "unstamped", so counters start at 1.
	edgeSeq []uint32
}

// DefaultEagerMax is the eager/rendezvous switchover. Messages at or
// below this size are sent eagerly; larger ones use RTS/CTS
// rendezvous and land zero-copy in the posted buffer.
const DefaultEagerMax = 64 << 10

// NewDevice wraps a channel endpoint.
func NewDevice(ch channel.Channel, eagerMax int) *Device {
	if eagerMax <= 0 {
		eagerMax = DefaultEagerMax
	}
	return &Device{
		ch:       ch,
		rank:     ch.Rank(),
		eagerMax: eagerMax,
		active:   make(map[uint64]*Request),
	}
}

// Rank returns this device's world rank.
func (d *Device) Rank() int { return d.rank }

// Size returns the world size.
func (d *Device) Size() int { return d.ch.Size() }

// EagerMax returns the eager threshold.
func (d *Device) EagerMax() int { return d.eagerMax }

// Channel exposes the underlying channel (stats surfaces, tests).
func (d *Device) Channel() channel.Channel { return d.ch }

func (d *Device) newRequest(kind reqKind, buf Buffer, peer, tag int, ctx int32) *Request {
	d.nextID++
	req := &Request{id: d.nextID, kind: kind, buf: buf, peer: peer, tag: tag, ctx: ctx}
	if tr := obs.Active(); tr != nil {
		// SpanIDFor returns 0 when the flight recorder samples this
		// request out; the zero also suppresses the completion-time
		// Span emit, so an elided request costs no clock reads.
		if id := tr.SpanIDFor(d.rank, obs.KADIReq); id != 0 {
			req.traceSpan = id
			req.traceParent = tr.Current(d.rank)
			req.traceStart = tr.Now()
		}
	}
	return req
}

// SetWake installs (or clears, with nil) the post doorbell: it is
// fired outside the lock whenever a post leaves an incomplete request
// behind, so a parked background progress engine can cut its sleep
// short. Install it before the device is shared between goroutines.
func (d *Device) SetWake(wake func()) {
	d.mu.Lock()
	d.wake = wake
	d.mu.Unlock()
}

// OnComplete registers a continuation that runs exactly once when the
// request completes — on whichever goroutine's device call (or
// progress pass) completes it, after the device lock is released. A
// request that is already complete runs f immediately on the calling
// goroutine. This is what lets Isend/Irecv finish without the caller
// ever re-entering Wait.
func (d *Device) OnComplete(req *Request, f func()) {
	d.mu.Lock()
	if req.Done() {
		d.mu.Unlock()
		f()
		return
	}
	req.onDone = append(req.onDone, f)
	d.mu.Unlock()
}

// unlockNotify releases the device lock and then runs the completion
// continuations queued since it was taken. Every public entry point
// that can complete requests exits through here; continuations must
// not run under the lock because they may re-enter the device.
func (d *Device) unlockNotify() {
	cbs := d.cbq
	if cbs != nil {
		d.cbq = nil
	}
	d.mu.Unlock()
	for _, cb := range cbs {
		cb()
	}
}

// unlockWake is unlockNotify plus the progress-engine doorbell, for
// posts that leave new protocol work behind.
func (d *Device) unlockWake() {
	wake := d.wake
	d.unlockNotify()
	if wake != nil {
		wake()
	}
}

// complete marks a request terminal and emits its trace span. Every
// completion path funnels through here (lock held) so the request's
// full lifetime (post → protocol steps → completion/cancel/failure)
// is observable no matter which step finished it.
func (d *Device) complete(req *Request) {
	// err and status are fully written by now; the release store
	// publishes them to lock-free Done readers.
	req.state.Store(uint32(stComplete))
	if len(req.onDone) > 0 {
		d.cbq = append(d.cbq, req.onDone...)
		req.onDone = nil
	}
	if req.traceSpan == 0 {
		return
	}
	if tr := obs.Active(); tr != nil {
		dir := obs.ReqSend
		if req.kind == reqRecv {
			dir = obs.ReqRecv
		}
		peer := req.peer
		if peer < 0 { // AnySource: report the matched sender
			peer = req.status.Source
		}
		var size int
		if req.buf != nil {
			size = req.buf.Len()
		}
		tr.Span(d.rank, obs.KADIReq, req.traceSpan, req.traceParent, req.traceStart,
			uint64(dir), uint64(peer), uint64(size))
	}
	req.traceSpan = 0
}

// --- send path --------------------------------------------------------------

// Isend starts a (buffered-eager or rendezvous) send of buf to world
// rank dest and returns immediately. Sends to the device's own rank
// are delivered locally without touching the channel (MPI requires
// self-sends to work on every transport).
func (d *Device) Isend(buf Buffer, dest, tag int, ctx int32, sync bool) (*Request, error) {
	d.mu.Lock()
	req, err := d.isendLocked(buf, dest, tag, ctx, sync)
	if req != nil && !req.Done() {
		d.unlockWake()
	} else {
		d.unlockNotify()
	}
	return req, err
}

func (d *Device) isendLocked(buf Buffer, dest, tag int, ctx int32, sync bool) (*Request, error) {
	if dest < 0 || dest >= d.Size() {
		return nil, fmt.Errorf("%w: dest %d of %d", ErrRank, dest, d.Size())
	}
	if dest == d.rank {
		return d.selfSend(buf, tag, ctx, sync)
	}
	if werr, dead := d.lost[dest]; dead {
		d.Stats.TransportErrors++
		return nil, werr
	}
	req := d.newRequest(reqSend, buf, dest, tag, ctx)
	req.sync = sync
	size := buf.Len()
	if !sync && size <= d.eagerMax {
		hdr := channel.Header{
			Type: channel.PktEager, Source: int32(d.rank),
			Tag: int32(tag), Context: ctx, ReqA: req.id,
		}
		d.stampEdge(&hdr, dest, size)
		if err := d.ch.Send(dest, hdr, buf.Bytes()); err != nil {
			return nil, d.transportErr(err)
		}
		d.Stats.EagerSent++
		d.Stats.BytesSent += uint64(size)
		d.complete(req)
		return req, nil
	}
	// Rendezvous: announce, wait for clear-to-send. The RTS carries
	// no payload (the channel forces Size to the wire length, 0), so
	// the pending transfer size is advertised in ReqB.
	hdr := channel.Header{
		Type: channel.PktRTS, Source: int32(d.rank),
		Tag: int32(tag), Context: ctx, ReqA: req.id, ReqB: uint64(size),
	}
	d.stampEdge(&hdr, dest, size)
	req.edgeSeq = hdr.Seq
	if err := d.sendHeaderOnly(dest, hdr); err != nil {
		return nil, d.transportErr(err)
	}
	d.Stats.RndvSent++
	d.active[req.id] = req
	return req, nil
}

// sendHeaderOnly transmits a payload-free packet (RTS/CTS/control).
func (d *Device) sendHeaderOnly(dest int, hdr channel.Header) error {
	return d.ch.Send(dest, hdr, nil)
}

// stampEdge assigns the next per-destination correlation sequence to
// a message-bearing packet (eager or RTS) and records the sender's
// half of the cross-rank edge. Lock held. When tracing is off the
// header keeps Seq 0, so the merge pass sees exactly the messages
// that were stamped — never a half-traced run's leftovers.
func (d *Device) stampEdge(hdr *channel.Header, dest, bytes int) {
	tr := obs.Active()
	if tr == nil {
		return
	}
	if d.edgeSeq == nil {
		d.edgeSeq = make([]uint32, d.Size())
	}
	d.edgeSeq[dest]++
	hdr.Seq = d.edgeSeq[dest]
	tr.Instant(d.rank, obs.KEdge, uint64(obs.EdgeSend),
		obs.PackCorr(d.rank, dest, hdr.Seq),
		uint64(uint32(hdr.Context))<<32|uint64(uint32(hdr.Tag)), uint64(bytes))
}

// noteEdgeRecv records the receiver's half of a stamped message edge
// at payload arrival (eager delivery or rendezvous DATA). Arrival —
// not match — time is what the merge pass wants: it lower-bounds the
// clock offset between the two ranks regardless of when the local
// receive is finally posted.
func (d *Device) noteEdgeRecv(hdr channel.Header) {
	if hdr.Seq == 0 {
		return
	}
	tr := obs.Active()
	if tr == nil {
		return
	}
	tr.Instant(d.rank, obs.KEdge, uint64(obs.EdgeRecv),
		obs.PackCorr(int(hdr.Source), d.rank, hdr.Seq),
		uint64(uint32(hdr.Context))<<32|uint64(uint32(hdr.Tag)), uint64(hdr.Size))
}

// selfSend delivers a message locally: an immediately-matched posted
// receive gets the payload copied straight across; otherwise the
// payload is buffered on the unexpected queue. Synchronous self-sends
// complete when matched, which for the unexpected case means a
// matching receive must eventually be posted from the same rank (the
// usual Isend-self / Irecv-self pairing).
func (d *Device) selfSend(buf Buffer, tag int, ctx int32, sync bool) (*Request, error) {
	req := d.newRequest(reqSend, buf, d.rank, tag, ctx)
	// ReqA carries the request id so each pending synchronous
	// self-send can be distinguished even when tags and sizes match.
	hdr := channel.Header{
		Type: channel.PktEager, Source: int32(d.rank),
		Tag: int32(tag), Context: ctx, Size: uint32(buf.Len()), ReqA: req.id,
	}
	if posted := d.matchPosted(hdr); posted != nil {
		d.completeEagerRecv(posted, hdr, buf.Bytes())
		delete(d.active, posted.id)
		d.complete(req)
		d.Stats.BytesSent += uint64(buf.Len())
		return req, nil
	}
	payload := append([]byte(nil), buf.Bytes()...)
	d.Stats.Unexpected++
	d.unexp = append(d.unexp, unexpected{hdr: hdr, payload: payload})
	if sync {
		// Complete when a local receive matches: reuse the
		// conditional machinery by checking on Test/Wait.
		req.sync = true
		d.active[req.id] = req
		d.pendingSelfSyncs = append(d.pendingSelfSyncs, selfSync{req: req, hdr: hdr})
		return req, nil
	}
	d.complete(req)
	d.Stats.BytesSent += uint64(buf.Len())
	return req, nil
}

// selfSync tracks a synchronous self-send awaiting its local match.
type selfSync struct {
	req *Request
	hdr channel.Header
}

// resolveSelfSyncs completes synchronous self-sends whose unexpected
// entry has been consumed by a local receive.
func (d *Device) resolveSelfSyncs() {
	if len(d.pendingSelfSyncs) == 0 {
		return
	}
	kept := d.pendingSelfSyncs[:0]
	for _, ss := range d.pendingSelfSyncs {
		consumed := true
		for i := range d.unexp {
			if d.unexp[i].hdr == ss.hdr {
				consumed = false
				break
			}
		}
		if consumed {
			d.complete(ss.req)
			delete(d.active, ss.req.id)
			d.Stats.BytesSent += uint64(ss.req.buf.Len())
		} else {
			kept = append(kept, ss)
		}
	}
	d.pendingSelfSyncs = kept
}

// --- receive path -------------------------------------------------------------

// Irecv posts a receive and returns immediately. Earlier unexpected
// arrivals are matched first, preserving MPI ordering semantics.
func (d *Device) Irecv(buf Buffer, source, tag int, ctx int32) (*Request, error) {
	d.mu.Lock()
	req, err := d.irecvLocked(buf, source, tag, ctx)
	if req != nil && !req.Done() {
		d.unlockWake()
	} else {
		d.unlockNotify()
	}
	return req, err
}

func (d *Device) irecvLocked(buf Buffer, source, tag int, ctx int32) (*Request, error) {
	if source != AnySource && (source < 0 || source >= d.Size()) {
		return nil, fmt.Errorf("%w: source %d of %d", ErrRank, source, d.Size())
	}
	req := d.newRequest(reqRecv, buf, source, tag, ctx)
	for i := range d.unexp {
		u := &d.unexp[i]
		if !matches(req, u.hdr) {
			continue
		}
		hdr := u.hdr
		payload := u.payload
		d.unexp = append(d.unexp[:i], d.unexp[i+1:]...)
		switch hdr.Type {
		case channel.PktEager:
			d.completeEagerRecv(req, hdr, payload)
		case channel.PktRTS:
			d.acceptRendezvous(req, hdr)
		}
		return req, nil
	}
	// Only after the unexpected queue comes up empty: traffic that
	// arrived before a peer died is still valid and must stay
	// receivable.
	if source != AnySource {
		if werr, dead := d.lost[source]; dead {
			d.Stats.TransportErrors++
			return nil, werr
		}
	}
	d.posted = append(d.posted, req)
	d.active[req.id] = req
	return req, nil
}

// completeEagerRecv copies an already-buffered eager payload into the
// request's buffer.
func (d *Device) completeEagerRecv(req *Request, hdr channel.Header, payload []byte) {
	n := int(hdr.Size)
	if n > req.buf.Len() {
		req.err = fmt.Errorf("%w: got %d bytes into %d-byte buffer", ErrTruncate, n, req.buf.Len())
		n = req.buf.Len()
	}
	copy(req.buf.Bytes()[:n], payload[:n])
	req.status = Status{Source: int(hdr.Source), Tag: int(hdr.Tag), Count: n}
	d.complete(req)
	d.Stats.BytesRecvd += uint64(n)
}

// acceptRendezvous answers a matched RTS with a CTS; the DATA packet
// will be steered directly into req's buffer.
func (d *Device) acceptRendezvous(req *Request, rts channel.Header) {
	size := int(rts.ReqB) // advertised transfer size
	if size > req.buf.Len() {
		req.err = fmt.Errorf("%w: rendezvous %d bytes into %d-byte buffer", ErrTruncate, size, req.buf.Len())
	}
	req.status = Status{Source: int(rts.Source), Tag: int(rts.Tag), Count: size}
	d.active[req.id] = req
	cts := channel.Header{
		Type: channel.PktCTS, Source: int32(d.rank),
		Tag: rts.Tag, Context: rts.Context,
		ReqA: rts.ReqA, ReqB: req.id,
	}
	if err := d.sendHeaderOnly(int(rts.Source), cts); err != nil && req.err == nil {
		req.err = d.transportErr(err)
		d.complete(req)
		delete(d.active, req.id)
	}
}

func matches(req *Request, hdr channel.Header) bool {
	if req.ctx != hdr.Context {
		return false
	}
	if req.peer != AnySource && int32(req.peer) != hdr.Source {
		return false
	}
	if req.tag != AnyTag && int32(req.tag) != hdr.Tag {
		return false
	}
	return true
}

// matchPosted removes and returns the first posted receive matching
// hdr.
func (d *Device) matchPosted(hdr channel.Header) *Request {
	for i, req := range d.posted {
		if matches(req, hdr) {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
			return req
		}
	}
	return nil
}

// CancelReq abandons an incomplete request: a posted receive is
// removed from the match list and any request is marked complete with
// ErrCancelled. Collective error paths use this so a failing
// operation never leaves buffers registered in the device. Cancelling
// a rendezvous send whose CTS later arrives is safe for this device
// (the CTS is dropped), but the peer's posted receive then depends on
// its own failure handling — cancellation is strictly a
// teardown-path tool. Completed requests are left untouched.
func (d *Device) CancelReq(req *Request) {
	if req == nil {
		return
	}
	d.mu.Lock()
	if req.Done() {
		d.mu.Unlock()
		return
	}
	d.cancelLocked(req)
	d.unlockNotify()
}

func (d *Device) cancelLocked(req *Request) {
	for i, r := range d.posted {
		if r == req {
			d.posted = append(d.posted[:i], d.posted[i+1:]...)
			break
		}
	}
	delete(d.active, req.id)
	kept := d.pendingSelfSyncs[:0]
	for _, ss := range d.pendingSelfSyncs {
		if ss.req != req {
			kept = append(kept, ss)
		}
	}
	d.pendingSelfSyncs = kept
	req.err = ErrCancelled
	d.complete(req)
	d.Stats.Cancelled++
}

// Outstanding reports the number of incomplete requests registered
// with the device (posted receives plus protocol-pending sends). The
// collective layer's drain discipline guarantees this returns to zero
// after every collective, successful or not.
func (d *Device) Outstanding() int {
	d.mu.Lock()
	n := len(d.active)
	d.mu.Unlock()
	return n
}

// StatsSnapshot returns a consistent copy of the device counters,
// safe to call while other goroutines drive the device.
func (d *Device) StatsSnapshot() DeviceStats {
	d.mu.Lock()
	s := d.Stats
	d.mu.Unlock()
	return s
}

// --- transport failure handling ----------------------------------------------

// transportErr converts a channel PeerError into a typed ErrTransport
// error, failing every other request bound to the same peer first so
// no request outlives its connection. Non-peer errors pass through.
func (d *Device) transportErr(err error) error {
	var pe *channel.PeerError
	if !errors.As(err, &pe) {
		return err
	}
	d.failPeer(pe.Peer, pe.Err)
	d.Stats.TransportErrors++
	return fmt.Errorf("%w: peer %d: %v", ErrTransport, pe.Peer, pe.Err)
}

// failPeer declares a peer connection dead: every outstanding request
// bound to that peer — posted receives, rendezvous sends awaiting
// CTS, receives awaiting DATA — completes with a typed ErrTransport
// error. Receives posted with AnySource stay posted; they can still
// be satisfied by surviving peers. Unexpected eager payloads already
// received from the dead peer remain matchable: their bytes arrived
// intact before the failure.
func (d *Device) failPeer(peer int, cause error) {
	werr := fmt.Errorf("%w: peer %d: %v", ErrTransport, peer, cause)
	if d.lost == nil {
		d.lost = make(map[int]error)
	}
	if _, seen := d.lost[peer]; !seen {
		d.Stats.PeersLost++
		d.lost[peer] = werr
	}
	kept := d.posted[:0]
	for _, r := range d.posted {
		if r.peer == peer {
			r.err = werr
			d.complete(r)
			delete(d.active, r.id)
			d.Stats.TransportErrors++
			continue
		}
		kept = append(kept, r)
	}
	d.posted = kept
	for id, r := range d.active {
		if r.peer == peer && !r.Done() {
			r.err = werr
			d.complete(r)
			delete(d.active, id)
			d.Stats.TransportErrors++
		}
	}
}

// --- progress engine -----------------------------------------------------------

// Progress makes one polling pass over the channel. It reports
// whether any packet was processed. A peer-confined transport failure
// is absorbed here: the affected requests complete with ErrTransport
// (observed via TestReq/WaitReq) and the progress engine keeps
// running for the surviving peers.
func (d *Device) Progress() (bool, error) {
	d.mu.Lock()
	progressed, err := d.progressLocked()
	d.unlockNotify()
	return progressed, err
}

func (d *Device) progressLocked() (bool, error) {
	d.Stats.Polls++
	d.resolveSelfSyncs()
	progressed, err := d.ch.Poll(d)
	if err != nil {
		var pe *channel.PeerError
		if errors.As(err, &pe) {
			d.failPeer(pe.Peer, pe.Err)
			// Report progress: requests changed state, so waiters
			// must re-check before idling.
			return true, nil
		}
		return progressed, err
	}
	return progressed, nil
}

// WaitReq blocks (polling-wait) until the request completes. The
// embedder yield (idle) runs between fruitless passes, outside the
// device lock, so a GC triggered from the yield may itself drive
// Progress.
func (d *Device) WaitReq(req *Request) (Status, error) {
	if req.Done() {
		return req.status, req.err
	}
	// Heartbeat for the stall watchdog: a wait stuck past the deadline
	// (peer died silently, matching bug, lost wakeup) gets diagnosed
	// instead of hanging forever in silence.
	obs.BeatEnter(d.rank, obs.OpDevWait, req.peer)
	defer obs.BeatExit(d.rank)
	for !req.Done() {
		progressed, err := d.Progress()
		if err != nil {
			return req.status, err
		}
		obs.BeatPulse(d.rank)
		if !progressed && !req.Done() {
			d.idle()
		}
	}
	return req.status, req.err
}

// Idle is the exported form of idle for upper layers' polling loops.
func (d *Device) Idle() { d.idle() }

// idle is called between fruitless progress polls: it runs the
// embedder's yield (the GC poll point for Motor), releases the
// processor so peer ranks sharing this machine can make progress —
// essential on single-CPU hosts, where a busy spin would otherwise
// stall the partner until the scheduler preempts — and, on a channel
// that implements channel.Waiter (sock), parks until an arrival or
// the channel's bound. It is the only place the device waits:
// channel.Poll never does, so every pass outside a blocking wait (the
// collector's hook, TestReq, Iprobe, PollCtrl, a background progress
// pass) costs progress only. It runs outside the device lock.
func (d *Device) idle() {
	if d.Yield != nil {
		d.Yield()
	}
	runtime.Gosched()
	if w, ok := d.ch.(channel.Waiter); ok {
		w.Wait()
	}
}

// TestReq makes one progress pass and reports completion.
func (d *Device) TestReq(req *Request) (bool, Status, error) {
	if !req.Done() {
		if _, err := d.Progress(); err != nil {
			return false, req.status, err
		}
	}
	if !req.Done() {
		return false, Status{}, nil
	}
	return true, req.status, req.err
}

// Iprobe checks (with one progress pass) whether a matching message
// has arrived without receiving it.
func (d *Device) Iprobe(source, tag int, ctx int32) (bool, Status, error) {
	d.mu.Lock()
	if _, err := d.progressLocked(); err != nil {
		d.unlockNotify()
		return false, Status{}, err
	}
	probe := &Request{peer: source, tag: tag, ctx: ctx}
	for i := range d.unexp {
		if matches(probe, d.unexp[i].hdr) {
			h := d.unexp[i].hdr
			count := int(h.Size)
			if h.Type == channel.PktRTS {
				count = int(h.ReqB)
			}
			d.unlockNotify()
			return true, Status{Source: int(h.Source), Tag: int(h.Tag), Count: count}, nil
		}
	}
	// Nothing queued from this source: a probe aimed at a dead peer can
	// never be satisfied, so surface the failure instead of letting the
	// caller poll forever (same ordering as Irecv — traffic that arrived
	// before the peer died stays matchable above).
	if source != AnySource {
		if werr, dead := d.lost[source]; dead {
			d.Stats.TransportErrors++
			d.unlockNotify()
			return false, Status{}, werr
		}
	}
	d.unlockNotify()
	return false, Status{}, nil
}

// SendCtrl transmits a control packet (used by collectives for
// tokens that bypass matching).
func (d *Device) SendCtrl(dest int, tag int, ctx int32) error {
	hdr := channel.Header{Type: channel.PktCtrl, Source: int32(d.rank), Tag: int32(tag), Context: ctx}
	d.mu.Lock()
	err := d.sendHeaderOnly(dest, hdr)
	d.unlockNotify()
	return err
}

// PollCtrl removes and returns the first control packet matching
// (source, tag, ctx), making one progress pass first.
func (d *Device) PollCtrl(source, tag int, ctx int32) (bool, error) {
	d.mu.Lock()
	if _, err := d.progressLocked(); err != nil {
		d.unlockNotify()
		return false, err
	}
	probe := &Request{peer: source, tag: tag, ctx: ctx}
	for i := range d.ctrl {
		if matches(probe, d.ctrl[i]) {
			d.ctrl = append(d.ctrl[:i], d.ctrl[i+1:]...)
			d.unlockNotify()
			return true, nil
		}
	}
	// As with Iprobe: a control packet from a dead peer will never
	// arrive, so a poll aimed at it must fail typed rather than spin.
	if source != AnySource {
		if werr, dead := d.lost[source]; dead {
			d.Stats.TransportErrors++
			d.unlockNotify()
			return false, werr
		}
	}
	d.unlockNotify()
	return false, nil
}

// --- channel.Sink ---------------------------------------------------------------

// Deliver implements channel.Sink: it chooses the destination buffer
// for an incoming payload. Expected eager messages and rendezvous
// DATA land directly in the user buffer (zero intermediate copy);
// unexpected eager payloads go to a scratch buffer that becomes the
// unexpected-queue entry.
func (d *Device) Deliver(hdr channel.Header) []byte {
	d.Stats.Deliveries++
	d.curReq, d.curUnexp = nil, false
	switch hdr.Type {
	case channel.PktEager:
		if req := d.matchPosted(hdr); req != nil {
			d.curReq = req
			n := int(hdr.Size)
			if n > req.buf.Len() {
				// Truncation: stage via scratch so the channel can
				// drain the wire; the copy-out happens in Done.
				d.curUnexp = true
				return d.scratch(n)
			}
			if n == 0 {
				return nil
			}
			return req.buf.Bytes()[:n]
		}
		d.curUnexp = true
		return d.scratch(int(hdr.Size))
	case channel.PktData:
		req := d.active[hdr.ReqB]
		if req == nil {
			// Receiver request vanished; drain to scratch.
			d.curUnexp = true
			return d.scratch(int(hdr.Size))
		}
		d.curReq = req
		n := int(hdr.Size)
		if n > req.buf.Len() {
			d.curUnexp = true
			return d.scratch(n)
		}
		if n == 0 {
			return nil
		}
		return req.buf.Bytes()[:n]
	default:
		// RTS / CTS / control carry no payload.
		return nil
	}
}

func (d *Device) scratch(n int) []byte {
	if cap(d.tmp) < n {
		d.tmp = make([]byte, n)
	}
	return d.tmp[:n]
}

// Done implements channel.Sink: protocol actions after the payload
// (if any) has been written to the buffer Deliver returned.
func (d *Device) Done(hdr channel.Header) {
	switch hdr.Type {
	case channel.PktEager:
		d.Stats.EagerRecvd++
		d.noteEdgeRecv(hdr)
		switch {
		case d.curReq != nil && !d.curUnexp:
			req := d.curReq
			req.status = Status{Source: int(hdr.Source), Tag: int(hdr.Tag), Count: int(hdr.Size)}
			d.complete(req)
			delete(d.active, req.id)
			d.Stats.BytesRecvd += uint64(hdr.Size)
		case d.curReq != nil: // matched but truncated, payload in scratch
			req := d.curReq
			d.completeEagerRecv(req, hdr, d.tmp[:hdr.Size])
			delete(d.active, req.id)
		default: // unexpected
			d.Stats.Unexpected++
			payload := append([]byte(nil), d.tmp[:hdr.Size]...)
			d.unexp = append(d.unexp, unexpected{hdr: hdr, payload: payload})
		}

	case channel.PktRTS:
		if req := d.matchPosted(hdr); req != nil {
			d.acceptRendezvous(req, hdr)
		} else {
			d.Stats.Unexpected++
			d.unexp = append(d.unexp, unexpected{hdr: hdr})
		}

	case channel.PktCTS:
		req := d.active[hdr.ReqA]
		if req == nil || req.kind != reqSend {
			return
		}
		data := channel.Header{
			Type: channel.PktData, Source: int32(d.rank),
			Tag: int32(req.tag), Context: req.ctx,
			ReqA: req.id, ReqB: hdr.ReqB,
			Seq: req.edgeSeq, // carry the RTS's correlation id to the payload
		}
		err := d.ch.Send(req.peer, data, req.buf.Bytes())
		delete(d.active, req.id)
		if err != nil {
			err = d.transportErr(err)
		}
		req.err = err
		d.complete(req)
		d.Stats.BytesSent += uint64(req.buf.Len())

	case channel.PktData:
		d.Stats.DataRecvd++
		d.noteEdgeRecv(hdr)
		if d.curReq != nil {
			req := d.curReq
			if d.curUnexp {
				// Truncated rendezvous: copy what fits from scratch.
				n := req.buf.Len()
				copy(req.buf.Bytes(), d.tmp[:n])
				if req.err == nil {
					req.err = ErrTruncate
				}
				req.status.Count = n
			}
			d.complete(req)
			delete(d.active, req.id)
			d.Stats.BytesRecvd += uint64(req.status.Count)
		}

	case channel.PktCtrl:
		d.Stats.CtrlPackets++
		d.ctrl = append(d.ctrl, hdr)
	}
	d.curReq, d.curUnexp = nil, false
}
