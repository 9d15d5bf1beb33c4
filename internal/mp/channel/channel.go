// Package channel implements the lowest layer of the message-passing
// core: the MPICH2-style channel interface, "the simplest
// functionality required to move a message from one address space to
// another" (paper §6). Two production channels are provided — shm
// (in-process shared-memory rings) and sock (TCP with a rendezvous
// bootstrap) — plus a loop channel for single-rank worlds and tests.
//
// The channel moves packets: a fixed 40-byte header plus an opaque
// payload. Delivery is pull-based and zero-copy on the receive side:
// the device's Sink chooses the destination buffer for each payload
// after seeing its header, so an expected message lands directly in
// the user (or managed-heap) buffer.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PacketType discriminates device-level packets (defined here so the
// channel can be tested independently of the device).
type PacketType uint8

// Device packet types.
const (
	PktEager PacketType = iota + 1 // payload carries the whole message
	PktRTS                         // rendezvous request-to-send (no payload)
	PktCTS                         // rendezvous clear-to-send (no payload)
	PktData                        // rendezvous payload
	PktCtrl                        // device control (barrier fan-in etc.)
)

// HeaderSize is the wire size of a packet header.
const HeaderSize = 40

// Header describes one packet. Seq is the observability correlation
// sequence: the sending device stamps a per-destination counter on
// message-bearing packets (eager, RTS, DATA) so the trace merge pass
// can join the sender's edge:send with the receiver's edge:recv;
// zero means unstamped (control packets, tracing off). It rides in
// the four header bytes that were previously reserved padding, so
// the wire size is unchanged.
type Header struct {
	Type    PacketType
	Source  int32  // sending rank (world numbering)
	Tag     int32  // message tag
	Context int32  // communicator context id
	Size    uint32 // payload byte count
	Seq     uint32 // trace correlation sequence (0 = unstamped)
	ReqA    uint64 // protocol correlation id (sender request)
	ReqB    uint64 // protocol correlation id (receiver request)
}

// Marshal encodes the header into b (len >= HeaderSize).
func (h *Header) Marshal(b []byte) {
	b[0] = byte(h.Type)
	b[1], b[2], b[3] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[4:], uint32(h.Source))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.Tag))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.Context))
	binary.LittleEndian.PutUint32(b[16:], h.Size)
	binary.LittleEndian.PutUint32(b[20:], h.Seq)
	binary.LittleEndian.PutUint64(b[24:], h.ReqA)
	binary.LittleEndian.PutUint64(b[32:], h.ReqB)
}

// Unmarshal decodes the header from b.
func (h *Header) Unmarshal(b []byte) {
	h.Type = PacketType(b[0])
	h.Source = int32(binary.LittleEndian.Uint32(b[4:]))
	h.Tag = int32(binary.LittleEndian.Uint32(b[8:]))
	h.Context = int32(binary.LittleEndian.Uint32(b[12:]))
	h.Size = binary.LittleEndian.Uint32(b[16:])
	h.Seq = binary.LittleEndian.Uint32(b[20:])
	h.ReqA = binary.LittleEndian.Uint64(b[24:])
	h.ReqB = binary.LittleEndian.Uint64(b[32:])
}

// String renders the header for diagnostics.
func (h *Header) String() string {
	return fmt.Sprintf("pkt{type=%d src=%d tag=%d ctx=%d size=%d}", h.Type, h.Source, h.Tag, h.Context, h.Size)
}

// Sink is the device-side receiver. For each incoming packet the
// channel calls Deliver to obtain the destination buffer (exactly
// Size bytes; nil for empty payloads), writes the payload into it,
// and then calls Done.
type Sink interface {
	Deliver(hdr Header) []byte
	Done(hdr Header)
}

// Channel moves packets between the ranks of one process group.
// Implementations must preserve per-(source,destination) FIFO order —
// the device's matching semantics depend on non-overtaking delivery.
type Channel interface {
	// Rank and Size describe this endpoint's place in the group.
	Rank() int
	Size() int
	// Send transmits one packet to dest. It may buffer; it must not
	// block indefinitely. The payload is consumed before return.
	Send(dest int, hdr Header, payload []byte) error
	// Poll delivers at most one pending incoming packet to the sink,
	// reporting whether anything was delivered. Poll never waits: it
	// takes what has already arrived and returns, so a caller that
	// only wants fresh status (the collector's mark-phase check,
	// TestReq, Iprobe, a background progress pass) pays for progress,
	// not for an idle wait. Waiting for the next arrival is the job of
	// Waiter, called by the device between fruitless passes.
	Poll(sink Sink) (bool, error)
	// Close releases channel resources.
	Close() error
}

// Waiter is implemented by channels whose arrivals only the operating
// system can announce (sock). Wait parks until a packet may be pending
// or a short bound (pollWindow) passes, whichever comes first; it
// delivers nothing and the next Poll takes the packet. The device
// calls it between fruitless passes of a blocking wait (adi
// Device.idle) — the one place a wait may happen. Channels without it
// (shm, loop) see a peer's Send in their next Poll and need no wait.
type Waiter interface {
	Wait()
}

// ErrClosed is returned by operations on a closed channel.
var ErrClosed = errors.New("channel: closed")

// ErrRank is returned for an out-of-range destination.
var ErrRank = errors.New("channel: rank out of range")

// ErrProtocol is returned when a peer violates the wire protocol
// (bad frame, bad bootstrap handshake): the connection state is no
// longer trustworthy.
var ErrProtocol = errors.New("channel: protocol violation")

// ErrConfig is returned for invalid channel construction parameters.
var ErrConfig = errors.New("channel: invalid configuration")

// PeerError reports a transport failure confined to one peer
// connection: the rest of the mesh stays usable. The device layer
// translates it into typed MPI error classes on the affected requests
// instead of stalling the progress engine.
type PeerError struct {
	Peer int // world rank of the failed peer connection
	Err  error
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("channel: peer %d: %v", e.Peer, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *PeerError) Unwrap() error { return e.Err }

// TransportStats counts channel-level traffic, fault and recovery
// activity. Frame counts are per wire packet (header + payload);
// byte counts cover payloads only — header overhead is fixed per
// frame (see headerSize).
type TransportStats struct {
	FramesSent       uint64 // packets pushed to peers
	FramesRecvd      uint64 // packets delivered to the sink
	BytesSent        uint64 // payload bytes pushed to peers
	BytesRecvd       uint64 // payload bytes delivered to the sink
	RingCompactions  uint64 // shm ring prefix compactions (shm only)
	DialRetries      uint64 // re-dials after a failed connection attempt
	BootstrapRetries uint64 // full rendezvous-exchange retries
	PoisonedConns    uint64 // connections killed after a partial frame
	PeersRetired     uint64 // connections retired on graceful close
}

// StatsSource is implemented by channels that track transport stats.
type StatsSource interface {
	TransportStats() TransportStats
}
