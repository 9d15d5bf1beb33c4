package channel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"motor/internal/pal"
	"motor/internal/pal/fault"
)

// Regression test for the silent-hang framing bug: a write that
// stops mid-frame used to leave the connection open with undefined
// framing — the receiver would block forever on the missing header
// bytes. Any partial-frame error must instead poison the connection
// deterministically: the sender's next operations fail fast and the
// receiver's poll surfaces a PeerError.

func TestSockShortWritePoisonsConnection(t *testing.T) {
	// Rank 0's writes: #1 bootstrap registration, #2 first packet
	// header. 10 bytes of a 40-byte header go out, then a short-write
	// error — the partial-frame hazard.
	fp := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindShort, Nth: 2, Bytes: 10},
	}})
	rp := RetryPolicy{DialAttempts: 2, BootstrapAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		AcceptTimeout: 5 * time.Second}
	chans, err := NewSockGroupLocalOn([]pal.Platform{fp, nil}, 2, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()

	hdr := Header{Type: PktEager, Source: 0, Tag: 1, Context: 0}
	payload := []byte("hello")

	// First send hits the short write and must error immediately —
	// never pretend a half-written frame succeeded.
	err = chans[0].Send(1, hdr, payload)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != 1 {
		t.Fatalf("first Send err = %v, want PeerError for peer 1", err)
	}

	// The connection is poisoned: later sends fail fast and
	// deterministically with the same peer error, no writes attempted.
	err = chans[0].Send(1, hdr, payload)
	if !errors.As(err, &pe) || pe.Peer != 1 {
		t.Fatalf("second Send err = %v, want PeerError for peer 1", err)
	}
	if got := chans[0].TransportStats().PoisonedConns; got != 1 {
		t.Fatalf("sender PoisonedConns = %d, want 1", got)
	}

	// The receiver sees 10 bytes of header then the poisoned
	// connection's close: its Poll must surface a PeerError naming
	// rank 0 — not block forever on the 30 missing bytes.
	sink := &collectSink{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("receiver never observed the poisoned connection")
		}
		_, err := chans[1].Poll(sink)
		if err == nil {
			continue
		}
		if !errors.As(err, &pe) || pe.Peer != 0 {
			t.Fatalf("Poll err = %v, want PeerError for peer 0", err)
		}
		break
	}
	if len(sink.hdrs) != 0 {
		t.Fatalf("receiver delivered %d packets from a poisoned stream", len(sink.hdrs))
	}
	if got := chans[1].TransportStats().PoisonedConns; got != 1 {
		t.Fatalf("receiver PoisonedConns = %d, want 1", got)
	}

	// Poisoning is sticky on the receive side too.
	if _, err := chans[1].Poll(sink); err != nil {
		t.Fatalf("post-poison Poll err = %v, want nil (conn skipped)", err)
	}
}

// TestSockMidPayloadDropPoisons drops the connection inside a payload:
// the receiver has consumed the header and must poison, not hang,
// when the payload bytes can never arrive.
func TestSockMidPayloadDropPoisons(t *testing.T) {
	// Rank 0's writes: #1 registration, #2 header (intact), #3 payload
	// — 3 of 64 payload bytes escape before the connection drops.
	fp := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpWrite, Kind: fault.KindDrop, Nth: 3, Bytes: 3},
	}})
	rp := RetryPolicy{DialAttempts: 2, BootstrapAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		AcceptTimeout: 5 * time.Second}
	chans, err := NewSockGroupLocalOn([]pal.Platform{fp, nil}, 2, rp)
	if err != nil {
		t.Fatal(err)
	}
	defer chans[0].Close()
	defer chans[1].Close()

	hdr := Header{Type: PktEager, Source: 0, Tag: 1, Context: 0}
	err = chans[0].Send(1, hdr, make([]byte, 64))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != 1 {
		t.Fatalf("Send err = %v, want PeerError for peer 1", err)
	}

	sink := &collectSink{}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("receiver hung on a truncated payload")
		}
		_, err := chans[1].Poll(sink)
		if err == nil {
			continue
		}
		if !errors.As(err, &pe) || pe.Peer != 0 {
			t.Fatalf("Poll err = %v, want PeerError for peer 0", err)
		}
		break
	}
	if len(sink.hdrs) != 0 {
		t.Fatalf("receiver completed %d packets from a truncated stream", len(sink.hdrs))
	}
}

// TestSockReadFaultAfterPeekPoisons injects read-side faults on the
// receiver. A Poll reads only after its peek saw bytes pending, so the
// receiver's read #2 (#1 is the bootstrap table) is the first read of
// the frame's header, with the frame in the socket buffer. A reset or a
// drop there, or a reset on the read after a short one (mid-header),
// must still poison the connection with a PeerError naming the sender
// and deliver nothing; a short read alone is legal TCP and the frame
// arrives intact.
func TestSockReadFaultAfterPeekPoisons(t *testing.T) {
	cases := []struct {
		name   string
		rules  []fault.Rule
		poison bool
	}{
		{"reset", []fault.Rule{{Op: fault.OpRead, Kind: fault.KindReset, Nth: 2}}, true},
		{"drop", []fault.Rule{{Op: fault.OpRead, Kind: fault.KindDrop, Nth: 2, Bytes: 10}}, true},
		{"short-then-reset", []fault.Rule{
			{Op: fault.OpRead, Kind: fault.KindShort, Nth: 2, Bytes: 10},
			{Op: fault.OpRead, Kind: fault.KindReset, Nth: 3},
		}, true},
		{"short", []fault.Rule{{Op: fault.OpRead, Kind: fault.KindShort, Nth: 2, Bytes: 10}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fp := fault.New(pal.Default, fault.Plan{Seed: 1, Rules: tc.rules})
			rp := RetryPolicy{DialAttempts: 2, BootstrapAttempts: 2,
				BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
				AcceptTimeout: 5 * time.Second}
			chans, err := NewSockGroupLocalOn([]pal.Platform{nil, fp}, 2, rp)
			if err != nil {
				t.Fatal(err)
			}
			defer chans[0].Close()
			defer chans[1].Close()

			payload := []byte("payload after a positive peek")
			if err := chans[0].Send(1, Header{Type: PktEager, Source: 0, Tag: 6}, payload); err != nil {
				t.Fatal(err)
			}
			sink := &collectSink{}
			var pollErr error
			deadline := time.Now().Add(10 * time.Second)
			for len(sink.hdrs) == 0 && pollErr == nil {
				if time.Now().After(deadline) {
					t.Fatal("receiver neither delivered nor poisoned")
				}
				_, pollErr = chans[1].Poll(sink)
			}
			if got := fp.Stats().Total; got != uint64(len(tc.rules)) {
				t.Fatalf("faults injected = %d, want %d", got, len(tc.rules))
			}
			if !tc.poison {
				if pollErr != nil || !bytes.Equal(sink.payloads[0], payload) {
					t.Fatalf("short read: err %v, payload %q; want the frame intact", pollErr, sink.payloads)
				}
				return
			}
			var pe *PeerError
			if !errors.As(pollErr, &pe) || pe.Peer != 0 {
				t.Fatalf("Poll err = %v, want PeerError for peer 0", pollErr)
			}
			if len(sink.hdrs) != 0 {
				t.Fatalf("delivered %d packets from a faulted stream", len(sink.hdrs))
			}
			if got := chans[1].TransportStats().PoisonedConns; got != 1 {
				t.Fatalf("receiver PoisonedConns = %d, want 1", got)
			}
		})
	}
}
