package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"motor/internal/mp"
	"motor/internal/vm"
)

// rank bundles one rank's VM, engine and managed thread for tests.
type rank struct {
	v  *vm.VM
	e  *Engine
	th *vm.Thread
}

// runRanks builds an n-rank shm world, one VM per rank, and runs body
// once per rank on its own goroutine and managed thread.
func runRanks(t *testing.T, n int, opts []Option, body func(r *rank) error) {
	t.Helper()
	worlds, err := mp.NewLocalWorlds(mp.ChannelShm, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(w *mp.World) {
			v := vm.New(vm.Config{
				Name: fmt.Sprintf("rank%d", w.Rank()),
				Heap: vm.HeapConfig{YoungSize: 64 << 10, InitialElder: 512 << 10, ArenaMax: 64 << 20},
			})
			e := Attach(v, w, opts...)
			th := v.StartThread("main")
			defer th.End()
			defer w.Close()
			errc <- body(&rank{v: v, e: e, th: th})
		}(worlds[i])
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ranks deadlocked")
		}
	}
}

func registerLinkedArray(v *vm.VM) *vm.MethodTable {
	mt, err := v.DeclareClass("LinkedArray")
	if err != nil {
		panic(err)
	}
	i32arr := v.ArrayType(vm.KindInt32, nil, 1)
	if err := v.CompleteClass(mt, nil, []vm.FieldSpec{
		{Name: "array", Kind: vm.KindRef, Type: i32arr, Transportable: true},
		{Name: "next", Kind: vm.KindRef, Type: mt, Transportable: true},
		{Name: "next2", Kind: vm.KindRef, Type: mt},
		{Name: "id", Kind: vm.KindInt32},
	}); err != nil {
		panic(err)
	}
	return mt
}

func TestEnginePingPong(t *testing.T) {
	for _, policy := range []PinPolicy{PolicyMotor, PolicyAlwaysPin} {
		policy := policy
		t.Run(fmt.Sprintf("policy=%d", policy), func(t *testing.T) {
			runRanks(t, 2, []Option{WithPolicy(policy)}, func(r *rank) error {
				h := r.v.Heap
				const iters = 30
				if r.e.Comm.Rank() == 0 {
					for i := 0; i < iters; i++ {
						msg, err := h.NewInt32Array([]int32{int32(i), int32(i * 2), int32(i * 3)})
						if err != nil {
							return err
						}
						if err := r.e.Send(r.th, msg, 1, 0); err != nil {
							return err
						}
						reply, err := h.NewInt32Array(make([]int32, 3))
						if err != nil {
							return err
						}
						if _, err := r.e.Recv(r.th, reply, 1, 0); err != nil {
							return err
						}
						got := h.Int32Slice(reply)
						if got[0] != int32(i)+1 {
							return fmt.Errorf("iter %d: reply %v", i, got)
						}
					}
					return nil
				}
				for i := 0; i < iters; i++ {
					buf, err := h.NewInt32Array(make([]int32, 3))
					if err != nil {
						return err
					}
					if _, err := r.e.Recv(r.th, buf, 0, 0); err != nil {
						return err
					}
					vals := h.Int32Slice(buf)
					if vals[1] != int32(i*2) {
						return fmt.Errorf("iter %d: got %v", i, vals)
					}
					vals[0]++
					reply, err := h.NewInt32Array(vals)
					if err != nil {
						return err
					}
					if err := r.e.Send(r.th, reply, 0, 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestObjectModelIntegrityChecks(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		if r.e.Comm.Rank() != 0 {
			// Participate in nothing; rank 0 only exercises local errors.
			return nil
		}
		h := r.v.Heap
		la := registerLinkedArray(r.v)
		node, _ := h.AllocClass(la)
		// A class with reference fields must be rejected outright.
		if err := r.e.Send(r.th, node, 1, 0); !errors.Is(err, ErrObjectModel) {
			return fmt.Errorf("ref-bearing class accepted: %v", err)
		}
		// Object arrays too.
		oa, _ := h.AllocArray(r.v.ArrayType(vm.KindRef, la, 1), 3)
		if err := r.e.Send(r.th, oa, 1, 0); !errors.Is(err, ErrObjectModel) {
			return fmt.Errorf("object array accepted: %v", err)
		}
		// Null objects.
		if err := r.e.Send(r.th, vm.NullRef, 1, 0); !errors.Is(err, ErrNullObject) {
			return fmt.Errorf("null accepted: %v", err)
		}
		// Range transport: only on arrays, bounds checked.
		arr, _ := h.NewInt32Array(make([]int32, 10))
		if err := r.e.SendRange(r.th, arr, 8, 5, 1, 0); err == nil {
			return errors.New("out-of-bounds range accepted")
		}
		flat, _ := h.AllocClass(r.v.MustNewClass("Flat", nil, []vm.FieldSpec{{Name: "x", Kind: vm.KindInt64}}))
		if err := r.e.SendRange(r.th, flat, 0, 1, 1, 0); !errors.Is(err, ErrNotArray) {
			return fmt.Errorf("range on class accepted: %v", err)
		}
		return nil
	})
}

func TestFlatClassTransport(t *testing.T) {
	// Classes without reference fields ARE transportable object-to-
	// object (paper §4.2.1).
	runRanks(t, 2, nil, func(r *rank) error {
		mt := r.v.MustNewClass("Particle", nil, []vm.FieldSpec{
			{Name: "x", Kind: vm.KindFloat64},
			{Name: "y", Kind: vm.KindFloat64},
			{Name: "charge", Kind: vm.KindInt32},
		})
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			p, _ := h.AllocClass(mt)
			h.SetScalar(p, mt.FieldByName("x"), vm.BitsFromF64(3.5))
			h.SetScalar(p, mt.FieldByName("y"), vm.BitsFromF64(-1.25))
			minusOne := int32(-1)
			h.SetScalar(p, mt.FieldByName("charge"), uint64(uint32(minusOne)))
			return r.e.Send(r.th, p, 1, 9)
		}
		p, _ := h.AllocClass(mt)
		st, err := r.e.Recv(r.th, p, 0, 9)
		if err != nil {
			return err
		}
		if st.Count != int(mt.InstanceSize) {
			return fmt.Errorf("count %d, want %d", st.Count, mt.InstanceSize)
		}
		if vm.F64FromBits(h.GetScalar(p, mt.FieldByName("x"))) != 3.5 {
			return errors.New("x corrupt")
		}
		if got := int32(uint32(h.GetScalar(p, mt.FieldByName("charge")))); got != -1 {
			return fmt.Errorf("charge %d", got)
		}
		return nil
	})
}

func TestArrayRangeTransport(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			vals := make([]int32, 100)
			for i := range vals {
				vals[i] = int32(i)
			}
			arr, _ := h.NewInt32Array(vals)
			// Send elements [40, 50).
			return r.e.SendRange(r.th, arr, 40, 10, 1, 0)
		}
		arr, _ := h.NewInt32Array(make([]int32, 20))
		// Receive into elements [5, 15).
		st, err := r.e.RecvRange(r.th, arr, 5, 10, 0, 0)
		if err != nil {
			return err
		}
		if st.Count != 40 {
			return fmt.Errorf("count %d", st.Count)
		}
		got := h.Int32Slice(arr)
		if got[4] != 0 || got[5] != 40 || got[14] != 49 || got[15] != 0 {
			return fmt.Errorf("range landed wrong: %v", got)
		}
		return nil
	})
}

// TestPinningPolicyStats verifies the §7.4 decision table through the
// engine's counters.
func TestPinningPolicyStats(t *testing.T) {
	// Handshake instead of sleeps: rank 1 sends each of (b)'s and (c)'s
	// messages only once rank 0's receive is posted and inside its
	// polling-wait. Rank 0 arms the flag just before each receive; its
	// device's idle step (the polling-wait's yield, which runs only
	// after the receive was posted, found incomplete and its pin
	// decision taken) disarms it and hands rank 1 one token.
	var armed atomic.Bool
	inWait := make(chan struct{}, 1)
	runRanks(t, 2, nil, func(r *rank) error {
		h := r.v.Heap
		c := r.e.Comm
		if c.Rank() == 0 {
			dev := r.e.World.Dev
			poll := dev.Yield
			dev.Yield = func() {
				if armed.CompareAndSwap(true, false) {
					inWait <- struct{}{}
				}
				poll()
			}

			// (a) Eager send of a young object completes fast: no pin.
			msg, _ := h.NewInt32Array([]int32{1})
			if !h.IsYoung(msg) {
				return errors.New("expected young object")
			}
			if err := r.e.Send(r.th, msg, 1, 0); err != nil {
				return err
			}
			if r.e.Stats.PinAvoidedFast == 0 {
				return fmt.Errorf("fast send pinned anyway: %+v", r.e.Stats)
			}
			if r.e.Stats.PinDeferred != 0 {
				return errors.New("fast send took the deferred pin")
			}

			// (b) Elder object: never pinned even when the op waits.
			elder, _ := h.NewInt32Array([]int32{2})
			pop := r.th.PushFrame(&elder)
			r.th.CollectYoung() // promote
			pop()
			if h.IsYoung(elder) {
				return errors.New("not promoted")
			}
			armed.Store(true)
			if _, err := r.e.Recv(r.th, elder, 1, 1); err != nil {
				return err
			}
			if r.e.Stats.PinSkippedElder == 0 {
				return fmt.Errorf("elder recv not skipped: %+v", r.e.Stats)
			}
			if r.e.Stats.PinDeferred != 0 {
				return errors.New("elder recv pinned")
			}

			// (c) Young object blocking recv that must wait: deferred pin.
			young, _ := h.NewInt32Array(make([]int32, 4))
			armed.Store(true)
			if _, err := r.e.Recv(r.th, young, 1, 2); err != nil {
				return err
			}
			if r.e.Stats.PinDeferred != 1 {
				return fmt.Errorf("deferred pins %d, want 1", r.e.Stats.PinDeferred)
			}
			if h.Stats.Pins != h.Stats.Unpins {
				return fmt.Errorf("pin imbalance: %d vs %d", h.Stats.Pins, h.Stats.Unpins)
			}
			return nil
		}
		// Rank 1: partner.
		buf, _ := h.NewInt32Array(make([]int32, 1))
		if _, err := r.e.Recv(r.th, buf, 0, 0); err != nil {
			return err
		}
		// Send only once rank 0's receive is in its polling-wait.
		<-inWait
		m1, _ := h.NewInt32Array([]int32{7})
		if err := r.e.Send(r.th, m1, 0, 1); err != nil {
			return err
		}
		<-inWait
		m2, _ := h.NewInt32Array([]int32{8, 8, 8, 8})
		return r.e.Send(r.th, m2, 0, 2)
	})
}

// TestConditionalPinLifecycle verifies the §4.3/§7.4 non-blocking
// rule: an Irecv into a young buffer registers a conditional pin
// request; a collection while the transfer is pending holds the pin
// (and donates the block); the first collection after completion
// discards the request.
func TestConditionalPinLifecycle(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			buf, err := h.NewInt32Array(make([]int32, 256))
			if err != nil {
				return err
			}
			if !h.IsYoung(buf) {
				return errors.New("want young buffer")
			}
			id, err := r.e.Irecv(r.th, buf, 1, 0)
			if err != nil {
				return err
			}
			if r.e.Stats.CondPins != 1 {
				return fmt.Errorf("cond pins %d", r.e.Stats.CondPins)
			}
			if h.CondPinCount() != 1 {
				return errors.New("request not registered")
			}
			// Collect while in flight: the request must hold.
			before := buf
			pop := r.th.PushFrame(&buf)
			r.th.CollectYoung()
			pop()
			if buf != before {
				return errors.New("conditionally pinned buffer moved")
			}
			if h.Stats.CondPinsHeld == 0 {
				return errors.New("mark phase did not hold the request")
			}
			// Signal the sender that the collection happened.
			sig, _ := h.NewInt32Array([]int32{1})
			if err := r.e.Send(r.th, sig, 1, 9); err != nil {
				return err
			}
			st, err := r.e.Wait(r.th, id)
			if err != nil {
				return err
			}
			if st.Count != 256*4 {
				return fmt.Errorf("count %d", st.Count)
			}
			got := h.Int32Slice(buf)
			for i, v := range got {
				if v != int32(i^3) {
					return fmt.Errorf("elem %d = %d after pinned transfer", i, v)
				}
			}
			// After completion the next collection discards the request.
			r.th.CollectYoung()
			if h.CondPinCount() != 0 {
				return errors.New("request not discarded after completion")
			}
			return nil
		}
		// Rank 1: wait for the collection signal, then send payload.
		h1 := r.v.Heap
		sig, _ := h1.NewInt32Array(make([]int32, 1))
		if _, err := r.e.Recv(r.th, sig, 0, 9); err != nil {
			return err
		}
		vals := make([]int32, 256)
		for i := range vals {
			vals[i] = int32(i ^ 3)
		}
		payload, _ := h1.NewInt32Array(vals)
		return r.e.Send(r.th, payload, 0, 0)
	})
}

// TestPinningIsLoadBearing demonstrates the hazard the policy exists
// to prevent: with PolicyNever, a collection between Irecv and the
// data's arrival moves the buffer, the transfer lands at the stale
// address, and the payload is lost. The same schedule under
// PolicyMotor (previous test) delivers intact data.
func TestPinningIsLoadBearing(t *testing.T) {
	runRanks(t, 2, []Option{WithPolicy(PolicyNever)}, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			buf, _ := h.NewInt32Array(make([]int32, 256))
			id, err := r.e.Irecv(r.th, buf, 1, 0)
			if err != nil {
				return err
			}
			before := buf
			pop := r.th.PushFrame(&buf)
			r.th.CollectYoung()
			pop()
			if buf == before {
				return errors.New("buffer did not move; hazard not exercised")
			}
			sig, _ := h.NewInt32Array([]int32{1})
			if err := r.e.Send(r.th, sig, 1, 9); err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
			// The data went to the stale address: the (moved) buffer
			// still holds zeros.
			got := h.Int32Slice(buf)
			for i, v := range got {
				if v != 0 {
					return fmt.Errorf("elem %d = %d: transfer followed the moved object, hazard not demonstrated", i, v)
				}
			}
			return nil
		}
		h1 := r.v.Heap
		sig, _ := h1.NewInt32Array(make([]int32, 1))
		if _, err := r.e.Recv(r.th, sig, 0, 9); err != nil {
			return err
		}
		vals := make([]int32, 256)
		for i := range vals {
			vals[i] = int32(i + 1)
		}
		payload, _ := h1.NewInt32Array(vals)
		return r.e.Send(r.th, payload, 0, 0)
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	runRanks(t, 2, nil, func(r *rank) error {
		h := r.v.Heap
		if r.e.Comm.Rank() == 0 {
			msg, _ := h.NewInt32Array([]int32{42, 43})
			id, err := r.e.Isend(r.th, msg, 1, 0)
			if err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, id); err != nil {
				return err
			}
			if _, err := r.e.Wait(r.th, id); !errors.Is(err, ErrBadRequest) {
				return fmt.Errorf("double wait: %v", err)
			}
			if r.e.PendingRequests() != 0 {
				return errors.New("request leaked")
			}
			return nil
		}
		buf, _ := h.NewInt32Array(make([]int32, 2))
		id, err := r.e.Irecv(r.th, buf, 0, 0)
		if err != nil {
			return err
		}
		for {
			done, _, err := r.e.Test(r.th, id)
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		if got := h.Int32Slice(buf); got[0] != 42 || got[1] != 43 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
}

func TestEngineCollectives(t *testing.T) {
	runRanks(t, 4, nil, func(r *rank) error {
		h := r.v.Heap
		c := r.e.Comm
		if err := r.e.Barrier(r.th); err != nil {
			return err
		}
		// Bcast.
		buf, _ := h.NewInt32Array(make([]int32, 8))
		if c.Rank() == 2 {
			for i := 0; i < 8; i++ {
				h.SetElem(buf, i, uint64(uint32(int32(i*5))))
			}
		}
		if err := r.e.Bcast(r.th, buf, 2); err != nil {
			return err
		}
		for i, v := range h.Int32Slice(buf) {
			if v != int32(i*5) {
				return fmt.Errorf("bcast elem %d = %d", i, v)
			}
		}
		// Scatter / Gather.
		var send vm.Ref
		if c.Rank() == 0 {
			vals := make([]int32, 16)
			for i := range vals {
				vals[i] = int32(i)
			}
			send, _ = h.NewInt32Array(vals)
		}
		recv, _ := h.NewInt32Array(make([]int32, 4))
		if err := r.e.Scatter(r.th, send, recv, 0); err != nil {
			return err
		}
		for i, v := range h.Int32Slice(recv) {
			if v != int32(c.Rank()*4+i) {
				return fmt.Errorf("scatter elem %d = %d", i, v)
			}
		}
		// Double and gather back.
		vals := h.Int32Slice(recv)
		for i := range vals {
			vals[i] *= 2
		}
		mine, _ := h.NewInt32Array(vals)
		var all vm.Ref
		if c.Rank() == 0 {
			all, _ = h.NewInt32Array(make([]int32, 16))
		}
		if err := r.e.Gather(r.th, mine, all, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i, v := range h.Int32Slice(all) {
				if v != int32(i*2) {
					return fmt.Errorf("gather elem %d = %d", i, v)
				}
			}
		}
		return nil
	})
}
