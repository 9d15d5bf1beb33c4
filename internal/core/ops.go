package core

import (
	"errors"
	"fmt"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/vm"
)

// Regular MPI operations (paper §4.2.1): efficient object-to-object
// transport for objects without references and arrays of simple
// types. The count and datatype parameters of classic MPI are gone —
// message length is derived from the object — and sub-ranges are only
// available on arrays, where bounds are checkable.
//
// Every blocking operation follows the paper's FCall discipline
// (§7.4): GC poll on entry, quick completion test (fast operations
// never pin), pinning policy applied only when the operation actually
// enters its polling-wait, poll on exit.

// pinForWait applies the pinning policy at polling-wait entry for a
// blocking operation and returns the matching release function.
func (e *Engine) pinForWait(obj vm.Ref) func() {
	h := e.VM.Heap
	switch e.policy {
	case PolicyNever:
		return func() {}
	case PolicyAlwaysPin:
		// Eager pinning happened at operation start; nothing here.
		return func() {}
	default:
		if !h.IsYoung(obj) {
			// Elder residents are never moved: no pin needed.
			bump(&e.Stats.PinSkippedElder, 1)
			e.notePin(obs.PinSkippedElder, obj)
			return func() {}
		}
		bump(&e.Stats.PinDeferred, 1)
		e.notePin(obs.PinDeferred, obj)
		h.Pin(obj)
		return func() { h.Unpin(obj) }
	}
}

// pinEager applies PolicyAlwaysPin's operation-start pin.
func (e *Engine) pinEager(obj vm.Ref) func() {
	if e.policy != PolicyAlwaysPin || obj == vm.NullRef {
		return func() {}
	}
	bump(&e.Stats.PinEager, 1)
	e.notePin(obs.PinEager, obj)
	e.VM.Heap.Pin(obj)
	return func() { e.VM.Heap.Unpin(obj) }
}

// noteErr records transport-class completion failures (mp.ErrTransport)
// in the engine stats so a rank's exposure to peer loss is observable
// through MPStats / mpstat.
func (e *Engine) noteErr(err error) error {
	if err != nil && errors.Is(err, mp.ErrTransport) {
		bump(&e.Stats.TransportErrors, 1)
		// A lost peer is exactly the moment the last few milliseconds
		// of events matter: dump the flight recorder before the error
		// propagates and the evidence is overwritten.
		obs.FlightTrip("transport")
	}
	return err
}

// waitBlocking drives a request to completion with the polling-wait:
// progress, then GC poll, repeatedly (§7.4's three polling points are
// entry — in the callers —, this loop, and the exit poll).
func (e *Engine) waitBlocking(t *vm.Thread, c *mp.Comm, obj vm.Ref, req *mp.Request, op obs.OpCode) (mp.Status, error) {
	done, st, err := c.Test(req)
	if done {
		if e.policy == PolicyMotor && e.VM.Heap.IsYoung(obj) {
			bump(&e.Stats.PinAvoidedFast, 1)
			e.notePin(obs.PinAvoidedFast, obj)
		} else if e.policy == PolicyMotor {
			bump(&e.Stats.PinSkippedElder, 1)
			e.notePin(obs.PinSkippedElder, obj)
		}
		return st, e.noteErr(err)
	}
	// The operation enters its polling-wait: open the wait span first
	// so the pin decision below lands inside it — that nesting is the
	// §7.4 claim ("the pin is taken only when the wait is entered")
	// made visible in the trace.
	tr := obs.Active()
	if tr != nil {
		tr.Begin(e.lane, obs.KWait, uint64(op))
	}
	unpin := e.pinForWait(obj)
	defer unpin()
	defer func() {
		if tr != nil {
			if d := tr.End(e.lane); d > 0 {
				tr.Record(obs.HistRequestWait, d)
			}
		}
	}()
	// Watchdog heartbeat for the §7.4 polling-wait. A parked thread
	// (progress-engine mode) stops pulsing, but the watchdog keys on
	// wait-entry age, so a lost completion still trips it.
	obs.BeatEnter(e.lane, op, -1)
	defer obs.BeatExit(e.lane)
	for {
		done, st, err = c.Test(req)
		if done {
			return st, e.noteErr(err)
		}
		obs.BeatPulse(e.lane)
		e.waitStep(t, req)
	}
}

// idle is one step of the polling-wait: the device's idle step yields
// to the collector (its Yield is the VM poll point), releases the
// processor for peer ranks and, on sock, parks until an arrival (see
// adi.Device.idle).
func (e *Engine) idle() { e.World.Dev.Idle() }

// waitStep is one iteration of a blocking wait on req. Inline mode
// yields to the collector between the caller's progress passes (the
// classic polling-wait). With the background progress engine running,
// the thread instead parks — releasing the execution token for its
// whole sleep — until the engine's completion continuation fires, so
// a blocked thread burns no CPU and steals no token time from
// siblings or the progress loop.
func (e *Engine) waitStep(t *vm.Thread, req *mp.Request) {
	if e.progress != nil {
		ch := make(chan struct{})
		req.OnComplete(func() { close(ch) })
		t.Park(func() { <-ch })
		return
	}
	e.idle()
}

// Send transports a whole object (blocking, standard mode).
func (e *Engine) Send(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, false, -1, -1)
}

// Ssend transports a whole object (blocking, synchronous mode).
func (e *Engine) Ssend(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, true, -1, -1)
}

// SendRange transports array elements [offset, offset+count).
func (e *Engine) SendRange(t *vm.Thread, obj vm.Ref, offset, count, dest, tag int) error {
	return e.sendCommon(t, obj, dest, tag, false, offset, count)
}

func (e *Engine) sendCommon(t *vm.Thread, obj vm.Ref, dest, tag int, sync bool, offset, count int) error {
	return e.sendCommonOn(t, e.Comm, obj, dest, tag, sync, offset, count)
}

func (e *Engine) sendCommonOn(t *vm.Thread, c *mp.Comm, obj vm.Ref, dest, tag int, sync bool, offset, count int) error {
	// Root the ref argument for the whole operation: the entry poll
	// below is a safepoint, and with several VM threads sharing the
	// rank a sibling's collection can move the object before the
	// buffer is derived (the pin policy only takes over at wait
	// entry). Every Ref-taking entry point follows this discipline.
	defer t.PushFrame(&obj)()
	t.PollGC()
	defer t.PollGC()
	var buf heapBuf
	var err error
	if offset >= 0 {
		buf, err = e.rangeBuf(t, obj, offset, count)
	} else {
		buf, err = e.wholeBuf(t, obj)
	}
	if err != nil {
		return err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpSend, buf.Len(), dest)
	defer e.opEnd(tr)
	unpinEager := e.pinEager(obj)
	defer unpinEager()
	req, err := c.IsendBuffer(buf, dest, tag, sync)
	if err != nil {
		return err
	}
	_, err = e.waitBlocking(t, c, obj, req, obs.OpSend)
	return err
}

// Recv receives into a whole object (blocking). It returns the
// source rank and delivered byte count.
func (e *Engine) Recv(t *vm.Thread, obj vm.Ref, source, tag int) (mp.Status, error) {
	return e.recvCommon(t, obj, source, tag, -1, -1)
}

// RecvRange receives into array elements [offset, offset+count).
func (e *Engine) RecvRange(t *vm.Thread, obj vm.Ref, offset, count, source, tag int) (mp.Status, error) {
	return e.recvCommon(t, obj, source, tag, offset, count)
}

func (e *Engine) recvCommon(t *vm.Thread, obj vm.Ref, source, tag int, offset, count int) (mp.Status, error) {
	return e.recvCommonOn(t, e.Comm, obj, source, tag, offset, count)
}

func (e *Engine) recvCommonOn(t *vm.Thread, c *mp.Comm, obj vm.Ref, source, tag int, offset, count int) (mp.Status, error) {
	defer t.PushFrame(&obj)()
	t.PollGC()
	defer t.PollGC()
	var buf heapBuf
	var err error
	if offset >= 0 {
		buf, err = e.rangeBuf(t, obj, offset, count)
	} else {
		buf, err = e.wholeBuf(t, obj)
	}
	if err != nil {
		return mp.Status{}, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpRecv, buf.Len(), source)
	defer e.opEnd(tr)
	unpinEager := e.pinEager(obj)
	defer unpinEager()
	req, err := c.IrecvBuffer(buf, source, tag)
	if err != nil {
		return mp.Status{}, err
	}
	return e.waitBlocking(t, c, obj, req, obs.OpRecv)
}

// --- immediate (non-blocking) operations --------------------------------------

// register assigns a managed request id.
func (e *Engine) register(req *mp.Request, obj vm.Ref, pinned bool) int32 {
	e.nextReq++
	id := e.nextReq
	e.requests[id] = &mpReq{id: id, req: req, obj: obj, pinned: pinned}
	return id
}

// condPin applies the non-blocking pinning rule of §7.4: a younger-
// generation object gets a conditional pin request whose mark-phase
// check is the transport's completion status.
func (e *Engine) condPin(obj vm.Ref, req *mp.Request) {
	switch e.policy {
	case PolicyNever, PolicyAlwaysPin:
		return
	}
	if req.Done() || !e.VM.Heap.IsYoung(obj) {
		if !e.VM.Heap.IsYoung(obj) {
			bump(&e.Stats.PinSkippedElder, 1)
			e.notePin(obs.PinSkippedElder, obj)
		}
		return
	}
	bump(&e.Stats.CondPins, 1)
	e.notePin(obs.PinCond, obj)
	e.VM.Heap.AddCondPin(obj, func() bool { return !req.Done() })
}

// Isend starts an immediate send and returns a request id for Wait /
// Test.
func (e *Engine) Isend(t *vm.Thread, obj vm.Ref, dest, tag int) (int32, error) {
	defer t.PushFrame(&obj)()
	t.PollGC()
	buf, err := e.wholeBuf(t, obj)
	if err != nil {
		return 0, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpIsend, buf.Len(), dest)
	defer e.opEndQuick(tr)
	pinned := false
	if e.policy == PolicyAlwaysPin {
		bump(&e.Stats.PinEager, 1)
		e.notePin(obs.PinEager, obj)
		e.VM.Heap.Pin(obj)
		pinned = true
	}
	req, err := e.Comm.IsendBuffer(buf, dest, tag, false)
	if err != nil {
		if pinned {
			e.VM.Heap.Unpin(obj)
		}
		return 0, err
	}
	e.condPin(obj, req)
	return e.register(req, obj, pinned), nil
}

// Irecv starts an immediate receive.
func (e *Engine) Irecv(t *vm.Thread, obj vm.Ref, source, tag int) (int32, error) {
	defer t.PushFrame(&obj)()
	t.PollGC()
	buf, err := e.wholeBuf(t, obj)
	if err != nil {
		return 0, err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpIrecv, buf.Len(), source)
	defer e.opEndQuick(tr)
	pinned := false
	if e.policy == PolicyAlwaysPin {
		bump(&e.Stats.PinEager, 1)
		e.notePin(obs.PinEager, obj)
		e.VM.Heap.Pin(obj)
		pinned = true
	}
	req, err := e.Comm.IrecvBuffer(buf, source, tag)
	if err != nil {
		if pinned {
			e.VM.Heap.Unpin(obj)
		}
		return 0, err
	}
	e.condPin(obj, req)
	return e.register(req, obj, pinned), nil
}

func (e *Engine) lookup(id int32) (*mpReq, error) {
	r, ok := e.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadRequest, id)
	}
	return r, nil
}

func (e *Engine) finish(r *mpReq) {
	if r.pinned {
		e.VM.Heap.Unpin(r.obj)
	}
	delete(e.requests, r.id)
}

// Wait blocks until the identified request completes.
func (e *Engine) Wait(t *vm.Thread, id int32) (mp.Status, error) {
	r, err := e.lookup(id)
	if err != nil {
		return mp.Status{}, err
	}
	tr := obs.Active()
	if tr != nil {
		tr.Begin(e.lane, obs.KWait, uint64(obs.OpWait))
	}
	for {
		done, st, err := e.Comm.Test(r.req)
		if done {
			if tr != nil {
				if d := tr.End(e.lane); d > 0 {
					tr.Record(obs.HistRequestWait, d)
				}
			}
			e.finish(r)
			return st, e.noteErr(err)
		}
		e.waitStep(t, r.req)
	}
}

// Test makes one progress pass; on completion the request id is
// retired.
func (e *Engine) Test(t *vm.Thread, id int32) (bool, mp.Status, error) {
	r, err := e.lookup(id)
	if err != nil {
		return false, mp.Status{}, err
	}
	done, st, err := e.Comm.Test(r.req)
	if !done {
		t.PollGC()
		return false, mp.Status{}, err
	}
	e.finish(r)
	return true, st, e.noteErr(err)
}

// PendingRequests reports outstanding immediate operations (tests,
// mpstat).
func (e *Engine) PendingRequests() int { return len(e.requests) }

// --- collectives over simple objects -------------------------------------------

// collectiveBuf prepares a buffer + pin for the duration of a
// collective (which always blocks).
func (e *Engine) collectivePin(obj vm.Ref) func() {
	if obj == vm.NullRef {
		return func() {}
	}
	h := e.VM.Heap
	switch e.policy {
	case PolicyNever:
		return func() {}
	case PolicyAlwaysPin:
		bump(&e.Stats.PinEager, 1)
		e.notePin(obs.PinEager, obj)
		h.Pin(obj)
		return func() { h.Unpin(obj) }
	default:
		if !h.IsYoung(obj) {
			bump(&e.Stats.PinSkippedElder, 1)
			e.notePin(obs.PinSkippedElder, obj)
			return func() {}
		}
		bump(&e.Stats.PinDeferred, 1)
		e.notePin(obs.PinDeferred, obj)
		h.Pin(obj)
		return func() { h.Unpin(obj) }
	}
}

// Barrier blocks until all ranks enter it.
func (e *Engine) Barrier(t *vm.Thread) error {
	t.PollGC()
	defer t.PollGC()
	tr := e.opBegin(obs.OpBarrier, 0, -1)
	defer e.opEnd(tr)
	return e.noteErr(e.Comm.Barrier())
}

// Bcast broadcasts the root's object contents into every rank's
// object (equal sizes required, as in MPI).
func (e *Engine) Bcast(t *vm.Thread, obj vm.Ref, root int) error {
	defer t.PushFrame(&obj)()
	t.PollGC()
	defer t.PollGC()
	buf, err := e.wholeBuf(t, obj)
	if err != nil {
		return err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpBcast, buf.Len(), root)
	defer e.opEnd(tr)
	unpin := e.collectivePin(obj)
	defer unpin()
	return e.noteErr(e.Comm.Bcast(buf.Bytes(), root))
}

// Scatter splits the root's simple array equally across ranks into
// each rank's recv array (sendArr is ignored on non-roots).
func (e *Engine) Scatter(t *vm.Thread, sendArr, recvArr vm.Ref, root int) error {
	defer t.PushFrame(&sendArr, &recvArr)()
	t.PollGC()
	defer t.PollGC()
	recvBuf, err := e.wholeBuf(t, recvArr)
	if err != nil {
		return err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpScatter, recvBuf.Len(), root)
	defer e.opEnd(tr)
	var sendBytes []byte
	var unpinSend func()
	if e.Comm.Rank() == root {
		sendBuf, err := e.wholeBuf(t, sendArr)
		if err != nil {
			return err
		}
		unpinSend = e.collectivePin(sendArr)
		defer unpinSend()
		sendBytes = sendBuf.Bytes()
	}
	unpin := e.collectivePin(recvArr)
	defer unpin()
	return e.noteErr(e.Comm.Scatter(sendBytes, recvBuf.Bytes(), root))
}

// Allgather collects every rank's simple array into every rank's
// recv array (recv must hold Size() times the send array's bytes).
func (e *Engine) Allgather(t *vm.Thread, sendArr, recvArr vm.Ref) error {
	return e.allgatherOn(t, e.Comm, sendArr, recvArr)
}

func (e *Engine) allgatherOn(t *vm.Thread, c *mp.Comm, sendArr, recvArr vm.Ref) error {
	defer t.PushFrame(&sendArr, &recvArr)()
	t.PollGC()
	defer t.PollGC()
	sendBuf, err := e.wholeBuf(t, sendArr)
	if err != nil {
		return err
	}
	recvBuf, err := e.wholeBuf(t, recvArr)
	if err != nil {
		return err
	}
	// Validate locally on every rank so an erroneous program fails
	// consistently instead of deadlocking mid-collective.
	if recvBuf.Len() != sendBuf.Len()*c.Size() {
		return fmt.Errorf("core: allgather recv %d bytes, want %d (send %d × %d ranks)",
			recvBuf.Len(), sendBuf.Len()*c.Size(), sendBuf.Len(), c.Size())
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpAllgather, sendBuf.Len(), -1)
	defer e.opEnd(tr)
	unpinSend := e.collectivePin(sendArr)
	defer unpinSend()
	unpinRecv := e.collectivePin(recvArr)
	defer unpinRecv()
	return e.noteErr(c.Allgather(sendBuf.Bytes(), recvBuf.Bytes()))
}

// Alltoall exchanges equal chunks of every rank's simple send array:
// rank j's chunk i lands in rank i's recv array at chunk j. Both
// arrays must hold Size() equal chunks.
func (e *Engine) Alltoall(t *vm.Thread, sendArr, recvArr vm.Ref) error {
	return e.alltoallOn(t, e.Comm, sendArr, recvArr)
}

func (e *Engine) alltoallOn(t *vm.Thread, c *mp.Comm, sendArr, recvArr vm.Ref) error {
	defer t.PushFrame(&sendArr, &recvArr)()
	t.PollGC()
	defer t.PollGC()
	sendBuf, err := e.wholeBuf(t, sendArr)
	if err != nil {
		return err
	}
	recvBuf, err := e.wholeBuf(t, recvArr)
	if err != nil {
		return err
	}
	// Validate locally on every rank so an erroneous program fails
	// consistently instead of deadlocking mid-collective.
	if recvBuf.Len() != sendBuf.Len() || sendBuf.Len()%c.Size() != 0 {
		return fmt.Errorf("core: alltoall buffers %d/%d bytes for %d ranks",
			sendBuf.Len(), recvBuf.Len(), c.Size())
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpAlltoall, sendBuf.Len(), -1)
	defer e.opEnd(tr)
	unpinSend := e.collectivePin(sendArr)
	defer unpinSend()
	unpinRecv := e.collectivePin(recvArr)
	defer unpinRecv()
	return e.noteErr(c.Alltoall(sendBuf.Bytes(), recvBuf.Bytes()))
}

// Sendrecv performs the classic combined exchange: send sendObj to
// dest while receiving into recvObj from source, deadlock-free even
// when every rank calls it simultaneously.
func (e *Engine) Sendrecv(t *vm.Thread, sendObj vm.Ref, dest, sendTag int, recvObj vm.Ref, source, recvTag int) (mp.Status, error) {
	defer t.PushFrame(&sendObj, &recvObj)()
	t.PollGC()
	defer t.PollGC()
	sendBuf, err := e.wholeBuf(t, sendObj)
	if err != nil {
		return mp.Status{}, err
	}
	recvBuf, err := e.wholeBuf(t, recvObj)
	if err != nil {
		return mp.Status{}, err
	}
	bump(&e.Stats.Ops, 2)
	tr := e.opBegin(obs.OpSendrecv, sendBuf.Len(), dest)
	defer e.opEnd(tr)
	unpinS := e.collectivePin(sendObj)
	defer unpinS()
	unpinR := e.collectivePin(recvObj)
	defer unpinR()
	rreq, err := e.Comm.IrecvBuffer(recvBuf, source, recvTag)
	if err != nil {
		return mp.Status{}, err
	}
	sreq, err := e.Comm.IsendBuffer(sendBuf, dest, sendTag, false)
	if err != nil {
		return mp.Status{}, err
	}
	for {
		done, _, err := e.Comm.Test(sreq)
		if err != nil {
			return mp.Status{}, err
		}
		if done {
			break
		}
		e.waitStep(t, sreq)
	}
	for {
		done, st, err := e.Comm.Test(rreq)
		if done {
			return st, err
		}
		e.waitStep(t, rreq)
	}
}

// Gather collects every rank's simple array into the root's recv
// array (recvArr is ignored on non-roots).
func (e *Engine) Gather(t *vm.Thread, sendArr, recvArr vm.Ref, root int) error {
	defer t.PushFrame(&sendArr, &recvArr)()
	t.PollGC()
	defer t.PollGC()
	sendBuf, err := e.wholeBuf(t, sendArr)
	if err != nil {
		return err
	}
	bump(&e.Stats.Ops, 1)
	tr := e.opBegin(obs.OpGather, sendBuf.Len(), root)
	defer e.opEnd(tr)
	unpinSend := e.collectivePin(sendArr)
	defer unpinSend()
	var recvBytes []byte
	if e.Comm.Rank() == root {
		recvBuf, err := e.wholeBuf(t, recvArr)
		if err != nil {
			return err
		}
		unpinRecv := e.collectivePin(recvArr)
		defer unpinRecv()
		recvBytes = recvBuf.Bytes()
	}
	return e.noteErr(e.Comm.Gather(sendBuf.Bytes(), recvBytes, root))
}
