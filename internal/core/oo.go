package core

import (
	"encoding/binary"
	"fmt"

	"motor/internal/mp"
	"motor/internal/obs"
	"motor/internal/serial"
	"motor/internal/vm"
)

// The extended object-oriented operations (paper §4.2.2, §7.5),
// distinguished by the "O" prefix: OSend / ORecv / OBcast / OScatter
// / OGather. They transport arbitrary objects, arrays of objects and
// Transportable-annotated object trees through the custom serializer.
// Serialization buffers come from the runtime-owned buffer stack, so
// — unlike the regular operations — no pinning is ever needed: the
// transport only touches native memory (§7.4).
//
// Since the v2 stream format (serial/stream.go) the representation is
// never materialized whole: the sender pipelines — Isend of chunk k
// overlaps serialization of chunk k+1, with the polling-wait / GC-poll
// discipline preserved between chunks — and the receiver sizes its
// buffer per chunk from the probe, so the v1 8-byte size prefix (and
// its unbounded trust in the wire-claimed size) is gone. Every chunk
// claim is capped against MaxOOMessage before any allocation.
//
// Point-to-point streams run the type-table cache: repeated sends of
// the same class shapes to the same peer transmit 5-byte table
// references; a receiver that cannot resolve one NACKs, and the
// sender answers with the self-describing table blob (serial/cache.go
// documents the epoch protocol). A sender that emitted at least one
// table reference therefore waits for the receiver's single ACK/NACK
// control packet — symmetric ref-bearing OSends between two ranks can
// deadlock, exactly like v1's symmetric rendezvous sends.
//
// The OO message categories travel in reserved tag spaces above
// MaxUserTag (mp/oo.go), so interleaved OO operations on one comm
// never cross-match each other or regular user-tag traffic.

// ooChunkTarget returns the stream chunk target for point-to-point
// streams.
func (e *Engine) ooChunkTarget() int { return e.ooChunk }

// chunkSpan records one explicit-identity KChunk span (chunk work
// overlaps other chunk work, so Begin/End stack nesting cannot hold).
func (e *Engine) chunkSpan(dir uint64, idx int, start int64, bytes int) {
	tr := obs.Active()
	if tr == nil {
		return
	}
	tr.Span(e.lane, obs.KChunk, tr.NewSpanID(), tr.Current(e.lane), start, dir, uint64(idx), uint64(bytes))
}

func spanStart() int64 {
	if tr := obs.Active(); tr != nil {
		return tr.Now()
	}
	return 0
}

// waitYielding drives one request to completion with the polling-wait.
func (e *Engine) waitYielding(t *vm.Thread, req *mp.Request) error {
	for {
		done, _, err := e.Comm.Test(req)
		if done {
			return err
		}
		e.waitStep(t, req)
	}
}

// probeYielding polls for the next OO message in a space, yielding to
// the collector between polls. A dead peer surfaces as a typed error
// from the probe's progress pass — never a hang.
func (e *Engine) probeYielding(t *vm.Thread, source int, sp mp.OOSpace, tag int) (mp.Status, error) {
	for {
		ok, st, err := e.Comm.IprobeOO(source, sp, tag)
		if err != nil {
			return st, err
		}
		if ok {
			return st, nil
		}
		e.idle()
	}
}

// streamOut pipelines one serialization stream to dest: two pooled
// chunk buffers rotate so chunk k is on the wire while chunk k+1 is
// serialized. On error the in-flight request is always drained, so no
// pooled buffer leaks.
func (e *Engine) streamOut(t *vm.Thread, sw *serial.StreamWriter, dest, tag int, sp mp.OOSpace) error {
	var bufs [2][]byte
	bufs[0] = e.bufs.get(e.ooChunk+512, &e.Stats)
	bufs[1] = e.bufs.get(e.ooChunk+512, &e.Stats)
	defer func() {
		e.bufs.put(bufs[0])
		e.bufs.put(bufs[1])
	}()
	var inflight *mp.Request
	var sendStart int64
	idx := 0
	total := 0
	for !sw.Done() {
		serStart := spanStart()
		chunk, err := sw.Next(bufs[idx%2][:0])
		if err != nil {
			if inflight != nil {
				_ = e.waitYielding(t, inflight) // drain; serializer error wins
			}
			return err
		}
		bufs[idx%2] = chunk
		e.chunkSpan(0, idx, serStart, len(chunk))
		if inflight != nil {
			if err := e.waitYielding(t, inflight); err != nil {
				return err
			}
			e.chunkSpan(1, idx-1, sendStart, 0)
		}
		sendStart = spanStart()
		req, err := e.Comm.IsendOO(chunk, dest, sp, tag)
		if err != nil {
			return err
		}
		bump(&e.Stats.OOChunksSent, 1)
		total += len(chunk)
		inflight = req
		idx++
	}
	bump(&e.Stats.SerializedBytes, uint64(total))
	if inflight != nil {
		if err := e.waitYielding(t, inflight); err != nil {
			return err
		}
		e.chunkSpan(1, idx-1, sendStart, 0)
	}
	return nil
}

// mergeTTStats folds one stream's table-cache activity into the
// engine's serial.ttcache counters.
func (e *Engine) mergeTTStats(sw *serial.StreamWriter) {
	bump(&e.TTCache.Hits, uint64(sw.TableRefs))
	bump(&e.TTCache.Misses, uint64(sw.TableFulls))
	bump(&e.TTCache.TableBytes, uint64(sw.TableBytes))
}

// awaitTableAck is the sender's tail of the cache protocol: having
// emitted at least one table reference, wait for the receiver's single
// control packet — ACK (all references resolved) completes the
// operation; NACK is answered with the stream's full table blob.
func (e *Engine) awaitTableAck(t *vm.Thread, sw *serial.StreamWriter, dest, tag int) error {
	for {
		ok, err := e.Comm.PollCtrlOO(dest, mp.OOSpaceAck, tag)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		ok, err = e.Comm.PollCtrlOO(dest, mp.OOSpaceNack, tag)
		if err != nil {
			return err
		}
		if ok {
			bump(&e.TTCache.Nacks, 1)
			blobBuf := e.bufs.get(1024, &e.Stats)
			blob, err := sw.TableBlob(blobBuf)
			if err != nil {
				e.bufs.put(blobBuf)
				return err
			}
			req, err := e.Comm.IsendOO(blob, dest, mp.OOSpaceTable, tag)
			if err != nil {
				e.bufs.put(blob)
				return err
			}
			err = e.waitYielding(t, req)
			e.bufs.put(blob)
			return err
		}
		e.idle()
	}
}

// OSend transports an object tree to dest (blocking).
func (e *Engine) OSend(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	defer t.PushFrame(&obj)()
	t.PollGC()
	defer t.PollGC()
	bump(&e.Stats.OOSends, 1)
	tr := e.opBegin(obs.OpOSend, 0, dest)
	defer e.opEnd(tr)
	sw := serial.NewStreamWriter(e.VM.Heap, obj, e.serOpts, e.ooChunkTarget(), e.peerCache(dest))
	e.VM.AddRootProvider(sw)
	defer e.VM.RemoveRootProvider(sw)
	err := e.streamOut(t, sw, dest, tag, mp.OOSpaceData)
	e.mergeTTStats(sw)
	if err != nil {
		return e.noteErr(err)
	}
	if sw.TableRefs > 0 {
		if err := e.awaitTableAck(t, sw, dest, tag); err != nil {
			return e.noteErr(err)
		}
	}
	return nil
}

// streamIn receives one stream: per-chunk probe (size from the probe,
// capped against MaxOOMessage before any allocation), receive directly
// into the reader's accumulation buffer, incremental parse. useCache
// engages the receiver side of the type-table cache protocol.
func (e *Engine) streamIn(t *vm.Thread, source, tag int, sp mp.OOSpace, useCache bool) (vm.Ref, mp.Status, error) {
	st, err := e.probeYielding(t, source, sp, tag)
	if err != nil {
		return vm.NullRef, st, err
	}
	src := st.Source // locks an AnySource receive to one stream
	if st.Count < 0 || st.Count > e.maxOO {
		return vm.NullRef, st, fmt.Errorf("%w: %d claimed, cap %d", ErrOversize, st.Count, e.maxOO)
	}
	var mirror *serial.TableMirror
	if useCache {
		mirror = e.mirror(src)
	}
	sr := serial.NewStreamReader(e.VM, mirror, e.bufs.get(st.Count, &e.Stats))
	e.VM.AddRootProvider(sr)
	defer e.VM.RemoveRootProvider(sr)
	defer func() { e.bufs.put(sr.Buffer()) }()
	total := 0
	idx := 0
	for {
		if st.Count < 0 || st.Count > e.maxOO-total {
			return vm.NullRef, st, fmt.Errorf("%w: %d accumulated + %d claimed, cap %d", ErrOversize, total, st.Count, e.maxOO)
		}
		recvStart := spanStart()
		req, err := e.Comm.IrecvOO(sr.Grow(st.Count), src, sp, tag)
		if err != nil {
			return vm.NullRef, st, err
		}
		if err := e.waitYielding(t, req); err != nil {
			return vm.NullRef, st, err
		}
		bump(&e.Stats.OOChunksRecvd, 1)
		e.chunkSpan(2, idx, recvStart, st.Count)
		idx++
		total += st.Count
		if err := sr.Commit(st.Count); err != nil {
			return vm.NullRef, st, err
		}
		if sr.Ended() {
			break
		}
		st, err = e.probeYielding(t, src, sp, tag)
		if err != nil {
			return vm.NullRef, st, err
		}
	}
	if useCache && sr.SawRefs() {
		if sr.MissingTables() > 0 {
			if ref, err := e.recvTableBlob(t, sr, src, tag); err != nil {
				return ref, st, err
			}
		} else if err := e.Comm.SendCtrlOO(src, mp.OOSpaceAck, tag); err != nil {
			return vm.NullRef, st, err
		}
	}
	ref, err := sr.Finish()
	return ref, st, err
}

// recvTableBlob is the receiver's NACK path: ask the sender for the
// full table and install it, unstalling the parse.
func (e *Engine) recvTableBlob(t *vm.Thread, sr *serial.StreamReader, src, tag int) (vm.Ref, error) {
	if err := e.Comm.SendCtrlOO(src, mp.OOSpaceNack, tag); err != nil {
		return vm.NullRef, err
	}
	bst, err := e.probeYielding(t, src, mp.OOSpaceTable, tag)
	if err != nil {
		return vm.NullRef, err
	}
	if bst.Count < 0 || bst.Count > e.maxOO {
		return vm.NullRef, fmt.Errorf("%w: table blob of %d, cap %d", ErrOversize, bst.Count, e.maxOO)
	}
	blob := e.bufs.get(bst.Count, &e.Stats)[:bst.Count]
	defer e.bufs.put(blob)
	req, err := e.Comm.IrecvOO(blob, src, mp.OOSpaceTable, tag)
	if err != nil {
		return vm.NullRef, err
	}
	if err := e.waitYielding(t, req); err != nil {
		return vm.NullRef, err
	}
	return vm.NullRef, sr.InstallTable(blob)
}

// ORecv receives an object tree, reconstructing it on this rank's
// heap. It returns the new root object.
func (e *Engine) ORecv(t *vm.Thread, source, tag int) (vm.Ref, mp.Status, error) {
	t.PollGC()
	defer t.PollGC()
	bump(&e.Stats.OORecvs, 1)
	tr := e.opBegin(obs.OpORecv, 0, source)
	defer e.opEnd(tr)
	ref, st, err := e.streamIn(t, source, tag, mp.OOSpaceData, true)
	return ref, st, e.noteErr(err)
}

// OBcast broadcasts the root's object tree; non-roots receive and
// return the reconstructed tree (the root returns obj unchanged).
// Chunks ride the buffered Bcast under a 5-byte [len,last] header per
// round; chunk targets stay below the eager threshold so a rank that
// bails (oversize cap) cannot strand the root in a rendezvous.
func (e *Engine) OBcast(t *vm.Thread, obj vm.Ref, root int) (vm.Ref, error) {
	defer t.PushFrame(&obj)()
	t.PollGC()
	defer t.PollGC()
	tr := e.opBegin(obs.OpOBcast, 0, root)
	defer e.opEnd(tr)
	target := e.ooChunk
	if em := e.Comm.EagerMax() - 64; em > 0 && target > em {
		target = em
	}
	hdr := make([]byte, 5)
	if e.Comm.Rank() == root {
		bump(&e.Stats.OOSends, 1)
		sw := serial.NewStreamWriter(e.VM.Heap, obj, e.serOpts, target, nil)
		e.VM.AddRootProvider(sw)
		defer e.VM.RemoveRootProvider(sw)
		buf := e.bufs.get(target+512, &e.Stats)
		defer func() { e.bufs.put(buf) }()
		idx := 0
		total := 0
		for !sw.Done() {
			serStart := spanStart()
			chunk, err := sw.Next(buf[:0])
			if err != nil {
				return vm.NullRef, err
			}
			buf = chunk
			e.chunkSpan(0, idx, serStart, len(chunk))
			binary.LittleEndian.PutUint32(hdr, uint32(len(chunk)))
			hdr[4] = 0
			if sw.Done() {
				hdr[4] = 1
			}
			if err := e.Comm.Bcast(hdr, root); err != nil {
				return vm.NullRef, e.noteErr(err)
			}
			sendStart := spanStart()
			if err := e.Comm.Bcast(chunk, root); err != nil {
				return vm.NullRef, e.noteErr(err)
			}
			bump(&e.Stats.OOChunksSent, 1)
			e.chunkSpan(1, idx, sendStart, len(chunk))
			idx++
			total += len(chunk)
		}
		bump(&e.Stats.SerializedBytes, uint64(total))
		return obj, nil
	}
	bump(&e.Stats.OORecvs, 1)
	sr := serial.NewStreamReader(e.VM, nil, e.bufs.get(target, &e.Stats))
	e.VM.AddRootProvider(sr)
	defer e.VM.RemoveRootProvider(sr)
	defer func() { e.bufs.put(sr.Buffer()) }()
	total := 0
	idx := 0
	for {
		if err := e.Comm.Bcast(hdr, root); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		last := hdr[4] != 0
		if n < 0 || n > e.maxOO-total {
			return vm.NullRef, fmt.Errorf("%w: %d accumulated + %d claimed, cap %d", ErrOversize, total, n, e.maxOO)
		}
		recvStart := spanStart()
		if err := e.Comm.Bcast(sr.Grow(n), root); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		bump(&e.Stats.OOChunksRecvd, 1)
		e.chunkSpan(2, idx, recvStart, n)
		idx++
		total += n
		if err := sr.Commit(n); err != nil {
			return vm.NullRef, err
		}
		if last {
			break
		}
	}
	return sr.Finish()
}

// refsGuard roots intermediate references across allocating calls.
type refsGuard struct {
	refs []vm.Ref
}

// VisitRoots implements vm.RootProvider.
func (g *refsGuard) VisitRoots(visit func(vm.Ref) vm.Ref) {
	for i, r := range g.refs {
		if r != vm.NullRef {
			g.refs[i] = visit(r)
		}
	}
}

// loopback runs one stream writer straight into a local stream reader
// — the root's own part of an OO collective, taking the same
// serialize/deserialize copy semantics as the transported parts.
func (e *Engine) loopback(t *vm.Thread, sw *serial.StreamWriter) (vm.Ref, error) {
	sr := serial.NewStreamReader(e.VM, nil, e.bufs.get(e.ooChunk, &e.Stats))
	e.VM.AddRootProvider(sr)
	defer e.VM.RemoveRootProvider(sr)
	defer func() { e.bufs.put(sr.Buffer()) }()
	scratch := e.bufs.get(e.ooChunk+512, &e.Stats)
	defer func() { e.bufs.put(scratch) }()
	for !sw.Done() {
		chunk, err := sw.Next(scratch[:0])
		if err != nil {
			return vm.NullRef, err
		}
		scratch = chunk
		copy(sr.Grow(len(chunk)), chunk)
		if err := sr.Commit(len(chunk)); err != nil {
			return vm.NullRef, err
		}
		t.PollGC()
	}
	return sr.Finish()
}

// OScatter splits the root's object array across ranks: each rank
// (including the root) receives its contiguous sub-array as a fresh
// array object. Parts are streamed point-to-point in rank order under
// the OO collective tag space; the split representation (§7.5) makes
// each part independently deserializable — the capability the paper
// highlights as impossible with standard Java/CLI serialization.
func (e *Engine) OScatter(t *vm.Thread, arr vm.Ref, root int) (vm.Ref, error) {
	defer t.PushFrame(&arr)()
	t.PollGC()
	defer t.PollGC()
	tr := e.opBegin(obs.OpOScatter, 0, root)
	defer e.opEnd(tr)
	seq := e.Comm.NextOOSeq()
	if e.Comm.Rank() != root {
		bump(&e.Stats.OORecvs, 1)
		ref, _, err := e.streamIn(t, root, seq, mp.OOSpaceColl, false)
		return ref, e.noteErr(err)
	}
	bump(&e.Stats.OOSends, 1)
	h := e.VM.Heap
	if arr == vm.NullRef {
		return vm.NullRef, fmt.Errorf("serial: split of null array")
	}
	if mt := h.MT(arr); mt.Kind != vm.TKArray || mt.Rank != 1 {
		return vm.NullRef, fmt.Errorf("serial: split requires a rank-1 array, got %s", mt)
	}
	n := h.Length(arr)
	size := e.Comm.Size()
	guard := &refsGuard{refs: []vm.Ref{arr}}
	e.VM.AddRootProvider(guard)
	defer e.VM.RemoveRootProvider(guard)
	var firstErr error
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		lo, hi := serial.PartRange(n, size, r)
		sw, err := serial.NewStreamWriterPart(h, guard.refs[0], lo, hi, e.serOpts, e.ooChunkTarget())
		if err != nil {
			return vm.NullRef, err // arr is invalid: no part can be produced
		}
		e.VM.AddRootProvider(sw)
		err = e.streamOut(t, sw, r, seq, mp.OOSpaceColl)
		e.VM.RemoveRootProvider(sw)
		if err != nil && firstErr == nil {
			// Keep streaming to the remaining ranks so one dead peer
			// does not strand the others mid-collective.
			firstErr = err
		}
	}
	if firstErr != nil {
		return vm.NullRef, e.noteErr(firstErr)
	}
	lo, hi := serial.PartRange(n, size, root)
	sw, err := serial.NewStreamWriterPart(h, guard.refs[0], lo, hi, e.serOpts, e.ooChunkTarget())
	if err != nil {
		return vm.NullRef, err
	}
	e.VM.AddRootProvider(sw)
	defer e.VM.RemoveRootProvider(sw)
	bump(&e.Stats.OORecvs, 1)
	return e.loopback(t, sw)
}

// OGather reassembles per-rank object arrays into one array at the
// root ("the deserialization mechanism takes many split
// representations and reconstructs them into a single array", §7.5).
// Every rank streams its whole array to the root under the OO
// collective tag space; non-roots return the null reference.
func (e *Engine) OGather(t *vm.Thread, arr vm.Ref, root int) (vm.Ref, error) {
	defer t.PushFrame(&arr)()
	t.PollGC()
	defer t.PollGC()
	if arr == vm.NullRef {
		return vm.NullRef, ErrNullObject
	}
	mt := e.VM.Heap.MT(arr)
	if mt.Kind != vm.TKArray {
		return vm.NullRef, fmt.Errorf("%w: OGather of %s", ErrNotArray, mt)
	}
	bump(&e.Stats.OOSends, 1)
	tr := e.opBegin(obs.OpOGather, 0, root)
	defer e.opEnd(tr)
	seq := e.Comm.NextOOSeq()
	if e.Comm.Rank() != root {
		sw := serial.NewStreamWriter(e.VM.Heap, arr, e.serOpts, e.ooChunkTarget(), nil)
		e.VM.AddRootProvider(sw)
		defer e.VM.RemoveRootProvider(sw)
		if err := e.streamOut(t, sw, root, seq, mp.OOSpaceColl); err != nil {
			return vm.NullRef, e.noteErr(err)
		}
		return vm.NullRef, nil
	}
	bump(&e.Stats.OORecvs, 1)
	size := e.Comm.Size()
	guard := &refsGuard{refs: make([]vm.Ref, size+1)}
	guard.refs[size] = arr
	e.VM.AddRootProvider(guard)
	defer e.VM.RemoveRootProvider(guard)
	var firstErr error
	for r := 0; r < size; r++ {
		if r == root {
			sw := serial.NewStreamWriter(e.VM.Heap, guard.refs[size], e.serOpts, e.ooChunkTarget(), nil)
			e.VM.AddRootProvider(sw)
			ref, err := e.loopback(t, sw)
			e.VM.RemoveRootProvider(sw)
			if err != nil {
				return vm.NullRef, err
			}
			guard.refs[r] = ref
			continue
		}
		ref, _, err := e.streamIn(t, r, seq, mp.OOSpaceColl, false)
		if err != nil && firstErr == nil {
			// Keep draining the remaining senders so their streams
			// complete; the first error is reported after.
			firstErr = err
			continue
		}
		guard.refs[r] = ref
	}
	if firstErr != nil {
		return vm.NullRef, e.noteErr(firstErr)
	}
	return serial.GatherRefs(e.VM, guard.refs[:size])
}
