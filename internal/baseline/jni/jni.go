// Package jni implements a managed-wrapper MPI binding in the style
// of mpiJava over the Java Native Interface (paper §2.1, [5]): the
// Java line of Figure 9.
//
// Costs reproduced (each is real work):
//
//   - every call goes through the JNIEnv function-table indirection
//     and maintains the local-reference frame (a PushLocalFrame /
//     PopLocalFrame pair with one local reference per object
//     argument);
//   - array arguments use Get<PrimitiveType>ArrayElements /
//     Release...ArrayElements semantics: the array contents are
//     COPIED between the managed heap and a native staging buffer on
//     both sides of the call (the common JVM behaviour; the object
//     is briefly pinned only while the copy runs). The copy is what
//     puts the Java line above the Indiana lines at large buffers in
//     Figure 9;
//   - JNI "automatically pins and unpins objects" (paper §2.3) — the
//     managed application cannot influence or avoid it.
package jni

import (
	"errors"
	"fmt"
	"sync/atomic"

	"motor/internal/mp"
	"motor/internal/vm"
)

// ErrNotArray rejects non-array buffers.
var ErrNotArray = errors.New("jni: buffer must be a primitive array")

// Stats counts wrapper activity.
type Stats struct {
	Calls       uint64
	LocalRefs   uint64
	CopiedBytes uint64
}

// envFn is one slot of the JNIEnv function table.
type envFn func(b *Binding, args []uint64) error

// Binding is one rank's mpiJava-style wrapper.
type Binding struct {
	vm   *vm.VM
	comm *mp.Comm

	// fnTable is the JNIEnv function table; methodIDs maps a native
	// method name to its slot (resolved per call, as JNI method
	// lookup does).
	fnTable   []envFn
	methodIDs map[string]int

	// threadState models the JVM thread-state machine: every JNI
	// entry/exit performs a state transition the VM checks
	// atomically (in-Java <-> in-native), which safepoint machinery
	// observes.
	threadState int32

	// localRefs is the local-reference table of the current call
	// frame: JNI hands native code opaque jobject handles, allocated
	// and released per call.
	localRefs map[int32]vm.Ref
	nextRef   int32
	frameRefs []int32

	// staging is the reusable native buffer Get*ArrayElements copies
	// into.
	staging []byte

	Stats Stats
}

// New creates a binding for a VM + world pair.
func New(v *vm.VM, w *mp.World) *Binding {
	b := &Binding{
		vm:        v,
		comm:      w.Comm,
		methodIDs: make(map[string]int),
		localRefs: make(map[int32]vm.Ref),
	}
	names := []string{"MPI_Init", "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Wait", "MPI_Barrier", "MPI_Finalize"}
	for i, n := range names {
		b.methodIDs[n] = i
		b.fnTable = append(b.fnTable, func(b *Binding, args []uint64) error { return nil })
	}
	w.Dev.Yield = v.PollPoint
	return b
}

// Comm exposes the underlying communicator.
func (b *Binding) Comm() *mp.Comm { return b.comm }

// enter performs the JNI crossing: the Java->native thread-state
// transition, method-id resolution, the function-table indirection,
// and a local-reference frame allocating one jobject handle per
// object argument. The returned exit function releases the handles
// and transitions back — the full round trip every mpiJava call pays
// and the runtime-internal FCall path does not.
func (b *Binding) enter(name string, objs ...vm.Ref) (func(), error) {
	b.Stats.Calls++
	if !atomic.CompareAndSwapInt32(&b.threadState, stateInJava, stateInNative) {
		return nil, fmt.Errorf("jni: bad thread state entering %s", name)
	}
	id, ok := b.methodIDs[name]
	if !ok {
		atomic.StoreInt32(&b.threadState, stateInJava)
		return nil, fmt.Errorf("jni: UnsatisfiedLinkError: %s", name)
	}
	if err := b.fnTable[id](b, nil); err != nil {
		atomic.StoreInt32(&b.threadState, stateInJava)
		return nil, err
	}
	frame := b.frameRefs[:0]
	for _, o := range objs {
		if o != vm.NullRef {
			b.nextRef++
			b.localRefs[b.nextRef] = o
			frame = append(frame, b.nextRef)
			b.Stats.LocalRefs++
		}
	}
	b.frameRefs = frame
	return func() {
		for _, h := range b.frameRefs {
			delete(b.localRefs, h)
		}
		b.frameRefs = b.frameRefs[:0]
		atomic.StoreInt32(&b.threadState, stateInJava)
	}, nil
}

// JVM thread states for JNI transitions.
const (
	stateInJava int32 = iota
	stateInNative
)

// getArrayElements copies the managed array into the native staging
// buffer (pinning only for the duration of the copy), returning the
// staged bytes.
func (b *Binding) getArrayElements(obj vm.Ref) ([]byte, error) {
	h := b.vm.Heap
	mt := h.MT(obj)
	if !mt.IsSimpleArray() {
		return nil, fmt.Errorf("%w: %s", ErrNotArray, mt)
	}
	h.Pin(obj)
	src := h.DataBytes(obj)
	if cap(b.staging) < len(src) {
		b.staging = make([]byte, len(src))
	}
	dst := b.staging[:len(src)]
	copy(dst, src)
	h.Unpin(obj)
	b.Stats.CopiedBytes += uint64(len(src))
	return dst, nil
}

// releaseArrayElements copies the staged bytes back into the managed
// array (JNI_COMMIT semantics).
func (b *Binding) releaseArrayElements(obj vm.Ref, staged []byte) {
	h := b.vm.Heap
	h.Pin(obj)
	copy(h.DataBytes(obj), staged)
	h.Unpin(obj)
	b.Stats.CopiedBytes += uint64(len(staged))
}

// Send transports a primitive array (copy-out semantics).
func (b *Binding) Send(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	if obj == vm.NullRef {
		return ErrNotArray
	}
	exit, err := b.enter("MPI_Send", obj)
	if err != nil {
		return err
	}
	defer exit()
	staged, err := b.getArrayElements(obj)
	if err != nil {
		return err
	}
	req, err := b.comm.Isend(staged, dest, tag)
	if err != nil {
		return err
	}
	return b.wait(req)
}

// Recv receives into a primitive array (copy-back semantics).
func (b *Binding) Recv(t *vm.Thread, obj vm.Ref, source, tag int) (mp.Status, error) {
	if obj == vm.NullRef {
		return mp.Status{}, ErrNotArray
	}
	// Root obj across the wait: waitStatus parks the thread, a sibling
	// rank's collection may move the array, and the copy-back below
	// must see the forwarded ref (§5.3).
	defer t.PushFrame(&obj)()
	exit, err := b.enter("MPI_Recv", obj)
	if err != nil {
		return mp.Status{}, err
	}
	defer exit()
	// Stage a native buffer of the array's size, receive into it,
	// then commit back into the managed array.
	h := b.vm.Heap
	mt := h.MT(obj)
	if !mt.IsSimpleArray() {
		return mp.Status{}, fmt.Errorf("%w: %s", ErrNotArray, mt)
	}
	size := h.DataSize(obj)
	if cap(b.staging) < size {
		b.staging = make([]byte, size)
	}
	staged := b.staging[:size]
	req, err := b.comm.Irecv(staged, source, tag)
	if err != nil {
		return mp.Status{}, err
	}
	st, err := b.waitStatus(req)
	if err != nil {
		return st, err
	}
	b.releaseArrayElements(obj, staged[:st.Count])
	return st, nil
}

func (b *Binding) wait(req *mp.Request) error {
	_, err := b.waitStatus(req)
	return err
}

func (b *Binding) waitStatus(req *mp.Request) (mp.Status, error) {
	for {
		done, st, err := b.comm.Test(req)
		if done {
			return st, err
		}
		// The device's idle step is the GC poll (its Yield), a
		// processor release and, on sock, a bounded park.
		b.comm.Device().Idle()
	}
}

// Barrier crosses for MPI_Barrier.
func (b *Binding) Barrier(t *vm.Thread) error {
	exit, err := b.enter("MPI_Barrier")
	if err != nil {
		return err
	}
	defer exit()
	return b.comm.Barrier()
}
