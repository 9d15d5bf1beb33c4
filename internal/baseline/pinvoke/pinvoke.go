// Package pinvoke implements a managed-wrapper MPI binding in the
// style of the Indiana University C# bindings (paper §2.1, [7]): the
// architecture on the left of the paper's Figure 1, where the MPI
// library sits OUTSIDE the runtime and every call crosses a
// P/Invoke-style managed-to-native boundary.
//
// Costs reproduced (each is real work, not a sleep):
//
//   - every call performs P/Invoke marshalling: arguments are
//     encoded into a native call frame, and an unmanaged-code
//     security demand is evaluated against the binding's permission
//     set — exactly the per-call overhead FCalls avoid (paper §5.1:
//     FCalls "do not have parameter marshalling and security
//     checks");
//   - the buffer is PINNED FOR EVERY OPERATION and unpinned after
//     ("Pinning is performed for each MPI operation", §8), because a
//     wrapper outside the runtime cannot know the object's
//     generation or defer the pin;
//   - the hosting runtime profile selects the pin bookkeeping the
//     runtime provides: HostNET uses the handle-table pin path,
//     HostSSCLI the linear pin list, and SSCLI re-resolves the
//     marshalling plan from string-keyed metadata on every call
//     while .NET caches it — reproducing the Indiana-SSCLI vs
//     Indiana-.NET gap of Figure 9.
package pinvoke

import (
	"encoding/binary"
	"errors"
	"fmt"

	"motor/internal/mp"
	"motor/internal/vm"
)

// Host selects the hosting-runtime profile.
type Host uint8

// Hosting runtimes of the paper's evaluation.
const (
	HostSSCLI Host = iota
	HostNET
)

// String names the hosting runtime.
func (h Host) String() string {
	if h == HostNET {
		return ".NET"
	}
	return "SSCLI"
}

// ErrNotSimple rejects buffers the binding cannot pin and pass raw.
var ErrNotSimple = errors.New("pinvoke: buffer must be an array of simple types")

// Stats counts wrapper activity.
type Stats struct {
	Calls           uint64
	Pins            uint64
	MarshalledBytes uint64
	Demands         uint64
}

// argSpec describes one marshalled parameter.
type argSpec struct {
	name string
	size int
}

// entryPoint is the metadata for one native function the wrapper
// imports.
type entryPoint struct {
	name string
	args []argSpec
}

// Binding is one rank's wrapper instance.
type Binding struct {
	vm   *vm.VM
	comm *mp.Comm
	host Host

	// Code-access-security state: the unmanaged-code demand walks the
	// managed call chain and intersects every frame's assembly grant
	// set with the demanded permissions — the stack walk that made
	// P/Invoke crossings expensive on CAS-era runtimes and that the
	// trusted FCall path never performs (paper §5.1).
	callChain []string            // assembly per managed frame
	grants    map[string][]string // assembly -> granted permissions
	demandSet []string            // permissions demanded per crossing

	// entryPoints is the DllImport table, keyed by name (the SSCLI
	// profile re-resolves through this on every call).
	entryPoints map[string]*entryPoint
	// plans is the .NET profile's cached marshalling plans.
	plans map[string][]argSpec

	// frame is the reusable native call frame.
	frame []byte

	Stats Stats
}

// New creates a binding for a VM + world pair.
func New(v *vm.VM, w *mp.World, host Host) *Binding {
	fullTrust := []string{
		"SecurityPermission/UnmanagedCode",
		"SecurityPermission/Execution",
		"EnvironmentPermission/Read",
		"FileIOPermission/Read",
		"ReflectionPermission/MemberAccess",
		"SecurityPermission/SkipVerification",
		"DnsPermission/Unrestricted",
		"SocketPermission/Connect",
	}
	b := &Binding{
		vm:   v,
		comm: w.Comm,
		host: host,
		// A representative managed call chain for an MPI call:
		// application -> the binding assembly -> the runtime library.
		callChain: []string{"PingPong.exe", "MPI.NET.dll", "mscorlib.dll"},
		grants: map[string][]string{
			"PingPong.exe": fullTrust,
			"MPI.NET.dll":  fullTrust,
			"mscorlib.dll": fullTrust,
		},
		demandSet: []string{
			"SecurityPermission/UnmanagedCode",
			"SecurityPermission/Execution",
		},
		entryPoints: make(map[string]*entryPoint),
		plans:       make(map[string][]argSpec),
	}
	// The DllImport table of the binding (subset used here).
	for _, ep := range []entryPoint{
		{"MPI_Send", []argSpec{{"buf", 8}, {"count", 4}, {"datatype", 4}, {"dest", 4}, {"tag", 4}, {"comm", 4}}},
		{"MPI_Recv", []argSpec{{"buf", 8}, {"count", 4}, {"datatype", 4}, {"source", 4}, {"tag", 4}, {"comm", 4}, {"status", 8}}},
		{"MPI_Isend", []argSpec{{"buf", 8}, {"count", 4}, {"datatype", 4}, {"dest", 4}, {"tag", 4}, {"comm", 4}, {"request", 8}}},
		{"MPI_Irecv", []argSpec{{"buf", 8}, {"count", 4}, {"datatype", 4}, {"source", 4}, {"tag", 4}, {"comm", 4}, {"request", 8}}},
		{"MPI_Wait", []argSpec{{"request", 8}, {"status", 8}}},
		{"MPI_Barrier", []argSpec{{"comm", 4}}},
	} {
		ep := ep
		b.entryPoints[ep.name] = &ep
	}
	w.Dev.Yield = v.PollPoint
	return b
}

// Comm exposes the underlying communicator.
func (b *Binding) Comm() *mp.Comm { return b.comm }

// crossing performs the managed-to-native transition for one call:
// the code-access-security stack walk plus argument marshalling into
// the call frame.
func (b *Binding) crossing(name string, args ...uint64) error {
	b.Stats.Calls++
	// CAS demand: every frame of the managed call chain must grant
	// every demanded permission (assembly grant-set intersection —
	// the walk the trusted FCall path skips).
	for _, frame := range b.callChain {
		grantSet, ok := b.grants[frame]
		if !ok {
			return fmt.Errorf("pinvoke: no evidence for assembly %s", frame)
		}
		for _, demand := range b.demandSet {
			b.Stats.Demands++
			granted := false
			for _, g := range grantSet {
				if g == demand {
					granted = true
					break
				}
			}
			if !granted {
				return fmt.Errorf("pinvoke: %s denied for %s in %s", demand, name, frame)
			}
		}
	}
	// Resolve the marshalling plan.
	var plan []argSpec
	switch b.host {
	case HostNET:
		var ok bool
		plan, ok = b.plans[name]
		if !ok {
			ep, found := b.entryPoints[name]
			if !found {
				return fmt.Errorf("pinvoke: no entry point %s", name)
			}
			plan = append([]argSpec(nil), ep.args...)
			b.plans[name] = plan
		}
	default:
		// SSCLI: re-resolve through the metadata table every call.
		ep, found := b.entryPoints[name]
		if !found {
			return fmt.Errorf("pinvoke: no entry point %s", name)
		}
		plan = ep.args
	}
	if len(args) != len(plan) {
		return fmt.Errorf("pinvoke: %s expects %d args, got %d", name, len(plan), len(args))
	}
	// Marshal into the native frame.
	b.frame = b.frame[:0]
	for i, a := range args {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], a)
		b.frame = append(b.frame, tmp[:plan[i].size]...)
		b.Stats.MarshalledBytes += uint64(plan[i].size)
	}
	return nil
}

// pinBuffer applies the wrapper's unconditional pin and returns the
// raw range plus the unpin function.
func (b *Binding) pinBuffer(obj vm.Ref) (start, end uint32, unpin func(), err error) {
	if obj == vm.NullRef {
		return 0, 0, nil, ErrNotSimple
	}
	h := b.vm.Heap
	mt := h.MT(obj)
	if !mt.IsSimpleArray() {
		return 0, 0, nil, fmt.Errorf("%w: %s", ErrNotSimple, mt)
	}
	b.Stats.Pins++
	h.Pin(obj)
	s, e := h.DataRange(obj)
	return s, e, func() { h.Unpin(obj) }, nil
}

// wrapperBuf resolves a pinned raw range lazily against arena growth.
type wrapperBuf struct {
	h          *vm.Heap
	start, end uint32
}

// Len implements adi.Buffer.
func (w wrapperBuf) Len() int { return int(w.end - w.start) }

// Bytes implements adi.Buffer.
func (w wrapperBuf) Bytes() []byte { return w.h.Bytes(w.start, w.end) }

// Send transports a simple array, pinning it for the operation.
func (b *Binding) Send(t *vm.Thread, obj vm.Ref, dest, tag int) error {
	s, e, unpin, err := b.pinBuffer(obj)
	if err != nil {
		return err
	}
	defer unpin()
	if err := b.crossing("MPI_Send", uint64(s), uint64(e-s), 1, uint64(dest), uint64(tag), 0); err != nil {
		return err
	}
	req, err := b.comm.IsendBuffer(wrapperBuf{b.vm.Heap, s, e}, dest, tag, false)
	if err != nil {
		return err
	}
	return b.wait(req)
}

// Recv receives into a simple array, pinning it for the operation.
func (b *Binding) Recv(t *vm.Thread, obj vm.Ref, source, tag int) (mp.Status, error) {
	s, e, unpin, err := b.pinBuffer(obj)
	if err != nil {
		return mp.Status{}, err
	}
	defer unpin()
	if err := b.crossing("MPI_Recv", uint64(s), uint64(e-s), 1, uint64(source), uint64(tag), 0, 0); err != nil {
		return mp.Status{}, err
	}
	req, err := b.comm.IrecvBuffer(wrapperBuf{b.vm.Heap, s, e}, source, tag)
	if err != nil {
		return mp.Status{}, err
	}
	return b.waitStatus(req)
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
	if err := b.crossing("MPI_Barrier", 0); err != nil {
		return err
	}
	return b.comm.Barrier()
}
