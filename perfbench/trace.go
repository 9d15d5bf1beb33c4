package main

import (
	"strings"
	"time"

	"motor"
	"motor/internal/vm"
)

// span is one timed interval recorded by the benchmark's own code:
// set-up phases, one per step call, and one per FCall inside it.
// Times are nanoseconds from the episode's motor.Run call.
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span in this rank's list, -1 for none
	// GCNs is collector pause time inside the span (read from the
	// rank's GCStats at both ends).
	GCNs int64 `json:"gc_ns"`
}

// rankTracer records one rank's spans in memory. Each rank's FCalls
// and steps run on that rank's goroutine, so it needs no locking. A
// nil tracer records nothing.
type rankTracer struct {
	r     *motor.Rank
	rank  int
	start time.Time
	spans []span
	step  int // index of the open step span, -1 outside steps
	gc0   uint64
}

// newRankTracer wraps every mp.* FCall of r's VM with a timing shim. It
// must run before Rank.Load: the registry replaces by name, so the
// loaded module resolves each intern to its shim, which calls the
// original Fn.
func newRankTracer(r *motor.Rank, start time.Time) *rankTracer {
	t := &rankTracer{r: r, rank: r.ID(), start: start, step: -1}
	v := r.VM()
	for i := 0; ; i++ {
		f, ok := v.InternalByIndex(i)
		if !ok {
			break
		}
		if !strings.HasPrefix(f.Name, "mp.") {
			continue
		}
		orig := *f
		wrapped := orig
		wrapped.Fn = func(th *vm.Thread, args []vm.Value) (vm.Value, error) {
			gc0 := t.r.GCStats().PauseNs
			s := time.Since(t.start)
			res, err := orig.Fn(th, args)
			e := time.Since(t.start)
			t.spans = append(t.spans, span{Name: orig.Name, Rank: t.rank, Start: s.Nanoseconds(), End: e.Nanoseconds(),
				Parent: t.step, GCNs: int64(t.r.GCStats().PauseNs - gc0)})
			return res, err
		}
		v.RegisterInternal(wrapped)
	}
	return t
}

func (t *rankTracer) beginStep(now time.Time) {
	if t == nil {
		return
	}
	t.step = len(t.spans)
	t.gc0 = t.r.GCStats().PauseNs
	t.spans = append(t.spans, span{Name: "step", Rank: t.rank, Start: now.Sub(t.start).Nanoseconds(), Parent: -1})
}

func (t *rankTracer) endStep(now time.Time) {
	if t == nil {
		return
	}
	s := &t.spans[t.step]
	s.End = now.Sub(t.start).Nanoseconds()
	s.GCNs = int64(t.r.GCStats().PauseNs - t.gc0)
	t.step = -1
}

// setupSpans turns a rank's set-up timestamps into spans. setup.init
// includes the barrier after init, so the three spans end when the
// rank is ready to step.
func setupSpans(id int, rec *rankRecord) []span {
	mk := func(name string, from, to time.Duration) span {
		return span{Name: name, Rank: id, Start: from.Nanoseconds(), End: to.Nanoseconds(), Parent: -1}
	}
	return []span{
		mk("setup.world", 0, rec.world),
		mk("setup.load", rec.world, rec.load),
		mk("setup.init", rec.load, rec.ready),
	}
}

// fcallClass groups the mp.* FCalls the way the ledger reports them.
func fcallClass(name string) string {
	switch name {
	case "mp.send", "mp.ssend", "mp.recv", "mp.sendrange", "mp.recvrange",
		"mp.isend", "mp.irecv", "mp.sendrecv", "mp.sendon", "mp.recvon":
		return "p2p"
	case "mp.wait", "mp.test":
		return "wait"
	case "mp.osend", "mp.orecv", "mp.obcast", "mp.oscatter", "mp.ogather":
		return "oo"
	case "mp.barrier", "mp.bcast", "mp.scatter", "mp.gather", "mp.allgather",
		"mp.alltoall", "mp.reduce", "mp.allreduce", "mp.barrieron", "mp.bcaston",
		"mp.reduceon", "mp.allgatheron", "mp.alltoallon":
		return "coll"
	}
	return "other"
}

var fcallClasses = []string{"p2p", "wait", "coll", "oo", "other"}

// ledger splits one rank's solve wall time: step time is interpreter
// self time, collector pauses that began in the interpreter, and each
// FCall class; time between steps is unattributed. Pauses inside an
// FCall stay in that FCall's time (gcInFcallMs states that overlap), so
// the parts add up to the solve time exactly.
type ledger struct {
	solveMs, stepMs, interpMs, unattributedMs float64
	fcallMs                                   map[string]float64
	calls                                     int
	gcMs, gcInFcallMs                         float64
}

func newLedger(rec *rankRecord) ledger {
	l := ledger{fcallMs: map[string]float64{}, solveMs: ms(int64(rec.end - rec.ready))}
	if rec.tr == nil {
		return l
	}
	var fcallNs int64
	for _, s := range rec.tr.spans {
		switch {
		case s.Name == "step":
			l.stepMs += ms(s.End - s.Start)
			l.gcMs += ms(s.GCNs)
		case s.Parent >= 0:
			l.fcallMs[fcallClass(s.Name)] += ms(s.End - s.Start)
			fcallNs += s.End - s.Start
			l.gcInFcallMs += ms(s.GCNs)
			l.calls++
		}
	}
	l.interpMs = l.stepMs - ms(fcallNs) - l.gcInInterpMs()
	l.unattributedMs = l.solveMs - l.stepMs
	return l
}

// gcInInterpMs is the pause time of collections the interpreter's own
// allocations triggered.
func (l ledger) gcInInterpMs() float64 { return l.gcMs - l.gcInFcallMs }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
