package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one named value with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles gives Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread this tool prints matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics are one rank's per-layer values for one traced episode.
// Counters are deltas over the timed steps unless a comment says
// otherwise; every ratio names its base.
func layerMetrics(w *workload, e *episode, id int) []metric {
	rec := &e.ranks[id]
	b, a, q := rec.before, rec.after, e.quiesce[id]
	l := newLedger(rec)
	var verifyNs, verifyInsts, quickNs, fused, hits, loads uint64
	for i := range e.ranks {
		// Set-up counters are summed over ranks: only the rank that
		// misses the verdict cache runs the verifier.
		s := e.ranks[i].before
		verifyNs += s.verify.ElapsedNs
		verifyInsts += s.verify.Insts
		quickNs += s.quicken.ElapsedNs
		fused += s.quicken.Fused
		hits += s.quicken.VerifyCacheHits
		loads += s.quicken.VerifyCacheHits + s.quicken.VerifyCacheMisses
	}
	d := func(after, before uint64) float64 { return float64(after - before) }
	commMs := l.fcallMs["p2p"] + l.fcallMs["wait"] + l.fcallMs["coll"] + l.fcallMs["oo"]
	gcPauseMs := ms(int64(a.gc.PauseNs - b.gc.PauseNs))
	chBytes := d(a.tr.BytesSent, b.tr.BytesSent)
	sends := d(a.dev.EagerSent, b.dev.EagerSent) + d(a.dev.RndvSent, b.dev.RndvSent)
	ttHits, ttMiss := d(a.tt.Hits, b.tt.Hits), d(a.tt.Misses, b.tt.Misses)
	reuse, allocs := d(a.mp.BufferReuses, b.mp.BufferReuses), d(a.mp.BufferAllocs, b.mp.BufferAllocs)
	return []metric{
		{"motor.setup.world_ms", "ms", ms(int64(rec.world))},
		{"motor.setup.load_ms", "ms", ms(int64(rec.load - rec.world))},
		{"motor.setup.init_ms", "ms", ms(int64(rec.ready - rec.load))},
		{"vm.bcverify.busy_ms", "ms", ms(int64(verifyNs))},
		{"vm.bcverify.insts", "count", float64(verifyInsts)},
		{"vm.quicken.busy_ms", "ms", ms(int64(quickNs))},
		{"vm.quicken.fused", "count", float64(fused)},
		{"vm.quicken.verdict_cache_hit_ratio", "1", ratio(float64(hits), float64(loads))},
		{"vm.interp.self_ms", "ms", l.interpMs},
		{"vm.interp.share", "1", ratio(l.interpMs, l.stepMs)},
		{"core.fcall.p2p_ms", "ms", l.fcallMs["p2p"]},
		{"core.fcall.wait_ms", "ms", l.fcallMs["wait"]},
		{"core.fcall.coll_ms", "ms", l.fcallMs["coll"]},
		{"core.fcall.oo_ms", "ms", l.fcallMs["oo"]},
		{"core.fcall.calls", "count", float64(l.calls)},
		{"core.pin.avoided_ratio", "1", ratio(d(a.mp.PinSkippedElder, b.mp.PinSkippedElder)+d(a.mp.PinAvoidedFast, b.mp.PinAvoidedFast), d(a.mp.Ops, b.mp.Ops))},
		{"core.pin.deferred", "count", d(a.mp.PinDeferred, b.mp.PinDeferred)},
		{"core.pin.cond_registered", "count", d(a.mp.CondPins, b.mp.CondPins)},
		{"core.transfer_checks_dyn", "count", d(a.mp.TransferChecksDyn, b.mp.TransferChecksDyn)},
		{"serial.bytes", "B", d(a.mp.SerializedBytes, b.mp.SerializedBytes)},
		{"serial.chunks", "count", d(a.mp.OOChunksSent, b.mp.OOChunksSent)},
		{"serial.ttcache_hit_ratio", "1", ratio(ttHits, ttHits+ttMiss)},
		{"serial.table_bytes", "B", d(a.tt.TableBytes, b.tt.TableBytes)},
		{"serial.buffer_reuse_ratio", "1", ratio(reuse, reuse+allocs)},
		{"vm.gc.pause_ms", "ms", gcPauseMs},
		// MaxPauseNs is a lifetime maximum; set-up rarely collects.
		{"vm.gc.pause_max_ms", "ms", ms(int64(a.gc.MaxPauseNs))},
		{"vm.gc.pause_share", "1", ratio(gcPauseMs, l.solveMs)},
		{"vm.gc.scavenges", "count", d(a.gc.Scavenges, b.gc.Scavenges)},
		{"vm.gc.full_gcs", "count", d(a.gc.FullGCs, b.gc.FullGCs)},
		{"vm.gc.promoted_mb", "MiB", d(a.gc.BytesPromoted, b.gc.BytesPromoted) / (1 << 20)},
		{"vm.gc.cond_pins_held", "count", d(a.gc.CondPinsHeld, b.gc.CondPinsHeld)},
		{"vm.gc.blocks_donated", "count", d(a.gc.BlocksDonated, b.gc.BlocksDonated)},
		{"vm.gc.pinned_segregated", "count", d(a.gc.PinnedSegregated, b.gc.PinnedSegregated)},
		{"vm.gc.nurseries_recycled", "count", d(a.gc.NurseriesRecycled, b.gc.NurseriesRecycled)},
		{"mp.coll.ops", "count", d(a.coll.Ops, b.coll.Ops)},
		{"mp.coll.bytes_moved", "B", d(a.coll.BytesMoved, b.coll.BytesMoved)},
		{"mp.coll.algo.allreduce_reduce_bcast", "count", d(a.coll.AllreduceReduceBcast, b.coll.AllreduceReduceBcast)},
		{"mp.coll.algo.allreduce_recdbl", "count", d(a.coll.AllreduceRecDbl, b.coll.AllreduceRecDbl)},
		{"mp.coll.algo.allreduce_ring", "count", d(a.coll.AllreduceRing, b.coll.AllreduceRing)},
		{"mp.coll.algo.allgather_gather_bcast", "count", d(a.coll.AllgatherGatherBcast, b.coll.AllgatherGatherBcast)},
		{"mp.coll.algo.allgather_ring", "count", d(a.coll.AllgatherRing, b.coll.AllgatherRing)},
		{"mp.coll.algo.bcast_binomial", "count", d(a.coll.BcastBinomial, b.coll.BcastBinomial)},
		{"mp.coll.algo.bcast_pipelined", "count", d(a.coll.BcastPipelined, b.coll.BcastPipelined)},
		{"mp.adi.eager_sent", "count", d(a.dev.EagerSent, b.dev.EagerSent)},
		{"mp.adi.rndv_sent", "count", d(a.dev.RndvSent, b.dev.RndvSent)},
		{"mp.adi.unexpected", "count", d(a.dev.Unexpected, b.dev.Unexpected)},
		{"mp.adi.polls_per_op", "1", ratio(d(a.dev.Polls, b.dev.Polls), sends)},
		{"mp.adi.bytes_sent", "B", d(a.dev.BytesSent, b.dev.BytesSent)},
		{"mp.channel.frames_sent", "count", d(a.tr.FramesSent, b.tr.FramesSent)},
		{"mp.channel.bytes_sent", "B", chBytes},
		// Base: time in every communicating FCall class. With
		// nonblocking operations the bytes move inside mp.wait, so
		// p2p time alone would overstate the rate.
		{"mp.channel.mb_per_s", "MB/s", ratio(chBytes/1e6, commMs/1e3)},
		{"mp.channel.ring_compactions", "count", d(a.tr.RingCompactions, b.tr.RingCompactions)},
		// Dial retries happen during world wire-up, so this one counts
		// the whole episode.
		{"mp.channel.dial_retries", "count", float64(q.tr.DialRetries)},
		{"ledger.step_ms", "ms", l.stepMs},
		{"ledger.unattributed_ms", "ms", l.unattributedMs},
		{"ledger.gc_in_fcall_ms", "ms", l.gcInFcallMs},
		{"acct.violations", "count", float64(len(acctViolations(w, e)))},
	}
}

// acctViolations cross-checks world-wide accounting at quiesce, from
// outside: every byte the ADI devices sent was received, every byte
// the channels sent was delivered, and each rank's traced steps issued
// exactly the FCalls the workload's step makes.
func acctViolations(w *workload, e *episode) []string {
	var out []string
	var adiSent, adiRecvd, chSent, chRecvd uint64
	for _, q := range e.quiesce {
		adiSent += q.dev.BytesSent
		adiRecvd += q.dev.BytesRecvd
		chSent += q.tr.BytesSent
		chRecvd += q.tr.BytesRecvd
	}
	if adiSent != adiRecvd {
		out = append(out, "adi bytes sent != received")
	}
	if chSent != chRecvd {
		out = append(out, "channel bytes sent != delivered")
	}
	for id := range e.ranks {
		if e.ranks[id].tr == nil {
			continue
		}
		if got, want := newLedger(&e.ranks[id]).calls, w.steps*w.callsPerStep; got != want {
			out = append(out, fmt.Sprintf("rank %d's steps issued %d FCalls, the workload issues %d", id, got, want))
		}
	}
	return out
}
