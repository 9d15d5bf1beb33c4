package main

import (
	"fmt"
	"time"

	"motor"
	"motor/internal/core"
	"motor/internal/mp"
	"motor/internal/mp/adi"
	"motor/internal/mp/channel"
	"motor/internal/serial"
	"motor/internal/vm"
)

// An episode is one world from motor.Run to the end of one solve: set
// up (world wire-up, Rank.Load, init), then the workload's fixed step
// count. A run repeats episodes, so set-up is measured several times.
type episode struct {
	traced bool
	ranks  [2]rankRecord
	// setup is motor.Run's start to the last rank being ready to step.
	setup time.Duration
	// solve is the longest rank's span from ready to its last step.
	solve time.Duration
	// rssMiB is the process's peak resident set during the episode.
	rssMiB float64
	// quiesce holds each rank's totals after motor.Run returned, for
	// the world-wide accounting cross-check.
	quiesce [2]stats
}

// rankRecord is what one rank's goroutine measured, as offsets from
// the episode's motor.Run call.
type rankRecord struct {
	world, load, ready, end time.Duration
	stepNs                  []int64
	attempted, failed       int
	// before and after bracket the timed steps; before also holds the
	// set-up counters (verifier, quickener).
	before, after stats
	tr            *rankTracer
}

// stats is one rank's public stats snapshots.
type stats struct {
	gc      vm.GCStats
	mp      core.Stats
	verify  core.VerifyStats
	quicken core.QuickenStats
	dev     adi.DeviceStats
	coll    mp.CollStats
	tr      channel.TransportStats
	tt      serial.TTCacheStats
}

func snapshot(r *motor.Rank) stats {
	s := stats{
		gc:      r.GCStats(),
		mp:      r.MPStats(),
		verify:  r.VerifyStats(),
		quicken: r.QuickenStats(),
		dev:     r.DeviceStats(),
		coll:    r.CollStats(),
	}
	s.tr, _ = r.TransportStats()
	for _, g := range r.StatsSnapshot().Groups {
		if g.Name != "serial.ttcache" {
			continue
		}
		for _, f := range g.Fields {
			switch f.Name {
			case "Hits":
				s.tt.Hits = f.Value
			case "Misses":
				s.tt.Misses = f.Value
			case "TableBytes":
				s.tt.TableBytes = f.Value
			}
		}
	}
	return s
}

// runEpisode sets up one world and runs steps steps of the solve on it. Episode
// number ep is appended to the module as a comment: the verifier's
// verdict cache is keyed by module text and shared process-wide, and
// each episode stands for a fresh job, in which the first rank to load
// verifies and its sibling hits the cache.
func runEpisode(w *workload, p *plan, ep int, traced bool, steps int) (*episode, error) {
	e := &episode{traced: traced}
	var ranks [2]*motor.Rank
	src := fmt.Sprintf("%s\n; episode %d\n", w.src, ep)
	start := time.Now()
	err := motor.Run(benchConfig(w), func(r *motor.Rank) error {
		id := r.ID()
		rec := &e.ranks[id]
		ranks[id] = r
		rec.world = time.Since(start)
		if traced {
			rec.tr = newRankTracer(r, start)
		}
		if _, err := r.Load(src); err != nil {
			return fmt.Errorf("rank %d: load: %w", id, err)
		}
		initM, ok1 := r.VM().MethodByName("init")
		stepM, ok2 := r.VM().MethodByName("step")
		if !ok1 || !ok2 {
			return fmt.Errorf("rank %d: module lacks init or step", id)
		}
		rec.load = time.Since(start)
		args, err := p.initArgs(r)
		if err != nil {
			return fmt.Errorf("rank %d: init args: %w", id, err)
		}
		if _, err := r.Call(initM, args...); err != nil {
			return fmt.Errorf("rank %d: init: %w", id, err)
		}
		if err := r.Barrier(); err != nil {
			return fmt.Errorf("rank %d: ready barrier: %w", id, err)
		}
		rec.ready = time.Since(start)
		rec.before = snapshot(r)
		rec.stepNs = make([]int64, 0, steps)
		for i := 0; i < steps; i++ {
			t0 := time.Now()
			rec.tr.beginStep(t0)
			v, err := r.Call(stepM, p.stepArgs[id][i]...)
			t1 := time.Now()
			rec.tr.endStep(t1)
			rec.stepNs = append(rec.stepNs, t1.Sub(t0).Nanoseconds())
			rec.attempted++
			if err != nil {
				rec.failed++
				return fmt.Errorf("rank %d: step %d: %w", id, i, err)
			}
			if v.Bits != p.expect[id][i] {
				rec.failed++
			}
		}
		rec.end = time.Since(start)
		rec.after = snapshot(r)
		return nil
	})
	if err != nil {
		return e, err
	}
	for id, r := range ranks {
		e.quiesce[id] = snapshot(r)
		rec := &e.ranks[id]
		if s := rec.ready; s > e.setup {
			e.setup = s
		}
		if s := rec.end - rec.ready; s > e.solve {
			e.solve = s
		}
	}
	return e, nil
}
