package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"motor"
)

// benchConfig is the world every episode of w runs: the default
// motor.Config except Ranks and Channel.
func benchConfig(w *workload) motor.Config {
	return motor.Config{Ranks: 2, Channel: w.channel}
}

// episodeStall bounds one episode. Episodes take seconds; a rank whose
// step failed leaves its peer blocked in a message wait, and the run
// must still end with an error well inside its time limit.
const episodeStall = 60 * time.Second

// runResult is one run: one workload, one seed, repeated episodes.
type runResult struct {
	w                 *workload
	seed              int64
	traced            bool
	episodes          []*episode
	refS              float64
	refOK             bool
	attempted, failed int
	// setups holds the set-up times of the set-up-only worlds.
	setups []float64
}

// runWorkload runs one seed of w. It first sets up extraSetups worlds
// that do not solve, then repeats episodes until at least seconds have
// passed and at least minEpisodes ran. Traced runs alternate untraced
// and traced episodes, so the tracing overhead is measured within the
// run.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	return runPlan(w, w.plan(w, seed), seed, seconds, traced)
}

// extraSetups is the number of set-up-only worlds per run. Set-up takes
// tens of milliseconds and varies a lot on a shared host, so setup_s is
// a median over these and every episode's set-up.
const extraSetups = 16

// runPlan runs one seed's plan.
func runPlan(w *workload, p *plan, seed int64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{w: w, seed: seed, traced: traced, refOK: true}
	var refTimes []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		good := p.reference()
		refTimes = append(refTimes, time.Since(t0).Seconds())
		res.refOK = res.refOK && good
	}
	res.refS = median(refTimes)

	minEpisodes := 3
	if traced {
		minEpisodes = 4
	}
	start := time.Now()
	for ep := 0; ; ep++ {
		setupOnly := ep < extraSetups
		e, err := res.episode(p, ep, traced && !setupOnly && ep%2 == 1, setupOnly)
		if err != nil {
			return res, fmt.Errorf("episode %d: %w", ep, err)
		}
		if setupOnly {
			res.setups = append(res.setups, e.setup.Seconds())
			continue
		}
		res.episodes = append(res.episodes, e)
		if time.Since(start).Seconds() >= seconds && len(res.episodes) >= minEpisodes {
			break
		}
	}
	return res, nil
}

// episode runs one episode under a stall deadline. Each episode stands
// for a fresh job: the previous episode's memory goes back to the OS
// first, so every set-up faults in fresh pages and peak RSS is this
// episode's.
func (r *runResult) episode(p *plan, ep int, traced, setupOnly bool) (*episode, error) {
	stall := time.AfterFunc(episodeStall, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s episode %d made no progress for %v\n", r.w.name, ep, episodeStall)
		os.Exit(1)
	})
	defer stall.Stop()
	debug.FreeOSMemory()
	resetPeakRSS()
	steps := r.w.steps
	if setupOnly {
		steps = 0
	}
	e, err := runEpisode(r.w, p, ep, traced, steps)
	for _, rec := range e.ranks {
		r.attempted += rec.attempted
		r.failed += rec.failed
	}
	e.rssMiB = peakRSSMiB()
	return e, err
}

func (r *runResult) correct() bool { return r.failed == 0 && r.refOK }

func (r *runResult) pick(traced bool) []*episode {
	var out []*episode
	for _, e := range r.episodes {
		if e.traced == traced {
			out = append(out, e)
		}
	}
	return out
}

// stat is a metric with its spread over the run's episodes (or steps).
type stat struct {
	metric
	q1, q3 float64
	note   string
}

// endToEnd computes the user-visible metrics from untraced episodes.
func (r *runResult) endToEnd() []stat {
	eps := r.pick(false)
	setup := append([]float64(nil), r.setups...)
	var solve, rss, steps, tails []float64
	for _, e := range eps {
		rss = append(rss, e.rssMiB)
		setup = append(setup, e.setup.Seconds())
		solve = append(solve, e.solve.Seconds())
		var solveSteps []float64
		for _, ns := range e.ranks[0].stepNs {
			solveSteps = append(solveSteps, float64(ns)/1e3)
		}
		tails = append(tails, quantile(solveSteps, tailQuantile(len(solveSteps))))
		steps = append(steps, solveSteps...)
	}
	spread := func(name, unit string, xs []float64, note string) stat {
		q1, q3 := quartiles(xs)
		return stat{metric{name, unit, median(xs)}, q1, q3, note}
	}
	q1, q3 := quartiles(steps)
	return []stat{
		spread("setup_s", "s", setup, fmt.Sprintf("median of %d set-ups", len(setup))),
		spread("solve_s", "s", solve, fmt.Sprintf("median of %d solves of %d steps, max over ranks", len(solve), r.w.steps)),
		{metric{"step_p50_us", "us", median(steps)}, q1, q3, fmt.Sprintf("rank 0, %d steps", len(steps))},
		spread("step_tail_us", "us", tails, fmt.Sprintf("p%g of each solve's %d steps at rank 0 (10 beyond), median of %d solves",
			100*tailQuantile(r.w.steps), r.w.steps, len(tails))),
		spread("peak_rss_mb", "MiB", rss, "VmHWM over one episode (reset before each), median over episodes"),
		{metric{"fail_ratio", "1", ratio(float64(r.failed), float64(r.attempted))}, 0, 0,
			fmt.Sprintf("%d of %d rank-steps", r.failed, r.attempted)},
	}
}

// tailQuantile is the highest quantile of n samples that still has
// ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// perLayer computes rank id's per-layer metrics as medians over the
// traced episodes, plus the run-level ratios.
func (r *runResult) perLayer(id int) []stat {
	traced, plain := r.pick(true), r.pick(false)
	var rows [][]metric
	for _, e := range traced {
		rows = append(rows, layerMetrics(r.w, e, id))
	}
	var out []stat
	if len(rows) == 0 {
		return out
	}
	for i, m := range rows[0] {
		var xs []float64
		for _, row := range rows {
			xs = append(xs, row[i].Value)
		}
		q1, q3 := quartiles(xs)
		out = append(out, stat{metric{m.Name, m.Unit, median(xs)}, q1, q3, ""})
	}
	solves := func(eps []*episode) []float64 {
		var xs []float64
		for _, e := range eps {
			xs = append(xs, e.solve.Seconds())
		}
		return xs
	}
	plainSolve := median(solves(plain))
	out = append(out,
		stat{metric: metric{"ref.go_solve_s", "s", r.refS}, note: "plain-Go compute of one solve, no messaging"},
		stat{metric: metric{"vm.slowdown_x", "x", ratio(plainSolve, r.refS)}, note: "solve_s / ref.go_solve_s"},
		stat{metric: metric{"obs.trace_overhead_ratio", "1", ratio(median(solves(traced)), plainSolve)},
			note: "traced solve_s / untraced solve_s"})
	return out
}

// reported is what a run reports: the end-to-end metrics, or rank 0's
// per-layer metrics when traced.
func (r *runResult) reported() []stat {
	if r.traced {
		return r.perLayer(0)
	}
	return r.endToEnd()
}

// contractLine is the last line of a run's output.
func (r *runResult) contractLine() map[string]any {
	metrics := map[string]any{}
	for _, s := range r.reported() {
		// fail_ratio is 0 on a correct run; it travels as failed/attempted.
		if s.Name != "fail_ratio" {
			metrics[s.Name] = map[string]any{"value": s.Value, "unit": s.Unit}
		}
	}
	return map[string]any{"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
}

func (r *runResult) print(out io.Writer) {
	fmt.Fprintf(out, "run: %d episodes (%d traced), %d rank-steps checked against the reference, %d failed; reference reproduced: %v\n",
		len(r.episodes), len(r.pick(true)), r.attempted, r.failed, r.refOK)
	fmt.Fprintln(out, "end-to-end (untraced episodes; median [q1, q3]):")
	for _, s := range r.endToEnd() {
		fmt.Fprintf(out, "  %-14s %12.6g %-4s [%.6g, %.6g]  %s\n", s.Name, s.Value, s.Unit, s.q1, s.q3, s.note)
	}
	if !r.traced {
		return
	}
	r0, r1 := r.perLayer(0), r.perLayer(1)
	fmt.Fprintln(out, "per-layer (traced episodes; median over episodes; rank 0 | rank 1):")
	for i := range r0 {
		fmt.Fprintf(out, "  %-38s %14.6g | %-14.6g %-6s %s\n", r0[i].Name, r0[i].Value, r1[i].Value, r0[i].Unit, r0[i].note)
	}
	for _, e := range r.pick(true)[:1] {
		fmt.Fprintln(out, "step ledger (first traced episode, ms; GC pauses inside FCalls are part of FCall time):")
		for id := range e.ranks {
			l := newLedger(&e.ranks[id])
			parts := []string{fmt.Sprintf("interp self %.3f", l.interpMs), fmt.Sprintf("gc in interp %.3f", l.gcInInterpMs())}
			for _, c := range fcallClasses {
				parts = append(parts, fmt.Sprintf("%s %.3f", c, l.fcallMs[c]))
			}
			fmt.Fprintf(out, "  rank %d: solve %.3f = steps %.3f (%s) + unattributed %.3f; gc in FCalls %.3f\n",
				id, l.solveMs, l.stepMs, strings.Join(parts, " + "), l.unattributedMs, l.gcInFcallMs)
		}
		if v := acctViolations(r.w, e); len(v) > 0 {
			fmt.Fprintf(out, "  accounting: %s\n", strings.Join(v, "; "))
		}
	}
}

// resetPeakRSS resets the process's VmHWM to its current resident set
// (proc(5), clear_refs value 5). Where that is not possible the peak
// stays cumulative over the run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeSpans writes every traced episode's spans as one JSON document:
// per rank, the set-up phases and then the step and FCall spans, whose
// parent fields index that rank's span list.
func writeSpans(path string, w *workload, seed int64, eps []*episode) error {
	type rankSpans struct {
		Rank  int    `json:"rank"`
		Setup []span `json:"setup"`
		Spans []span `json:"spans"`
	}
	type epSpans struct {
		Episode int         `json:"episode"`
		Ranks   []rankSpans `json:"ranks"`
	}
	doc := struct {
		Workload string    `json:"workload"`
		Seed     int64     `json:"seed"`
		Episodes []epSpans `json:"episodes"`
	}{Workload: w.name, Seed: seed}
	for i, e := range eps {
		if !e.traced {
			continue
		}
		es := epSpans{Episode: i}
		for id := range e.ranks {
			rec := &e.ranks[id]
			es.Ranks = append(es.Ranks, rankSpans{Rank: id, Setup: setupSpans(id, rec), Spans: rec.tr.spans})
		}
		doc.Episodes = append(doc.Episodes, es)
	}
	return writeJSON(path, doc)
}
