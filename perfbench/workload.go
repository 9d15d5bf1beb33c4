package main

import (
	"math"
	"math/rand"

	"motor"
)

// A workload is one managed MASM program run through the whole default
// stack, plus the inputs a seed generates for it and the plain-Go
// reference every step is checked against.
//
// Every workload runs 2 ranks in one process (one rank goroutine per
// core on the 2-CPU hosts the benchmark is sized for) in a closed,
// bulk-synchronous loop: each rank calls the module's exported `step`
// method once per step with Rank.Call and starts step i+1 when step i
// returns.
type workload struct {
	name string
	why  string
	// channel is the only motor.Config field besides Ranks the
	// benchmark sets; everything else stays at its default so a later
	// change of defaults is measured.
	channel string
	// steps is the fixed step count of one solve (time to solution is
	// measured at this size). step_tail_us is the percentile of a
	// solve's steps with ten steps beyond it, so steps sets that
	// percentile too.
	steps int
	// callsPerStep is the number of mp.* FCalls one rank's step issues;
	// the traced run checks the wrapped-FCall count against it.
	callsPerStep int
	src          string
	plan         func(w *workload, seed int64) *plan
}

// plan is one seed's inputs and expected outputs.
type plan struct {
	// initArgs allocates and fills the arrays a rank's `init` receives.
	initArgs func(r *motor.Rank) ([]motor.Value, error)
	// stepArgs[rank][step] are the scalar arguments of each step call.
	stepArgs [2][][]motor.Value
	// expect[rank][step] is the bit pattern `step` must return.
	expect [2][]uint64
	// reference runs the plain-Go version of one solve's compute (no
	// messaging) and reports whether it agrees with expect; the harness
	// times it as ref.go_solve_s.
	reference func() bool
}

var workloads = []*workload{stencilWorkload(), objtreeWorkload(), bulkWorkload()}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stratified draws n values from the log-uniform distribution over
// [lo, hi]: one draw per equal-probability stratum, in seed-shuffled
// order. Every seed then asks for nearly the same total work, so the
// seed moves the order and the exact sizes but not the solve time.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n)
		out[i] = int(float64(lo) * math.Exp(u*span))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
