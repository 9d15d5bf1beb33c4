package main

import "testing"

// TestWrongExpectationIsCaught feeds the harness one wrong expected
// step result and checks that the run counts it as failed and is
// reported incorrect, while the same run with the true reference passes.
func TestWrongExpectationIsCaught(t *testing.T) {
	for _, base := range workloads {
		w := *base
		w.steps = 4
		t.Run(w.name, func(t *testing.T) {
			good, err := runWorkload(&w, 7, 0.001, false)
			if err != nil {
				t.Fatal(err)
			}
			if !good.correct() || good.failed != 0 {
				t.Fatalf("true reference: %d of %d rank-steps failed", good.failed, good.attempted)
			}

			p := w.plan(&w, 7)
			p.expect[1][2] ^= 1
			bad, err := runPlan(&w, p, 7, 0.001, false)
			if err != nil {
				t.Fatal(err)
			}
			if bad.correct() || bad.failed != len(bad.episodes) {
				t.Fatalf("wrong expectation: %d failed over %d episodes, correct=%v; want one failure per episode",
					bad.failed, len(bad.episodes), bad.correct())
			}
			if line := bad.contractLine(); line["correct"] != false {
				t.Fatalf("result line reports correct=%v", line["correct"])
			}
		})
	}
}
