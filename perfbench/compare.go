package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints every (workload, metric) row of two result files.
// End-to-end metrics are judged against their BENCHMARK.json bound: a
// row is unresolved when either side's run-to-run spread exceeds the
// bound (or a side has fewer than two runs), and flagged only when the
// medians differ by more than the bound. Per-layer metrics have no
// bound and are listed with their change.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var base, next resultFile
	for i, f := range []*resultFile{&base, &next} {
		if err := readJSON(args[i], f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	var spec benchmarkSpec
	if b, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	} else if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 2
	}
	fmt.Printf("base: %s\nnew:  %s\n", base.Host, next.Host)
	regressed := false
	for _, bw := range base.Workloads {
		var nw *workloadResult
		for i := range next.Workloads {
			if next.Workloads[i].Name == bw.Name {
				nw = &next.Workloads[i]
			}
		}
		if nw == nil {
			fmt.Printf("%s: missing from %s\n", bw.Name, args[1])
			continue
		}
		for _, bm := range bw.Metrics {
			nm, ok := nw.metric(bm.Name)
			if !ok {
				continue
			}
			change := 0.0
			if nm.Median != bm.Median {
				change = nm.Median/bm.Median - 1
			}
			verdict := ""
			for _, e := range spec.EndToEnd {
				if e.Name != bm.Name {
					continue
				}
				worse := change
				if e.Better == "higher" {
					worse = -change
				}
				switch {
				case math.Max(bm.spread(), nm.spread()) > e.Bound:
					verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f > bound %.2f)", bm.spread(), nm.spread(), e.Bound)
				case worse > e.Bound:
					verdict = fmt.Sprintf("REGRESSED (bound %.2f)", e.Bound)
					regressed = true
				case -worse > e.Bound:
					verdict = fmt.Sprintf("improved (bound %.2f)", e.Bound)
				default:
					verdict = fmt.Sprintf("within bound %.2f", e.Bound)
				}
			}
			fmt.Printf("%-8s %-38s %12.6g -> %-12.6g %-6s %+7.1f%%  %s\n",
				bw.Name, bm.Name, bm.Median, nm.Median, bm.Unit, 100*change, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
