// Command perfbench is Motor's end-to-end benchmark: three managed MASM
// workloads run through the whole default stack (motor.Run, Rank.Load
// with assembler, verifier and quickener, the quickened interpreter,
// FCalls, the pin policy, the serializer, collectives, the ADI device,
// the shm or sock channel and the collector), every step checked
// against a plain-Go reference, every layer measured from outside
// through public entry points and stats snapshots.
//
// Run it from the repository root through perfbench/run.sh:
//
//	run.sh --workload stencil|objtree|bulk --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]
//	run.sh --workload all [--repeats K] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//	run.sh compare BASE.json NEW.json
//
// A single-workload run prints a report and, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). It exits non-zero when any step returned an error
// or a wrong result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "stencil, objtree, bulk, or all")
	seed := fs.Int64("seed", 1, "input seed (all: first of --repeats consecutive seeds)")
	seconds := fs.Float64("seconds", 10, "minimum measured time per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "write the result file (host, config, per-metric median and quartiles) here")
	spans := fs.String("spans", "", "traced runs: write the recorded spans here (default .bench_build/spans/WORKLOAD-seedN.json)")
	repeats := fs.Int("repeats", 5, "all: runs per workload, one seed each")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(allMain(*seed, *seconds, *trace == 1, *repeats, *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want stencil, objtree, bulk or all)\n", *name)
		os.Exit(2)
	}
	if *trace == 1 && *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
	}
	os.Exit(runMain(w, *seed, *seconds, *trace == 1, *out, *spans))
}

func runMain(w *workload, seed int64, seconds float64, traced bool, out, spans string) int {
	h := hostInfo()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, seed, seconds, b2i(traced))
	fmt.Printf("host: %s\n", h)
	fmt.Printf("config: %s (zero fields take motor's defaults)\n", configString(w))
	fmt.Printf("why: %s\n", w.why)
	res, err := runWorkload(w, seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(os.Stdout)
	if traced && spans != "" {
		if err := writeSpans(spans, w, seed, res.episodes); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %s\n", spans)
	}
	if out != "" {
		f := &resultFile{Host: h, Seconds: seconds, Trace: traced, Workloads: []workloadResult{res.summary()}}
		if err := writeJSON(out, f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d rank-steps failed their check\n", w.name, res.failed, res.attempted)
		return 1
	}
	return 0
}

// allMain runs every workload --repeats times, each run in its own
// process (so peak RSS belongs to one workload), and writes one result
// file with per-metric medians and quartiles over the runs.
func allMain(seed int64, seconds float64, traced bool, repeats int, out string) int {
	if repeats < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --repeats must be at least 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "all-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	h := hostInfo()
	f := &resultFile{Host: h, Seconds: seconds, Trace: traced}
	status := 0
	for _, w := range workloads {
		var runs []workloadResult
		for k := 0; k < repeats; k++ {
			s := seed + int64(k)
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, s))
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(b2i(traced)), "--out", path)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				status = 1
			}
			var rf resultFile
			if err := readJSON(path, &rf); err != nil || len(rf.Workloads) != 1 {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: no result\n", w.name, s)
				status = 1
				continue
			}
			runs = append(runs, rf.Workloads[0])
		}
		if len(runs) > 0 {
			f.Workloads = append(f.Workloads, mergeRuns(runs))
		}
	}
	fmt.Printf("host: %s\n", h)
	for _, wr := range f.Workloads {
		wr.print(os.Stdout)
	}
	if out != "" {
		if err := writeJSON(out, f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	if traced {
		if msg := checkPredictions(f); msg != "" {
			fmt.Printf("predictions: NOT MET: %s\n", msg)
			status = 1
		} else {
			fmt.Println("predictions: met (interp share highest on stencil; serial bytes only on objtree; scavenges 0 on stencil, >0 on objtree and bulk)")
		}
	}
	return status
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func configString(w *workload) string {
	return fmt.Sprintf("%+v", benchConfig(w))
}
