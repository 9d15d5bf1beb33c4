package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// resultFile is what --out writes and compare reads: the host and
// provenance block, then per workload every metric's values over the
// runs with their median and quartiles.
type resultFile struct {
	Host      host             `json:"host"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadResult `json:"workloads"`
}

type host struct {
	CPUs         int    `json:"cpus"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Platform     string `json:"platform"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func (h host) String() string {
	return fmt.Sprintf("cpus=%d gomaxprocs=%d go=%s %s commit=%s source_sha256=%.16s",
		h.CPUs, h.GOMAXPROCS, h.GoVersion, h.Platform, h.Commit, h.SourceSHA256)
}

type workloadResult struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Config    string          `json:"config"`
	Seeds     []int64         `json:"seeds"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   []metricSummary `json:"metrics"`
}

// metricSummary holds one metric's value from each run. Median and
// quartiles are over runs (statistics.quantiles(values, n=4)).
type metricSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func (m *metricSummary) fill() {
	m.Median = median(m.Values)
	m.Q1, m.Q3 = quartiles(m.Values)
}

// spread is the interquartile distance as a share of the median.
func (m *metricSummary) spread() float64 {
	if len(m.Values) < 2 || m.Median == 0 {
		return math.Inf(1)
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Median)
}

// summary is this run's row of a result file.
func (r *runResult) summary() workloadResult {
	wr := workloadResult{Name: r.w.name, Why: r.w.why, Config: configString(r.w), Seeds: []int64{r.seed},
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed}
	for _, s := range r.reported() {
		m := metricSummary{Name: s.Name, Unit: s.Unit, Values: []float64{s.Value}}
		m.fill()
		wr.Metrics = append(wr.Metrics, m)
	}
	return wr
}

// mergeRuns folds single-run rows of one workload into one row.
func mergeRuns(runs []workloadResult) workloadResult {
	out := runs[0]
	out.Seeds, out.Metrics = nil, nil
	out.Correct, out.Attempted, out.Failed = true, 0, 0
	idx := map[string]int{}
	for _, r := range runs {
		out.Seeds = append(out.Seeds, r.Seeds...)
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			i, ok := idx[m.Name]
			if !ok {
				i = len(out.Metrics)
				idx[m.Name] = i
				out.Metrics = append(out.Metrics, metricSummary{Name: m.Name, Unit: m.Unit})
			}
			out.Metrics[i].Values = append(out.Metrics[i].Values, m.Values...)
		}
	}
	for i := range out.Metrics {
		out.Metrics[i].fill()
	}
	return out
}

func (wr workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "%s: seeds %v, correct=%v (%d of %d rank-steps failed)\n  config: %s\n  why: %s\n",
		wr.Name, wr.Seeds, wr.Correct, wr.Failed, wr.Attempted, wr.Config, wr.Why)
	for _, m := range wr.Metrics {
		fmt.Fprintf(out, "  %-38s %12.6g %-6s [%.6g, %.6g] spread %.3f over %d runs\n",
			m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.spread(), len(m.Values))
	}
}

func (wr workloadResult) metric(name string) (metricSummary, bool) {
	for _, m := range wr.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricSummary{}, false
}

// checkPredictions tests the prediction table's checkable rows on a
// traced result file and returns "" when they hold.
func checkPredictions(f *resultFile) string {
	get := func(w, m string) (float64, bool) {
		for _, wr := range f.Workloads {
			if wr.Name == w {
				if s, ok := wr.metric(m); ok {
					return s.Median, true
				}
			}
		}
		return 0, false
	}
	var bad []string
	share := map[string]float64{}
	for _, w := range workloads {
		v, ok := get(w.name, "vm.interp.share")
		if !ok {
			return "missing workload " + w.name
		}
		share[w.name] = v
		ser, _ := get(w.name, "serial.bytes")
		if (ser > 0) != (w.name == "objtree") {
			bad = append(bad, fmt.Sprintf("serial.bytes=%g on %s", ser, w.name))
		}
		scav, _ := get(w.name, "vm.gc.scavenges")
		if (scav > 0) != (w.name != "stencil") {
			bad = append(bad, fmt.Sprintf("vm.gc.scavenges=%g on %s", scav, w.name))
		}
	}
	if share["stencil"] <= share["objtree"] || share["stencil"] <= share["bulk"] {
		bad = append(bad, fmt.Sprintf("vm.interp.share not highest on stencil (%v)", share))
	}
	return strings.Join(bad, "; ")
}

// hostInfo is the provenance block. The commit comes from the build's
// VCS stamp when the tree was a git checkout; the source hash covers
// every Go, MASM and go.mod file under the working directory either way.
func hostInfo() host {
	h := host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH, Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	sum := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".masm") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(sum, "%s\x00%d\x00", path, len(b))
		sum.Write(b)
		return nil
	})
	h.SourceSHA256 = hex.EncodeToString(sum.Sum(nil))
	return h
}
