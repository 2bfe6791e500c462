package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// envelope is the provenance every result document carries.
type envelope struct {
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Nodes      int     `json:"nodes"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Windows    int     `json:"sub_windows"`
	WindowSec  float64 `json:"sub_window_s"`
	WarmupSec  float64 `json:"warmup_s"`
	TracedSec  float64 `json:"traced_s"`
	Quick      bool    `json:"quick"`
	StartedUTC string  `json:"started_utc"`
	SpreadIs   string  `json:"spread_is"`
	NIs        string  `json:"n_is"`
}

func newEnvelope(rn *runner, quick bool) envelope {
	e := envelope{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Nodes: rn.size.nodes, Clients: rn.size.clients, Seed: rn.seed,
		Windows: rn.size.windows, WindowSec: rn.size.window.Seconds(),
		WarmupSec: rn.size.warmup.Seconds(), TracedSec: rn.size.traced.Seconds(),
		Quick: quick, StartedUTC: time.Now().UTC().Format(time.RFC3339),
		SpreadIs: "(max-min)/median over the sub-window values (set-ups for setup_s, repetitions for floors)",
		NIs:      "samples behind the value: committed transactions, spans, or repetitions",
	}
	if sha, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(sha))
		status, err := exec.Command("git", "status", "--porcelain").Output()
		e.GitDirty = err != nil || len(status) > 0
	}
	return e
}

// document is the one JSON artifact a standalone run writes.
type document struct {
	Envelope  envelope                   `json:"envelope"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Floors    metricSet                  `json:"floors"` // per-layer F metrics: no cluster, so no workload
}

// printMetric prints one metric by name with its unit, sample count, in-run
// spread and, where it is a median, the values it was taken over.
func printMetric(w io.Writer, scope, name string, v metricValue) {
	fmt.Fprintf(w, "%-16s %-40s %14.4f %-6s n=%-8d spread=%.3f %.4g\n", scope, name, v.Value, v.Unit, v.N, v.Spread, v.Windows)
}

// print lists every metric of the document.
func (d *document) print(w io.Writer) {
	for _, def := range workloadDefs {
		res := d.Workloads[def.name]
		for _, name := range sortedKeys(res.EndToEnd) {
			printMetric(w, def.name, name, res.EndToEnd[name])
		}
		for _, name := range sortedKeys(res.PerLayer) {
			printMetric(w, def.name, name, res.PerLayer[name])
		}
		fmt.Fprintf(w, "%-16s budget:", def.name)
		for _, part := range budgetParts {
			fmt.Fprintf(w, " %s=%.1f%%", part, 100*res.Budget[part])
		}
		fmt.Fprintf(w, "\n%-16s output check: correct=%v attempted=%d failed=%d %s\n", def.name, res.Correct, res.Attempted, res.Failed, res.Error)
	}
	for _, name := range sortedKeys(d.Floors) {
		printMetric(w, "floor", name, d.Floors[name])
	}
}
