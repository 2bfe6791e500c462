// Command benchmark is the one instrument for performance and simplicity
// claims about QR-DTM: four closed-loop workloads over an in-process 13-node
// TCP cluster, six end-to-end metrics, and a per-layer budget measured from
// outside the program (exported counters, timing wrappers around the
// transport and the replica handler, direct calls for floors).
//
//	bash benchmark/run.sh                          every workload, full protocol, writes benchmark/out/full-*.json
//	bash benchmark/run.sh -quick                   smoke (5 nodes, 1 s windows), writes benchmark/out/quick.json
//	bash benchmark/run.sh -compare a.json b.json   regression verdicts under BENCHMARK.json's bounds
//	bash benchmark/run.sh --workload bank_tcp --seed 1 --seconds 20 --trace 0
//	                                               one workload, one JSON result line (the driver's contract)
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print one JSON result line")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "with -workload: length of the measured window")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke sizing: 5 nodes, 1 s measured windows; stamped quick, never overwrites a full artifact")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare base.json new.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *quick, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, quick, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result documents, got %d", len(args))
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	outDir, err := outputDir()
	if err != nil {
		return err
	}
	tmpRoot, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)

	if workload != "" {
		def, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		if seconds < 1 || trace < 0 || trace > 1 {
			return fmt.Errorf("-workload needs -seconds >= 1 and -trace 0 or 1")
		}
		rn := &runner{size: driverSizing(seconds, trace == 1), seed: seed, tmpRoot: tmpRoot}
		return runDriver(rn, def, trace == 1, os.Stdout)
	}

	rn := &runner{size: fullSizing(), seed: seed, tmpRoot: tmpRoot, dumpDir: outDir}
	name := "full-" + time.Now().UTC().Format("20060102T150405") + ".json"
	if quick {
		rn.size, rn.dumpPrefix = quickSizing(), "quick-"
		name = "quick.json"
	}
	doc, err := runAll(rn, quick)
	if err != nil {
		return err
	}
	doc.print(os.Stdout)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for name, w := range doc.Workloads {
		if !w.Correct {
			return fmt.Errorf("workload %s failed its output check: %s", name, w.Error)
		}
	}
	return nil
}

// outputDir is benchmark/out, wherever the process was started: the
// repository root (run.sh) or this directory (go run, go test).
func outputDir() (string, error) {
	dir := "out"
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		dir = filepath.Join("benchmark", "out")
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runner carries what every pass of one invocation shares.
type runner struct {
	size       sizing
	seed       uint64
	tmpRoot    string
	dumpDir    string // where span dumps go ("" writes none)
	dumpPrefix string
}

func (rn *runner) pass(def workloadDef, kind passKind, durable bool) (*passResult, error) {
	o := passOpts{
		def: def, seed: rn.seed, kind: kind, durable: durable,
		nodes: rn.size.nodes, clients: rn.size.clients, tmpRoot: rn.tmpRoot,
		warmup: rn.size.warmup, windows: rn.size.windows, window: rn.size.window, setups: rn.size.setups,
	}
	switch kind {
	case passTraced:
		o.windows, o.window, o.setups = 1, rn.size.traced, 1
	case passObs:
		o.windows, o.window, o.setups = 1, rn.size.extra, 1
	}
	return runPass(o)
}

// workloadResult is one workload's section of the result document.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	EndToEnd  metricSet          `json:"end_to_end,omitempty"`
	PerLayer  metricSet          `json:"per_layer,omitempty"`
	Budget    map[string]float64 `json:"budget,omitempty"` // mean share of the txn span per part; sums to 1
}

func newWorkloadResult() *workloadResult {
	return &workloadResult{Correct: true, PerLayer: metricSet{}}
}

// absorb folds one pass's output check and failure counts into the result.
func (w *workloadResult) absorb(r *passResult) {
	t := r.tally()
	w.Attempted += t.attempted
	w.Failed += t.failed + r.unaccounted
	if r.verifyErr != nil {
		w.Correct = false
		w.Error = r.verifyErr.Error()
	}
	if t.failed+r.unaccounted > 0 {
		w.Correct = false
		if w.Error == "" {
			w.Error = fmt.Sprintf("%d transactions returned an error, %d are unaccounted for", t.failed, r.unaccounted)
		}
	}
}

func (w *workloadResult) merge(ms metricSet) {
	for k, v := range ms {
		w.PerLayer[k] = v
	}
}

// measure runs a workload's untraced pass and, when traced, its traced pass
// (and the obs-overhead pass on the workload that carries it).
func (rn *runner) measure(def workloadDef, traced bool) (*workloadResult, error) {
	w := newWorkloadResult()
	u, err := rn.pass(def, passUntraced, def.durable)
	if err != nil {
		return nil, err
	}
	w.absorb(u)
	w.EndToEnd = u.endToEnd()
	w.merge(u.untracedLayers())
	if !traced {
		return w, nil
	}
	t, err := rn.pass(def, passTraced, def.durable)
	if err != nil {
		return nil, err
	}
	defer t.release()
	w.absorb(t)
	dump := ""
	if rn.dumpDir != "" {
		dump = filepath.Join(rn.dumpDir, rn.dumpPrefix+"spans-"+def.name+".json")
	}
	sum, err := t.summarizeTrace(dump)
	if err != nil {
		return nil, err
	}
	w.merge(sum.metrics)
	w.Budget = sum.budget
	w.PerLayer.put("bench.trace_overhead_frac", t.overhead(u), t.tally().commits)
	if def.obsPass {
		// ROADMAP's instrumentation budget: the share of throughput lost when
		// an obs.Registry with the default span ring is attached to every layer.
		o, err := rn.pass(def, passObs, def.durable)
		if err != nil {
			return nil, err
		}
		w.absorb(o)
		w.PerLayer.put("obs.overhead_frac", o.overhead(u), o.tally().commits)
	}
	return w, nil
}

const (
	servePrepareP50 = "server.serve_prepare_us_p50"
	walPrepareExtra = "wal.serve_prepare_extra_us"
)

// runDriver is the driver's contract: one workload, one JSON object on the
// last line of standard output.
func runDriver(rn *runner, def workloadDef, traced bool, out io.Writer) error {
	w, err := rn.measure(def, traced)
	if err != nil {
		return err
	}
	specs := endToEndSpecs
	metrics := w.EndToEnd
	if traced {
		specs, metrics = perLayerSpecs, w.PerLayer
		if def.durable {
			// The same transactions on in-memory replicas: what the serve
			// time would be without the log.
			ref, err := rn.pass(def, passTraced, false)
			if err != nil {
				return err
			}
			defer ref.release()
			w.absorb(ref)
			sum, err := ref.summarizeTrace("")
			if err != nil {
				return err
			}
			w.PerLayer.put(walPrepareExtra, w.PerLayer[servePrepareP50].Value-sum.metrics[servePrepareP50].Value, w.PerLayer[servePrepareP50].N)
		}
		fl, err := runFloors(rn.size.floorScale, rn.size.floorReps, rn.tmpRoot)
		if err != nil {
			return err
		}
		w.merge(fl)
	}

	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{w.Correct, max(w.Attempted, 1), w.Failed, map[string]driverMetric{}}
	for _, s := range specs {
		// A metric that does not apply to this workload (wal.* off bank_wal,
		// obs.overhead_frac off bank_tcp) reads 0: the contract wants every
		// registered name on every line.
		v := metrics[s.Name]
		line.Metrics[s.Name] = driverMetric{v.Value, s.Unit}
		v.Unit = s.Unit
		printMetric(out, def.name, s.Name, v)
	}
	if w.Error != "" {
		fmt.Fprintln(out, "output check:", w.Error)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	if !w.Correct {
		return fmt.Errorf("workload %s failed its output check: %s", def.name, w.Error)
	}
	return nil
}

// runAll is the standalone command: every workload untraced and traced, the
// obs-overhead pass, the floors, one document.
func runAll(rn *runner, quick bool) (*document, error) {
	doc := &document{Envelope: newEnvelope(rn, quick), Workloads: map[string]*workloadResult{}}
	for _, def := range workloadDefs {
		fmt.Fprintf(os.Stderr, "running %s ...\n", def.name)
		w, err := rn.measure(def, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		doc.Workloads[def.name] = w
	}
	wal, tcp := doc.Workloads["bank_wal"].PerLayer, doc.Workloads["bank_tcp"].PerLayer
	wal.put(walPrepareExtra, wal[servePrepareP50].Value-tcp[servePrepareP50].Value, wal[servePrepareP50].N)

	fmt.Fprintln(os.Stderr, "running floors ...")
	fl, err := runFloors(rn.size.floorScale, rn.size.floorReps, rn.tmpRoot)
	if err != nil {
		return nil, fmt.Errorf("floors: %w", err)
	}
	doc.Floors = fl
	return doc, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
