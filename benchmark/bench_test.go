package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// specFile renders spec.go's tables the way BENCHMARK.json must list them.
func specFile(command, paths []string, runSeconds int) benchmarkFile {
	bf := benchmarkFile{Command: command, Paths: paths, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		bf.Workloads = append(bf.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	for _, m := range endToEndSpecs {
		bound := m.Bound
		bf.EndToEnd = append(bf.EndToEnd, fileMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayerSpecs {
		bf.PerLayer = append(bf.PerLayer, fileMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return bf
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and spec.go in step: the
// same workloads, metrics, units, directions and bounds, in the same order.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	got, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	want := specFile(got.Command, got.Paths, got.RunSeconds)
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json does not match spec.go; spec.go says:\n%s", wb)
	}
	if len(got.Paths) != 1 || got.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", got.Paths)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]fileMetric{}, got.EndToEnd...), got.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, w := range got.Workloads {
		if _, ok := findWorkload(w.Name); !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// applies reports whether a per-layer metric is measured on a workload; the
// driver line reads 0 where it is not.
func applies(m metricSpec, def workloadDef) bool {
	switch {
	case m.Layer == "wal" && m.Source != srcFloor:
		return def.durable
	case m.Name == "obs.overhead_frac":
		return def.obsPass
	}
	return true
}

func checkValue(t *testing.T, scope, name string, ms metricSet) {
	t.Helper()
	v, ok := ms[name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s was not emitted", scope, name)
	case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
		t.Errorf("%s: metric %s = %v", scope, name, v.Value)
	case v.Unit == "":
		t.Errorf("%s: metric %s carries no unit", scope, name)
	}
}

// TestQuickRun drives the -quick path end to end: every workload, traced and
// untraced, the obs pass and the floors, in seconds.
func TestQuickRun(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rn := &runner{size: quickSizing(), seed: 1, tmpRoot: dir, dumpDir: dir, dumpPrefix: "quick-"}
	start := time.Now()
	doc, err := runAll(rn, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("quick run took %v, want under 10 s", d)
	}
	if !doc.Envelope.Quick || doc.Envelope.Clients != rn.size.clients || doc.Envelope.GoVersion == "" {
		t.Errorf("envelope = %+v", doc.Envelope)
	}
	for _, w := range bf.Workloads {
		def, _ := findWorkload(w.Name)
		res := doc.Workloads[w.Name]
		if res == nil {
			t.Fatalf("workload %s was not run", w.Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %s", w.Name, res.Correct, res.Attempted, res.Failed, res.Error)
		}
		for _, m := range bf.EndToEnd {
			checkValue(t, w.Name, m.Name, res.EndToEnd)
		}
		checkValue(t, w.Name, failedFrac, res.EndToEnd)
		for _, m := range perLayerSpecs {
			switch {
			case m.Source == srcFloor:
				checkValue(t, "floors", m.Name, doc.Floors)
			case applies(m, def):
				checkValue(t, w.Name, m.Name, res.PerLayer)
			default:
				if _, ok := res.PerLayer[m.Name]; ok {
					t.Errorf("%s: %s is reported where it does not apply", w.Name, m.Name)
				}
			}
		}
		sum := 0.0
		for _, part := range budgetParts {
			sum += res.Budget[part]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: budget parts sum to %v, want 1", w.Name, sum)
		}
		if _, err := os.Stat(filepath.Join(dir, "quick-spans-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span dump: %v", w.Name, err)
		}
	}
	if v := doc.Workloads["bank_wal"].PerLayer[walPrepareExtra].Value; v <= 0 {
		t.Errorf("wal.serve_prepare_extra_us = %v on bank_wal, want > 0", v)
	}
}

// TestDriverLine checks the driver's contract on the traced path of the
// workload with the most passes: exactly four keys, every per-layer metric.
func TestDriverLine(t *testing.T) {
	def, _ := findWorkload("bank_wal")
	size := quickSizing()
	size.windows, size.window = 2, 150*time.Millisecond
	var out bytes.Buffer
	if err := runDriver(&runner{size: size, seed: 7, tmpRoot: t.TempDir()}, def, true, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want correct/attempted/failed/metrics", sortedKeys(line))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(perLayerSpecs) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(perLayerSpecs))
	}
	for _, m := range perLayerSpecs {
		if got, ok := metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("metric %s on the line: %+v", m.Name, got)
		}
	}
}

// TestTracedTransportKeepsFanOut: the timing wrapper must forward CallMany,
// or core silently falls back to per-call delivery and the traced pass
// measures a different code path. Traffic per transaction is the witness.
func TestTracedTransportKeepsFanOut(t *testing.T) {
	def, _ := findWorkload("bank_tcp")
	rn := &runner{size: quickSizing(), seed: 1, tmpRoot: t.TempDir()}
	rn.size.traced = time.Second
	u, err := rn.pass(def, passUntraced, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rn.pass(def, passTraced, false)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.release()
	ul, tl := u.untracedLayers(), tr.untracedLayers()
	for _, name := range []string{"cluster.msgs_per_txn", "cluster.bytes_per_txn"} {
		if a, b := ul[name].Value, tl[name].Value; math.Abs(a-b)/a > 0.01 {
			t.Errorf("%s: untraced %v, traced %v: more than 1%% apart", name, a, b)
		}
	}
	multicasts := 0
	for _, ct := range tr.trace.clients {
		for _, c := range ct.calls.spans {
			if c.node == multicastNode && c.kind == roundPrepare {
				multicasts++
			}
		}
	}
	if multicasts == 0 {
		t.Error("no prepare round went through the wrapper's CallMany")
	}
}

func TestRoundsSplitOnRepeatedDestination(t *testing.T) {
	us := time.Microsecond
	calls := []callSpan{
		{kind: roundRead, node: 1, txn: 9, start: 12 * us, end: 30 * us},
		{kind: roundRead, node: 0, txn: 9, start: 10 * us, end: 20 * us}, // same round: leg to another node
		{kind: roundRead, node: 0, txn: 9, start: 40 * us, end: 50 * us}, // node repeats: next round
		{kind: roundPrepare, node: multicastNode, txn: 9, start: 60 * us, end: 90 * us},
		{kind: roundDecide, node: multicastNode, txn: 9, start: 91 * us, end: 99 * us},
	}
	rs := rounds(calls)
	if len(rs) != 4 {
		t.Fatalf("got %d rounds, want 4: %+v", len(rs), rs)
	}
	if rs[0].start != 10*us || rs[0].end != 30*us || len(rs[0].nodes) != 2 {
		t.Errorf("first read round = %+v", rs[0])
	}
	if rs[2].kind != roundPrepare || rs[3].kind != roundDecide {
		t.Errorf("commit rounds = %+v %+v", rs[2], rs[3])
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(rate, rateSpread float64, quick bool, clients int) *document {
		d := &document{Envelope: envelope{Quick: quick, Clients: clients, NProc: 2}, Workloads: map[string]*workloadResult{}}
		for _, w := range workloadDefs {
			ms := metricSet{failedFrac: {Unit: "ratio"}}
			for _, m := range endToEndSpecs {
				ms[m.Name] = metricValue{Value: 1, Unit: m.Unit}
			}
			ms["txn_per_s"] = metricValue{Value: rate, Unit: "1/s", Spread: rateSpread}
			d.Workloads[w.name] = &workloadResult{Correct: true, EndToEnd: ms}
		}
		return d
	}
	dir := t.TempDir()
	write := func(name string, d *document) string {
		b, _ := json.Marshal(d)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(1000, 0.01, false, 2))
	for _, c := range []struct {
		name    string
		doc     *document
		verdict string
		failing bool
	}{
		{"same", mk(1000, 0.01, false, 2), "ok", false},
		{"slower", mk(700, 0.01, false, 2), "regressed", true},
		{"noisy", mk(700, 0.5, false, 2), "unresolved", false},
	} {
		var out bytes.Buffer
		err := compareFiles(base, write(c.name+".json", c.doc), &out)
		if (err != nil) != c.failing {
			t.Errorf("%s: err = %v", c.name, err)
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.verdict, out.String())
		}
	}
	for name, doc := range map[string]*document{"quick": mk(1000, 0.01, true, 2), "clients": mk(1000, 0.01, false, 4)} {
		if err := compareFiles(base, write(name+".json", doc), &bytes.Buffer{}); err == nil {
			t.Errorf("%s artifact was not refused", name)
		}
	}
}
