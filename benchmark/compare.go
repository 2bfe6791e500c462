package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

var errRegressed = errors.New("at least one metric regressed")

// compareFiles prints one row per workload x end-to-end metric: base, new,
// ratio and a verdict under BENCHMARK.json's bounds. A row is unresolved
// when either side's in-run spread is wider than the bound: the instrument
// cannot tell a change that small from its own noise.
func compareFiles(basePath, newPath string, w io.Writer) error {
	base, err := readDocument(basePath)
	if err != nil {
		return err
	}
	cur, err := readDocument(newPath)
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	be, ce := base.Envelope, cur.Envelope
	switch {
	case be.Quick || ce.Quick:
		return errors.New("refusing to compare a quick artifact: its numbers mean nothing")
	case be.Clients != ce.Clients || be.NProc != ce.NProc:
		return fmt.Errorf("artifacts are not comparable: clients %d vs %d, nproc %d vs %d", be.Clients, ce.Clients, be.NProc, ce.NProc)
	}

	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s  %s\n", "workload", "metric", "base", "new", "ratio", "verdict")
	regressed := false
	for _, wl := range bf.Workloads {
		b, c := base.Workloads[wl.Name], cur.Workloads[wl.Name]
		if b == nil || c == nil {
			return fmt.Errorf("workload %s is missing from an artifact", wl.Name)
		}
		for _, m := range bf.EndToEnd {
			bv, cv := b.EndToEnd[m.Name], c.EndToEnd[m.Name]
			worse := (cv.Value - bv.Value) / bv.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case bv.Spread > *m.Bound || cv.Spread > *m.Bound:
				verdict = "unresolved"
			case worse > *m.Bound:
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f %8.3f  %s\n", wl.Name, m.Name, bv.Value, cv.Value, cv.Value/bv.Value, verdict)
		}
		// failed_frac has no tolerance: any increase is a regression.
		bv, cv := b.EndToEnd[failedFrac], c.EndToEnd[failedFrac]
		verdict := "ok"
		if cv.Value > bv.Value || !c.Correct {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-16s %12.6f %12.6f %8s  %s\n", wl.Name, failedFrac, bv.Value, cv.Value, "-", verdict)
	}
	if regressed {
		return errRegressed
	}
	return nil
}
