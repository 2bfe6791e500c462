package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"qrdtm/internal/proto"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promRegistry builds a registry with deterministic contents: fixed samples
// land in fixed buckets, so the text exposition is byte-stable.
func promRegistry() *Registry {
	r := NewRegistry()
	r.Abort(CauseReadValidation)
	r.Abort(CauseReadValidation)
	r.Abort(CauseLockDenied)
	r.Observe(SiteReadRTT, int64(1*time.Millisecond))
	r.Observe(SiteReadRTT, int64(2*time.Millisecond))
	r.Observe(SiteReadRTT, int64(8*time.Millisecond))
	r.Observe(SiteTxnLatency, int64(20*time.Millisecond))
	r.Observe(SiteRollbackDepth, 2)
	r.Observe(SiteRollbackDepth, 3)
	// Introspection-plane samples: commit phases, queue instrumentation,
	// per-slot heat, a registered gauge, and a span buffer — so the golden
	// file pins the new optional series too.
	r.Observe(SitePhasePrepare, int64(2*time.Millisecond))
	r.Observe(SitePhaseDecide, int64(1*time.Millisecond))
	r.Observe(SiteQueueWait, int64(100*time.Microsecond))
	r.Observe(SiteQueueDepth, 3)
	r.Observe(SiteLockWait, int64(1*time.Millisecond))
	r.HeatRead("acct/1")
	r.HeatRead("acct/1")
	r.HeatWrite("acct/1")
	r.HeatConflict("acct/2")
	r.HeatAbort("acct/2")
	r.RegisterGauge("tcp_inflight_requests", func() int64 { return 7 })
	b := NewSpanBuffer(4)
	for i := 0; i < 6; i++ { // 6 spans into 4 slots: 2 dropped
		b.Add(proto.Span{Trace: uint64(i + 1), ID: uint64(i + 1)})
	}
	r.WithSpans(b)
	return r
}

// TestWritePromUntouched pins the byte-identical-when-unused contract: a
// registry that never records heat, gauges or spans must not emit any of the
// new optional series, so pre-existing scrape parsers see unchanged output.
func TestWritePromUntouched(t *testing.T) {
	r := NewRegistry()
	r.Observe(SiteReadRTT, int64(time.Millisecond))
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"qrdtm_slot_", "qrdtm_gauge", "qrdtm_spans_"} {
		if strings.Contains(out, banned) {
			t.Fatalf("untouched registry emitted optional series %q:\n%s", banned, out)
		}
	}
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prom exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(run with -update to regenerate)", buf.Bytes(), want)
	}
}

func TestWritePromFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, promRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Counter family with TYPE annotation and per-cause labels.
	if !strings.Contains(out, "# TYPE qrdtm_aborts_total counter") {
		t.Fatal("missing counter TYPE line")
	}
	if !strings.Contains(out, `qrdtm_aborts_total{cause="read-validation"} 2`) {
		t.Fatalf("missing labeled abort counter:\n%s", out)
	}
	// Histogram family: TYPE, cumulative buckets, +Inf, sum, count.
	for _, want := range []string{
		"# TYPE qrdtm_read_rtt_seconds histogram",
		`qrdtm_read_rtt_seconds_bucket{le="+Inf"} 3`,
		"qrdtm_read_rtt_seconds_count 3",
		"qrdtm_read_rtt_seconds_sum 0.011",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Dimensionless site keeps raw units: no _seconds suffix, raw bounds.
	if !strings.Contains(out, "# TYPE qrdtm_rollback_depth histogram") {
		t.Fatal("rollback_depth not exposed dimensionless")
	}
	if !strings.Contains(out, `qrdtm_rollback_depth_bucket{le="2"} 1`) {
		t.Fatalf("rollback depth buckets unscaled missing:\n%s", out)
	}
	// Cumulative buckets are non-decreasing.
	last := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "qrdtm_read_rtt_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("cumulative bucket decreased at %q", line)
		}
		last = n
	}
}

func TestCumBuckets(t *testing.T) {
	h := NewHistogram()
	h.Record(1)
	h.Record(1)
	h.Record(100)
	cb := h.Snapshot().CumBuckets()
	if len(cb) != 2 {
		t.Fatalf("cum buckets = %+v", cb)
	}
	if cb[0].Count != 2 || cb[1].Count != 3 {
		t.Fatalf("cumulative counts = %+v", cb)
	}
	if cb[0].UpperBound != 1 || cb[1].UpperBound < 100 {
		t.Fatalf("bounds = %+v", cb)
	}
	if got := (HistSnapshot{}).CumBuckets(); len(got) != 0 {
		t.Fatalf("empty snapshot produced buckets: %+v", got)
	}
}
