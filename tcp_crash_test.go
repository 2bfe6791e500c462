// Process-level crash recovery: real qr-node subprocesses with data
// directories, one killed with SIGKILL mid-commit-storm, restarted from its
// directory, and required to catch up from its peers' log tails — asserted
// through the node's own admin surface (catchup_* gauges), a balance
// conservation oracle, and a clean causal trace audit. This is the one test
// in the suite where the durability claim meets an actual dead process.
package qrdtm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"qrdtm"
	"qrdtm/internal/cluster"
	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
)

// buildQRNode compiles cmd/qr-node once per test run.
func buildQRNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qr-node")
	out, err := exec.Command("go", "build", "-o", bin, "qrdtm/cmd/qr-node").CombinedOutput()
	if err != nil {
		t.Fatalf("building qr-node: %v\n%s", err, out)
	}
	return bin
}

// freeAddrs reserves n distinct localhost ports and returns their addresses.
// The listeners are closed just before use; the window for another process
// to steal a port is tiny and the test would fail loudly.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// crashNode is one qr-node subprocess.
type crashNode struct {
	cmd     *exec.Cmd
	addr    string
	admin   string
	dataDir string
	logPath string
}

// startNode launches a durable replica subprocess and waits for /healthz.
// extra appends flags (the restart adds -peers for catch-up).
func startNode(t *testing.T, bin string, id int, nd *crashNode, extra ...string) {
	t.Helper()
	args := []string{
		"-id", strconv.Itoa(id),
		"-listen", nd.addr,
		"-admin", nd.admin,
		"-data-dir", nd.dataDir,
		"-trace",
		// Keep the whole log: the victim's cursor must stay above every
		// peer's floor so recovery is a pure tail catch-up, no full resync.
		"-snapshot-every", "1000000",
	}
	args = append(args, extra...)
	logf, err := os.OpenFile(nd.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logf.Close() // the child holds its own descriptor
	nd.cmd = cmd
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + nd.admin + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(nd.logPath)
			t.Fatalf("node %d never became healthy on %s; log:\n%s", id, nd.admin, log)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// adminGauges fetches the obs gauge map from a node's /metrics JSON.
func adminGauges(t *testing.T, admin string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Obs struct {
			Gauges map[string]int64 `json:"gauges"`
		} `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Obs.Gauges
}

// dumpBalance sums the bank accounts held by one replica, asked directly.
func dumpBalance(t *testing.T, trans cluster.Transport, node proto.NodeID) int64 {
	t.Helper()
	slots := make([]int, proto.NumSlots)
	for i := range slots {
		slots[i] = i
	}
	resp, err := trans.Call(context.Background(), 0, node, proto.SlotDumpReq{Slots: slots})
	if err != nil {
		t.Fatalf("slot dump from %v: %v", node, err)
	}
	sum := int64(0)
	seen := 0
	for _, c := range resp.(proto.SlotDumpRep).Copies {
		if v, ok := c.Val.(proto.Int64); ok {
			sum += int64(v)
			seen++
		}
	}
	if seen != durableAccounts {
		t.Fatalf("node %v holds %d accounts, want %d", node, seen, durableAccounts)
	}
	return sum
}

func TestSubprocessCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	const n = 4
	const victim = 3
	bin := buildQRNode(t)
	base := t.TempDir()
	listenAddrs := freeAddrs(t, n)
	adminAddrs := freeAddrs(t, n)

	nodes := make([]*crashNode, n)
	peers := make(map[proto.NodeID]string, n)
	peerList := ""
	for i := 0; i < n; i++ {
		nodes[i] = &crashNode{
			addr:    listenAddrs[i],
			admin:   adminAddrs[i],
			dataDir: filepath.Join(base, fmt.Sprintf("node-%d", i)),
			logPath: filepath.Join(base, fmt.Sprintf("node-%d.log", i)),
		}
		peers[proto.NodeID(i)] = listenAddrs[i]
		if i > 0 {
			peerList += ","
		}
		peerList += listenAddrs[i]
		startNode(t, bin, i, nodes[i])
	}

	// In-test client over the same wire protocol the demo client speaks.
	reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 16))
	tcp := cluster.NewTCPTransport(peers, cluster.WithObs(reg))
	defer tcp.Close()
	trans := cluster.NewRetryTransport(tcp, cluster.RetryPolicy{MaxAttempts: 3, CallTimeout: time.Second})
	var victimDown atomic.Bool
	rt, err := core.NewRuntime(core.Config{
		Node:      0,
		Transport: trans,
		Quorums: core.TreeQuorums{
			Tree:  quorum.NewTree(n),
			Alive: func(id proto.NodeID) bool { return id != victim || !victimDown.Load() },
		},
		Mode:    core.Closed,
		IDs:     core.NewIDGen(),
		Metrics: &core.Metrics{},
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed the bank on every replica, through Handle so the load is logged.
	var objs []proto.ObjectCopy
	for i := 0; i < durableAccounts; i++ {
		objs = append(objs, proto.ObjectCopy{
			ID: proto.ObjectID(fmt.Sprintf("acct-%d", i)), Version: 1, Val: proto.Int64(100),
		})
	}
	all := make([]proto.NodeID, n)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	for _, rep := range cluster.Multicast(context.Background(), trans, 0, all, proto.LoadReq{Objects: objs}) {
		if rep.Err != nil {
			t.Fatalf("loading node %v: %v", rep.Node, rep.Err)
		}
	}

	// Commit storm in the background; the kill lands in the middle of it.
	// Transfers that abort because the victim died mid-2PC are fine — the
	// oracle is that committed money is conserved, not that every attempt
	// lands.
	var committed atomic.Int64
	stop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from := proto.ObjectID(fmt.Sprintf("acct-%d", i%durableAccounts))
			to := proto.ObjectID(fmt.Sprintf("acct-%d", (i+1)%durableAccounts))
			err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
				fv, err := tx.Read(from)
				if err != nil {
					return err
				}
				tv, err := tx.Read(to)
				if err != nil {
					return err
				}
				if err := tx.Write(from, proto.Int64(int64(fv.(proto.Int64))-1)); err != nil {
					return err
				}
				return tx.Write(to, proto.Int64(int64(tv.(proto.Int64))+1))
			})
			if err == nil {
				committed.Add(1)
			}
		}
	}()

	waitCommits := func(target int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for committed.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("storm stalled at %d commits, want %d", committed.Load(), target)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitCommits(10)
	// SIGKILL mid-storm: no shutdown hooks, no final fsync — whatever the
	// victim's WAL holds is whatever its group commits got to disk.
	if err := nodes[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = nodes[victim].cmd.Process.Wait()
	victimDown.Store(true)
	killedAt := committed.Load()
	waitCommits(killedAt + 20) // the cluster keeps committing around the hole
	close(stop)
	<-stormDone

	// The kill left the victim's active segment with its unwritten
	// reservation past the last frame, so the restart below replays through
	// a zero tail.
	if runtime.GOOS == "linux" {
		segs, err := filepath.Glob(filepath.Join(nodes[victim].dataDir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("victim segments: %v (err %v)", segs, err)
		}
		b, err := os.ReadFile(segs[len(segs)-1]) // the names sort by first index
		if err != nil {
			t.Fatal(err)
		}
		written := len(bytes.TrimRight(b, "\x00"))
		if len(b)-written < 64<<10 { // far more zeros than any frame ends in
			t.Fatalf("victim's active segment is %d bytes with %d written: no reservation past the frames", len(b), written)
		}
	}

	// Restart from the same data directory; -peers makes it catch up from
	// the survivors' log tails before it starts serving (healthz up ⇒
	// catch-up finished).
	startNode(t, bin, victim, nodes[victim], "-peers", peerList)
	victimDown.Store(false)

	g := adminGauges(t, nodes[victim].admin)
	if g["catchup_tail_total"] < 1 || g["catchup_full_total"] != 0 {
		t.Fatalf("victim did not recover via log tails: tail=%d full=%d skipped=%d",
			g["catchup_tail_total"], g["catchup_full_total"], g["catchup_dropped_protections"])
	}
	if g["catchup_records_applied"] < 1 {
		t.Fatalf("victim applied no catch-up records: %v", g)
	}
	if g["wal_log_bytes"] <= 0 {
		t.Fatalf("victim reports no durable log: %v", g)
	}

	// Conservation on the restarted victim and on the root (which is in
	// every write quorum, so it holds the newest committed state).
	if sum := dumpBalance(t, trans, victim); sum != durableAccounts*100 {
		t.Fatalf("victim bank sum = %d after recovery, want %d", sum, durableAccounts*100)
	}
	if sum := dumpBalance(t, trans, 0); sum != durableAccounts*100 {
		t.Fatalf("root bank sum = %d, want %d", sum, durableAccounts*100)
	}

	// The cluster must be fully functional with the victim back in quorums.
	before := committed.Load()
	for i := 0; int64(i) < 5; i++ {
		err := rt.Atomic(context.Background(), func(tx *core.Txn) error {
			v, err := tx.Read("acct-0")
			if err != nil {
				return err
			}
			return tx.Write("acct-0", v.(proto.Int64))
		})
		if err != nil {
			t.Fatalf("post-recovery txn %d: %v", i, err)
		}
	}
	_ = before

	// Causal trace audit across client + replicas. The kill lost the
	// victim's pre-crash span ring, so traces touching it are Incomplete
	// (skipped, counted) — but no complete trace may violate consistency.
	merged := qrdtm.CollectTrace(context.Background(), trans, 0, all, reg.Spans().Spans())
	if len(merged) == 0 {
		t.Fatal("no spans collected")
	}
	check := obs.CheckTrace(merged)
	if len(check.Violations) > 0 {
		t.Fatalf("trace audit found %d violations after crash recovery: %+v", len(check.Violations), check.Violations[:min(3, len(check.Violations))])
	}
	if check.Traces == 0 {
		t.Fatal("trace audit checked zero complete traces")
	}
	t.Logf("crash recovery: %d commits before kill, %d total; catch-up applied %d records from %d tails; audit: %d traces, %d incomplete, 0 violations",
		killedAt, committed.Load(), g["catchup_records_applied"], g["catchup_tail_total"], check.Traces, check.Incomplete)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
