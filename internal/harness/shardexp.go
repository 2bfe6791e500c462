package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"qrdtm/internal/core"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/testcluster"
)

// shardLocality is the fraction of transfers staying within one shard — the
// branch-locality assumption that makes sharding pay: a bank's transfers are
// mostly intra-branch, so most commits touch one (small) write quorum.
const shardLocality = 0.95

// shardRecord is one scaling cell's measurements. A cell that ends without
// conserving the total balance fails instead of producing a record.
type shardRecord struct {
	Shards      int
	Clients     int
	Commits     uint64
	Throughput  float64
	Speedup     float64 // vs the single-shard cell
	CommitP50Ms float64
	CommitP99Ms float64
}

// migrationRecord summarizes the live add-shard cell, which fails instead
// when money is lost or the merged trace breaks an invariant.
type migrationRecord struct {
	SlotsMoved    int
	EpochBefore   uint64
	EpochAfter    uint64
	CommitsDuring uint64
	Traces        int
}

// Shard prices sharding the object space into independent quorum groups. Two
// parts, both over real localhost TCP on the paper's 13-node cluster:
//
// Scaling: the bank-transfer workload with branch locality (95% of transfers
// intra-shard) at 1, 2 and 4 shards. Every cell runs the same number of
// transfers to completion and must end balance-conserving, so throughput is
// compared at equal verified commits. The single-shard cell is the classic
// one-tree deployment; the win comes from smaller write quorums (a 3-4 node
// group's write quorum is 3 members vs 7 for the 13-node tree) and from
// spreading commit processing across independent groups.
//
// Migration: a 2-shard cluster reconfigured online — a third shard carved
// out and a third of the slots migrated while transfer traffic flows — under
// distributed tracing. The cell passes only if no money is lost, the commits
// kept flowing, and the merged trace satisfies every protocol invariant
// including cross-shard 2PC atomicity.
func Shard(ctx context.Context, s Scale) ([]Table, error) {
	if s.Nodes < shardMinNodes {
		return nil, fmt.Errorf("%w: the shard experiment needs at least %d nodes (its migration carves a shard of the last 3), got %d",
			ErrScale, shardMinNodes, s.Nodes)
	}
	cells, mig, err := runShard(ctx, s)
	if err != nil {
		return nil, err
	}
	return []Table{shardTable(cells, mig)}, nil
}

// shardMinNodes is the smallest cluster the shard experiment runs on: the
// migration cell's new shard is the last three replicas.
const shardMinNodes = 3

// ErrScale reports a Scale an experiment cannot run at (a usage error: the
// caller asked for too few nodes, say); the error names the bound.
var ErrScale = errors.New("harness: scale out of range")

// shardTable renders one row per scaling cell, then the migration row.
func shardTable(cells []shardRecord, mig migrationRecord) Table {
	t := Table{
		ID:     "shard",
		Title:  "sharded quorum trees: throughput scaling and online migration (real TCP)",
		Header: []string{"shards", "clients", "txn/s", "speedup", "commit p50 ms", "commit p99 ms"},
	}
	for _, rec := range cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(rec.Shards), fmt.Sprint(rec.Clients),
			f1(rec.Throughput), fmt.Sprintf("%.2fx", rec.Speedup),
			fmt.Sprintf("%.2f", rec.CommitP50Ms), fmt.Sprintf("%.2f", rec.CommitP99Ms),
		})
	}
	t.Rows = append(t.Rows, []string{
		"2→3 (live)", "3",
		fmt.Sprintf("moved %d slots", mig.SlotsMoved),
		fmt.Sprintf("epoch %d→%d", mig.EpochBefore, mig.EpochAfter),
		fmt.Sprintf("%d commits", mig.CommitsDuring),
		fmt.Sprintf("%d traces, 0 violations", mig.Traces),
	})
	return t
}

// runShard runs the scaling cells at 1, 2 and 4 shards, then the live
// migration cell.
func runShard(ctx context.Context, s Scale) ([]shardRecord, migrationRecord, error) {
	var cells []shardRecord
	for _, shards := range []int{1, 2, 4} {
		rec, err := runShardCell(ctx, s, shards)
		if err != nil {
			return nil, migrationRecord{}, fmt.Errorf("shard cell %d: %w", shards, err)
		}
		rec.Speedup = 1
		if len(cells) > 0 {
			rec.Speedup = rec.Throughput / cells[0].Throughput
		}
		cells = append(cells, rec)
	}
	mig, err := runShardMigrationCell(ctx, s)
	if err != nil {
		return nil, migrationRecord{}, fmt.Errorf("shard migration cell: %w", err)
	}
	return cells, mig, nil
}

// refShards is the finest scaling cell. Accounts are bucketed by the
// *reference* 4-way partition in every cell, so the conflict graph (which
// account pairs contend) is identical across cells and only the quorum
// layout varies. PartitionMap assigns slot owners as slot mod shards, so a
// reference bucket (slots ≡ b mod 4) is wholly inside shard b mod 2 of the
// 2-way split and trivially inside the single tree: intra-bucket transfers
// are intra-shard in every cell.
const refShards = 4

// refAccountBuckets deals account names into the reference buckets:
// scanning names upward, each bucket takes the first `per` names whose slot
// lands in it, so every bucket ends with exactly `per` accounts.
func refAccountBuckets(per int) [][]proto.ObjectID {
	buckets := make([][]proto.ObjectID, refShards)
	filled := 0
	for i := 0; filled < refShards; i++ {
		id := proto.ObjectID(fmt.Sprintf("acct/%04d", i))
		b := int(proto.SlotOf(id)) % refShards
		if len(buckets[b]) >= per {
			continue
		}
		buckets[b] = append(buckets[b], id)
		if len(buckets[b]) == per {
			filled++
		}
	}
	return buckets
}

// accountCopies lists every account at version 1 holding balance.
func accountCopies(buckets [][]proto.ObjectID, balance int64) []proto.ObjectCopy {
	var copies []proto.ObjectCopy
	for _, ids := range buckets {
		for _, id := range ids {
			copies = append(copies, proto.ObjectCopy{ID: id, Version: 1, Val: proto.Int64(balance)})
		}
	}
	return copies
}

// pickTransfer draws a transfer respecting shard locality: usually two
// accounts of one bucket, occasionally one from each of two buckets.
func pickTransfer(rng *rand.Rand, buckets [][]proto.ObjectID) (from, to proto.ObjectID) {
	if len(buckets) == 1 || rng.Float64() < shardLocality {
		b := buckets[rng.IntN(len(buckets))]
		i := rng.IntN(len(b))
		j := rng.IntN(len(b) - 1)
		if j >= i {
			j++
		}
		return b[i], b[j]
	}
	bi := rng.IntN(len(buckets))
	bj := rng.IntN(len(buckets) - 1)
	if bj >= bi {
		bj++
	}
	return buckets[bi][rng.IntN(len(buckets[bi]))], buckets[bj][rng.IntN(len(buckets[bj]))]
}

// checkShardConservation resolves every account through the highest version
// any replica holds and compares the sum against the loaded total.
func checkShardConservation(c *testcluster.Cluster, buckets [][]proto.ObjectID, balance int64) error {
	total, count := int64(0), 0
	for _, b := range buckets {
		for _, id := range b {
			var best proto.ObjectCopy
			for _, r := range c.Replicas {
				if cp, ok := r.Store().Get(id); ok && cp.Version >= best.Version {
					best = cp
				}
			}
			if best.Val == nil {
				return fmt.Errorf("account %s vanished", id)
			}
			total += int64(best.Val.(proto.Int64))
			count++
		}
	}
	if total != int64(count)*balance {
		return fmt.Errorf("conservation violated: total = %d, want %d", total, int64(count)*balance)
	}
	return nil
}

// shardRuntime builds a client runtime for the cell, routed through mapFn's
// placement: per-shard groups under a partitioning map, the classic tree
// over every node under the zero map.
func shardRuntime(c *testcluster.Cluster, node proto.NodeID, mapFn func() (proto.ShardMap, error),
	ids *core.IDGen, metrics *core.Metrics, reg *obs.Registry) (*core.Runtime, error) {
	return core.NewRuntime(core.Config{
		Node:      node,
		Transport: c.Transport,
		Quorums:   core.TreeQuorums{Tree: c.Tree, Map: mapFn},
		Mode:      core.Closed,
		IDs:       ids,
		Metrics:   metrics,
		Obs:       reg,
	})
}

// runShardCell runs one scaling cell: an s.Nodes-node localhost TCP cluster
// split into `shards` quorum groups, 4×Scale clients running the locality
// transfer workload to completion.
func runShardCell(ctx context.Context, s Scale, shards int) (shardRecord, error) {
	const initBalance = 100
	nodes := s.Nodes
	clients := 4 * s.Clients // the scaling win is a saturation effect

	var m proto.ShardMap
	if shards > 1 {
		m = proto.PartitionMap(nodesList(nodes), shards)
	}
	c, err := testcluster.Start(testcluster.Options{Nodes: nodes, Map: m})
	if err != nil {
		return shardRecord{}, err
	}
	defer c.Close()
	// Four accounts per reference bucket: a hot-enough workload that prepare
	// hold time matters — the single tree holds its prepare locks across a
	// 7-node round trip, a shard across 3, and the shorter critical section
	// is (with the smaller fan-out) exactly what sharding buys.
	buckets := refAccountBuckets(4)
	c.Load(accountCopies(buckets, initBalance))

	mapFn := func() (proto.ShardMap, error) { return m, nil }
	ids := core.NewIDGen()
	metrics := &core.Metrics{}
	reg := obs.NewRegistry()
	elapsed, err := runClients(clients, func(cl int) error {
		rt, err := shardRuntime(c, proto.NodeID(cl%nodes), mapFn, ids, metrics, reg)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(s.Seed, uint64(cl)))
		for i := 0; i < s.Txns; i++ {
			from, to := pickTransfer(rng, buckets)
			if err := rt.Atomic(ctx, transferTxn(from, to)); err != nil {
				return fmt.Errorf("client %d txn %d: %w", cl, i, err)
			}
		}
		return nil
	})
	if err != nil {
		return shardRecord{}, err
	}
	if err := checkShardConservation(c, buckets, initBalance); err != nil {
		return shardRecord{}, err
	}
	commit := reg.Snapshot().Hists[obs.SiteCommitRTT].Stats()
	commits := metrics.Commits.Load()
	return shardRecord{
		Shards:      shards,
		Clients:     clients,
		Commits:     commits,
		Throughput:  float64(commits) / elapsed.Seconds(),
		CommitP50Ms: commit.P50Ms,
		CommitP99Ms: commit.P99Ms,
	}, nil
}

// transferTxn is the bank transfer body shared by every shard cell.
func transferTxn(from, to proto.ObjectID) func(*core.Txn) error {
	return func(tx *core.Txn) error {
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
	}
}

func nodesList(n int) []proto.NodeID {
	out := make([]proto.NodeID, n)
	for i := range out {
		out[i] = proto.NodeID(i)
	}
	return out
}

// runShardMigrationCell reconfigures a live 2-shard TCP cluster under
// tracing: shard 2 (nodes 10..12) is carved out and every third slot
// migrated to it while three clients keep transferring. Clients refetch the
// shard map from the cluster on every WrongShard denial, exactly as a
// production client would.
func runShardMigrationCell(ctx context.Context, s Scale) (migrationRecord, error) {
	const initBalance = 100
	nodes := s.Nodes
	reg := obs.NewRegistry().WithSpans(obs.NewSpanBuffer(1 << 16))

	before := proto.PartitionMap(nodesList(nodes), 2)
	c, err := testcluster.Start(testcluster.Options{
		Nodes: nodes,
		Obs:   func(proto.NodeID) *obs.Registry { return reg },
		Map:   before,
	})
	if err != nil {
		return migrationRecord{}, err
	}
	defer c.Close()
	buckets := refAccountBuckets(max(4, s.Clients))
	c.Load(accountCopies(buckets, initBalance))

	runCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var commits atomic.Uint64
	ids := core.NewIDGen()
	metrics := &core.Metrics{}
	traffic := make(chan error, 1)
	go func() {
		_, err := runClients(3, func(cl int) error {
			node := proto.NodeID(cl % nodes)
			mapFn := func() (proto.ShardMap, error) {
				return core.FetchShardMap(runCtx, c.Transport, node, c.Nodes())
			}
			rt, err := shardRuntime(c, node, mapFn, ids, metrics, reg)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewPCG(s.Seed+77, uint64(cl)))
			return untilClosed(stop, func() error {
				from, to := pickTransfer(rng, buckets)
				if err := rt.Atomic(runCtx, transferTxn(from, to)); err != nil {
					return err
				}
				commits.Add(1)
				return nil
			})
		})
		traffic <- err
	}()

	// Let traffic establish, then migrate every third slot to a new shard
	// over nodes 10..12 while the transfers keep flowing.
	time.Sleep(100 * time.Millisecond)
	var slots []int
	for sl := 0; sl < proto.NumSlots; sl++ {
		if sl%3 == 0 {
			slots = append(slots, sl)
		}
	}
	newID := proto.ShardID(len(before.Shards))
	members := c.Nodes()[nodes-3:]
	final, err := core.Reshard(runCtx, c.Transport, 0, c.Nodes(), before, proto.ShardSpec{ID: newID, Members: members}, slots)
	if err != nil {
		close(stop)
		<-traffic
		return migrationRecord{}, fmt.Errorf("reshard: %w", err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	if err := <-traffic; err != nil {
		return migrationRecord{}, err
	}

	if err := checkShardConservation(c, buckets, initBalance); err != nil {
		return migrationRecord{}, err
	}
	spans := obs.MergeSpans(reg.Spans().Spans())
	res := obs.CheckTrace(spans)
	if res.Traces == 0 {
		return migrationRecord{}, fmt.Errorf("migration cell collected no complete traces")
	}
	if err := res.Err(); err != nil {
		return migrationRecord{}, err
	}
	if commits.Load() == 0 {
		return migrationRecord{}, fmt.Errorf("no transfers committed across the migration")
	}
	return migrationRecord{
		SlotsMoved:    len(slots),
		EpochBefore:   before.Epoch,
		EpochAfter:    final.Epoch,
		CommitsDuring: commits.Load(),
		Traces:        res.Traces,
	}, nil
}
