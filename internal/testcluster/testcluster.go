// Package testcluster boots an in-process QR-DTM cluster on loopback TCP:
// Options.Nodes replicas behind 127.0.0.1:0 listeners plus one multiplexed
// client transport that addresses them all. Tests start one per case and
// hand Close to t.Cleanup:
//
//	c, err := testcluster.Start(testcluster.Options{Nodes: 4, Dir: t.TempDir()})
//	if err != nil {
//		t.Fatal(err)
//	}
//	t.Cleanup(c.Close)
//
// Ports are ephemeral, so clusters started side by side never collide, and
// a crashed node restarts on its original address, so the client transport
// reaches it again without being told. The package does not import
// internal/core, so the engine's own tests can use it without an import
// cycle; callers build runtimes over Transport and Tree themselves.
package testcluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// Options shapes a cluster. The zero value of every field but Nodes means
// "off": in memory, untraced, unsharded.
type Options struct {
	// Nodes is the replica count; node ids run 0..Nodes-1.
	Nodes int
	// Dir, when non-empty, gives replica i its own write-ahead log in
	// Dir/node-i, restored on open. Tests pass t.TempDir().
	Dir string
	// Obs, when set, supplies each replica's observability registry: a span
	// ring per node for traced tests, or one shared registry.
	Obs func(proto.NodeID) *obs.Registry
	// Map is installed on every replica when it partitions (Map.Sharded()).
	Map proto.ShardMap
}

// Cluster is a running loopback deployment.
type Cluster struct {
	// Replicas are indexed by node id. Restarting a durable node replaces
	// its entry with the replica rebuilt from the log.
	Replicas []*server.Replica
	// Transport is the client transport to every node.
	Transport *cluster.TCPTransport
	// Tree is the quorum tree over all nodes.
	Tree *quorum.Tree

	opts  Options
	addrs []string // each node's address, kept across crashes

	mu      sync.Mutex
	servers []*cluster.TCPServer // nil while the node is down
	closed  bool
}

// Start boots the cluster. On error nothing is left running.
func Start(o Options) (*Cluster, error) {
	if o.Nodes <= 0 {
		return nil, fmt.Errorf("testcluster: Nodes = %d, want > 0", o.Nodes)
	}
	c := &Cluster{
		Replicas: make([]*server.Replica, o.Nodes),
		Tree:     quorum.NewTree(o.Nodes),
		opts:     o,
		addrs:    make([]string, o.Nodes),
		servers:  make([]*cluster.TCPServer, o.Nodes),
	}
	peers := make(map[proto.NodeID]string, o.Nodes)
	for _, id := range c.Nodes() {
		var reg *obs.Registry
		if o.Obs != nil {
			reg = o.Obs(id)
		}
		rep, err := c.replica(id, reg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if o.Map.Sharded() {
			rep.Handle(-1, proto.MapUpdateReq{Map: o.Map}) // via Handle so durable replicas log it
		}
		c.Replicas[id] = rep
		if err := c.listen(id, "127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
		peers[id] = c.addrs[id]
	}
	c.Transport = cluster.NewTCPTransport(peers)
	return c, nil
}

// replica builds node id's replica, on a restored log when Options.Dir is set.
func (c *Cluster) replica(id proto.NodeID, reg *obs.Registry) (*server.Replica, error) {
	rep := server.New(id).WithObs(reg)
	if c.opts.Dir == "" {
		return rep, nil
	}
	w, res, err := wal.Open(wal.Options{Dir: filepath.Join(c.opts.Dir, fmt.Sprintf("node-%d", id))})
	if err != nil {
		return nil, fmt.Errorf("testcluster: node %d: %w", id, err)
	}
	rep.WithWAL(w).Restore(res)
	return rep, nil
}

// listen serves node id's replica on addr and records the bound address.
func (c *Cluster) listen(id proto.NodeID, addr string) error {
	srv, err := cluster.ListenTCP(id, addr, c.Replicas[id].Handle)
	if err != nil {
		return fmt.Errorf("testcluster: node %d: %w", id, err)
	}
	c.servers[id] = srv
	c.addrs[id] = srv.Addr()
	return nil
}

// Nodes lists every node id.
func (c *Cluster) Nodes() []proto.NodeID {
	ids := make([]proto.NodeID, c.opts.Nodes)
	for i := range ids {
		ids[i] = proto.NodeID(i)
	}
	return ids
}

// Load installs copies on the members of each object's owning shard under
// Options.Map (every node when unsharded): a copy on a non-member would be
// a disowned, frozen copy. It goes through Handle, so durable replicas log
// the load.
func (c *Cluster) Load(copies []proto.ObjectCopy) {
	byShard := make(map[proto.ShardID][]proto.ObjectCopy)
	for _, cp := range copies {
		s := c.opts.Map.ShardFor(cp.ID)
		byShard[s] = append(byShard[s], cp)
	}
	for s, part := range byShard {
		members := c.Nodes()
		if c.opts.Map.Sharded() {
			spec, _ := c.opts.Map.Shard(s)
			members = spec.Members
		}
		for _, n := range members {
			c.Replicas[n].Handle(-1, proto.LoadReq{Objects: part})
		}
	}
}

// Crash takes node id down: its listener and live connections close, and
// so does its log when durable. The replica stays in Replicas.
func (c *Cluster) Crash(id proto.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	srv := c.servers[id]
	if srv == nil {
		return fmt.Errorf("testcluster: node %d is not running", id)
	}
	c.servers[id] = nil
	err := srv.Close()
	if w := c.Replicas[id].WAL(); w != nil {
		err = errors.Join(err, w.Close())
	}
	return err
}

// Restart brings a crashed node back on its original address. A durable
// node reopens its log and restores a fresh replica from it (keeping the
// old one's registry); an in-memory node serves the replica it kept.
func (c *Cluster) Restart(id proto.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("testcluster: cluster is closed")
	}
	if c.servers[id] != nil {
		return fmt.Errorf("testcluster: node %d is running", id)
	}
	if c.opts.Dir != "" {
		rep, err := c.replica(id, c.Replicas[id].Obs())
		if err != nil {
			return err
		}
		c.Replicas[id] = rep
	}
	return c.listen(id, c.addrs[id])
}

// Close stops the client transport, every node and every log. Calling it
// again is a no-op.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.Transport != nil {
		c.Transport.Close()
	}
	for i, srv := range c.servers {
		if srv != nil {
			_ = srv.Close()
			c.servers[i] = nil
		}
	}
	for _, rep := range c.Replicas {
		if rep != nil && rep.WAL() != nil {
			_ = rep.WAL().Close() // teardown: nothing is read back after it
		}
	}
}
