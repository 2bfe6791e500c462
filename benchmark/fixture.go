package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/obs"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/wal"
)

// The WAL settings of the durable workload: the default 1 ms group-commit
// window, and snapshots frequent enough to cycle several times per run.
const (
	walFsyncInterval = time.Millisecond
	walSnapshotEvery = 4096
)

// clusterOpts selects a cluster variant.
type clusterOpts struct {
	nodes   int
	durable bool   // every replica on its own WAL directory under tmpRoot
	tmpRoot string // parent of the WAL directories
	// reg, when set, is attached to the transport and the WALs so their
	// existing sites (queue wait, fsync) can be read; replicaObs also
	// attaches it to the replicas (the obs-overhead pass).
	reg        *obs.Registry
	replicaObs bool
	// wrap, when set, decorates each replica's handler before ListenTCP gets
	// it (the traced pass times Replica.Handle from outside).
	wrap func(proto.NodeID, cluster.Handler) cluster.Handler
}

// fixture is one booted in-process cluster: n replicas behind loopback TCP
// listeners, one multiplexed client transport, the quorum tree. It is the
// only bootstrap the workloads use.
type fixture struct {
	replicas  []*server.Replica
	servers   []*cluster.TCPServer
	wals      []*wal.WAL
	dirs      []string
	transport *cluster.TCPTransport
	tree      *quorum.Tree
	setup     time.Duration // boot + WAL open + object load + first round trip to every node
}

// bootCluster starts a cluster and loads objects into every replica. The
// load goes through Handle so durable replicas log it.
func bootCluster(o clusterOpts, objects []proto.ObjectCopy) (_ *fixture, err error) {
	start := time.Now()
	f := &fixture{tree: quorum.NewTree(o.nodes)}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	peers := make(map[proto.NodeID]string, o.nodes)
	for i := 0; i < o.nodes; i++ {
		id := proto.NodeID(i)
		r := server.New(id)
		if o.replicaObs {
			r.WithObs(o.reg)
		}
		if o.durable {
			dir, err := os.MkdirTemp(o.tmpRoot, "wal-")
			if err != nil {
				return nil, err
			}
			f.dirs = append(f.dirs, dir)
			w, res, err := wal.Open(wal.Options{
				Dir: dir, FsyncInterval: walFsyncInterval, SnapshotEvery: walSnapshotEvery, Obs: o.reg,
			})
			if err != nil {
				return nil, fmt.Errorf("wal node %d: %w", i, err)
			}
			f.wals = append(f.wals, w)
			r.WithWAL(w)
			r.Restore(res)
		}
		h := cluster.Handler(r.Handle)
		if o.wrap != nil {
			h = o.wrap(id, h)
		}
		srv, err := cluster.ListenTCP(id, "127.0.0.1:0", h)
		if err != nil {
			return nil, fmt.Errorf("listen node %d: %w", i, err)
		}
		f.replicas = append(f.replicas, r)
		f.servers = append(f.servers, srv)
		peers[id] = srv.Addr()
	}
	var topts []cluster.TCPOption
	if o.reg != nil {
		topts = append(topts, cluster.WithObs(o.reg))
	}
	f.transport = cluster.NewTCPTransport(peers, topts...)
	for _, r := range f.replicas {
		r.Handle(-1, proto.LoadReq{Objects: objects})
	}
	// Set-up ends when every node has answered over its dialed connection.
	all := make([]proto.NodeID, o.nodes)
	for i := range all {
		all[i] = proto.NodeID(i)
	}
	for _, rep := range f.transport.CallMany(context.Background(), 0, all, proto.DumpReq{Obj: objects[0].ID}) {
		if rep.Err != nil {
			return nil, fmt.Errorf("node %v unreachable after boot: %w", rep.Node, rep.Err)
		}
	}
	f.setup = time.Since(start)
	return f, nil
}

// Close stops the transport, the servers and the WALs and removes the WAL
// directories. The replicas' stores stay readable; closing again is a no-op.
func (f *fixture) Close() error {
	var errs []error
	if f.transport != nil {
		f.transport.Close()
	}
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	for _, w := range f.wals {
		errs = append(errs, w.Close())
	}
	for _, d := range f.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	f.transport, f.servers, f.wals, f.dirs = nil, nil, nil, nil
	return errors.Join(errs...)
}

// latest is the committed-state oracle: the highest-version copy of an
// object across all replicas (write quorums intersect, so it is the value
// the last committed writer installed).
func (f *fixture) latest(id proto.ObjectID) (proto.ObjectCopy, bool) {
	var best proto.ObjectCopy
	found := false
	for _, r := range f.replicas {
		if c, ok := r.Store().Get(id); ok && (!found || c.Version > best.Version) {
			best, found = c, true
		}
	}
	return best, found
}
