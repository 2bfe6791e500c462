package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"qrdtm/internal/bench"
	"qrdtm/internal/cluster"
	"qrdtm/internal/load"
	"qrdtm/internal/proto"
	"qrdtm/internal/quorum"
	"qrdtm/internal/server"
	"qrdtm/internal/store"
	"qrdtm/internal/wal"
)

// The floor pass calls each layer's public functions directly, with no
// cluster around them: what one operation costs when nothing else is in the
// way. The traced pass says how far above its floor the live system sits.
// Messages and footprints are those of one bank transfer (2 items).

// floor measures one repetition and returns its metrics by name.
type floor func(scale float64, tmpRoot string) (map[string]float64, error)

var floors = []floor{floorEcho, floorMulticast, floorProto, floorServer, floorStore, floorWAL, floorQuorum, floorLoad}

// runFloors repeats every floor reps times and reports per-metric medians.
func runFloors(scale float64, reps int, tmpRoot string) (metricSet, error) {
	ms := metricSet{}
	for _, f := range floors {
		vals := map[string][]float64{}
		for i := 0; i < reps; i++ {
			one, err := f(scale, tmpRoot)
			if err != nil {
				return nil, err
			}
			for k, v := range one {
				vals[k] = append(vals[k], v)
			}
		}
		for k, v := range vals {
			ms.putWindows(k, v, reps)
		}
	}
	return ms, nil
}

func iters(base int, scale float64) int { return max(int(float64(base)*scale), 20) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func p50us(d []time.Duration) float64 {
	slices.Sort(d)
	return usec(quantile(d, 0.50))
}

var (
	floorIDs    = []proto.ObjectID{"acct/417", "acct/902"}
	floorItems  = []proto.DataItem{{ID: floorIDs[0], Version: 7, OwnerChk: proto.NoChk}, {ID: floorIDs[1], Version: 9, OwnerChk: proto.NoChk}}
	floorWrites = []proto.ObjectCopy{{ID: floorIDs[0], Version: 7, Val: proto.Int64(999)}, {ID: floorIDs[1], Version: 9, Val: proto.Int64(1001)}}
)

// echoCluster is n listeners answering DumpReq with an empty DumpRep.
func echoCluster(n int) (*cluster.TCPTransport, func(), error) {
	var servers []*cluster.TCPServer
	stop := func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}
	peers := map[proto.NodeID]string{}
	for i := 0; i < n; i++ {
		s, err := cluster.ListenTCP(proto.NodeID(i), "127.0.0.1:0", func(proto.NodeID, any) any { return proto.DumpRep{} })
		if err != nil {
			stop()
			return nil, nil, err
		}
		servers = append(servers, s)
		peers[proto.NodeID(i)] = s.Addr()
	}
	tr := cluster.NewTCPTransport(peers)
	return tr, func() { tr.Close(); stop() }, nil
}

// floorEcho is one mux round trip on loopback: the cheapest call the
// transport can make.
func floorEcho(scale float64, _ string) (map[string]float64, error) {
	tr, stop, err := echoCluster(1)
	if err != nil {
		return nil, err
	}
	defer stop()
	ctx := context.Background()
	n := iters(4000, scale)
	lat := make([]time.Duration, 0, n)
	var m0 uint64
	for i := -n / 10; i < n; i++ { // the negative part dials and warms
		if i == 0 {
			m0 = mallocs()
		}
		t0 := time.Now()
		if _, err := tr.Call(ctx, 0, 0, proto.DumpReq{Obj: floorIDs[0]}); err != nil {
			return nil, err
		}
		if i >= 0 {
			lat = append(lat, time.Since(t0))
		}
	}
	allocs := float64(mallocs()-m0) / float64(n)
	return map[string]float64{"cluster.echo_rtt_us_p50": p50us(lat), "cluster.echo_allocs_per_call": allocs}, nil
}

// floorMulticast is one CallMany to a 7-member write quorum.
func floorMulticast(scale float64, _ string) (map[string]float64, error) {
	const members = 7
	tr, stop, err := echoCluster(members)
	if err != nil {
		return nil, err
	}
	defer stop()
	nodes := make([]proto.NodeID, members)
	for i := range nodes {
		nodes[i] = proto.NodeID(i)
	}
	ctx := context.Background()
	n := iters(2000, scale)
	lat := make([]time.Duration, 0, n)
	for i := -n / 10; i < n; i++ {
		t0 := time.Now()
		for _, rep := range tr.CallMany(ctx, 0, nodes, proto.DumpReq{Obj: floorIDs[0]}) {
			if rep.Err != nil {
				return nil, rep.Err
			}
		}
		if i >= 0 {
			lat = append(lat, time.Since(t0))
		}
	}
	return map[string]float64{"cluster.multicast7_rtt_us_p50": p50us(lat)}, nil
}

// floorProto times the binary codec per message type, plus the gob fallback
// an application-defined value (the hashmap's ChainNode) takes.
func floorProto(scale float64, _ string) (map[string]float64, error) {
	out := map[string]float64{}
	n := iters(20000, scale)
	var buf []byte
	enc := func(name string, msg any) []byte {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			buf, _ = proto.AppendWire(buf[:0], msg)
		}
		out[name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		return slices.Clone(buf)
	}
	dec := func(name string, b []byte) error {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := proto.DecodeWire(b); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		out[name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		return nil
	}
	readRep := proto.ReadRep{OK: true, Copy: floorWrites[0], AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
	batchRep := proto.BatchReadRep{OK: true, Copies: floorWrites[:1], AbortDepth: proto.NoDepth, AbortChk: proto.NoChk}
	prepare := proto.PrepareReq{Txn: 123456, Writes: floorWrites}
	decide := proto.DecideReq{Txn: 123456, Commit: true, Writes: floorWrites}
	gobRep := readRep
	gobRep.Copy.Val = bench.ChainNode{Key: 77, Next: "hm/n4211"}

	m0 := mallocs()
	enc("proto.enc_read_req_ns", proto.ReadReq{Txn: 123456, Obj: floorIDs[1], Write: true, DataSet: floorItems[:1]})
	enc("proto.enc_batch_read_req_ns", proto.BatchReadReq{Txn: 123456, Objs: floorIDs[1:], Write: true, Rqv: true, From: 1, Delta: floorItems[:1]})
	prepareBytes := enc("proto.enc_prepare_req_ns", prepare)
	decideBytes := enc("proto.enc_decide_req_ns", decide)
	readRepBytes, _ := proto.AppendWire(nil, readRep)
	batchRepBytes, _ := proto.AppendWire(nil, batchRep)
	for name, b := range map[string][]byte{
		"proto.dec_read_rep_ns": readRepBytes, "proto.dec_batch_read_rep_ns": batchRepBytes,
		"proto.dec_prepare_req_ns": prepareBytes, "proto.dec_decide_req_ns": decideBytes,
	} {
		if err := dec(name, b); err != nil {
			return nil, err
		}
	}
	out["proto.codec_allocs_per_msg"] = float64(mallocs()-m0) / float64(8*n)
	out["proto.prepare_req_bytes"] = float64(len(prepareBytes))

	gobBytes := enc("proto.enc_read_rep_gobval_ns", gobRep)
	if err := dec("proto.dec_read_rep_gobval_ns", gobBytes); err != nil {
		return nil, err
	}
	out["proto.read_rep_gobval_bytes"] = float64(len(gobBytes))
	return out, nil
}

func bankObjects(n int) []proto.ObjectCopy {
	return newBank(n, 1, 0).objects()
}

// floorServer is one prepare+decide against an in-process replica: the
// serve-side cost of a commit with no transport and no WAL.
func floorServer(scale float64, _ string) (map[string]float64, error) {
	objs := bankObjects(1024)
	r := server.New(0)
	r.Handle(-1, proto.LoadReq{Objects: objs})
	n := iters(20000, scale)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a, b := &objs[(2*i)%len(objs)], &objs[(2*i+1)%len(objs)]
		writes := []proto.ObjectCopy{*a, *b}
		txn := proto.TxnID(i + 1)
		if !r.Handle(0, proto.PrepareReq{Txn: txn, Writes: writes}).(proto.PrepareRep).OK {
			return nil, fmt.Errorf("server floor: prepare %d refused", i)
		}
		a.Version++
		b.Version++
		r.Handle(0, proto.DecideReq{Txn: txn, Commit: true, Writes: []proto.ObjectCopy{*a, *b}})
	}
	return map[string]float64{"server.prepare_decide_floor_us": usec(time.Since(t0)) / float64(n)}, nil
}

// floorStore walks a 1024-object store through the life of a 2-item
// transaction, timing each store call; odd transactions abort.
func floorStore(scale float64, _ string) (map[string]float64, error) {
	objs := bankObjects(1024)
	st := store.New()
	st.Load(objs)
	n := iters(20000, scale)
	var read, validate, prepare, commit, abort time.Duration
	for i := 0; i < n; i++ {
		a, b := &objs[(2*i)%len(objs)], &objs[(2*i+1)%len(objs)]
		txn := proto.TxnID(i + 1)
		items := []proto.DataItem{{ID: a.ID, Version: a.Version, OwnerChk: proto.NoChk}, {ID: b.ID, Version: b.Version, OwnerChk: proto.NoChk}}
		writes := []proto.ObjectCopy{*a, *b}

		t := time.Now()
		st.Read(txn, a.ID, true, true)
		st.Read(txn, b.ID, true, true)
		read += time.Since(t)

		t = time.Now()
		if res, needFull := st.ValidateDelta(txn, 0, items); !res.OK || needFull {
			return nil, fmt.Errorf("store floor: validation %d failed", i)
		}
		validate += time.Since(t)

		t = time.Now()
		if !st.Prepare(txn, nil, writes) {
			return nil, fmt.Errorf("store floor: prepare %d refused", i)
		}
		prepare += time.Since(t)

		if i%2 == 1 {
			t = time.Now()
			st.Abort(txn, []proto.ObjectID{a.ID, b.ID})
			abort += time.Since(t)
			continue
		}
		a.Version++
		b.Version++
		installs := []proto.ObjectCopy{*a, *b}
		t = time.Now()
		st.Commit(txn, installs)
		commit += time.Since(t)
	}
	ns := func(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / float64(calls) }
	return map[string]float64{
		"store.read_ns":           ns(read, 2*n),
		"store.validate_delta_ns": ns(validate, n),
		"store.prepare_ns":        ns(prepare, n),
		"store.commit_ns":         ns(commit, (n+1)/2),
		"store.abort_ns":          ns(abort, n/2),
	}, nil
}

// floorWAL times Append (staged, written, fsynced) at the immediate and the
// 1 ms group-commit window, alone and with 8 concurrent appenders.
func floorWAL(scale float64, tmpRoot string) (map[string]float64, error) {
	rec := proto.DecideReq{Txn: 123456, Commit: true, Writes: floorWrites}
	run := func(window time.Duration, appenders, n int) (float64, error) {
		dir, err := os.MkdirTemp(tmpRoot, "walfloor-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		w, _, err := wal.Open(wal.Options{Dir: dir, FsyncInterval: window})
		if err != nil {
			return 0, err
		}
		defer w.Close()
		lat := make([][]time.Duration, appenders)
		errs := make([]error, appenders)
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					t0 := time.Now()
					if err := w.Append(wal.KindDecide, rec); err != nil {
						errs[a] = err
						return
					}
					lat[a] = append(lat[a], time.Since(t0))
				}
			}(a)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return p50us(slices.Concat(lat...)), nil
	}
	out := map[string]float64{}
	for _, c := range []struct {
		name      string
		window    time.Duration
		appenders int
	}{
		{"wal.append_sync_us_p50", 0, 1},
		{"wal.append_w1ms_us_p50", walFsyncInterval, 1},
		{"wal.append_w1ms_c8_us_p50", walFsyncInterval, 8},
	} {
		v, err := run(c.window, c.appenders, iters(150, scale))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out[c.name] = v
	}
	return out, nil
}

// floorQuorum times quorum construction on the 13-node tree.
func floorQuorum(scale float64, _ string) (map[string]float64, error) {
	tree := quorum.NewTree(13)
	n := iters(20000, scale)
	out := map[string]float64{}
	for name, fn := range map[string]func(quorum.Alive) ([]proto.NodeID, error){
		"quorum.read_quorum_ns": tree.ReadQuorum, "quorum.write_quorum_ns": tree.WriteQuorum,
	} {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := fn(quorum.AllAlive); err != nil {
				return nil, err
			}
		}
		out[name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return out, nil
}

// floorLoad runs the open-loop generator at 1000/s against a transaction
// that does nothing: intended-time latency is then purely how late the
// dispatcher ran, the number that decides whether internal/load can time a
// sub-millisecond transaction.
func floorLoad(scale float64, _ string) (map[string]float64, error) {
	g, err := load.New(load.Config{Rate: 1000, Workers: 4, Duration: max(time.Duration(float64(time.Second)*scale), 100*time.Millisecond)})
	if err != nil {
		return nil, err
	}
	st, err := g.Run(context.Background(), func(context.Context, int, int) error { return nil })
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"load.dispatch_overshoot_us_p50": usec(time.Duration(st.Latency.P50())),
		"load.dispatch_overshoot_us_p99": usec(time.Duration(st.Latency.P99())),
	}, nil
}
