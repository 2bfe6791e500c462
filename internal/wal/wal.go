package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qrdtm/internal/obs"
)

// Options configures a log.
type Options struct {
	// Dir is the data directory (created if absent). One log per directory.
	Dir string
	// Deprecated: ignored. Batches form naturally: whatever is staged while
	// one write+fsync runs becomes the next batch.
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic background snapshot once this many
	// records have accumulated past the last snapshot. Zero disables
	// automatic snapshots (explicit Snapshot calls still work).
	SnapshotEvery uint64
	// Obs receives fsync latency samples (SiteWALFsync) and, when non-nil,
	// the wal_log_bytes / wal_snapshot_bytes / wal_fsync_total gauges.
	Obs *obs.Registry
}

// segment is one sealed (no longer written) log file.
type segment struct {
	path  string
	first uint64 // index of the segment's first record
}

// batch is one group commit: every Append staged while it was open blocks on
// done and shares the single write+fsync outcome.
type batch struct {
	done chan struct{}
	err  error
}

// WAL is an append-only, CRC-framed, group-committed write-ahead log with
// periodic snapshots. Append is safe for concurrent use; Snapshot, Tail and
// Close may run concurrently with appends.
type WAL struct {
	opts Options

	// mu guards the staging state: the pending buffer, the open batch, index
	// allocation, the sticky failure and the closed flag.
	mu        sync.Mutex
	pend      []byte
	pendBatch *batch
	nextIndex uint64
	failed    error
	closed    bool

	// ioMu guards the segment file set (active file, sealed list) and
	// serializes all file writes and tail reads. Lock order: ioMu before mu
	// when both are held.
	ioMu     sync.Mutex
	seg      *os.File
	segStart uint64
	sealed   []segment
	// floor is the snapshot applied index: records <= floor may be compacted
	// away. Written under ioMu; atomic so a returning Append can check it
	// without queueing behind the next batch's fsync.
	floor atomic.Uint64

	// snaps counts running snapshots; Close waits for them. Add happens under
	// mu while !closed, so it is ordered before Close's Wait.
	snaps        sync.WaitGroup
	snapshotting atomic.Bool
	snapErr      atomic.Value // error from the last background snapshot
	snapSource   func() (SnapshotState, error)

	logBytes  atomic.Int64
	snapBytes atomic.Int64
	fsyncs    atomic.Int64
	appends   atomic.Int64

	// newFile wraps freshly opened segment files; tests inject fault
	// writers through it. Nil means identity.
	newFile func(*os.File) walFile
}

// walFile is the write surface of one segment. *os.File satisfies it; the
// torn-write test battery substitutes fault-injecting wrappers.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapName   = "state.snap"
	segMagic   = "QWAL\x01"
	logVersion = 1
)

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 16, 64)
	return v, err == nil
}

// Restore is what Open recovered from disk: the newest snapshot (nil when
// none was ever taken) and every intact log record past its applied index,
// in log order. Torn reports that the last segment ended in an incomplete or
// corrupt record, which Open truncated away.
type Restore struct {
	Snapshot *SnapshotState
	Records  []Record
	Torn     bool
}

// Open opens (or creates) the log in opts.Dir, recovers its durable state and
// truncates any torn tail.
func Open(opts Options) (*WAL, *Restore, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{opts: opts}
	res := &Restore{}

	snap, snapSize, err := readSnapshot(filepath.Join(opts.Dir, snapName))
	if err != nil {
		return nil, nil, err
	}
	if snap != nil {
		res.Snapshot = snap
		w.floor.Store(snap.AppliedIndex)
		w.snapBytes.Store(snapSize)
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	w.nextIndex = w.floor.Load() + 1
	for i, sg := range segs {
		recs, goodSize, torn, err := replaySegment(sg.path)
		if err != nil {
			return nil, nil, err
		}
		if torn {
			if i != len(segs)-1 {
				// A torn record below an intact later segment means the
				// earlier file was damaged after it was sealed — that is
				// corruption, not a crash artifact, and replay cannot
				// silently skip records in the middle of the log.
				return nil, nil, fmt.Errorf("wal: corrupt record in sealed segment %s", sg.path)
			}
			if err := os.Truncate(sg.path, goodSize); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", sg.path, err)
			}
			res.Torn = true
		}
		for _, rec := range recs {
			if rec.Index >= w.nextIndex {
				if rec.Index != w.nextIndex {
					return nil, nil, fmt.Errorf("wal: index gap in %s: have %d, want %d", sg.path, rec.Index, w.nextIndex)
				}
				res.Records = append(res.Records, rec)
				w.nextIndex = rec.Index + 1
			}
		}
		w.logBytes.Add(goodSize)
	}

	// Reopen the last segment for appending; with none on disk, start a
	// fresh one at the next index.
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		w.seg = f
		w.segStart = last.first
		for _, sg := range segs[:len(segs)-1] {
			w.sealed = append(w.sealed, sg)
		}
	} else if err := w.openSegmentLocked(w.nextIndex); err != nil {
		return nil, nil, err
	}

	if opts.Obs != nil {
		opts.Obs.RegisterGauge("wal_log_bytes", w.logBytes.Load)
		opts.Obs.RegisterGauge("wal_snapshot_bytes", w.snapBytes.Load)
		opts.Obs.RegisterGauge("wal_fsync_total", w.fsyncs.Load)
		opts.Obs.RegisterGauge("wal_append_total", w.appends.Load)
	}
	return w, res, nil
}

// SetSnapshotSource installs the callback that captures the application
// state for snapshots. It must be set before the first Snapshot (automatic
// or explicit); the callback's AppliedIndex is overwritten by the log.
func (w *WAL) SetSnapshotSource(src func() (SnapshotState, error)) {
	w.mu.Lock()
	w.snapSource = src
	w.mu.Unlock()
}

// listSegments returns the directory's segment files sorted by first index.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// replaySegment reads every intact record of one segment file. goodSize is
// the byte offset just past the last intact record (the truncation point
// when torn is true).
func replaySegment(path string) (recs []Record, goodSize int64, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, 0, false, fmt.Errorf("wal: %s is not a log segment (bad magic)", path)
	}
	off := int64(len(segMagic))
	for int64(len(b)) > off {
		rec, n, err := decodeFrame(b[off:])
		if errors.Is(err, errUndecodable) {
			return nil, 0, false, fmt.Errorf("%s at offset %d: %w", path, off, err)
		}
		if err != nil {
			// First bad CRC (or short frame): everything from here on is the
			// torn tail of a crashed append. Stop — never apply a partial
			// record.
			return recs, off, true, nil
		}
		recs = append(recs, rec)
		off += int64(n)
	}
	return recs, off, false, nil
}

// openSegmentLocked creates a fresh active segment whose first record will
// be index first. Caller holds ioMu (or is initializing).
func (w *WAL) openSegmentLocked(first uint64) error {
	path := filepath.Join(w.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.seg = f
	w.segStart = first
	w.logBytes.Add(int64(len(segMagic)))
	return nil
}

// Append durably logs one record: it stages the encoded frame, joins the
// open group-commit batch, and blocks until that batch's write+fsync
// completes. The append that opens a batch leads it: it queues for ioMu and
// flushes on its own goroutine, so everything staged while the previous
// batch was being written joins this one. On return the record is on disk
// (or err says why not — a write failure is sticky and fails every
// subsequent append).
func (w *WAL) Append(kind Kind, msg any) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	var err error
	w.pend, err = appendFrame(w.pend, w.nextIndex, kind, msg)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	w.nextIndex++
	b, lead := w.pendBatch, w.pendBatch == nil
	if lead {
		b = &batch{done: make(chan struct{})}
		w.pendBatch = b
	}
	w.mu.Unlock()

	if lead {
		// Snapshot or Close may flush this batch first; then the flush
		// below finds the next batch (or nothing) and is harmless.
		w.ioMu.Lock()
		w.flushLocked()
		w.ioMu.Unlock()
	}
	<-b.done
	if b.err != nil {
		return b.err
	}
	w.appends.Add(1)
	w.maybeSnapshot()
	return nil
}

// flushLocked writes and fsyncs whatever is staged, releases its waiters, and
// returns the index of the last record it covered — read under the same mu
// hold that takes the buffer, so a later append never counts. Caller holds
// ioMu.
func (w *WAL) flushLocked() (uint64, error) {
	w.mu.Lock()
	buf, b := w.pend, w.pendBatch
	w.pend, w.pendBatch = nil, nil
	last := w.nextIndex - 1
	w.mu.Unlock()
	if b == nil {
		return last, nil
	}
	start := time.Now()
	var f walFile = w.seg
	if w.newFile != nil {
		f = w.newFile(w.seg)
	}
	_, err := f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	w.opts.Obs.ObserveSince(obs.SiteWALFsync, start)
	w.fsyncs.Add(1)
	if err != nil {
		err = fmt.Errorf("wal: flush: %w", err)
		w.mu.Lock()
		if w.failed == nil {
			w.failed = err
		}
		w.mu.Unlock()
	} else {
		w.logBytes.Add(int64(len(buf)))
	}
	b.err = err
	close(b.done)
	return last, err
}

// maybeSnapshot kicks off a background snapshot when the log has grown
// SnapshotEvery records past the last one. Singleflight: at most one
// snapshot runs at a time, and failures park in SnapshotErr.
func (w *WAL) maybeSnapshot() {
	every := w.opts.SnapshotEvery
	if every == 0 {
		return
	}
	last, floor := w.LastIndex(), w.floor.Load()
	if last < floor || last-floor < every {
		return
	}
	if !w.snapshotting.CompareAndSwap(false, true) {
		return
	}
	src, err := w.beginSnapshot()
	if err != nil {
		w.snapshotting.Store(false)
		if !errors.Is(err, ErrClosed) {
			w.snapErr.Store(err)
		}
		return
	}
	go func() {
		defer w.snaps.Done()
		defer w.snapshotting.Store(false)
		if err := w.snapshot(src); err != nil {
			w.snapErr.Store(err)
		}
	}()
}

// beginSnapshot registers a snapshot with Close (which waits for it) and
// returns the snapshot source. The caller must call w.snaps.Done when the
// snapshot ends.
func (w *WAL) beginSnapshot() (func() (SnapshotState, error), error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	if w.snapSource == nil {
		return nil, errors.New("wal: no snapshot source installed")
	}
	w.snaps.Add(1)
	return w.snapSource, nil
}

// SnapshotErr returns the error of the most recent failed background
// snapshot (nil when none failed).
func (w *WAL) SnapshotErr() error {
	if e, ok := w.snapErr.Load().(error); ok {
		return e
	}
	return nil
}

// Snapshot captures the application state via the snapshot source, writes it
// atomically (temp file + fsync + rename), and compacts every log segment
// fully covered by it. The log rotates to a fresh segment first, so the
// snapshot's applied index N is exactly "every record in a sealed segment":
// the retained suffix (N, lastIndex] stays replayable and servable to
// catching-up peers. The source may observe effects of records > N (it runs
// outside the log lock); replay is idempotent, so the overlap is harmless.
// After Close, Snapshot returns ErrClosed; Close waits for a running one.
func (w *WAL) Snapshot() error {
	src, err := w.beginSnapshot()
	if err != nil {
		return err
	}
	defer w.snaps.Done()
	return w.snapshot(src)
}

func (w *WAL) snapshot(src func() (SnapshotState, error)) error {
	// Rotate: flush staged appends, seal the active segment, open the next.
	w.ioMu.Lock()
	applied, err := w.flushLocked()
	if err != nil {
		w.ioMu.Unlock()
		return err
	}
	if err = w.seg.Sync(); err == nil {
		err = w.seg.Close()
	}
	if err != nil {
		w.ioMu.Unlock()
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	w.sealed = append(w.sealed, segment{path: filepath.Join(w.opts.Dir, segName(w.segStart)), first: w.segStart})
	if err := w.openSegmentLocked(applied + 1); err != nil {
		w.ioMu.Unlock()
		return err
	}
	w.ioMu.Unlock()

	state, err := src()
	if err != nil {
		return fmt.Errorf("wal: snapshot source: %w", err)
	}
	state.AppliedIndex = applied
	size, err := writeSnapshot(w.opts.Dir, snapName, state)
	if err != nil {
		return err
	}
	w.snapBytes.Store(size)

	// The snapshot is durable; every sealed segment's records are <= applied
	// and can go.
	w.ioMu.Lock()
	w.floor.Store(applied)
	drop := w.sealed
	w.sealed = nil
	w.ioMu.Unlock()
	for _, sg := range drop {
		if fi, err := os.Stat(sg.path); err == nil {
			w.logBytes.Add(-fi.Size())
		}
		os.Remove(sg.path)
	}
	return nil
}

// Tail returns up to max log records with Index > after, in order, for
// log-tail catch-up. compacted reports that some such records were already
// folded into a snapshot and deleted — the caller must fall back to a full
// state transfer. more reports that further records past the returned ones
// exist (call again with after = last returned index).
func (w *WAL) Tail(after uint64, max int) (recs []Record, more bool, compacted bool, err error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if after < w.floor.Load() {
		return nil, false, true, nil
	}
	// Flushes run under ioMu, so the files read below end on a frame
	// boundary — no partial write can be in flight here.
	files := append([]segment(nil), w.sealed...)
	files = append(files, segment{path: filepath.Join(w.opts.Dir, segName(w.segStart)), first: w.segStart})
	for _, sg := range files {
		all, _, torn, rerr := replaySegment(sg.path)
		if rerr != nil {
			return nil, false, false, rerr
		}
		if torn {
			return nil, false, false, fmt.Errorf("wal: corrupt record while serving tail of %s", sg.path)
		}
		for _, rec := range all {
			if rec.Index <= after {
				continue
			}
			if len(recs) == max {
				return recs, true, false, nil
			}
			recs = append(recs, rec)
		}
	}
	return recs, false, false, nil
}

// LastIndex returns the index of the most recently staged record (0 when
// the log is empty).
func (w *WAL) LastIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextIndex - 1
}

// Floor returns the snapshot applied index (records <= Floor may be
// compacted away and unavailable to Tail).
func (w *WAL) Floor() uint64 { return w.floor.Load() }

// Fsyncs returns how many group-commit flushes have run.
func (w *WAL) Fsyncs() int64 { return w.fsyncs.Load() }

// LogBytes returns the byte size of the live log segments.
func (w *WAL) LogBytes() int64 { return w.logBytes.Load() }

// SnapshotBytes returns the byte size of the newest snapshot file.
func (w *WAL) SnapshotBytes() int64 { return w.snapBytes.Load() }

// Close waits for a running snapshot, flushes staged appends and closes the
// active segment. Appends and snapshots after Close fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.snaps.Wait()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.flushLocked() // a failure is already reported to the batch's appends
	return w.seg.Close()
}
