package wal

import (
	"errors"
	"fmt"
	"io"
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
	seg      walFile
	segStart uint64
	// segOff is the active segment's written end: the next frame goes
	// there. segEnd is the end of its reserved space, durable as of the
	// last Sync; a flush that ends at or below it changes no file size.
	segOff, segEnd int64
	sealed         []segment
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

	// newFile wraps the active segment for every write, sync, reservation
	// and truncation; tests inject faults through it. Read under ioMu. Nil
	// means identity.
	newFile func(walFile) walFile
}

// walFile is the write surface of the active segment. osFile is the real one;
// the torn-write test battery substitutes fault-injecting wrappers.
type walFile interface {
	WriteAt(p []byte, off int64) (int, error)
	// Sync flushes data and metadata (fsync): needed once the file's size
	// or allocation changed.
	Sync() error
	// Datasync flushes data (fdatasync): enough for a write that lands
	// inside space already reserved and synced.
	Datasync() error
	// Allocate reserves [off, off+n), growing the file to cover it.
	Allocate(off, n int64) error
	Truncate(size int64) error
	Close() error
}

// osFile is a segment file on disk. Allocate and Datasync are per platform.
type osFile struct{ *os.File }

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	snapName  = "state.snap"
	segMagic  = "QWAL\x02"

	// segReserve is the space the active segment reserves past its written
	// end, and what a flush that would cross the reserved end adds to it.
	segReserve = 4 << 20
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
// corrupt record, which Open truncated away; unwritten reservation past the
// last record is no tear.
type Restore struct {
	Snapshot *SnapshotState
	Records  []Record
	Torn     bool
}

// Open opens (or creates) the log in opts.Dir and recovers its durable state.
// It cuts the last segment at its last intact record, dropping a torn tail
// and the old reservation, then reserves afresh.
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
	var goodSize int64 // of the last segment
	for i, sg := range segs {
		sealed := i != len(segs)-1
		recs, good, torn, err := replaySegment(sg.path, -1, sealed)
		if err != nil {
			return nil, nil, err
		}
		if torn {
			if sealed {
				// A torn record below an intact later segment means the
				// earlier file was damaged after it was sealed — that is
				// corruption, not a crash artifact, and replay cannot
				// silently skip records in the middle of the log.
				return nil, nil, fmt.Errorf("wal: corrupt record in sealed segment %s", sg.path)
			}
			res.Torn = true
		}
		goodSize = good
		for _, rec := range recs {
			if rec.Index >= w.nextIndex {
				if rec.Index != w.nextIndex {
					return nil, nil, fmt.Errorf("wal: index gap in %s: have %d, want %d", sg.path, rec.Index, w.nextIndex)
				}
				res.Records = append(res.Records, rec)
				w.nextIndex = rec.Index + 1
			}
		}
		w.logBytes.Add(good)
	}

	// Reopen the last segment for appending, cut at its last intact record:
	// a torn tail, or stale bytes in the old reservation, must never be
	// replayed behind a later append. With none on disk, start a fresh one
	// at the next index.
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		seg := osFile{f}
		if err := seg.Truncate(goodSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: cutting %s at its last record: %w", last.path, err)
		}
		if err := w.startSegmentLocked(seg, last.first, goodSize); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.sealed = append(w.sealed, segs[:len(segs)-1]...)
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

// replaySegment reads every intact record of one segment file, or of its
// first limit bytes when limit >= 0. goodSize is the byte offset just past
// the last intact record (the cut point when torn is true).
//
// A real frame's bodyLen is at least bodyPrefixSize, so an all-zero frame
// header can only be unwritten reservation: the frames end there, cleanly if
// every byte after it is zero too, torn otherwise. With exact set the bytes
// must end at the last frame (a sealed segment, or the written prefix Tail
// reads), so any byte past the frames is a tear.
func replaySegment(path string, limit int64, exact bool) (recs []Record, goodSize int64, torn bool, err error) {
	b, err := readSegment(path, limit)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return nil, 0, false, fmt.Errorf("wal: %s is not a log segment (bad magic)", path)
	}
	off := int64(len(segMagic))
	for int64(len(b)) > off {
		if zeroHeader(b[off:]) {
			return recs, off, exact || !allZero(b[off:]), nil
		}
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

// readSegment reads a segment file, or its first limit bytes when limit >= 0.
func readSegment(path string, limit int64) ([]byte, error) {
	if limit < 0 {
		return os.ReadFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, limit)
	n, err := io.ReadFull(f, b)
	if err == io.ErrUnexpectedEOF {
		err = nil // shorter than limit: decoding reports what is missing
	}
	return b[:n], err
}

// zeroHeader reports whether b starts with an all-zero frame header.
func zeroHeader(b []byte) bool {
	return len(b) >= frameHeaderSize && allZero(b[:frameHeaderSize])
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// file returns the active segment as flushes see it: through the fault hook
// when one is installed. Caller holds ioMu.
func (w *WAL) file() walFile {
	if w.newFile != nil {
		return w.newFile(w.seg)
	}
	return w.seg
}

// openSegmentLocked creates a fresh active segment whose first record will
// be index first: create, write the magic, reserve, fsync, then fsync the
// directory so the new entry is as durable as the appends it will ack.
// Caller holds ioMu (or is initializing).
func (w *WAL) openSegmentLocked(first uint64) error {
	path := filepath.Join(w.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	seg := osFile{f}
	if _, err := seg.WriteAt([]byte(segMagic), 0); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.startSegmentLocked(seg, first, int64(len(segMagic))); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", w.opts.Dir, err)
	}
	w.logBytes.Add(int64(len(segMagic)))
	return nil
}

// startSegmentLocked makes seg, whose frames end at off, the active segment:
// it reserves segReserve bytes past off and fsyncs, so the segment's content
// up to off, its size and the reservation are durable before a flush lands
// in the reservation with only an fdatasync. When the reservation fails
// (fallocate unsupported) it stays empty, and every flush crosses its end
// and fsyncs. Caller holds ioMu (or is initializing).
func (w *WAL) startSegmentLocked(seg walFile, first uint64, off int64) error {
	w.seg, w.segStart, w.segOff, w.segEnd = seg, first, off, off
	f := w.file()
	if f.Allocate(off, segReserve) == nil {
		w.segEnd = off + segReserve
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// closeSegmentLocked cuts the active segment to its written length, fsyncs
// and closes it, so a sealed or cleanly closed segment carries no
// reservation. Caller holds ioMu.
func (w *WAL) closeSegmentLocked() error {
	f := w.file()
	err := f.Truncate(w.segOff)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
	err := w.writeLocked(buf)
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

// writeLocked writes buf at the active segment's written end and makes it
// durable. Inside the reservation that is an fdatasync: the file's size and
// block allocation are already durable, so the write changes neither and
// the filesystem has no size change to journal. A write that would cross
// the reserved end first extends the reservation and pays an fsync. Caller
// holds ioMu.
func (w *WAL) writeLocked(buf []byte) error {
	f := w.file()
	end := w.segOff + int64(len(buf))
	grow := end > w.segEnd
	if grow && f.Allocate(w.segOff, int64(len(buf))+segReserve) == nil {
		w.segEnd = end + segReserve
	}
	n, err := f.WriteAt(buf, w.segOff)
	w.segOff += int64(n) // a short write's bytes are on disk too; Close keeps them
	if err != nil {
		return err
	}
	if grow {
		return f.Sync()
	}
	return f.Datasync()
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
	if err := w.closeSegmentLocked(); err != nil {
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
	// boundary — no partial write can be in flight here. The active segment
	// is read only up to its written end, never into the reservation.
	files := append([]segment(nil), w.sealed...)
	files = append(files, segment{path: filepath.Join(w.opts.Dir, segName(w.segStart)), first: w.segStart})
	for i, sg := range files {
		limit := int64(-1)
		if i == len(files)-1 {
			limit = w.segOff
		}
		all, _, torn, rerr := replaySegment(sg.path, limit, true)
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

// Close waits for a running snapshot, flushes staged appends, and cuts the
// active segment to its written length, fsyncs and closes it. Appends and
// snapshots after Close fail with ErrClosed.
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
	return w.closeSegmentLocked()
}
