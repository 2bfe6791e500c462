package proto

// This file defines the log-tail catch-up protocol for durable replicas
// (internal/wal). A replica restarting from its data directory asks each
// peer for the log records it missed while down, identified by a per-peer
// cursor (the highest record index of that peer's log it has applied). The
// messages are cold-path; like every message they cross the TCP transport in
// the binary codec of codec.go.

// Log record kinds served over the wire. Only externally meaningful
// mutations are shipped: decisions and installs. A peer's prepare votes,
// shard-map updates and its own cursors are local bookkeeping.
const (
	// LogKindDecide is a commit/abort decision: Txn, Commit and Copies (the
	// decided writes) are set.
	LogKindDecide uint8 = 1
	// LogKindInstall is an unconditional-newer install (bootstrap Load or
	// recovery InstallReq): only Copies is set, applied with InstallNewer
	// semantics on the receiver.
	LogKindInstall uint8 = 2
)

// LogRecord is one entry of a peer's write-ahead log as served for
// catch-up.
type LogRecord struct {
	Index  uint64
	Kind   uint8
	Txn    TxnID
	Commit bool
	Copies []ObjectCopy
}

// LogTailReq asks a durable replica for its log records with index > After.
type LogTailReq struct {
	After uint64
	Max   int // cap on records per reply (0 = server default)
}

// LogTailRep answers LogTailReq. OK is false when the replica keeps no log
// (not running durably). Compacted reports that records past After were
// already folded into a snapshot and deleted — the requester must fall back
// to a full state transfer. Next is the highest log index this reply covers
// (served or skipped as local-only bookkeeping): the requester advances its
// cursor to Next and, when More is set, loops with After = Next.
type LogTailRep struct {
	OK        bool
	Compacted bool
	Records   []LogRecord
	Next      uint64
	More      bool
}
