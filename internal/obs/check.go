package obs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"qrdtm/internal/proto"
)

// This file is the trace-driven protocol checker: CheckTrace replays a
// merged span timeline (MergeSpans output) and verifies QR-DTM's invariants
// offline — the traces don't just paint timelines, they witness correctness.
//
// Clock discipline: span timestamps are wall-clock UnixNano from (possibly)
// multiple processes on one machine, so the checker only orders two spans
// when their intervals do not overlap (e1.End < e2.Start) and pads
// containment checks with a small slack. Within those rules every check is
// sound: a violation is a real protocol error or a corrupted trace, not a
// scheduling artifact.

// checkSlack pads parent/child interval containment against cross-process
// clock skew and timestamping overhead.
const checkSlack = int64(2e6) // 2ms in ns

// Violation is one failed invariant, anchored at the offending span with
// its full causal chain (span, parent, grandparent, ... root) so the
// failure names exactly which read/commit/serve path broke.
type Violation struct {
	Invariant string
	Span      proto.Span
	Detail    string
	Chain     []proto.Span
}

// String renders the violation with its span chain, innermost first.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant %s: %s", v.Invariant, v.Detail)
	for i, s := range v.Chain {
		sep := "\n  in "
		if i > 0 {
			sep = "\n  under "
		}
		fmt.Fprintf(&b, "%s%s [span %016x node %v txn %v", sep, s.Kind, s.ID, s.Node, s.Txn)
		if s.Obj != "" {
			fmt.Fprintf(&b, " obj %s", s.Obj)
		}
		if s.Version != 0 {
			fmt.Fprintf(&b, " v%d", uint64(s.Version))
		}
		fmt.Fprintf(&b, " ok=%v]", s.OK)
	}
	return b.String()
}

// CheckResult summarizes one CheckTrace run.
type CheckResult struct {
	Traces     int // complete traces checked
	Spans      int // spans belonging to complete traces
	Incomplete int // traces skipped: part of their causal chain was overwritten
	Violations []Violation
}

// Err returns nil when every invariant held, else one error naming every
// violation with its span chain.
func (r CheckResult) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("obs: trace check failed (%d violations over %d traces):\n%s",
		len(r.Violations), r.Traces, strings.Join(msgs, "\n"))
}

// traceSet is one complete trace: its spans indexed by ID plus child lists.
type traceSet struct {
	byID     map[uint64]*proto.Span
	children map[uint64][]*proto.Span
}

func (t *traceSet) chain(s proto.Span) []proto.Span {
	out := []proto.Span{s}
	for p, hops := s.Parent, 0; p != 0 && hops < 64; hops++ {
		ps, ok := t.byID[p]
		if !ok {
			break
		}
		out = append(out, *ps)
		p = ps.Parent
	}
	return out
}

// CheckTrace verifies protocol invariants over a merged span timeline:
//
//  1. structure — every span nests inside its parent's interval (with
//     slack), and CT spans carry depth parent+1.
//  2. read-consistency — a successful read observed a version at least as
//     new as every commit that fully completed before the read began: the
//     1-copy equivalence witness of quorum intersection.
//  3. monotone-versions — per (node, object), versions observed by
//     serve-reads and installed by serve-decides never regress across
//     non-overlapping spans.
//  4. abort-routing — an abort decision names exactly the routing computed
//     from its read's replica denials: the shallowest invalidated owner
//     depth (QR-CN) or the earliest invalidated checkpoint epoch (QR-CHK),
//     clamped to the requester's depth/epoch.
//  5. checkpoint-nesting — within one attempt, checkpoint epochs increment
//     by one and every rollback targets an epoch already taken, resetting
//     the sequence there.
//
// Traces with a dangling parent link (the ring overwrote part of the chain)
// are counted Incomplete and skipped rather than mis-checked.
func CheckTrace(all []proto.Span) CheckResult {
	var res CheckResult

	byTrace := make(map[uint64][]proto.Span)
	for _, s := range all {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}

	var complete []proto.Span
	sets := make(map[uint64]*traceSet)
	for tid, spans := range byTrace {
		ts := &traceSet{
			byID:     make(map[uint64]*proto.Span, len(spans)),
			children: make(map[uint64][]*proto.Span),
		}
		for i := range spans {
			ts.byID[spans[i].ID] = &spans[i]
		}
		whole := true
		for i := range spans {
			if p := spans[i].Parent; p != 0 {
				if _, ok := ts.byID[p]; !ok {
					whole = false
					break
				}
				ts.children[p] = append(ts.children[p], &spans[i])
			}
		}
		if !whole {
			res.Incomplete++
			continue
		}
		res.Traces++
		res.Spans += len(spans)
		complete = append(complete, spans...)
		sets[tid] = ts
	}

	for tid, ts := range sets {
		checkStructure(&res, ts, byTrace[tid])
		checkAbortRouting(&res, ts, byTrace[tid])
		checkCheckpointNesting(&res, ts)
		checkCrossShardAtomicity(&res, ts, byTrace[tid])
	}
	checkReadConsistency(&res, sets, complete)
	checkMonotoneVersions(&res, sets, complete)
	return res
}

func (r *CheckResult) add(ts *traceSet, inv string, s proto.Span, detail string) {
	r.Violations = append(r.Violations, Violation{
		Invariant: inv, Span: s, Detail: detail, Chain: ts.chain(s),
	})
}

// checkStructure verifies parent/child interval containment and CT depth.
// Abort markers and serve-release spans are exempt from containment: both
// are recorded causally under a span that has already closed (the denied
// read, the finished attempt).
func checkStructure(res *CheckResult, ts *traceSet, spans []proto.Span) {
	for _, s := range spans {
		if s.Parent == 0 || s.Kind == proto.SpanAbort || s.Kind == proto.SpanServeRelease {
			continue
		}
		p := ts.byID[s.Parent]
		if s.Start < p.Start-checkSlack || s.End > p.End+checkSlack {
			res.add(ts, "structure", s, fmt.Sprintf(
				"span [%d,%d] escapes parent %s interval [%d,%d]",
				s.Start, s.End, p.Kind, p.Start, p.End))
		}
		if s.Kind == proto.SpanCT {
			want := 1
			if p.Kind == proto.SpanCT {
				want = p.Depth + 1
			}
			if s.Depth != want {
				res.add(ts, "structure", s, fmt.Sprintf(
					"CT span at depth %d under %s at depth %d (want %d)",
					s.Depth, p.Kind, p.Depth, want))
			}
		}
	}
}

// checkAbortRouting replays routeAbort from the replica denials recorded
// under the denied read span: the shallowest named owner depth (or earliest
// checkpoint epoch), clamped to the requester's own depth/epoch, must match
// what the client actually decided.
func checkAbortRouting(res *CheckResult, ts *traceSet, spans []proto.Span) {
	for _, s := range spans {
		if s.Kind != proto.SpanAbort || s.Parent == 0 {
			continue
		}
		read := ts.byID[s.Parent]
		if read.Kind != proto.SpanRead {
			continue // commit-time and zombie aborts route to the root unconditionally
		}
		denialSeen := false
		minDepth, minChk := proto.NoDepth, proto.NoChk
		for _, c := range ts.children[read.ID] {
			if c.Kind != proto.SpanServeRead || c.OK {
				continue
			}
			denialSeen = true
			if c.Depth != proto.NoDepth && (minDepth == proto.NoDepth || c.Depth < minDepth) {
				minDepth = c.Depth
			}
			if c.Chk != proto.NoChk && (minChk == proto.NoChk || c.Chk < minChk) {
				minChk = c.Chk
			}
		}
		if !denialSeen {
			continue // the denying replicas' spans weren't collected; nothing to replay
		}
		if s.Chk != proto.NoChk {
			// QR-CHK routing: earliest invalidated epoch, clamped to the
			// requester's current epoch (read.Chk).
			want := minChk
			if want == proto.NoChk {
				want = 0
			}
			if read.Chk != proto.NoChk && want > read.Chk {
				want = read.Chk
			}
			if s.Chk != want {
				res.add(ts, "abort-routing", s, fmt.Sprintf(
					"abort rolls back to epoch %d, replica denials name epoch %d",
					s.Chk, want))
			}
			continue
		}
		// QR-CN / flat routing: shallowest invalidated owner, clamped to the
		// requester's depth.
		want := minDepth
		if want == proto.NoDepth {
			want = 0
		}
		if want > read.Depth {
			want = read.Depth
		}
		if s.Depth != want {
			res.add(ts, "abort-routing", s, fmt.Sprintf(
				"abort targets depth %d, replica denials name depth %d",
				s.Depth, want))
		}
	}
}

// checkCheckpointNesting walks each attempt's checkpoint/rollback markers
// in order: epochs must increment by one, rollbacks must target an epoch
// already taken and reset the sequence there.
func checkCheckpointNesting(res *CheckResult, ts *traceSet) {
	for parent, kids := range ts.children {
		if p := ts.byID[parent]; p.Kind != proto.SpanAttempt {
			continue
		}
		var marks []*proto.Span
		for _, c := range kids {
			if c.Kind == proto.SpanCheckpoint || c.Kind == proto.SpanRollback {
				marks = append(marks, c)
			}
		}
		sort.Slice(marks, func(i, j int) bool { return marks[i].Start < marks[j].Start })
		cur := 0
		for _, m := range marks {
			switch m.Kind {
			case proto.SpanCheckpoint:
				if m.Chk != cur+1 {
					res.add(ts, "checkpoint-nesting", *m, fmt.Sprintf(
						"checkpoint epoch %d after epoch %d (want %d)", m.Chk, cur, cur+1))
				}
				cur = m.Chk
			case proto.SpanRollback:
				if m.Chk < 0 || m.Chk > cur {
					res.add(ts, "checkpoint-nesting", *m, fmt.Sprintf(
						"rollback to epoch %d, but only epochs 0..%d exist", m.Chk, cur))
				}
				cur = m.Chk
			}
		}
	}
}

// checkCrossShardAtomicity verifies 2PC atomicity across shards: every
// decide delivered under one commit span carries the deciding outcome in its
// OK flag and the serving member's shard in its shard tag, so a commit whose
// decides disagree — commit on one shard, abort on another — is a torn
// cross-shard transaction. The check covers single-shard commits too (a
// mixed decision within one quorum group is equally torn); untagged decide
// spans (unsharded runs) are skipped since there is nothing to tear across.
func checkCrossShardAtomicity(res *CheckResult, ts *traceSet, spans []proto.Span) {
	for _, s := range spans {
		if s.Kind != proto.SpanCommit {
			continue
		}
		// outcome per shard: +1 commit seen, -1 abort seen, both → torn.
		type vote struct{ commit, abort bool }
		byShard := make(map[proto.ShardID]*vote)
		for _, c := range ts.children[s.ID] {
			if c.Kind != proto.SpanServeDecide {
				continue
			}
			sh := c.ShardID()
			if sh == proto.NoShard {
				continue
			}
			v := byShard[sh]
			if v == nil {
				v = &vote{}
				byShard[sh] = v
			}
			if c.OK {
				v.commit = true
			} else {
				v.abort = true
			}
		}
		if len(byShard) == 0 {
			continue
		}
		var commits, aborts []proto.ShardID
		torn := false
		for sh, v := range byShard {
			if v.commit {
				commits = append(commits, sh)
			}
			if v.abort {
				aborts = append(aborts, sh)
			}
			if v.commit && v.abort {
				torn = true
			}
		}
		if torn || (len(commits) > 0 && len(aborts) > 0) {
			sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
			sort.Slice(aborts, func(i, j int) bool { return aborts[i] < aborts[j] })
			res.add(ts, "cross-shard-atomicity", s, fmt.Sprintf(
				"commit decided differently across shards: commit on %v, abort on %v",
				commits, aborts))
		}
	}
}

// verEvent is one versioned observation for the ordering checks.
type verEvent struct {
	start, end int64
	version    proto.Version
	span       proto.Span
	trace      uint64
}

// prefixMax prepares events for "max version among events finished before t"
// queries: sorts by end time and builds a running maximum.
type prefixMax struct {
	events []verEvent
	maxes  []proto.Version
}

func newPrefixMax(events []verEvent) *prefixMax {
	sort.Slice(events, func(i, j int) bool { return events[i].end < events[j].end })
	maxes := make([]proto.Version, len(events))
	var m proto.Version
	for i, e := range events {
		if e.version > m {
			m = e.version
		}
		maxes[i] = m
	}
	return &prefixMax{events: events, maxes: maxes}
}

// before returns the highest version among events with end < t, and the
// event achieving it.
func (p *prefixMax) before(t int64) (proto.Version, *verEvent, bool) {
	// First index with end >= t.
	i := sort.Search(len(p.events), func(i int) bool { return p.events[i].end >= t })
	if i == 0 {
		return 0, nil, false
	}
	want := p.maxes[i-1]
	for j := i - 1; j >= 0; j-- {
		if p.events[j].version == want {
			return want, &p.events[j], true
		}
	}
	return want, nil, true
}

// checkReadConsistency verifies the 1-copy equivalence witness globally:
// every successful read returned a version ≥ the newest version whose
// commit protocol fully completed (decide acknowledged by the whole write
// quorum) before the read began.
func checkReadConsistency(res *CheckResult, sets map[uint64]*traceSet, complete []proto.Span) {
	commits := make(map[proto.ObjectID][]verEvent)
	for _, s := range complete {
		if s.Kind != proto.SpanCommit || !s.OK {
			continue
		}
		for _, it := range s.Items {
			commits[it.Obj] = append(commits[it.Obj], verEvent{
				start: s.Start, end: s.End, version: it.Version, span: s, trace: s.Trace,
			})
		}
	}
	idx := make(map[proto.ObjectID]*prefixMax, len(commits))
	for obj, evs := range commits {
		idx[obj] = newPrefixMax(evs)
	}
	check := func(s proto.Span, obj proto.ObjectID, version proto.Version) {
		pm, ok := idx[obj]
		if !ok {
			return
		}
		if vmax, ev, found := pm.before(s.Start); found && version < vmax {
			ts := sets[s.Trace]
			detail := fmt.Sprintf(
				"read of %s returned v%d but v%d was committed before the read began (commit span %016x, txn %v)",
				obj, uint64(version), uint64(vmax), ev.span.ID, ev.span.Txn)
			res.add(ts, "read-consistency", s, detail)
		}
	}
	for _, s := range complete {
		if s.Kind != proto.SpanRead || !s.OK {
			continue
		}
		if s.Obj != "" {
			check(s, s.Obj, s.Version)
		}
		// Batched reads record every fetched (object, version) as span items.
		for _, it := range s.Items {
			check(s, it.Obj, it.Version)
		}
	}
}

// checkMonotoneVersions verifies per-(node, object) version monotonicity:
// across non-overlapping spans on one replica, versions observed by
// serve-reads and installed by serve-decides never go backwards.
func checkMonotoneVersions(res *CheckResult, sets map[uint64]*traceSet, complete []proto.Span) {
	type key struct {
		node proto.NodeID
		obj  proto.ObjectID
	}
	events := make(map[key][]verEvent)
	for _, s := range complete {
		switch s.Kind {
		case proto.SpanServeRead:
			if s.OK && s.Obj != "" {
				k := key{s.Node, s.Obj}
				events[k] = append(events[k], verEvent{
					start: s.Start, end: s.End, version: s.Version, span: s, trace: s.Trace,
				})
			}
			if s.OK {
				// Batched serve-reads record each served copy as a span item.
				for _, it := range s.Items {
					if it.Obj == s.Obj {
						continue // already recorded via the Obj field
					}
					k := key{s.Node, it.Obj}
					events[k] = append(events[k], verEvent{
						start: s.Start, end: s.End, version: it.Version, span: s, trace: s.Trace,
					})
				}
			}
		case proto.SpanServeDecide:
			if s.OK {
				for _, it := range s.Items {
					k := key{s.Node, it.Obj}
					events[k] = append(events[k], verEvent{
						start: s.Start, end: s.End, version: it.Version, span: s, trace: s.Trace,
					})
				}
			}
		}
	}
	for k, evs := range events {
		pm := newPrefixMax(append([]verEvent(nil), evs...))
		for _, e := range evs {
			if vmax, prev, found := pm.before(e.start); found && e.version < vmax {
				ts := sets[e.trace]
				res.add(ts, "monotone-versions", e.span, fmt.Sprintf(
					"node %v saw %s regress to v%d after v%d (span %016x)",
					k.node, k.obj, uint64(e.version), uint64(vmax), prev.span.ID))
			}
		}
	}
}

// ErrNoSpans is returned by helpers when a collection produced no spans at
// all — usually a sign that tracing was never enabled.
var ErrNoSpans = errors.New("obs: no spans collected")
