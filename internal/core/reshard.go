package core

import (
	"context"
	"fmt"
	"time"

	"qrdtm/internal/cluster"
	"qrdtm/internal/proto"
)

// This file implements online reconfiguration of the shard map: adding (or
// rebalancing onto) a shard while transactions keep flowing. The protocol is
// two epoch bumps around a drain:
//
//	E+1  the moving slots are marked Migrating. Once the source and target
//	     members acknowledge the map, neither end serves new reads or
//	     prepares on those slots (the migration fence); in-flight 2PCs that
//	     prepared earlier still get their decisions (decides are always
//	     accepted), so nothing wedges and nothing is lost.
//	     While fenced, the drain loop copies the slots' objects from every
//	     source member to every target member with install-if-newer
//	     semantics, repeating until a full pass moves nothing and no copy is
//	     protected by an in-flight prepare — at that point the target holds
//	     every version the source will ever produce.
//	E+2  ownership flips to the target shard and the fence lifts. Clients
//	     and non-member replicas learn the new epochs lazily: any request
//	     routed by a stale map is answered WrongShard, and the client
//	     refreshes and re-routes.
//
// Correctness note: the drain's exit condition must observe "nothing newly
// installed" on the same pass that observed "nothing protected". A commit
// that prepared before the fence clears its protections only when its decide
// installs the new version, and both happen under the store lock — so a pass
// that sees no protections is guaranteed to have dumped every such commit's
// writes, and one more quiet pass proves the copy converged.

// reshardAttempts bounds the drain loop; each pass is one dump+install round
// over the moving slots, so the bound only trips if prepares never stop
// landing faster than they decide.
const reshardAttempts = 500

// FetchShardMap asks nodes, in order, for their current shard map and
// returns the first answer (clients bootstrap and refresh placement with
// it). An unsharded cluster answers the zero map, which is a valid result.
func FetchShardMap(ctx context.Context, trans cluster.Transport, from proto.NodeID, nodes []proto.NodeID) (proto.ShardMap, error) {
	var lastErr error
	for _, n := range nodes {
		resp, err := trans.Call(ctx, from, n, proto.ShardMapReq{})
		if err != nil {
			lastErr = err
			continue
		}
		rep, ok := resp.(proto.ShardMapRep)
		if !ok {
			return proto.ShardMap{}, fmt.Errorf("core: unexpected shard map reply %T from %v", resp, n)
		}
		return rep.Map, nil
	}
	return proto.ShardMap{}, fmt.Errorf("core: no node answered a shard map request: %w", lastErr)
}

// pushMap publishes m to every node in all, requiring an acknowledgement
// from each node in required (the fence is only up once the members at both
// ends of the move hold the new epoch; everyone else may learn it lazily).
func pushMap(ctx context.Context, trans cluster.Transport, from proto.NodeID, all, required []proto.NodeID, m proto.ShardMap) error {
	need := make(map[proto.NodeID]bool, len(required))
	for _, n := range required {
		need[n] = true
	}
	replies := cluster.Multicast(ctx, trans, from, all, proto.MapUpdateReq{Map: m})
	for _, rep := range replies {
		if rep.Err != nil {
			if need[rep.Node] {
				return fmt.Errorf("core: map epoch %d not acknowledged by required member %v: %w", m.Epoch, rep.Node, rep.Err)
			}
			continue
		}
		ack, ok := rep.Resp.(proto.MapUpdateRep)
		if !ok {
			return fmt.Errorf("core: unexpected map update reply %T from %v", rep.Resp, rep.Node)
		}
		if need[rep.Node] && ack.Epoch < m.Epoch {
			return fmt.Errorf("core: member %v holds epoch %d, refused %d", rep.Node, ack.Epoch, m.Epoch)
		}
	}
	return nil
}

// Reshard moves the given slots of cur to the shard described by spec —
// which may be a brand-new shard (spec.ID == len(cur.Shards)) or an existing
// one being rebalanced onto — while transactions keep flowing, and returns
// the final map. all is every node that should (eventually) hold the new
// map; it must include the source and target members. The caller installs
// the returned map where its runtimes' TreeQuorums.Map reads it and
// refreshes them.
func Reshard(ctx context.Context, trans cluster.Transport, from proto.NodeID, all []proto.NodeID, cur proto.ShardMap, spec proto.ShardSpec, slots []int) (proto.ShardMap, error) {
	if !cur.Sharded() {
		return cur, fmt.Errorf("core: cannot reshard an unsharded map")
	}
	if len(spec.Members) == 0 {
		return cur, fmt.Errorf("core: shard %d has no members", spec.ID)
	}

	// Epoch E+1: register the target shard and fence the moving slots.
	next := cur.Clone()
	next.Epoch++
	switch {
	case int(spec.ID) == len(next.Shards):
		next.Shards = append(next.Shards, proto.ShardSpec{ID: spec.ID, Members: append([]proto.NodeID(nil), spec.Members...)})
	case int(spec.ID) < len(next.Shards):
		next.Shards[spec.ID] = proto.ShardSpec{ID: spec.ID, Members: append([]proto.NodeID(nil), spec.Members...)}
	default:
		return cur, fmt.Errorf("core: shard id %d skips ids (have %d shards)", spec.ID, len(next.Shards))
	}
	// Group the moving slots by source shard and mark them migrating.
	bySource := make(map[proto.ShardID][]int)
	for _, sl := range slots {
		if sl < 0 || sl >= proto.NumSlots {
			return cur, fmt.Errorf("core: slot %d out of range", sl)
		}
		owner := next.Slots[sl].Owner
		if owner == spec.ID {
			continue // already home
		}
		next.Slots[sl].MovingTo = spec.ID
		bySource[owner] = append(bySource[owner], sl)
	}
	if len(bySource) == 0 {
		// Nothing moves; still publish the (possibly new) shard membership.
		if err := pushMap(ctx, trans, from, all, spec.Members, next); err != nil {
			return cur, err
		}
		return next, nil
	}
	required := append([]proto.NodeID(nil), spec.Members...)
	for src := range bySource {
		s, ok := next.Shard(src)
		if !ok {
			return cur, fmt.Errorf("core: moving slot owned by unknown shard %d", src)
		}
		required = append(required, s.Members...)
	}
	if err := pushMap(ctx, trans, from, all, required, next); err != nil {
		return cur, err
	}

	// Drain: copy until a full pass is quiet (nothing installed anywhere and
	// nothing protected at any source member).
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return cur, err
		}
		if attempt >= reshardAttempts {
			return cur, fmt.Errorf("core: migration of %d slots did not converge after %d passes", len(slots), reshardAttempts)
		}
		installed, protected := 0, false
		for src, srcSlots := range bySource {
			s, _ := next.Shard(src)
			// Dump from every source member: any one of them may hold the
			// highest committed version of an object (write quorums cover a
			// subset of members), so the merged best-of view is taken.
			best := make(map[proto.ObjectID]proto.ObjectCopy)
			for _, rep := range cluster.Multicast(ctx, trans, from, s.Members, proto.SlotDumpReq{Slots: srcSlots}) {
				if rep.Err != nil {
					return cur, fmt.Errorf("core: slot dump from %v failed: %w", rep.Node, rep.Err)
				}
				dump, ok := rep.Resp.(proto.SlotDumpRep)
				if !ok {
					return cur, fmt.Errorf("core: unexpected slot dump reply %T from %v", rep.Resp, rep.Node)
				}
				protected = protected || dump.Protected
				for _, c := range dump.Copies {
					if b, seen := best[c.ID]; !seen || c.Version > b.Version {
						best[c.ID] = c
					}
				}
			}
			if len(best) > 0 {
				copies := make([]proto.ObjectCopy, 0, len(best))
				for _, c := range best {
					copies = append(copies, c)
				}
				for _, rep := range cluster.Multicast(ctx, trans, from, spec.Members, proto.InstallReq{Copies: copies}) {
					if rep.Err != nil {
						return cur, fmt.Errorf("core: install at %v failed: %w", rep.Node, rep.Err)
					}
					ins, ok := rep.Resp.(proto.InstallRep)
					if !ok {
						return cur, fmt.Errorf("core: unexpected install reply %T from %v", rep.Resp, rep.Node)
					}
					installed += ins.Installed
				}
			}
		}
		if installed == 0 && !protected {
			break
		}
		// Pace the passes a little once the bulk copy is done, so a racing
		// commit's prepare-to-decide window can close.
		if installed == 0 {
			if err := sleepCtx(ctx, time.Millisecond); err != nil {
				return cur, err
			}
		}
	}

	// Epoch E+2: flip ownership and lift the fence.
	final := next.Clone()
	final.Epoch++
	for _, sl := range slots {
		if final.Slots[sl].MovingTo == spec.ID {
			final.Slots[sl] = proto.SlotEntry{Owner: spec.ID, MovingTo: proto.NoShard}
		}
	}
	if err := pushMap(ctx, trans, from, all, required, final); err != nil {
		return cur, err
	}
	return final, nil
}
