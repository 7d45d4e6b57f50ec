package proto

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/netsim"
	"hetgrid/internal/resource"
	"hetgrid/internal/sim"
)

// Batched admission (Config.BatchedAdmission, DESIGN.md §14).
//
// The strict sharded mode runs every join, leave and failure on the
// global control plane, quiescing all shards per event — correct, and
// byte-identical to the serial Sim, but it serializes exactly the
// workload the paper cares about: churn storms. Batched admission keeps
// churn events on the serial batch plane but splits each one into a
// cheap serial *prep* and a deferred *completion*:
//
//   - Prep (serial, at the batch event): the ground-truth mutation —
//     Ov.Join/Ov.Leave, shard assignment, host creation or kill, the
//     RNG draw for the heartbeat phase. Everything whose order defines
//     the run.
//   - Completion (deferred): the protocol-state fan-out — view seeding,
//     table handoffs, join introductions. Completions are queued per
//     owning shard and executed by the worker pool at the end of the
//     drain, shards in parallel, each shard's queue in its own batch
//     order.
//
// Deferral is sound only while completions on different shards cannot
// touch the same state and a later prep cannot observe (or destroy)
// state a queued completion still needs. Three rules enforce that:
//
//   - Conflict rule: a join whose touch set — the newcomer, the
//     splitting owner, and every discovered neighbor — spans more than
//     one shard is a cross-shard admission: the queue is flushed and the
//     completion runs inline, serially, in its batch slot. Same for the
//     takeover side: executeTakeover flushes the queue before mutating.
//   - Reference rule: a leave or fail of a node referenced by any queued
//     completion flushes the queue first (pendRefs tracks the union of
//     queued touch sets). Otherwise killing the host could cancel a
//     heartbeat the queued completion has yet to wire up, or a queued
//     view-seed could resurrect a dead neighbor.
//   - Read rule: every oracle or telemetry reader of protocol state
//     (BrokenLinks, MeanViewSize, Host, per-shard facets) flushes before
//     reading, as do Run/RunUntil (covering direct admissions made
//     between drains).
//
// Determinism: the queue execution order within a shard is its batch
// order, and across shards completions are independent by the conflict
// rule, so the observable state after a flush equals running every
// completion serially in batch order. Preps, flush points and the batch
// order itself are functions of (seed, config, S) only — the sharded
// engine drains the batch plane identically for every worker count — so
// reports are byte-identical across W and, for the membership plane
// (which never reads window positions), across S as well. Protocol
// side-effects are quantized to window barriers, so batched runs are
// NOT byte-identical to strict or serial runs; the differential
// contract against the serial Sim is exact membership-history and
// RNG-stream equality (TestBatchedSeedStreamContract).

// noopMsg is the pooled zero-state Deliverable behind the batched join
// path's accounting-only messages (handoff ack, discovery query/reply).
// The serial path sends these as empty closures; at a barrier the
// closure variant would route through the batch plane and force
// ordering obligations for messages that, by construction, do nothing —
// the envelope variant just counts and returns.
type noopMsg struct{}

func (noopMsg) Deliver(sim.Time) {}

// joinNodeBatched admits a node on the batch plane: ground truth and
// RNG draws at prep, protocol fan-out queued to the owning shard (or
// run inline when the touch set crosses shards).
func (ss *ShardedSim) joinNodeBatched(p geom.Point, caps *resource.NodeCaps) (*can.Node, error) {
	owner := ss.Ov.Owner(p)
	node, err := ss.Ov.Join(p, caps)
	if err != nil {
		return nil, err
	}
	sh := ss.shardOfPoint(p)
	ss.assignShard(node.ID, sh)
	s := ss.shards[sh]
	now := ss.churnNow()

	// Host at prep: membership readers (AliveHosts, HostIDs, the
	// transport's liveness check) see the newcomer immediately, exactly
	// as in serial — only the view fan-out is deferred. The heartbeat
	// phase is drawn here too, keeping the shared phase stream in strict
	// join order (the seed-stream contract, DESIGN.md §14).
	h := newHost(s, node.ID, node.Zone)
	s.addHost(h)
	delay := sim.Duration(s.phase.Float64() * float64(s.Cfg.HeartbeatPeriod))
	h.scheduleFirstTickAt(now.Add(delay))
	if owner == nil {
		return node, nil
	}

	// Capture the completion's inputs at prep. Zones are immutable by
	// convention (replaced, never mutated in place), so holding the
	// owner's post-split zone value stays correct even if the owner
	// splits again before the flush — and the discovered-neighbor zones
	// are cloned here exactly where the serial path clones them.
	ownerID := owner.ID
	ownerZone := owner.Zone
	single := ss.shardID(ownerID) == sh
	var nbrs []Record
	for _, nbID := range ss.Ov.BoundedNeighborIDs(node.ID, s.Cfg.MaxPerFace) {
		nb := ss.Ov.Node(nbID)
		if nb == nil {
			continue
		}
		nbrs = append(nbrs, Record{ID: nbID, Zone: nb.Zone.Clone()})
		if ss.shardID(nbID) != sh {
			single = false
		}
	}
	completion := func() { s.completeJoinBatched(now, h, ownerID, ownerZone, nbrs) }

	if !single || !ss.SE.InBatchDrain() {
		// Cross-shard admission, or a control-plane caller (a scenario
		// event, a direct API join): serialize in this slot. Deferral is
		// only sound from a batch drain, whose own flush hook runs the
		// queue at the right barrier — a control-plane caller has no
		// later drain promised before the windows move past the admission
		// instant, so its completion's sends would land in the past.
		// RowOrdered keeps the emission class identical to the queued
		// path's — whether a join runs inline or deferred is a property
		// of the partition and the calling plane, and must not leak into
		// the flush sort.
		ss.flushPending()
		ss.SE.RowOrdered(completion)
		return node, nil
	}
	ss.pendGroups[sh] = append(ss.pendGroups[sh], completion)
	ss.pendCount++
	ss.pendRefs[node.ID] = struct{}{}
	ss.pendRefs[ownerID] = struct{}{}
	for _, nb := range nbrs {
		ss.pendRefs[nb.ID] = struct{}{}
	}
	return node, nil
}

// completeJoinBatched is completeJoin's deferred half: the same view
// seeding, accounting messages and join introductions, with every
// transmission pinned to the admission instant (the shard clock lags it
// at a barrier) and the no-op acks sent as pooled envelopes.
func (s *Sim) completeJoinBatched(now sim.Time, h *Host, ownerID can.NodeID, ownerZone geom.Zone, nbrs []Record) {
	oh := s.hostOf(ownerID)
	dims := s.Ov.Dims()

	// Snapshot the owner's pre-split table (announce loop needs it after
	// the view mutates). Pools and scratch are shard-local: a queued
	// completion runs on its shard's worker, an inline one on the batch
	// plane with workers parked.
	preRecs := oh.view.appendRecords(s.recScratch[:0])
	s.recScratch = preRecs

	oh.adoptZone(ownerZone)
	oh.view.direct(h.selfRecord(), now)

	initial := append(s.introScratch[:0], oh.selfRecord())
	for _, rec := range preRecs {
		if _, _, ok := h.zone.Abuts(rec.Zone); ok {
			initial = append(initial, rec)
		}
	}
	s.introScratch = initial
	for _, rec := range initial {
		h.view.direct(rec, now)
	}
	s.Net.SendMsgAt(now, ownerID, h.id, FullMessageBytes(dims, len(initial)), netsim.KindFull, noopMsg{})

	// Per-face discovery against the candidate set captured at prep;
	// the has() filter mirrors the serial path (owner and abutting
	// preRecs are already in the view).
	for _, nb := range nbrs {
		if h.view.has(nb.ID) {
			continue
		}
		s.Net.SendMsgAt(now, h.id, nb.ID, RequestBytes(dims), netsim.KindRequest, noopMsg{})
		s.Net.SendMsgAt(now, nb.ID, h.id, AnnounceBytes(dims), netsim.KindAnnounce, noopMsg{})
		h.view.direct(nb, now)
		if nh := s.hostOf(nb.ID); nh != nil && nh.alive {
			nh.view.direct(h.selfRecord(), now)
		}
	}

	newbie := h.selfRecord()
	splitter := oh.selfRecord()
	for _, rec := range preRecs {
		s.sendJoinIntroAt(now, ownerID, rec.ID, splitter, newbie)
	}
}

// leaveBatched removes a node gracefully on the batch plane: ground
// truth at prep, the handoff message deferred to the leaver's shard.
func (ss *ShardedSim) leaveBatched(id can.NodeID) error {
	if _, ok := ss.pendRefs[id]; ok {
		ss.flushPending() // reference rule
	}
	sh := ss.shardID(id)
	s := ss.shards[sh]
	h := s.localHost(id)
	if h == nil {
		return fmt.Errorf("proto: leave of unknown node %d", id)
	}
	now := ss.churnNow()
	plan, hasPlan := ss.Ov.Takeover(id)

	h.alive = false
	s.Eng.Cancel(h.tick)
	s.dropHost(id)
	goneZone := h.zone.Clone()

	if _, err := ss.Ov.Leave(id); err != nil {
		return err
	}
	if !hasPlan {
		return nil // last node
	}
	takerID := plan.Taker.ID
	mergedID := can.NodeID(-1)
	if plan.Merged != nil {
		mergedID = plan.Merged.ID
	}
	// The handoff table is built at send time like the serial path, but
	// send time is deferred to the flush: the reference rule guarantees
	// no queued completion mutates h.view in between (h is dead — only
	// a pre-prep queued touch could, and that flushed above), so the
	// payload is identical either way. The delivery closure routes back
	// through the batch plane (netsim.SendAt) and runs executeTakeover
	// at the barrier containing now + latency.
	send := func() {
		table := s.replyTable(now, h.view)
		s.Net.SendAt(now, id, takerID, FullMessageBytes(s.Ov.Dims(), len(table)), netsim.KindFull, func(now2 sim.Time) {
			taker := s.hostOf(takerID)
			if taker == nil || !taker.alive {
				return
			}
			s.executeTakeover(now2, taker, id, goneZone, table, mergedID)
		})
	}
	if !ss.SE.InBatchDrain() {
		// Control-plane caller: no later drain is promised before the
		// windows pass now, so the handoff must transmit in this slot
		// (same reasoning as the join path's inline case).
		ss.flushPending()
		ss.SE.RowOrdered(send)
		return nil
	}
	ss.pendGroups[sh] = append(ss.pendGroups[sh], send)
	ss.pendCount++
	return nil
}

// failBatched removes a node silently on the batch plane. The serial
// Fail body is reused verbatim — its prep is already pure ground truth
// and its timeout continuation already rides ctl(), which is the batch
// plane here — after honoring the reference rule.
func (ss *ShardedSim) failBatched(id can.NodeID) error {
	if _, ok := ss.pendRefs[id]; ok {
		ss.flushPending()
	}
	return ss.simOf(id).Fail(id)
}

// churnNow returns the admission instant of a batched churn call: the
// batch clock when churn rides the batch plane (the churn driver), the
// global clock when a control-plane handler calls churn directly (the
// scenario engine does). RunBefore leaves an empty engine's clock
// behind, so the batch clock alone can lag a global-phase caller by
// arbitrary virtual time — whichever clock is ahead is the caller's.
func (ss *ShardedSim) churnNow() sim.Time {
	now := ss.SE.Batch().Now()
	if g := ss.SE.Global().Now(); g > now {
		now = g
	}
	return now
}

// flushPending executes every queued completion, shards in parallel,
// each shard's queue in batch order. Runs on the batch plane (drain
// hook, conflict/reference flushes) or on a quiesced engine (oracle
// readers); both have the worker pool at a barrier.
func (ss *ShardedSim) flushPending() {
	if ss.pendCount == 0 {
		return
	}
	ss.pendCount = 0
	clear(ss.pendRefs)
	ss.SE.ParallelShards(func(sh int) {
		g := ss.pendGroups[sh]
		for i, f := range g {
			f()
			g[i] = nil
		}
		ss.pendGroups[sh] = g[:0]
	})
}
