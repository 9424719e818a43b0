// Data plane (runtime.Sharder implementation): Autobahn's §4
// architecture makes data dissemination embarrassingly parallel per lane,
// and this file holds the only lane handlers. Lane traffic — cars, lane
// votes, PoAs, sync requests and sync payloads — belongs to W shards
// (lane i → shard i mod W, so each lane's FIFO order is preserved by
// construction), while consensus, certificates, commit notices, ordering
// and timers stay on the single serialized control loop.
//
// Ownership is strict: shard i alone touches the peer-lane views of its
// lanes (and, for the shard owning this replica's own lane, the own-lane
// production state); the control plane alone touches the consensus
// engine, orderer, fetcher and reputation. The only shared mutable
// structures are the proposal store and the journal, both internally
// synchronized. Everything else crosses the boundary as MsgInternal
// notices:
//
//	shard → control: laneNotice (new certified/optimistic tips, data
//	                 arrival, detected gaps, reputation events),
//	                 ownTipNotice (own-lane tip advancement),
//	                 syncDone (fetch bookkeeping for an ingested reply)
//	control → shard: frontierMsg (committed frontier adoption + GC),
//	                 retxMsg (car-retransmit tick)
//
// The control plane keeps its own snapshot of every lane's tips (the
// tipTable), updated exclusively from these notices, and assembles
// consensus cuts from it — so the consensus engine never reads
// shard-owned lane state. Notices are coalesced per event burst (one
// laneNotice per lane) to keep the control loop's event rate independent
// of the data rate.
//
// Two modes run the same handlers:
//
//   - Worker mode (W > 1 under a runtime that honors runtime.Sharder, the
//     transport loop): each shard has its own goroutine. FlushShard ends a
//     burst and hands the notices to control as self-addressed sends;
//     control reaches a shard the same way.
//   - Inline mode (W = 1, or a runtime that ignores runtime.Sharder, such
//     as the discrete-event simulator): OnMessage/OnClientBatch run the
//     handler on the control loop, under the context from Node.enter, so
//     its sends join the control loop's group-commit gate. The notices
//     are applied to control state as soon as the event ends; at W = 1
//     control hands frontierMsg/retxMsg to the shard directly.
package core

import (
	"repro/internal/fetch"
	"repro/internal/lane"
	"repro/internal/runtime"
	"repro/internal/types"
)

// --- internal handoff messages (never encoded: self-addressed, or
//     applied inline) ---

// laneNotice carries one lane's data-plane progress from its shard to
// the control plane.
type laneNotice struct {
	lane types.NodeID
	// cert/opt are the lane's tip snapshots at flush time (cert carries a
	// real PoA or is genesis).
	cert, opt types.TipRef
	// votedPos is the highest contiguous voted position — outstanding
	// fetches at or below it are moot.
	votedPos types.Pos
	// dataArrived reports that at least one proposal was ingested (vote
	// retries, execution draining and coverage may all be unblocked).
	dataArrived bool
	// certAdvanced reports a standalone PoA advanced the lane's certified
	// tip without any data arriving (idle-lane certification): the
	// consensus engine must still be poked, since coverage may have moved.
	certAdvanced bool
	// hasGap reports a buffered out-of-order proposal; [gapFrom, gapTo]
	// anchored at gapAnchor is the missing range to fetch.
	hasGap         bool
	gapFrom, gapTo types.Pos
	gapAnchor      types.TipRef
	// repPenalties counts critical-path tip syncs served during the burst
	// (§B.1): the control plane downgrades the lane's reputation once per
	// served sync.
	repPenalties int
}

func (*laneNotice) Type() types.MsgType { return types.MsgInternal }
func (*laneNotice) WireSize() int       { return 0 }

// ownTipNotice carries the own lane's tip advancement (new proposal or
// completed PoA) from the own-lane shard to the control plane.
type ownTipNotice struct {
	tip, cert types.TipRef
}

func (*ownTipNotice) Type() types.MsgType { return types.MsgInternal }
func (*ownTipNotice) WireSize() int       { return 0 }

// syncDone forwards an ingested sync reply to the control plane for
// fetch-manager bookkeeping (the proposals themselves were already fed
// into lane state on the shard).
type syncDone struct {
	from types.NodeID
	rep  *types.SyncReply
}

func (*syncDone) Type() types.MsgType { return types.MsgInternal }
func (*syncDone) WireSize() int       { return 0 }

// frontierMsg tells a lane's shard that the lane committed through
// (pos, digest): vote-frontier adoption and fork GC (§A.4).
type frontierMsg struct {
	lane   types.NodeID
	pos    types.Pos
	digest types.Digest
}

func (*frontierMsg) Type() types.MsgType { return types.MsgInternal }
func (*frontierMsg) WireSize() int       { return 0 }

// retxMsg forwards the car-retransmit tick to the own-lane shard.
type retxMsg struct{}

func (*retxMsg) Type() types.MsgType { return types.MsgInternal }
func (*retxMsg) WireSize() int       { return 0 }

// --- control-plane tip snapshot ---

// tipTable is the control plane's view of every lane's tips, fed only by
// shard notices (so cut assembly never reads shard-owned state). Tips
// advance monotonically; certified entries always carry a real PoA.
type tipTable struct {
	cert, opt       []types.TipRef
	ownTip, ownCert types.TipRef
}

func newTipTable(n int, self types.NodeID) *tipTable {
	t := &tipTable{cert: make([]types.TipRef, n), opt: make([]types.TipRef, n)}
	for i := range t.cert {
		t.cert[i] = types.TipRef{Lane: types.NodeID(i)}
		t.opt[i] = types.TipRef{Lane: types.NodeID(i)}
	}
	t.ownTip = types.TipRef{Lane: self}
	t.ownCert = types.TipRef{Lane: self}
	return t
}

func (t *tipTable) updateLane(l types.NodeID, cert, opt types.TipRef) {
	if cert.Cert != nil && cert.Position > t.cert[l].Position {
		t.cert[l] = cert
	}
	if opt.Position > t.opt[l].Position {
		t.opt[l] = opt
	}
}

// assemble builds this replica's cut (§5.2) from the snapshot. Lanes for
// which optimisticFor holds use their highest received tip (uncertified,
// §5.5.2); the rest use their certified tip.
func (t *tipTable) assemble(self types.NodeID, optimisticFor func(types.NodeID) bool) types.Cut {
	tips := make([]types.TipRef, len(t.cert))
	for i := range tips {
		l := types.NodeID(i)
		switch {
		case l == self:
			// Leader-tip rule (§5.5.2): the own lane may be referenced
			// uncertified — the proposer only hurts itself by lying.
			if t.ownTip.Position > t.ownCert.Position {
				tips[i] = t.ownTip
			} else {
				tips[i] = t.ownCert
			}
		case optimisticFor(l):
			if t.opt[i].Position > t.cert[i].Position {
				tips[i] = t.opt[i]
			} else {
				tips[i] = t.cert[i]
			}
		default:
			tips[i] = t.cert[i]
		}
	}
	return types.Cut{Tips: tips}
}

// --- per-shard state ---

// shardState is the data owned by one shard: its gated sends (group
// commit, worker mode only) and its coalesced, not-yet-delivered control
// notices. Only the shard's worker goroutine touches it — in inline mode
// that is the control goroutine.
type shardState struct {
	n *Node

	gate    gatedContext
	pending []pendingSend

	// Coalesced per-burst notices: one laneNotice per lane, merged across
	// the burst's events (tip snapshots are taken in takeNotices), plus
	// the ingested sync replies in arrival order.
	notices  map[types.NodeID]*laneNotice
	order    []types.NodeID // deterministic delivery order
	ownDirty bool
	synced   []*syncDone

	// retxSeen tracks the outstanding own car seen at the previous
	// retransmit tick (own-lane shard only).
	retxSeen types.Pos
}

// wrap installs group-commit gating around ctx for the duration of one
// worker-mode shard event, mirroring Node.enter for the control loop.
func (sh *shardState) wrap(ctx runtime.Context) runtime.Context {
	if !sh.n.cfg.GroupCommit {
		return ctx
	}
	sh.gate.inner = ctx
	sh.gate.pending = &sh.pending
	return &sh.gate
}

// note returns (creating if needed) the coalesced notice for a lane.
func (sh *shardState) note(l types.NodeID) *laneNotice {
	if no, ok := sh.notices[l]; ok {
		return no
	}
	no := &laneNotice{lane: l}
	sh.notices[l] = no
	sh.order = append(sh.order, l)
	return no
}

// --- runtime.Sharder implementation on Node ---

var _ runtime.Sharder = (*Node)(nil)

// DataShards implements runtime.Sharder. At 1 the runtime treats the
// node as unsharded and every event arrives through the control loop.
func (n *Node) DataShards() int { return len(n.shards) }

// BatchShard implements runtime.Sharder: client batches go to the shard
// owning this replica's own lane (car production is serial per lane).
func (n *Node) BatchShard() int { return int(n.cfg.Self) % len(n.shards) }

// ShardOf implements runtime.Sharder: data-plane traffic is owned by its
// lane's shard; everything else (consensus, commit catch-up, internal
// control notices) is control.
func (n *Node) ShardOf(_ types.NodeID, m types.Message) int {
	w := len(n.shards)
	switch v := m.(type) {
	case *types.Proposal:
		return int(v.Lane) % w
	case *types.Vote:
		return int(v.Lane) % w // votes address the lane owner (us)
	case *types.PoA:
		return int(v.Lane) % w
	case *types.SyncRequest:
		return int(v.Lane) % w // serving reads only the (shared) store
	case *types.SyncReply:
		return int(v.Lane) % w
	case *frontierMsg:
		return int(v.lane) % w
	case *retxMsg:
		return n.BatchShard()
	default:
		return -1
	}
}

// OnShardMessage implements runtime.Sharder: one data-plane event on its
// owning shard's worker goroutine.
func (n *Node) OnShardMessage(ctx runtime.Context, shard int, from types.NodeID, m types.Message) {
	sh := n.shards[shard]
	sh.onMessage(sh.wrap(ctx), from, m)
}

// OnShardBatch implements runtime.Sharder: own-lane car production on
// the own-lane shard's worker goroutine.
func (n *Node) OnShardBatch(ctx runtime.Context, shard int, b *types.Batch) {
	sh := n.shards[shard]
	sh.onBatch(sh.wrap(ctx), b)
}

// FlushShard implements runtime.Sharder: the per-shard burst barrier.
// Order matters — journal sync first (write-before-externalize), then
// the burst's gated sends, then the coalesced control notices (whose tip
// snapshots are taken now, after every event of the burst applied).
func (n *Node) FlushShard(ctx runtime.Context, shard int) {
	sh := n.shards[shard]
	if n.cfg.GroupCommit {
		// A failed barrier is replica-fatal, exactly as in Flush: this
		// shard's gated sends are dropped, never released.
		if err := n.cfg.Journal.Sync(); err != nil {
			n.fatal(err)
		}
	}
	notices := sh.takeNotices()
	if !n.releasePending(ctx, &sh.pending) {
		return
	}
	for _, m := range notices {
		ctx.Send(n.cfg.Self, m)
	}
}

// runInline runs one data-plane event on the control loop under ctx (the
// context from Node.enter) and applies the shard's notices at once.
func (n *Node) runInline(ctx runtime.Context, sh *shardState, from types.NodeID, m types.Message) {
	sh.onMessage(ctx, from, m)
	n.applyNotices(ctx, sh)
}

// applyNotices delivers an inline event's notices to control state. They
// are all taken out of the shard before the first is applied: applying
// one can drain execution, which re-enters the same shard through the
// frontier handoff (toShard) and must find only its own notices there.
func (n *Node) applyNotices(ctx runtime.Context, sh *shardState) {
	for _, m := range sh.takeNotices() {
		n.applyNotice(ctx, m)
	}
}

// toShard hands a control → shard event (frontierMsg, retxMsg) to its
// shard: directly when the node has one shard, as a self-addressed send
// otherwise — the runtime routes it to the shard's worker, or back
// through OnMessage when it ignores runtime.Sharder.
func (n *Node) toShard(ctx runtime.Context, m types.Message) {
	if len(n.shards) == 1 {
		n.runInline(ctx, n.shards[0], n.cfg.Self, m)
		return
	}
	ctx.Send(n.cfg.Self, m)
}

// onMessage handles one data-plane event under ctx: the worker's (see
// wrap) or, inline, the control loop's.
func (sh *shardState) onMessage(ctx runtime.Context, from types.NodeID, m types.Message) {
	n := sh.n
	switch msg := m.(type) {
	case *types.Proposal:
		sh.handleProposal(ctx, msg, true)
	case *types.Vote:
		sh.handleVote(ctx, msg)
	case *types.PoA:
		if err := n.lanes.OnPoA(msg); err == nil {
			if msg.Lane == n.cfg.Self {
				sh.ownDirty = true
			} else {
				sh.note(msg.Lane).certAdvanced = true
			}
		}
	case *types.SyncRequest:
		sh.serveSync(ctx, msg)
	case *types.SyncReply:
		sh.handleSyncReply(ctx, from, msg)
	case *frontierMsg:
		// An own-lane frontier rides to the own-lane shard (ShardOf keys
		// on the lane), where retiring commit-overtaken outstanding cars
		// may unblock fresh proposals — broadcast them from here, exactly
		// as handleVote does on this shard.
		for _, p := range n.lanes.OnCommitted(msg.lane, msg.pos, msg.digest) {
			n.stats.BatchesProposed.Add(1)
			ctx.Broadcast(p)
			sh.ownDirty = true
		}
	case *retxMsg:
		sh.retransmit(ctx)
	}
}

// onBatch produces an own-lane car from a sealed client batch.
func (sh *shardState) onBatch(ctx runtime.Context, b *types.Batch) {
	n := sh.n
	if p := n.lanes.AddBatch(b); p != nil {
		n.stats.BatchesProposed.Add(1)
		ctx.Broadcast(p)
		sh.ownDirty = true
	}
}

// takeNotices empties the shard's coalesced notices, in delivery order:
// ingested sync replies first (fetch bookkeeping precedes the data's
// consequences), then one laneNotice per touched lane with its tips
// snapshotted now, then the own lane's tips.
func (sh *shardState) takeNotices() []types.Message {
	n := sh.n
	if len(sh.synced) == 0 && len(sh.order) == 0 && !sh.ownDirty {
		return nil
	}
	out := make([]types.Message, 0, len(sh.synced)+len(sh.order)+1)
	for i, sd := range sh.synced {
		out = append(out, sd)
		sh.synced[i] = nil
	}
	sh.synced = sh.synced[:0]
	for _, l := range sh.order {
		no := sh.notices[l]
		delete(sh.notices, l)
		no.cert = n.lanes.CertifiedTip(l)
		no.opt = n.lanes.OptimisticTip(l)
		out = append(out, no)
	}
	sh.order = sh.order[:0]
	if sh.ownDirty {
		sh.ownDirty = false
		out = append(out, &ownTipNotice{
			tip:  n.lanes.OptimisticTip(n.cfg.Self),
			cert: n.lanes.CertifiedTip(n.cfg.Self),
		})
	}
	return out
}

// --- shard-side handlers (no touch of control-owned state) ---

// handleProposal ingests a car on its lane's shard: FIFO votes go out
// directly; consensus-side consequences (fetch cancellation, vote
// retries, execution draining, gap fetches) ride the coalesced notice.
func (sh *shardState) handleProposal(ctx runtime.Context, p *types.Proposal, live bool) {
	n := sh.n
	if p.Lane == n.cfg.Self {
		// Own-lane sync delivery (amnesia catch-up / lost self-fork): it
		// routes to the own-lane shard (ShardOf keys on the lane), so the
		// production state read in takeNotices stays shard-owned; the
		// ingest itself is store-only. dataArrived makes the control plane
		// re-drain execution, which is what the data was fetched for.
		if !live && n.lanes.IngestOwn(p) == nil {
			sh.note(p.Lane).dataArrived = true
		}
		return
	}
	votes, err := n.lanes.OnProposal(p)
	for _, v := range votes {
		n.stats.VotesSent.Add(1)
		ctx.Send(p.Lane, v)
	}
	no := sh.note(p.Lane)
	if err == lane.ErrMissingParent && live && !no.hasGap {
		if from, to, anchor, ok := n.lanes.BufferedGap(p.Lane); ok {
			no.hasGap = true
			no.gapFrom, no.gapTo, no.gapAnchor = from, to, anchor
		}
	}
	if err == nil || err == lane.ErrMissingParent {
		no.dataArrived = true
		no.votedPos = n.lanes.VotedPos(p.Lane)
	}
}

// handleVote processes a vote for an own car on the own-lane shard.
func (sh *shardState) handleVote(ctx runtime.Context, v *types.Vote) {
	n := sh.n
	props, poa, err := n.lanes.OnVote(v)
	if err != nil {
		return
	}
	for _, p := range props {
		n.stats.BatchesProposed.Add(1)
		ctx.Broadcast(p)
	}
	if poa != nil {
		ctx.Broadcast(poa)
	}
	if len(props) > 0 || poa != nil {
		sh.ownDirty = true
	}
}

// serveSync serves lane history straight off the shard — the multi-MB
// reply encoding this triggers in the mesh runs here too, not on the
// control loop. Reputation consequences hand off to control.
func (sh *shardState) serveSync(ctx runtime.Context, req *types.SyncRequest) {
	n := sh.n
	if n.cfg.Reputation && req.From == req.To && req.Lane != n.cfg.Self {
		// A point request for another lane's tip means a replica could
		// not vote on an optimistic tip we (presumably, as leader)
		// proposed: downgrade the lane's standing (§B.1).
		sh.note(req.Lane).repPenalties++
	}
	for _, rep := range fetch.Serve(n.lanes.Store(), req) {
		n.stats.SyncRepliesServed.Add(1)
		ctx.Send(req.Requester, rep)
	}
}

// handleSyncReply ingests a sync reply's proposals into lane state on
// the shard (votes, buffering, store) and queues the reply envelope for
// the control plane, where the fetch manager reconciles it against its
// outstanding requests and execution resumes.
//
// Chain validation runs FIRST, on the shard: only chain-valid replies
// are ingested, and it is a shard-safety requirement — a hostile reply
// mixing lanes would otherwise make this worker touch peer-lane state
// owned by another shard. Invalid replies are dropped whole; the
// outstanding fetch retries from its tick.
func (sh *shardState) handleSyncReply(ctx runtime.Context, from types.NodeID, rep *types.SyncReply) {
	if err := fetch.ValidateChain(rep); err != nil {
		return
	}
	for _, p := range rep.Proposals {
		if p.Lane != rep.Lane {
			return // unreachable after ValidateChain; defense in depth
		}
		sh.handleProposal(ctx, p, false)
	}
	sh.synced = append(sh.synced, &syncDone{from: from, rep: rep})
}

// retransmit re-broadcasts the oldest outstanding own car if it is still
// stuck a full tick later (control forwards the timer here because the
// outstanding-car state is shard-owned).
func (sh *shardState) retransmit(ctx runtime.Context) {
	n := sh.n
	if p := n.lanes.OldestOutstanding(); p != nil {
		if p.Position == sh.retxSeen {
			ctx.Broadcast(p)
		}
		sh.retxSeen = p.Position
	} else {
		sh.retxSeen = 0
	}
}

// --- control-side notice handlers ---

// applyNotice applies one shard notice to control state.
func (n *Node) applyNotice(ctx runtime.Context, m types.Message) {
	switch msg := m.(type) {
	case *laneNotice:
		n.onLaneNotice(ctx, msg)
	case *ownTipNotice:
		n.tips.ownTip, n.tips.ownCert = msg.tip, msg.cert
		n.engine.OnTipsAdvanced() // own leader tip advanced
	case *syncDone:
		n.onSyncDone(ctx, msg)
	}
}

// onLaneNotice applies one lane's shard progress to control state.
func (n *Node) onLaneNotice(ctx runtime.Context, msg *laneNotice) {
	n.tips.updateLane(msg.lane, msg.cert, msg.opt)
	if msg.repPenalties > 0 && n.cfg.Reputation {
		n.reputation[msg.lane] -= repPenalty * msg.repPenalties
		if n.reputation[msg.lane] < 0 {
			n.reputation[msg.lane] = 0
		}
	}
	if msg.dataArrived {
		// Data arrival can unblock pending consensus votes (the engine
		// ignores slots without one) and execution, and new certified
		// tips (carried as ParentPoA) advance coverage.
		n.fetcher.Cancel(msg.lane, msg.votedPos)
		n.engine.OnTipsAdvanced()
		n.engine.RetryPendingVotes()
		n.drainExecution(ctx)
	} else if msg.certAdvanced {
		// Standalone PoA on an otherwise idle lane: the certified tip
		// moved, so coverage may have.
		n.engine.OnTipsAdvanced()
	}
	if msg.hasGap {
		n.scheduleGapFetch(ctx, msg.lane, msg.gapFrom, msg.gapTo, msg.gapAnchor)
	}
}

// onSyncDone reconciles a shard-ingested sync reply with the fetch
// manager: remainder chasing, tip-vote unblocking, execution draining.
// The proposals themselves are already in the store.
func (n *Node) onSyncDone(ctx runtime.Context, msg *syncDone) {
	res, err := n.fetcher.OnReply(ctx.Now(), msg.from, msg.rep)
	if err == fetch.ErrUnsolicited {
		// Late reply to an abandoned request: already ingested on the
		// shard; execution may still be waiting on the data.
		n.drainExecution(ctx)
		return
	}
	if err != nil || res == nil {
		return
	}
	if res.Remainder != nil {
		// The lower sub-range usually already arrived as earlier chunks
		// of the same FIFO stream; only chase it if truly absent.
		rm := res.Remainder.Msg
		if n.lanes.Store().Has(rm.Lane, rm.To, rm.TipDigest) {
			n.fetcher.Cancel(rm.Lane, rm.To)
		} else {
			n.stats.SyncRequestsSent.Add(1)
			ctx.Send(res.Remainder.To, res.Remainder.Msg)
		}
	}
	if res.Request.Purpose == fetch.PurposeTipVote {
		n.engine.TipDataArrived(res.Request.Slot, res.Request.View)
	}
	n.drainExecution(ctx)
}
