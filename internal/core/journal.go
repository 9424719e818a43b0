// Journal: the replica's durable record of safety-critical protocol
// state, written before that state is externalized. The paper's
// prototype persists all lane data and protocol state to RocksDB and its
// seamlessness story depends on replicas returning from blips without
// hurting safety; this file is the reproduction's equivalent, backed by
// internal/storage's write-ahead log (real deployments) or an in-memory
// store (simulated restarts), with a no-op default for deployments that
// accept amnesia on crash.
//
// What is journaled — exactly the state whose loss lets a restarted
// replica contradict its pre-crash self:
//
//   - own-lane proposals (never equivocate at a proposed position)
//   - lane FIFO votes (never vote a different digest at a voted position)
//   - consensus PrepVotes / ConfirmAcks / Timeouts per (slot, view)
//   - decided CommitQCs and the execution frontier (resume without
//     re-emitting; fetch missing data via the normal non-blocking sync)
//
// Everything else (peer lane data, PoAs, aggregation state) is rebuilt
// from live traffic and sync, exactly as a lagging replica would.
package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wire"
)

// Journal durably records a replica's safety-critical state before it is
// externalized and replays it on restart. Implementations must be safe
// for concurrent use: with shard workers (Shards > 1 under a runtime
// that honors runtime.Sharder), they append lane records while the
// control plane appends consensus records, and each caller's
// FlushShard/Flush barrier Syncs the shared journal.
// Recover is called once, before any write.
type Journal interface {
	// OwnProposal records a newly produced own-lane proposal.
	OwnProposal(p *types.Proposal)
	// LaneVote records a FIFO vote for a peer-lane proposal.
	LaneVote(v *types.Vote)
	// PrepVote records a consensus prepare vote (weak or strong).
	PrepVote(v *types.PrepVote)
	// ConfirmAck records a consensus confirm ack.
	ConfirmAck(a *types.ConfirmAck)
	// Timeout records a view-change complaint.
	Timeout(t *types.Timeout)
	// Commit records a decided slot's certificate and proposal.
	Commit(n *types.CommitNotice)
	// Executed records the execution frontier after slots execute: the
	// next slot awaiting execution plus per-lane committed positions and
	// digests, and — when the execution layer is enabled — the AppHash
	// chain oracle at that frontier (the chain hash and its length), so
	// a recovered replica resumes the exact cross-replica oracle value.
	Executed(next types.Slot, frontier []types.Pos, digests []types.Digest, appHash types.Digest, chainCount uint64)
	// Truncate drops records the snapshot frontier has made redundant:
	// own proposals at or below the own-lane frontier, lane votes at or
	// below their lane's frontier, and per-slot consensus records below
	// the snapshot slot. Durable implementations compact the backing log
	// afterwards, bounding on-disk growth. Safe because the snapshot
	// (written first) subsumes everything dropped: recovery restores at
	// the newer of the snapshot and journal frontiers.
	Truncate(self types.NodeID, frontier []types.Pos, below types.Slot)
	// Sync is the group-commit barrier: it makes every record appended
	// since the previous Sync durable (one WAL flush covering the whole
	// group) and is a no-op when nothing was appended. The replica calls
	// it once per event-loop burst, before releasing the sends those
	// records gate (write-before-externalize).
	Sync() error
	// Recover returns the state a previous incarnation journaled (empty
	// when the journal is fresh).
	Recover() *Recovered
	// Close releases the backing store.
	Close() error
}

// Recovered is a journal snapshot from a previous incarnation. Slices
// are sorted (proposals by position; commits by slot; votes, acks and
// timeouts by slot then view) so recovery is deterministic regardless of
// the backing store's iteration order.
type Recovered struct {
	OwnProposals    []*types.Proposal
	LaneVotes       map[types.NodeID]map[types.Pos]types.Digest
	PrepVotes       []*types.PrepVote
	ConfirmAcks     []*types.ConfirmAck
	Timeouts        []*types.Timeout
	Commits         []*types.CommitNotice
	NextExec        types.Slot
	Frontier        []types.Pos
	FrontierDigests []types.Digest
	// AppHash/ChainCount restore the execution chain oracle at NextExec
	// (zero when the execution layer never ran).
	AppHash    types.Digest
	ChainCount uint64
}

// Empty reports whether the snapshot carries no recorded state.
func (r *Recovered) Empty() bool {
	return r == nil || (len(r.OwnProposals) == 0 && len(r.LaneVotes) == 0 &&
		len(r.PrepVotes) == 0 && len(r.ConfirmAcks) == 0 && len(r.Timeouts) == 0 &&
		len(r.Commits) == 0 && r.NextExec <= 1)
}

// NopJournal discards everything: a replica configured with it restarts
// with amnesia.
type NopJournal struct{}

func (NopJournal) OwnProposal(*types.Proposal)  {}
func (NopJournal) LaneVote(*types.Vote)         {}
func (NopJournal) PrepVote(*types.PrepVote)     {}
func (NopJournal) ConfirmAck(*types.ConfirmAck) {}
func (NopJournal) Timeout(*types.Timeout)       {}
func (NopJournal) Commit(*types.CommitNotice)   {}
func (NopJournal) Executed(types.Slot, []types.Pos, []types.Digest, types.Digest, uint64) {
}
func (NopJournal) Truncate(types.NodeID, []types.Pos, types.Slot) {}
func (NopJournal) Sync() error                                    { return nil }
func (NopJournal) Recover() *Recovered                            { return &Recovered{} }
func (NopJournal) Close() error                                   { return nil }

// journalStore is the key/value substrate a journal writes through,
// satisfied by storage.Store (durable) and memStore (simulated).
type journalStore interface {
	Put(key, val []byte) error
	Delete(key []byte) error
	Range(fn func(key, val []byte) bool)
	Flush() error
	Close() error
}

// memStore keeps journal records in memory: it survives a simulated
// protocol teardown (the cluster holds it across node rebuilds) but not
// the process. Used by the simulator's Restart fault and by tests.
type memStore struct {
	m map[string][]byte
}

func (s *memStore) Put(key, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.m[string(key)] = cp
	return nil
}

func (s *memStore) Range(fn func(key, val []byte) bool) {
	// Canonical key order: recovery replays through Range, so iteration
	// order must not depend on map layout (detrange).
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !fn([]byte(k), s.m[k]) {
			return
		}
	}
}

func (s *memStore) Delete(key []byte) error {
	delete(s.m, string(key))
	return nil
}

func (s *memStore) Flush() error { return nil }
func (s *memStore) Close() error { return nil }

// Record key prefixes. Unknown prefixes are ignored on recovery, so a
// journal store may host auxiliary records.
const (
	keyOwnProposal = 'p' // + position(8)          -> wire(Proposal)
	keyLaneVote    = 'v' // + lane(2) + position(8) -> digest(32)
	keyPrepVote    = 'c' // + slot(8) + view(8)     -> wire(PrepVote)
	keyConfirmAck  = 'a' // + slot(8) + view(8)     -> wire(ConfirmAck)
	keyTimeout     = 't' // + slot(8) + view(8)     -> wire(Timeout)
	keyCommit      = 'q' // + slot(8)               -> wire(CommitNotice)
	keyExec        = 'x' //                         -> next(8) + count(4) + count*(pos(8) + digest(32)) [+ appHash(32) + chainCount(8)]
)

// walJournal implements Journal over a journalStore, encoding records
// with the canonical wire codec. Records accumulate in the store's write
// buffer until Sync, the group-commit barrier: one flush (for
// storage.Store, one write syscall; fsync cadence stays under
// storage.Store.SyncEvery) covers every record of an event-loop burst,
// instead of one flush per record. The replica releases the sends those
// records gate only after Sync returns, so write-before-externalize is
// preserved. Write errors are sticky and reported by Err — the prototype
// keeps running, trading the durability guarantee for availability,
// which mirrors the paper's prototype's crash-durability posture.
type walJournal struct {
	mu    sync.Mutex // appends arrive from shard workers and the control loop
	st    journalStore
	dirty bool
	err   error
}

// NewWALJournal wraps a storage.Store as a durable replica journal.
func NewWALJournal(st *storage.Store) Journal { return &walJournal{st: st} }

// NewMemJournal builds an in-memory journal that survives protocol
// teardown but not the process (simulated restarts, tests).
func NewMemJournal() Journal { return &walJournal{st: &memStore{m: make(map[string][]byte)}} }

func (j *walJournal) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

// Err returns the first write or encode error, if any.
func (j *walJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *walJournal) put(key []byte, val []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.st.Put(key, val); err != nil {
		j.fail(err)
		return
	}
	j.dirty = true
}

// Sync flushes every record appended since the last Sync (no-op when
// none were): the group-commit barrier. Concurrent callers (shard
// flushes, the control loop's flush) serialize here; each caller's
// records are durable once its own Sync returns, regardless of which
// caller's Flush physically wrote them.
func (j *walJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.dirty {
		return j.err
	}
	j.dirty = false
	j.fail(j.st.Flush())
	return j.err
}

func (j *walJournal) putMsg(key []byte, m types.Message) {
	// Pooled encode: both stores copy val (index + log buffer), so the
	// buffer can be recycled as soon as Put returns.
	buf := wire.GetBuf(wire.SizeHint(m))
	var err error
	buf.B, err = wire.EncodeTo(buf.B, m)
	if err != nil {
		buf.Release()
		j.fail(fmt.Errorf("journal: encode %T: %w", m, err))
		return
	}
	j.put(key, buf.B)
	buf.Release()
}

func (j *walJournal) OwnProposal(p *types.Proposal) {
	key := make([]byte, 9)
	key[0] = keyOwnProposal
	binary.LittleEndian.PutUint64(key[1:], uint64(p.Position))
	j.putMsg(key, p)
}

func (j *walJournal) LaneVote(v *types.Vote) {
	key := make([]byte, 11)
	key[0] = keyLaneVote
	binary.LittleEndian.PutUint16(key[1:], uint16(v.Lane))
	binary.LittleEndian.PutUint64(key[3:], uint64(v.Position))
	j.put(key, v.Digest[:])
}

func slotViewKey(prefix byte, s types.Slot, v types.View) []byte {
	key := make([]byte, 17)
	key[0] = prefix
	binary.LittleEndian.PutUint64(key[1:], uint64(s))
	binary.LittleEndian.PutUint64(key[9:], uint64(v))
	return key
}

func (j *walJournal) PrepVote(v *types.PrepVote) {
	j.putMsg(slotViewKey(keyPrepVote, v.Slot, v.View), v)
}

func (j *walJournal) ConfirmAck(a *types.ConfirmAck) {
	j.putMsg(slotViewKey(keyConfirmAck, a.Slot, a.View), a)
}

func (j *walJournal) Timeout(t *types.Timeout) {
	j.putMsg(slotViewKey(keyTimeout, t.Slot, t.View), t)
}

func (j *walJournal) Commit(n *types.CommitNotice) {
	key := make([]byte, 9)
	key[0] = keyCommit
	binary.LittleEndian.PutUint64(key[1:], uint64(n.QC.Slot))
	j.putMsg(key, n)
}

func (j *walJournal) Executed(next types.Slot, frontier []types.Pos, digests []types.Digest, appHash types.Digest, chainCount uint64) {
	if len(digests) != len(frontier) {
		j.fail(fmt.Errorf("journal: frontier/digest length mismatch"))
		return
	}
	val := make([]byte, 0, 12+len(frontier)*(8+types.DigestSize)+types.DigestSize+8)
	val = binary.LittleEndian.AppendUint64(val, uint64(next))
	val = binary.LittleEndian.AppendUint32(val, uint32(len(frontier)))
	for i, pos := range frontier {
		val = binary.LittleEndian.AppendUint64(val, uint64(pos))
		val = append(val, digests[i][:]...)
	}
	// Chain-oracle trailer, only when the execution layer has run: legacy
	// records (and execution-off deployments) omit it and recover with a
	// zero oracle.
	if chainCount > 0 || appHash != types.ZeroDigest {
		val = append(val, appHash[:]...)
		val = binary.LittleEndian.AppendUint64(val, chainCount)
	}
	j.put([]byte{keyExec}, val)
}

// Truncate deletes journal records subsumed by a snapshot at the given
// frontier, then compacts the backing log when it supports it. Keys are
// collected under Range and sorted before deletion so the tombstone
// order (and thus the compacted log) is deterministic (detrange).
func (j *walJournal) Truncate(self types.NodeID, frontier []types.Pos, below types.Slot) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var doomed []string
	j.st.Range(func(key, val []byte) bool {
		if len(key) == 0 {
			return true
		}
		switch key[0] {
		case keyOwnProposal:
			if len(key) == 9 && int(self) < len(frontier) {
				pos := types.Pos(binary.LittleEndian.Uint64(key[1:]))
				if pos <= frontier[self] {
					doomed = append(doomed, string(key))
				}
			}
		case keyLaneVote:
			if len(key) == 11 {
				lane := int(binary.LittleEndian.Uint16(key[1:]))
				pos := types.Pos(binary.LittleEndian.Uint64(key[3:]))
				if lane < len(frontier) && pos <= frontier[lane] {
					doomed = append(doomed, string(key))
				}
			}
		case keyPrepVote, keyConfirmAck, keyTimeout:
			if len(key) == 17 && types.Slot(binary.LittleEndian.Uint64(key[1:])) < below {
				doomed = append(doomed, string(key))
			}
		case keyCommit:
			if len(key) == 9 && types.Slot(binary.LittleEndian.Uint64(key[1:])) < below {
				doomed = append(doomed, string(key))
			}
		}
		return true
	})
	sort.Strings(doomed)
	for _, k := range doomed {
		if err := j.st.Delete([]byte(k)); err != nil {
			j.fail(err)
			return
		}
		j.dirty = true
	}
	if c, ok := j.st.(interface{ Compact() error }); ok {
		if err := c.Compact(); err != nil {
			j.fail(fmt.Errorf("journal: compact: %w", err))
			return
		}
		j.dirty = false
	}
}

// Recover decodes every record in the store into a deterministic
// snapshot. Individually undecodable records are skipped (the store
// already drops torn tails; a skipped record degrades recovery to the
// same conservative amnesia a fresh journal has for that entry).
func (j *walJournal) Recover() *Recovered {
	rec := &Recovered{LaneVotes: make(map[types.NodeID]map[types.Pos]types.Digest)}
	j.st.Range(func(key, val []byte) bool {
		if len(key) == 0 {
			return true
		}
		switch key[0] {
		case keyOwnProposal:
			if m, err := wire.Decode(val); err == nil {
				if p, ok := m.(*types.Proposal); ok {
					rec.OwnProposals = append(rec.OwnProposals, p)
				}
			}
		case keyLaneVote:
			if len(key) != 11 || len(val) != types.DigestSize {
				return true
			}
			lane := types.NodeID(binary.LittleEndian.Uint16(key[1:]))
			pos := types.Pos(binary.LittleEndian.Uint64(key[3:]))
			var d types.Digest
			copy(d[:], val)
			m := rec.LaneVotes[lane]
			if m == nil {
				m = make(map[types.Pos]types.Digest)
				rec.LaneVotes[lane] = m
			}
			m[pos] = d
		case keyPrepVote:
			if m, err := wire.Decode(val); err == nil {
				if v, ok := m.(*types.PrepVote); ok {
					rec.PrepVotes = append(rec.PrepVotes, v)
				}
			}
		case keyConfirmAck:
			if m, err := wire.Decode(val); err == nil {
				if a, ok := m.(*types.ConfirmAck); ok {
					rec.ConfirmAcks = append(rec.ConfirmAcks, a)
				}
			}
		case keyTimeout:
			if m, err := wire.Decode(val); err == nil {
				if t, ok := m.(*types.Timeout); ok {
					rec.Timeouts = append(rec.Timeouts, t)
				}
			}
		case keyCommit:
			if m, err := wire.Decode(val); err == nil {
				if n, ok := m.(*types.CommitNotice); ok {
					rec.Commits = append(rec.Commits, n)
				}
			}
		case keyExec:
			if len(val) < 12 {
				return true
			}
			next := types.Slot(binary.LittleEndian.Uint64(val))
			count := int(binary.LittleEndian.Uint32(val[8:]))
			base := 12 + count*(8+types.DigestSize)
			// Two valid shapes: the base record, or base + the chain-oracle
			// trailer (appHash + chainCount) written when execution is on.
			if count < 0 || (len(val) != base && len(val) != base+types.DigestSize+8) {
				return true
			}
			rec.NextExec = next
			rec.Frontier = make([]types.Pos, count)
			rec.FrontierDigests = make([]types.Digest, count)
			off := 12
			for i := 0; i < count; i++ {
				rec.Frontier[i] = types.Pos(binary.LittleEndian.Uint64(val[off:]))
				copy(rec.FrontierDigests[i][:], val[off+8:])
				off += 8 + types.DigestSize
			}
			if len(val) == base+types.DigestSize+8 {
				copy(rec.AppHash[:], val[base:])
				rec.ChainCount = binary.LittleEndian.Uint64(val[base+types.DigestSize:])
			}
		}
		return true
	})
	sort.Slice(rec.OwnProposals, func(i, k int) bool {
		return rec.OwnProposals[i].Position < rec.OwnProposals[k].Position
	})
	sort.Slice(rec.PrepVotes, func(i, k int) bool {
		a, b := rec.PrepVotes[i], rec.PrepVotes[k]
		return a.Slot < b.Slot || (a.Slot == b.Slot && a.View < b.View)
	})
	sort.Slice(rec.ConfirmAcks, func(i, k int) bool {
		a, b := rec.ConfirmAcks[i], rec.ConfirmAcks[k]
		return a.Slot < b.Slot || (a.Slot == b.Slot && a.View < b.View)
	})
	sort.Slice(rec.Timeouts, func(i, k int) bool {
		a, b := rec.Timeouts[i], rec.Timeouts[k]
		return a.Slot < b.Slot || (a.Slot == b.Slot && a.View < b.View)
	})
	sort.Slice(rec.Commits, func(i, k int) bool {
		return rec.Commits[i].QC.Slot < rec.Commits[k].QC.Slot
	})
	return rec
}

func (j *walJournal) Close() error {
	if err := j.st.Close(); err != nil {
		return err
	}
	return j.err
}

// laneJournal adapts Journal to lane.Journal.
type laneJournal struct{ j Journal }

func (l laneJournal) OwnProposal(p *types.Proposal) { l.j.OwnProposal(p) }
func (l laneJournal) Vote(v *types.Vote)            { l.j.LaneVote(v) }

// consJournal adapts Journal to consensus.Journal.
type consJournal struct{ n *Node }

func (c consJournal) PrepVote(v *types.PrepVote)     { c.n.cfg.Journal.PrepVote(v) }
func (c consJournal) ConfirmAck(a *types.ConfirmAck) { c.n.cfg.Journal.ConfirmAck(a) }
func (c consJournal) Timeout(t *types.Timeout)       { c.n.cfg.Journal.Timeout(t) }

func (c consJournal) Commit(m *types.CommitNotice) {
	if c.n.replaying {
		return // re-delivery of an already-journaled notice (recovery)
	}
	c.n.cfg.Journal.Commit(m)
}
