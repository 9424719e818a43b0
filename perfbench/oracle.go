package main

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/exec"
	"repro/internal/types"
)

// oracle checks every run's output. It sees every replica's commits
// through SetCommitObserver (never the lossy Commits channel) and holds:
//   - the first AppHash reported at each (lane, position), against which
//     every other replica's report is compared;
//   - per replica, a bitmap of committed transaction ids per client, so
//     exactly-once can be checked for every acknowledged transaction;
//   - replica 0's commit sequence, replayed through exec.New().Apply after
//     the run, which must reproduce the AppHash the replicas reported.
type oracle struct {
	// txID extracts a transaction's (client, seq) identity.
	txID func(tx []byte) (client, seq uint64, ok bool)
	// hook, when set, also receives every commit with its arrival time.
	hook func(cm autobahn.Committed, now time.Time)
	// dupCommit is the self-test: replica 1's first transaction-bearing
	// commit is counted twice.
	dupCommit atomic.Bool

	mu      sync.Mutex
	hashes  map[lanePos]types.Digest
	hashErr string

	logs []*replicaLog

	chainMu  sync.Mutex
	chain    []chainEntry
	parent   map[types.NodeID]types.Digest
	lastPos  map[types.NodeID]types.Pos
	chainErr string
}

type lanePos struct {
	lane types.NodeID
	pos  types.Pos
}

// chainEntry is one of replica 0's executed entries: the coordinates and
// car digest the AppHash chain absorbs, and the AppHash reported after it.
type chainEntry struct {
	slot    types.Slot
	lane    types.NodeID
	pos     types.Pos
	digest  types.Digest
	appHash types.Digest
}

// replicaLog is one replica's committed-transaction record.
type replicaLog struct {
	mu   sync.Mutex
	seen map[uint64][]uint64 // client -> bitmap over seq
	dups uint64
	txs  uint64
}

func newOracle(n int, txID func([]byte) (uint64, uint64, bool)) *oracle {
	o := &oracle{
		txID:    txID,
		hashes:  make(map[lanePos]types.Digest),
		parent:  make(map[types.NodeID]types.Digest),
		lastPos: make(map[types.NodeID]types.Pos),
	}
	for i := 0; i < n; i++ {
		o.logs = append(o.logs, &replicaLog{seen: make(map[uint64][]uint64)})
	}
	return o
}

// observe is the commit observer. It runs on replica event loops, so it
// stays O(transactions) with no allocation per transaction.
func (o *oracle) observe(cm autobahn.Committed) {
	now := time.Now()
	key := lanePos{cm.Lane, cm.Position}
	o.mu.Lock()
	if h, ok := o.hashes[key]; !ok {
		o.hashes[key] = cm.AppHash
	} else if h != cm.AppHash && o.hashErr == "" {
		o.hashErr = fmt.Sprintf("replica %d reports AppHash %x at lane %d position %d, another replica %x",
			cm.Replica, cm.AppHash[:6], cm.Lane, cm.Position, h[:6])
	}
	o.mu.Unlock()
	if cm.Replica == 0 {
		o.extendChain(cm)
	}
	lg := o.logs[cm.Replica]
	lg.add(cm.Batch, o.txID)
	if cm.Replica == 1 && cm.Batch.Count > 0 && o.dupCommit.CompareAndSwap(true, false) {
		lg.add(cm.Batch, o.txID)
	}
	if o.hook != nil {
		o.hook(cm, now)
	}
}

func (o *oracle) extendChain(cm autobahn.Committed) {
	o.chainMu.Lock()
	defer o.chainMu.Unlock()
	if cm.Position != o.lastPos[cm.Lane]+1 && o.chainErr == "" {
		o.chainErr = fmt.Sprintf("replica 0 committed lane %d position %d after %d", cm.Lane, cm.Position, o.lastPos[cm.Lane])
	}
	car := &types.Proposal{Lane: cm.Lane, Position: cm.Position, Parent: o.parent[cm.Lane], Batch: cm.Batch}
	d := car.Digest()
	o.parent[cm.Lane] = d
	o.lastPos[cm.Lane] = cm.Position
	o.chain = append(o.chain, chainEntry{cm.Slot, cm.Lane, cm.Position, d, cm.AppHash})
}

func (l *replicaLog) add(b *types.Batch, txID func([]byte) (uint64, uint64, bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tx := range b.Txs {
		c, s, ok := txID(tx)
		if !ok {
			continue
		}
		bm := l.seen[c]
		w := int(s / 64)
		if w >= len(bm) {
			bm = append(bm, make([]uint64, w+1-len(bm)+len(bm)/2)...)
			l.seen[c] = bm
		}
		bit := uint64(1) << (s % 64)
		if bm[w]&bit != 0 {
			l.dups++
		}
		bm[w] |= bit
		l.txs++
	}
}

func (l *replicaLog) counts() (txs, dups uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.txs, l.dups
}

// missing counts the ids in want the replica has not committed.
func (l *replicaLog) missing(want idSet) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for c, wbm := range want {
		bm := l.seen[c]
		for i, w := range wbm {
			if i < len(bm) {
				w &^= bm[i]
			}
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// idSet names the transactions that must be committed exactly once: a
// bitmap over seq per client.
type idSet map[uint64][]uint64

func (s idSet) add(client, seq uint64) {
	bm := s[client]
	w := int(seq / 64)
	if w >= len(bm) {
		bm = append(bm, make([]uint64, w+1-len(bm))...)
		s[client] = bm
	}
	bm[w] |= uint64(1) << (seq % 64)
}

// awaitCommitted waits until every replica in healthy has committed every
// id in want, up to the deadline.
func (o *oracle) awaitCommitted(want idSet, healthy []int, deadline time.Time) {
	for _, r := range healthy {
		for o.logs[r].missing(want) > 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// check runs every correctness check that needs no workload knowledge and
// records failures on res: AppHash agreement, replica 0's chain
// continuity, the exec replay, and exactly-once for want at every healthy
// replica.
func (o *oracle) check(res *result, want idSet, healthy []int) {
	o.mu.Lock()
	if o.hashErr != "" {
		res.fail("AppHash agreement: %s", o.hashErr)
	}
	o.mu.Unlock()
	o.chainMu.Lock()
	if o.chainErr != "" {
		res.fail("commit order: %s", o.chainErr)
	}
	chain := o.chain
	o.chainMu.Unlock()
	if err := replayChain(chain); err != nil {
		res.fail("exec replay: %v", err)
	}
	for _, r := range healthy {
		lg := o.logs[r]
		if _, dups := lg.counts(); dups > 0 {
			res.fail("exactly-once: replica %d committed %d transactions more than once", r, dups)
		}
		if missing := lg.missing(want); missing > 0 {
			res.fail("exactly-once: replica %d never committed %d acknowledged transactions", r, missing)
		}
	}
}

// replayChain re-executes replica 0's commit sequence on a genesis
// machine. The AppHash chain is a function of the executed sequence
// alone, so the replay must reproduce every reported value.
func replayChain(chain []chainEntry) error {
	if len(chain) == 0 {
		return fmt.Errorf("replica 0 committed nothing")
	}
	m := exec.New()
	for i, e := range chain {
		if h := m.Apply(e.slot, e.lane, e.pos, e.digest, nil); h != e.appHash {
			return fmt.Errorf("entry %d (slot %d lane %d position %d): replay %x, replica %x",
				i, e.slot, e.lane, e.pos, h[:6], e.appHash[:6])
		}
	}
	return nil
}
