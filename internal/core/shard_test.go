package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/workload"
)

// shardedCluster is a real-time in-process cluster with the parallel
// data plane enabled: every replica runs W shard workers plus the
// control loop, connected by a transport.LocalMesh. Group commit against
// an in-memory journal is on, so the per-shard flush barrier (gated
// sends released after Journal.Sync) is exercised too.
type shardedCluster struct {
	mesh  *transport.LocalMesh
	nodes []*core.Node

	mu   sync.Mutex
	logs [][]logEntry
}

func newShardedCluster(t *testing.T, n, shards int) *shardedCluster {
	t.Helper()
	sc := &shardedCluster{mesh: transport.NewLocalMesh(), logs: make([][]logEntry, n)}
	committee := types.NewCommittee(n)
	suite := crypto.NewEd25519Suite(n, 7)
	sink := runtime.CommitSinkFunc(func(node types.NodeID, _ time.Duration, c runtime.Committed) {
		sc.mu.Lock()
		sc.logs[node] = append(sc.logs[node], logEntry{Lane: c.Lane, Pos: c.Position, Dig: c.Batch.Digest()})
		sc.mu.Unlock()
	})
	for i := 0; i < n; i++ {
		nd := core.NewNode(core.Config{
			Committee:      committee,
			Self:           types.NodeID(i),
			Suite:          suite,
			VerifySigs:     true,
			FastPath:       true,
			OptimisticTips: true,
			Shards:         shards,
			Journal:        core.NewMemJournal(),
			GroupCommit:    true,
			Sink:           sink,
		})
		sc.nodes = append(sc.nodes, nd)
		sc.mesh.AddNode(nd, time.Now())
	}
	return sc
}

func (sc *shardedCluster) stop() {
	sc.mesh.Stop()
	for i := range sc.nodes {
		sc.mesh.Loop(types.NodeID(i)).Join()
	}
}

// TestShardedClusterAgreesAndProgresses runs a 4-replica cluster with 4
// data shards per replica under sustained submission at every replica,
// then checks the invariants the shard↔consensus tip handoff must
// preserve: identical total order across replicas (prefix agreement),
// per-lane contiguous gap-free commit positions, and actual progress on
// every lane. Run with -race: this is the primary concurrency regression
// test for the parallel data plane.
func TestShardedClusterAgreesAndProgresses(t *testing.T) {
	const (
		n       = 4
		shards  = 4
		batches = 60
	)
	sc := newShardedCluster(t, n, shards)
	sc.mesh.Start()
	defer sc.stop()

	var seq [n]uint64
	for b := 0; b < batches; b++ {
		for i := 0; i < n; i++ {
			seq[i]++
			txs := []types.Transaction{make(types.Transaction, 64)}
			sc.mesh.Loop(types.NodeID(i)).Submit(types.NewBatch(types.NodeID(i), seq[i], txs, 0))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Wait until every replica commits every lane's full run (or time out).
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if sc.committedAll(n, batches) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	sc.mu.Lock()
	defer sc.mu.Unlock()
	checkPrefixAgreement(t, sc.logs)
	for r := range sc.logs {
		perLane := make(map[types.NodeID]types.Pos)
		for _, e := range sc.logs[r] {
			if e.Pos != perLane[e.Lane]+1 {
				t.Fatalf("replica %d: lane %s commits position %d after %d (gap)",
					r, e.Lane, e.Pos, perLane[e.Lane])
			}
			perLane[e.Lane] = e.Pos
		}
		if len(perLane) != n {
			t.Fatalf("replica %d: only %d of %d lanes committed anything", r, len(perLane), n)
		}
		for l, pos := range perLane {
			if pos == 0 {
				t.Fatalf("replica %d: lane %s never committed", r, l)
			}
		}
	}
	t.Logf("replica 0 committed %d entries", len(sc.logs[0]))
}

func (sc *shardedCluster) committedAll(n, batches int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for r := range sc.logs {
		perLane := make(map[types.NodeID]int)
		for _, e := range sc.logs[r] {
			perLane[e.Lane]++
		}
		for i := 0; i < n; i++ {
			// Mini-batching merges pending batches into cars, so the car
			// count per lane is <= batches; completion = every submitted
			// batch's payload committed. Count committed batches via
			// positions reached instead: all lanes must have committed
			// through their final car, which we can only bound loosely —
			// require at least one commit per lane and stable totals.
			if perLane[types.NodeID(i)] == 0 {
				return false
			}
		}
		if len(sc.logs[r]) < len(sc.logs[0]) {
			return false
		}
	}
	return true
}

// TestShardedNodeUnshardedRuntimeFallback pins the inline contract at
// W > 1: a node configured with Shards > 1 but driven by a runtime that
// ignores runtime.Sharder (everything delivered through OnMessage on one
// goroutine) must still be correct — data messages run the shard
// handlers inline and their notices apply at once, while control →
// shard events travel as self-addressed sends.
func TestShardedNodeUnshardedRuntimeFallback(t *testing.T) {
	c := newClusterWith(t, func(o *clusterOpts) {
		o.fastPath = true
		o.optimisticTips = true
		o.shards = 4 // sim engine ignores Sharder: exercises the fallback
	})
	workload.Install(c.engine, c.ids, workload.Config{
		TotalRate: 10000, Start: 0, End: 5 * time.Second,
	})
	c.engine.Run(8 * time.Second)
	checkPrefixAgreement(t, c.logs.logs)
	if total := c.recorder.Total(); total < 45_000 {
		t.Fatalf("fallback path committed only %d of ~50000 txs", total)
	}
}
