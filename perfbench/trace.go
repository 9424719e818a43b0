package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	autobahn "repro"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wire"
)

// tracer is the traced run's in-memory record: one span per committed
// batch (MeanArrival -> CreatedAt at the origin, then the commit at every
// replica), plus a bounded sample of replica 0's committed batches for the
// replays. Spans are dumped at exit.
type tracer struct {
	n     int
	clock windowClock
	// submitted returns the mean submission time (Unix ns) of a batch's
	// transactions, false if it knows none of them.
	submitted func(b *types.Batch) (int64, bool)

	mu sync.Mutex
	// epochs estimates each replica's epoch in Unix ns as the least
	// (observer time - Committed.At) seen: the mempool stamps batches in
	// epoch offsets, and only its real-time origin makes them comparable
	// with submission times.
	epochs  []int64
	batches map[lanePos]*batchSpan
	sample  []sampledEntry
	sampled int // payload bytes in sample
}

// batchSpan times are the origin replica's epoch offsets (MeanArrival,
// CreatedAt, its own commit At), the mean submission time of its
// transactions, and the observer's wall clock at each replica's commit
// (one process, one clock).
type batchSpan struct {
	origin                 types.NodeID
	count                  uint32
	meanArrival, createdAt time.Duration
	submitted              int64 // mean submission time of its txs, Unix ns
	atOrigin               time.Duration
	originSeen             bool
	seen                   []time.Time
}

type sampledEntry struct {
	slot  types.Slot
	lane  types.NodeID
	pos   types.Pos
	batch *types.Batch
}

// sampleBudget bounds the payload bytes retained for the replays, so the
// traced run's heap grows by at most this much.
const sampleBudget = 8 << 20

func newTracer(n int, clock windowClock, submitted func(*types.Batch) (int64, bool)) *tracer {
	return &tracer{n: n, clock: clock, submitted: submitted, epochs: make([]int64, n), batches: make(map[lanePos]*batchSpan)}
}

func (t *tracer) onCommit(cm autobahn.Committed, now time.Time) {
	key := lanePos{cm.Lane, cm.Position}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := now.UnixNano() - int64(cm.At); t.epochs[cm.Replica] == 0 || e < t.epochs[cm.Replica] {
		t.epochs[cm.Replica] = e
	}
	sp := t.batches[key]
	if sp == nil {
		sp = &batchSpan{
			origin: cm.Batch.Origin, count: cm.Batch.Count,
			meanArrival: cm.Batch.MeanArrival, createdAt: cm.Batch.CreatedAt,
			seen: make([]time.Time, t.n),
		}
		sp.submitted, _ = t.submitted(cm.Batch)
		t.batches[key] = sp
	}
	if sp.seen[cm.Replica].IsZero() {
		sp.seen[cm.Replica] = now
	}
	if cm.Replica == cm.Batch.Origin && !sp.originSeen {
		sp.atOrigin, sp.originSeen = cm.At, true
	}
	if cm.Replica == 0 && t.clock.in(now) && t.sampled < sampleBudget {
		t.sample = append(t.sample, sampledEntry{cm.Slot, cm.Lane, cm.Position, cm.Batch})
		t.sampled += int(cm.Batch.Bytes)
	}
}

// batchLayers are the per-batch span statistics over batches replica 0
// committed inside the window.
type batchLayers struct {
	batchWaitMs                      float64 // mean CreatedAt - MeanArrival
	txsPerBatch                      float64
	sealToCommitP50, sealToCommitP99 float64 // ms, at the origin
	commitSkewMs                     float64 // median spread across healthy replicas
}

func (t *tracer) batchStats(healthy []int) batchLayers {
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits, seal, skew []float64
	var txs, batches uint64
	for _, sp := range t.batches {
		if !t.clock.in(sp.seen[0]) {
			continue
		}
		txs += uint64(sp.count)
		batches++
		if sp.submitted != 0 {
			sealed := t.epochs[sp.origin] + int64(sp.createdAt)
			waits = append(waits, float64(sealed-sp.submitted)/1e6)
		}
		if sp.originSeen {
			seal = append(seal, ms(sp.atOrigin-sp.createdAt))
		}
		lo, hi, all := sp.seen[0], sp.seen[0], true
		for _, r := range healthy {
			s := sp.seen[r]
			if s.IsZero() {
				all = false
				break
			}
			if s.Before(lo) {
				lo = s
			}
			if s.After(hi) {
				hi = s
			}
		}
		if all {
			skew = append(skew, ms(hi.Sub(lo)))
		}
	}
	var b batchLayers
	var sum float64
	for _, w := range waits {
		sum += w
	}
	b.batchWaitMs = ratio(sum, float64(len(waits)))
	b.txsPerBatch = ratio(float64(txs), float64(batches))
	b.sealToCommitP50 = quantile(seal, 0.5)
	b.sealToCommitP99 = quantile(seal, 0.99)
	b.commitSkewMs = median(skew)
	return b
}

// dump writes the batch spans as CSV: lane, position, origin, count, the
// origin-epoch offsets, the mean submission time of its transactions, then
// each replica's commit time; times are since load start, empty if never
// reached.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "lane,position,origin,txs,mean_arrival_ns,created_at_ns,origin_commit_at_ns,mean_submitted_ns")
	for r := 0; r < t.n; r++ {
		fmt.Fprintf(w, ",seen_r%d_ns", r)
	}
	fmt.Fprintln(w)
	for k, sp := range t.batches {
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,", k.lane, k.pos, sp.origin, sp.count, sp.meanArrival, sp.createdAt, sp.atOrigin)
		if sp.submitted != 0 {
			fmt.Fprint(w, sp.submitted-t.clock.loadStart.UnixNano())
		}
		for _, s := range sp.seen {
			if s.IsZero() {
				fmt.Fprint(w, ",")
			} else {
				fmt.Fprintf(w, ",%d", s.Sub(t.clock.loadStart))
			}
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- replays ---

// replayTimes are the layer costs timed by replaying the run's sampled
// committed batches through each layer's public functions.
type replayTimes struct {
	decodeNsPerKB, encodeNsPerKB float64 // wire, per KB of encoded car
	applyNsPerTx                 float64
	snapshotBuildMs              float64
	snapshotVerifyMs             float64
	putFlushUs                   float64 // one journal record + flush
	verifyUs, poaVerifyUs        float64
	loopbackWriteUs              float64 // one small frame written to loopback TCP
}

// replay times the layers. wireAndStorage is false for a workload whose
// path has neither a wire codec nor a journal: those replays are skipped
// and report zero.
func (t *tracer) replay(dir string, wireAndStorage bool) (replayTimes, error) {
	t.mu.Lock()
	sample := t.sample
	t.mu.Unlock()
	var rt replayTimes
	if len(sample) == 0 {
		return rt, fmt.Errorf("replay: no batches sampled in the window")
	}
	// The replicas' keys (Options.Seed 0 resolves to key seed 1).
	suite := crypto.NewEd25519Suite(nReplicas, 1)
	committee := types.NewCommittee(nReplicas)
	cars := buildCars(sample, suite, committee)

	// exec: apply every sampled batch on a genesis machine.
	m := exec.New()
	var txs uint64
	start := time.Now()
	for i, e := range sample {
		m.Apply(e.slot, e.lane, e.pos, cars[i].Digest(), e.batch)
		txs += uint64(e.batch.Count)
	}
	rt.applyNsPerTx = ratio(float64(time.Since(start)), float64(txs))

	// exec: snapshot build (Serialize + BuildManifest) and verify.
	var builds, verifies []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		state := m.Serialize()
		man := exec.BuildManifest(types.Slot(len(sample)), make([]types.Pos, nReplicas), make([]types.Digest, nReplicas), m.AppHash(), m.Count(), state)
		t1 := time.Now()
		if err := man.VerifyState(state); err != nil {
			return rt, fmt.Errorf("replay: snapshot verify: %w", err)
		}
		builds = append(builds, ms(t1.Sub(t0)))
		verifies = append(verifies, ms(time.Since(t1)))
	}
	rt.snapshotBuildMs, rt.snapshotVerifyMs = median(builds), median(verifies)

	// crypto: every share of each sampled car's PoA, then the PoA whole.
	v := suite.Verifier()
	var shares, poas int
	var verifyTime, poaTime time.Duration
	for _, c := range cars {
		poa := c.ParentPoA
		if poa == nil {
			continue
		}
		msg := poa.SigningBytes()
		t0 := time.Now()
		for _, s := range poa.Shares {
			if !v.Verify(s.Signer, msg, s.Sig) {
				return rt, fmt.Errorf("replay: share of signer %d does not verify", s.Signer)
			}
		}
		t1 := time.Now()
		if err := crypto.VerifyPoA(v, committee, poa); err != nil {
			return rt, fmt.Errorf("replay: %w", err)
		}
		verifyTime += t1.Sub(t0)
		poaTime += time.Since(t1)
		shares += len(poa.Shares)
		poas++
	}
	rt.verifyUs = ratio(float64(verifyTime)/1e3, float64(shares))
	rt.poaVerifyUs = ratio(float64(poaTime)/1e3, float64(poas))

	if !wireAndStorage {
		return rt, nil
	}
	// wire: encode every sampled car into a pooled buffer, as the TCP mesh
	// does once per message, then decode it.
	var enc, dec time.Duration
	var bytes int
	encoded := make([][]byte, len(cars))
	for i, c := range cars {
		t0 := time.Now()
		buf := wire.GetBuf(wire.SizeHint(c))
		var err error
		buf.B, err = wire.EncodeTo(buf.B, c)
		enc += time.Since(t0)
		if err != nil {
			buf.Release()
			return rt, fmt.Errorf("replay: encode: %w", err)
		}
		encoded[i] = append([]byte(nil), buf.B...)
		buf.Release()
		t1 := time.Now()
		got, err := wire.DecodeFrom(encoded[i])
		dec += time.Since(t1)
		if err != nil {
			return rt, fmt.Errorf("replay: decode: %w", err)
		}
		if got.(*types.Proposal).Digest() != c.Digest() {
			return rt, fmt.Errorf("replay: decoded car differs at lane %d position %d", c.Lane, c.Position)
		}
		bytes += len(encoded[i])
	}
	kb := float64(bytes) / 1024
	rt.encodeNsPerKB, rt.decodeNsPerKB = ratio(float64(enc), kb), ratio(float64(dec), kb)

	// storage: journal every encoded car as one record with its own flush
	// (the group-commit barrier), in a fresh store.
	path := filepath.Join(dir, "replay.wal")
	st, err := storage.Open(path)
	if err != nil {
		return rt, fmt.Errorf("replay: %w", err)
	}
	key := make([]byte, 9)
	start = time.Now()
	for i, buf := range encoded {
		key[0] = 'p'
		binary.LittleEndian.PutUint64(key[1:], uint64(i))
		if err := st.Put(key, buf); err != nil {
			st.Close()
			return rt, fmt.Errorf("replay: %w", err)
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return rt, fmt.Errorf("replay: %w", err)
		}
	}
	rt.putFlushUs = ratio(float64(time.Since(start))/1e3, float64(len(encoded)))
	if err := st.Close(); err != nil {
		return rt, fmt.Errorf("replay: %w", err)
	}
	if err := os.Remove(path); err != nil {
		return rt, err
	}
	rt.loopbackWriteUs, err = loopbackWrites(loopbackFrames, loopbackFrameSize)
	return rt, err
}

// The loopback replay sends frames the size of an ack or a vote: most of
// the TCP path's system calls move a few dozen bytes, so their cost is
// the call, not the copy.
const (
	loopbackFrames    = 20000
	loopbackFrameSize = 64
)

// loopbackWrites writes count frames of size bytes to a loopback TCP
// connection, one Write call each, with a reader draining the other end,
// and returns the mean time inside Write in microseconds: the kernel's
// charge per system call.
func loopbackWrites(count, size int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	drained := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			drained <- err
			return
		}
		defer conn.Close()
		_, err = io.Copy(io.Discard, conn)
		drained <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	frame := make([]byte, size)
	var spent time.Duration
	for i := 0; i < count; i++ {
		t0 := time.Now()
		if _, err := conn.Write(frame); err != nil {
			conn.Close()
			return 0, err
		}
		spent += time.Since(t0)
	}
	if err := conn.Close(); err != nil {
		return 0, err
	}
	if err := <-drained; err != nil {
		return 0, err
	}
	return ratio(float64(spent)/1e3, float64(count)), nil
}

// buildCars rebuilds signed cars around the sampled batches: each car
// carries its proposer's signature and a PoA over the previous sampled car
// of its lane, signed by f+1 replicas, as the lane protocol would.
func buildCars(sample []sampledEntry, suite crypto.Suite, committee types.Committee) []*types.Proposal {
	cars := make([]*types.Proposal, len(sample))
	prev := map[types.NodeID]*types.Proposal{}
	for i, e := range sample {
		c := &types.Proposal{Lane: e.lane, Position: e.pos, Batch: e.batch}
		if p := prev[e.lane]; p != nil {
			c.Parent = p.Digest()
			poa := &types.PoA{Lane: p.Lane, Position: p.Position, Digest: c.Parent}
			msg := poa.SigningBytes()
			for s := 0; s < committee.PoAQuorum(); s++ {
				id := types.NodeID(s)
				poa.Shares = append(poa.Shares, types.SigShare{Signer: id, Sig: suite.Signer(id).Sign(msg)})
			}
			c.ParentPoA = poa
		}
		c.Sig = suite.Signer(e.lane).Sign(c.SigningBytes())
		prev[e.lane] = c
		cars[i] = c
	}
	return cars
}
