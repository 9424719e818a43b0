package main

import (
	"encoding/binary"
	"fmt"
	mrand "math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/types"
)

// inproc-saturate: an n=4 LiveCluster (execution and snapshots on; no
// gateway, no wire codec, no journal) fed 128 B transactions by one
// closed-loop goroutine calling SubmitMany round-robin, with at most
// inprocBacklog transactions submitted but not yet committed at replica 0.
const (
	inprocPayload   = 128
	inprocBurst     = 64
	inprocBacklog   = 1 << 17
	inprocSnapEvery = 64
	// inprocProbe is the default MaxBatchTxs.
	inprocProbe = 1000
)

// inprocTxID reads the generator's id from a transaction's first 8 bytes.
func inprocTxID(tx []byte) (uint64, uint64, bool) {
	if len(tx) < 8 {
		return 0, 0, false
	}
	return 0, binary.LittleEndian.Uint64(tx), true
}

type inprocCluster struct {
	lc   *autobahn.LiveCluster
	or   *oracle
	join joinTimer

	committed atomic.Uint64 // at replica 0, whole run
	run       atomic.Pointer[inprocRun]

	stopDrain, drained chan struct{}
	stopOnce           sync.Once
}

func (c *inprocCluster) stop() {
	c.stopOnce.Do(func() {
		c.lc.Stop()
		close(c.stopDrain)
		<-c.drained
	})
}

type inprocRun struct {
	clock   windowClock
	tr      *tracer
	commits atomic.Uint64

	mu  sync.Mutex
	lat []weighted // seal -> commit at replica 0, per batch
	// burstAt[k] is when the burst holding ids inprocProbe+k*inprocBurst ..
	// was submitted (Unix ns); traced runs only.
	burstAt []int64
}

// submitted is the tracer's view of when a batch's transactions were
// handed to SubmitMany.
func (run *inprocRun) submitted(b *types.Batch) (int64, bool) {
	var m meanNs
	run.mu.Lock()
	defer run.mu.Unlock()
	for _, tx := range b.Txs {
		_, id, _ := inprocTxID(tx)
		if k := (id - inprocProbe) / inprocBurst; id >= inprocProbe && k < uint64(len(run.burstAt)) {
			m.add(run.burstAt[k])
		}
	}
	return m.mean()
}

func (c *inprocCluster) onCommit(cm autobahn.Committed, now time.Time) {
	if int(cm.Replica) == crashReplica {
		c.join.committed(now)
	}
	if cm.Replica == 0 {
		c.committed.Add(uint64(cm.Batch.Count))
	}
	run := c.run.Load()
	if run == nil {
		return
	}
	if cm.Replica == 0 && run.clock.in(now) {
		run.commits.Add(uint64(cm.Batch.Count))
		run.mu.Lock()
		run.lat = append(run.lat, weighted{ms(cm.At - cm.Batch.CreatedAt), uint64(cm.Batch.Count)})
		run.mu.Unlock()
	}
	if run.tr != nil {
		run.tr.onCommit(cm, now)
	}
}

func newInprocTx(id uint64, pool [][]byte, rng *mrand.Rand) []byte {
	tx := make([]byte, inprocPayload)
	copy(tx, pool[rng.IntN(len(pool))])
	binary.LittleEndian.PutUint64(tx, id)
	return tx
}

// setUpInproc builds and starts the cluster and returns once every
// replica committed the probe: one full batch (ids 0 .. inprocProbe-1),
// which seals at once instead of waiting out the batch delay.
func setUpInproc(cfg runConfig, or *oracle, probe [][]byte) (*inprocCluster, error) {
	lc, err := autobahn.NewLiveCluster(autobahn.Options{N: nReplicas, Execution: true, SnapshotEvery: inprocSnapEvery})
	if err != nil {
		return nil, err
	}
	c := &inprocCluster{lc: lc, or: or}
	or.hook = c.onCommit
	lc.SetCommitObserver(or.observe)
	if cfg.Tamper {
		lc.Node(2).TamperExecution()
	}
	c.join.begin()
	lc.Start()
	c.stopDrain = make(chan struct{})
	c.drained = make(chan struct{})
	go func() {
		defer close(c.drained)
		drainCommits(lc.Commits, c.stopDrain)
	}()
	if err := lc.SubmitMany(0, probe); err != nil {
		c.stop()
		return nil, err
	}
	want := idSet{}
	for id := range probe {
		want.add(0, uint64(id))
	}
	deadline := time.Now().Add(10 * time.Second)
	for r := 0; r < nReplicas; r++ {
		for or.logs[r].missing(want) > 0 {
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("replica %d never committed the probe", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return c, nil
}

func runInproc(cfg runConfig) (*result, error) {
	pool := makePayloads(cfg.Seed, 1024, inprocPayload)
	rng := mrand.New(mrand.NewPCG(cfg.Seed, 0))

	var setupTimes, joinTimes []float64
	var c *inprocCluster
	var or *oracle
	for k := 0; k < setups; k++ {
		or = newOracle(nReplicas, inprocTxID)
		probe := make([][]byte, inprocProbe)
		for id := range probe {
			probe[id] = newInprocTx(uint64(id), pool, rng)
		}
		t0 := time.Now()
		cl, err := setUpInproc(cfg, or, probe)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		joinTimes = append(joinTimes, cl.join.seconds())
		if k < setups-1 {
			cl.stop()
			continue
		}
		c = cl
	}
	defer c.stop()
	or.dupCommit.Store(cfg.DupCommit)

	clock := newWindowClock(warmup, cfg.window())
	run := &inprocRun{clock: clock}
	if cfg.Trace {
		run.tr = newTracer(nReplicas, clock, run.submitted)
	}
	c.run.Store(run)

	// The closed-loop submitter: bursts round-robin over replicas while
	// the backlog at replica 0 is under inprocBacklog.
	var sent, attempted atomic.Uint64
	sent.Store(inprocProbe)
	done := make(chan struct{})
	go func() {
		defer close(done)
		burst := make([][]byte, inprocBurst)
		for to := 0; ; to = (to + 1) % nReplicas {
			now := time.Now()
			if !now.Before(clock.end) {
				return
			}
			next := sent.Load()
			if next >= c.committed.Load()+inprocBacklog {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			for j := range burst {
				burst[j] = newInprocTx(next+uint64(j), pool, rng)
			}
			if err := c.lc.SubmitMany(types.NodeID(to), burst); err != nil {
				panic(err) // only an out-of-range replica is refused
			}
			sent.Add(inprocBurst)
			if cfg.Trace {
				run.mu.Lock()
				run.burstAt = append(run.burstAt, now.UnixNano())
				run.mu.Unlock()
			}
			if clock.in(now) {
				attempted.Add(inprocBurst)
			}
		}
	}()

	gauges := func() (mempool, lane int) {
		for i := 0; i < nReplicas; i++ {
			mempool = max(mempool, c.lc.GatewayBackend(types.NodeID(i)).MempoolDepth())
			lane = max(lane, c.lc.Node(types.NodeID(i)).LaneDepth())
		}
		return mempool, lane
	}
	var before, after counters
	proc, smp := measureWindow(clock, gauges, func() { before = c.sample() }, func() { after = c.sample() })
	<-done

	res := &result{Attempted: attempted.Load()}
	want := idSet{}
	total := sent.Load()
	for id := uint64(0); id < total; id++ {
		want.add(0, id)
	}
	healthy := []int{0, 1, 2, 3}
	or.awaitCommitted(want, healthy, time.Now().Add(30*time.Second))
	or.check(res, want, healthy)
	committed := run.commits.Load()
	if committed == 0 {
		res.fail("replica 0 committed nothing in the window")
	}
	c.stop() // the replays below run on an idle host
	if len(res.Failures) > 0 {
		return res, nil
	}

	secs := clock.seconds()
	cpuPerK := ms(proc.cpu) / (float64(committed) / 1000)
	run.mu.Lock()
	lat := run.lat
	run.mu.Unlock()
	var late uint64
	for _, l := range lat {
		if l.v > ms(latencyLimit) {
			late += l.w
		}
	}
	p50 := weightedQuantile(lat, 0.5)
	if !cfg.Trace {
		res.add("setup_s", median(setupTimes), "s")
		res.add("acked_tps", float64(committed)/secs, "1/s")
		res.add("commit_tps", float64(committed)/secs, "1/s")
		res.add("ack_p50_ms", p50, "ms")
		res.add("ack_p99_ms", weightedQuantile(lat, 0.99), "ms")
		res.add("on_time_ratio", 1-ratio(float64(late), float64(committed)), "ratio")
		res.add("cpu_ms_per_ktx", cpuPerK, "ms/ktx")
		res.add("rejoin_s", median(joinTimes), "s")
		return res, nil
	}
	rt, err := run.tr.replay(cfg.Dir, false)
	if err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(layerInputs{
		d: after.since(before), committed: committed, secs: secs, proc: proc, smp: smp,
		batches: run.tr.batchStats(healthy), replay: rt,
		cpuPerK: cpuPerK, ackP50: p50,
	})
	return res, run.tr.dump(cfg.Dir + "/batches.csv")
}

func (c *inprocCluster) sample() counters {
	s := counters{}
	for i := 0; i < nReplicas; i++ {
		id := types.NodeID(i)
		s.node(i, c.lc.Node(id))
		s.loop(c.lc.LoopStats(id))
		control, data := c.lc.PlaneBytes(id)
		s["control_bytes"] += control
		s["data_bytes"] += data
	}
	return s
}
