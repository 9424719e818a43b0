package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	mrand "math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	autobahn "repro"
	"repro/internal/gateway"
	"repro/internal/types"
)

const nReplicas = 4

// tcpSpec is one TCP workload: four Replicas over loopback, each with a
// group-commit WAL, execution and snapshots; gateways on replicas 0 and
// 1; one open-loop gateway.Client per generator goroutine.
type tcpSpec struct {
	rate float64 // aggregate offered tx/s
	// window is the per-client gateway window (server and client): what
	// one connection keeps in flight at its share of the rate, ~0.2 s of
	// it on tcp-gateway, and through the ~1.5 s blip on tcp-crash. The ack
	// queue stays at its default.
	window int
	// crash stops replica crashReplica crashAfter into the window and
	// restarts it from its WAL downFor later.
	crash bool
}

var (
	tcpGateway = tcpSpec{rate: 20_000, window: 2048}
	tcpCrash   = tcpSpec{rate: 10_000, window: 16384, crash: true}
)

const (
	tcpPayload   = 512
	tcpClients   = 2 // generator goroutines = connections = nproc
	gatewayCount = 2 // gateways on replicas 0 .. gatewayCount-1
	tcpBatchWait = 5 * time.Millisecond
	tcpSnapEvery = 32
	// ackTimeout is the client's resubmission timer: an ack the gateway
	// dropped surfaces as a commit this much later.
	ackTimeout = 10 * time.Second
	// latencyLimit is the ack latency beyond which a transaction counts as
	// missed.
	latencyLimit = time.Second
	warmup       = 2 * time.Second
	setups       = 3

	crashReplica = 3
	crashAfter   = time.Second
	downFor      = 2 * time.Second
)

// tcpCluster is one deployment plus its load clients.
type tcpCluster struct {
	spec  tcpSpec
	dir   string
	addrs map[types.NodeID]string
	or    *oracle

	mu      sync.Mutex // guards reps and retired across the crash
	reps    [nReplicas]*autobahn.Replica
	retired counters // totals of stopped incarnations

	clients []*loadClient
	join    joinTimer
	run     atomic.Pointer[tcpRun]

	drains sync.WaitGroup
	stops  [nReplicas]chan struct{}
}

// tcpRun is the state the commit hook needs once the load starts.
type tcpRun struct {
	clock   windowClock
	tr      *tracer // nil unless traced
	commits atomic.Uint64
}

// joinTimer measures rejoin_s: from the moment a replica is (re)started
// to its first commit.
type joinTimer struct {
	startedAt atomic.Pointer[time.Time]
	ns        atomic.Int64
}

func (j *joinTimer) begin() {
	j.ns.Store(0)
	now := time.Now()
	j.startedAt.Store(&now)
}

func (j *joinTimer) committed(now time.Time) {
	if s := j.startedAt.Load(); s != nil && j.ns.Load() == 0 {
		j.ns.CompareAndSwap(0, int64(now.Sub(*s)))
	}
}

func (j *joinTimer) seconds() float64 { return time.Duration(j.ns.Load()).Seconds() }

// onCommit is the oracle's hook: join timing, then the window's commit
// count and spans once the load runs.
func (c *tcpCluster) onCommit(cm autobahn.Committed, now time.Time) {
	if int(cm.Replica) == crashReplica {
		c.join.committed(now)
	}
	run := c.run.Load()
	if run == nil {
		return
	}
	if cm.Replica == 0 && run.clock.in(now) {
		run.commits.Add(uint64(cm.Batch.Count))
	}
	if run.tr != nil {
		run.tr.onCommit(cm, now)
		if int(cm.Replica) < gatewayCount {
			markGatewaySeen(c.clients, cm, now.UnixNano())
		}
	}
}

func freeAddrs(n int) (map[types.NodeID]string, error) {
	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[types.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func (c *tcpCluster) options(i int) autobahn.Options {
	o := autobahn.Options{
		N:             nReplicas,
		MaxBatchDelay: tcpBatchWait,
		Execution:     true,
		SnapshotEvery: tcpSnapEvery,
		WALPath:       filepath.Join(c.dir, fmt.Sprintf("r%d.wal", i)),
	}
	if i < gatewayCount {
		o.GatewayAddr = "127.0.0.1:0"
		o.Gateway = gateway.Options{Window: c.spec.window}
	}
	return o
}

func (c *tcpCluster) startReplica(i int, tamper bool) error {
	if i == crashReplica {
		c.join.begin()
	}
	r, err := autobahn.NewReplica(types.NodeID(i), c.addrs, c.options(i), log.New(io.Discard, "", 0))
	if err != nil {
		return err
	}
	r.SetCommitObserver(c.or.observe)
	if tamper {
		r.Node().TamperExecution()
	}
	if err := r.Start(); err != nil {
		r.Stop()
		return err
	}
	stop := make(chan struct{})
	c.mu.Lock()
	c.reps[i], c.stops[i] = r, stop
	c.mu.Unlock()
	c.drains.Add(1)
	go func() {
		defer c.drains.Done()
		drainCommits(r.Commits, stop)
	}()
	return nil
}

// drainCommits discards a Commits channel's deliveries (the oracle counts
// through the observer), so its 4096-entry buffer does not pin committed
// batches in the heap.
func drainCommits(ch <-chan autobahn.Committed, stop <-chan struct{}) {
	for {
		select {
		case <-ch:
		case <-stop:
			return
		}
	}
}

// stopReplica stops replica i and its drain, returning the stopped
// incarnation.
func (c *tcpCluster) stopReplica(i int) *autobahn.Replica {
	c.mu.Lock()
	r, stop := c.reps[i], c.stops[i]
	c.reps[i], c.stops[i] = nil, nil
	c.mu.Unlock()
	if r != nil {
		r.Stop()
		close(stop)
	}
	return r
}

// setUp builds and starts the cluster and its clients, and returns once
// each client has had one probe transaction acknowledged.
func setUpTCP(spec tcpSpec, dir string, or *oracle, cfg runConfig, payloads [][]byte) (*tcpCluster, error) {
	addrs, err := freeAddrs(nReplicas)
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{spec: spec, dir: dir, addrs: addrs, or: or, retired: counters{}}
	or.hook = c.onCommit
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < nReplicas; i++ {
		if err := c.startReplica(i, cfg.Tamper && i == 2); err != nil {
			c.tearDown()
			return nil, err
		}
	}
	for k := 0; k < tcpClients; k++ {
		// Seq 1 is the set-up probe; the generator's first gets 2.
		lc := &loadClient{id: uint64(k + 1), gw: k % gatewayCount, next: 2}
		cl, err := gateway.Dial(c.reps[lc.gw].Gateway().Addr(), gateway.ClientOptions{
			ID:          lc.id,
			Seed:        cfg.Seed*8 + uint64(k),
			Window:      spec.window,
			Priority:    gateway.PriorityNormal,
			AckTimeout:  ackTimeout,
			MaxAttempts: 1,
			OnOutcome:   lc.onOutcome,
		})
		if err != nil {
			c.tearDown()
			return nil, err
		}
		lc.cl = cl
		c.clients = append(c.clients, lc)
	}
	for _, lc := range c.clients {
		if out, err := lc.cl.SubmitWait(payloads[0]); err != nil || !out.Committed {
			c.tearDown()
			return nil, fmt.Errorf("probe through gateway %d: %v (%+v)", lc.gw, err, out)
		}
	}
	return c, nil
}

func (c *tcpCluster) tearDown() {
	for _, lc := range c.clients {
		lc.cl.Close()
	}
	for i := range c.reps {
		c.stopReplica(i)
	}
	c.drains.Wait()
}

func (c *tcpCluster) sample() counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := counters{}
	s.add(c.retired)
	for i, r := range c.reps {
		if r != nil {
			replicaCounters(s, i, r)
		}
	}
	return s
}

func replicaCounters(s counters, i int, r *autobahn.Replica) {
	s.node(i, r.Node())
	s.loop(r.LoopStats())
	for _, t := range r.TransportStats() {
		s.transport(t)
	}
	if gw := r.Gateway(); gw != nil {
		s.gateway(gw.Stats())
	}
}

func (c *tcpCluster) gauges() (mempool, lane int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.reps {
		if r == nil {
			continue
		}
		mempool = max(mempool, r.MempoolDepth())
		lane = max(lane, r.LaneDepth())
	}
	return mempool, lane
}

// crashAndRestart stops the crash replica, keeps its counters, and after
// the down window rebuilds it from the same WAL.
func (c *tcpCluster) crashAndRestart(clock windowClock) error {
	time.Sleep(time.Until(clock.start.Add(crashAfter)))
	old := c.stopReplica(crashReplica)
	c.mu.Lock()
	replicaCounters(c.retired, crashReplica, old)
	c.mu.Unlock()
	time.Sleep(downFor)
	return c.startReplica(crashReplica, false)
}

// loadClient is one generator goroutine's connection and its per-seq
// transaction records (seq is the client's submission number).
type loadClient struct {
	id uint64
	gw int
	cl *gateway.Client

	mu       sync.Mutex
	recs     []txRec
	next     uint64 // seq the next accepted Submit will get
	refusals []int64
}

// txRec is one transaction's span in Unix ns: due, Submit entered and
// returned, commit seen at the gateway replica (traced runs), and the
// client outcome. A zero sent marks a seq the generator never used.
type txRec struct {
	due, sent, returned, gwSeen, done int64
	status                            byte
	committed                         bool
}

func (lc *loadClient) onOutcome(out gateway.Outcome) {
	now := time.Now().UnixNano()
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if out.Seq < uint64(len(lc.recs)) {
		r := &lc.recs[out.Seq]
		r.done, r.status, r.committed = now, out.Status, out.Committed
	}
}

// generate sends this client's share of the open-loop schedule: tx i is
// due at loadStart + phase + i/rate, whatever happened to earlier ones.
func (lc *loadClient) generate(clock windowClock, rate float64, phase time.Duration, payloads [][]byte, rng *mrand.Rand) error {
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := clock.loadStart.Add(phase + time.Duration(i)*interval)
		if !due.Before(clock.end) {
			return nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		payload := payloads[rng.IntN(len(payloads))]
		sent := time.Now()
		lc.mu.Lock()
		seq := lc.next
		for uint64(len(lc.recs)) <= seq {
			lc.recs = append(lc.recs, txRec{})
		}
		lc.recs[seq] = txRec{due: due.UnixNano(), sent: sent.UnixNano()}
		lc.mu.Unlock()
		p, err := lc.cl.Submit(payload)
		ret := time.Now().UnixNano()
		lc.mu.Lock()
		switch {
		case err == nil:
			if p.Seq() != seq {
				lc.mu.Unlock()
				return fmt.Errorf("client %d: Submit assigned seq %d, expected %d", lc.id, p.Seq(), seq)
			}
			lc.recs[seq].returned = ret
			lc.next++
		case errors.Is(err, gateway.ErrWindowFull), errors.Is(err, gateway.ErrSuppressed):
			lc.recs[seq] = txRec{}
			lc.refusals = append(lc.refusals, due.UnixNano())
		default:
			lc.mu.Unlock()
			return fmt.Errorf("client %d: %w", lc.id, err)
		}
		lc.mu.Unlock()
	}
}

// markGatewaySeen records, for a traced run, when the gateway replica of
// each transaction's client committed it.
func markGatewaySeen(clients []*loadClient, cm autobahn.Committed, now int64) {
	for _, tx := range cm.Batch.Txs {
		cid, seq, ok := gateway.ParseTx(tx)
		if !ok || cid == 0 || cid > uint64(len(clients)) {
			continue
		}
		lc := clients[cid-1]
		if lc.gw != int(cm.Replica) {
			continue
		}
		lc.mu.Lock()
		if seq < uint64(len(lc.recs)) && lc.recs[seq].gwSeen == 0 {
			lc.recs[seq].gwSeen = now
		}
		lc.mu.Unlock()
	}
}

// submitted is the tracer's view of when a batch's transactions left
// their clients: Submit returned.
func (c *tcpCluster) submitted(b *types.Batch) (int64, bool) {
	var m meanNs
	for _, tx := range b.Txs {
		cid, seq, ok := gateway.ParseTx(tx)
		if !ok || cid == 0 || cid > uint64(len(c.clients)) {
			continue
		}
		lc := c.clients[cid-1]
		lc.mu.Lock()
		if seq < uint64(len(lc.recs)) && lc.recs[seq].returned != 0 {
			m.add(lc.recs[seq].returned)
		}
		lc.mu.Unlock()
	}
	return m.mean()
}

// makePayloads derives the run's payloads from the seed.
func makePayloads(seed uint64, count, size int) [][]byte {
	rng := mrand.New(mrand.NewPCG(seed, 0x7061796c6f616473))
	out := make([][]byte, count)
	for i := range out {
		p := make([]byte, size)
		for j := 0; j < size; j += 8 {
			v := rng.Uint64()
			for b := 0; b < 8 && j+b < size; b++ {
				p[j+b] = byte(v >> (8 * b))
			}
		}
		out[i] = p
	}
	return out
}

func runTCP(cfg runConfig, spec tcpSpec) (*result, error) {
	payloads := makePayloads(cfg.Seed, 1024, tcpPayload)

	// Set up several times and report the median; only the last cluster
	// carries the run.
	var setupTimes, joinTimes []float64
	var c *tcpCluster
	var or *oracle
	for k := 0; k < setups; k++ {
		or = newOracle(nReplicas, gateway.ParseTx)
		t0 := time.Now()
		cl, err := setUpTCP(spec, filepath.Join(cfg.Dir, fmt.Sprintf("setup%d", k)), or, cfg, payloads)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		joinTimes = append(joinTimes, cl.join.seconds())
		if k < setups-1 {
			cl.tearDown()
			if err := os.RemoveAll(cl.dir); err != nil {
				return nil, err
			}
			continue
		}
		c = cl
	}
	defer c.tearDown()
	or.dupCommit.Store(cfg.DupCommit)

	clock := newWindowClock(warmup, cfg.window())
	run := &tcpRun{clock: clock}
	if cfg.Trace {
		run.tr = newTracer(nReplicas, clock, c.submitted)
	}
	c.run.Store(run)

	// Generators and the crash schedule.
	var wg sync.WaitGroup
	errs := make(chan error, tcpClients+1)
	perClient := spec.rate / tcpClients
	for k, lc := range c.clients {
		rng := mrand.New(mrand.NewPCG(cfg.Seed, uint64(k)))
		phase := time.Duration(float64(time.Second) / spec.rate * float64(k))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lc.generate(clock, perClient, phase, payloads, rng); err != nil {
				errs <- err
			}
		}()
	}
	if spec.crash {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.crashAndRestart(clock); err != nil {
				errs <- fmt.Errorf("restart: %w", err)
			}
		}()
	}

	var before, after counters
	proc, smp := measureWindow(clock, c.gauges, func() { before = c.sample() }, func() { after = c.sample() })
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	// Drain: every submission resolves (a dropped ack resolves when its
	// resubmission is answered from the dedup window).
	drainBy := time.Now().Add(ackTimeout + 5*time.Second)
	for time.Now().Before(drainBy) {
		inflight := 0
		for _, lc := range c.clients {
			inflight += lc.cl.InFlight()
		}
		if inflight == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	res := &result{}
	acct := accountTCP(c.clients, clock)
	res.Attempted, res.Failed = acct.attempted, acct.failed

	healthy := []int{0, 1, 2, 3}
	if spec.crash {
		healthy = []int{0, 1, 2}
		if c.join.ns.Load() == 0 {
			res.fail("replica %d never committed after its restart", crashReplica)
		}
	}
	or.awaitCommitted(acct.acked, healthy, time.Now().Add(10*time.Second))
	or.check(res, acct.acked, healthy)
	final := c.sample()
	if final["gw_chain_dups"] != 0 {
		res.fail("gateway ChainDups = %d, want 0", final["gw_chain_dups"])
	}
	if res.Attempted == 0 {
		res.fail("no transaction was due in the window")
	}
	committed := run.commits.Load()
	if committed == 0 {
		res.fail("replica 0 committed nothing in the window")
	}
	c.tearDown()
	walBytes, err := dirBytes(c.dir, ".wal")
	if err != nil {
		return nil, err
	}
	if len(res.Failures) > 0 {
		return res, nil
	}

	secs := clock.seconds()
	cpuPerK := ms(proc.cpu) / (float64(committed) / 1000)
	if !cfg.Trace {
		res.add("setup_s", median(setupTimes), "s")
		res.add("acked_tps", float64(acct.ackedInWindow)/secs, "1/s")
		res.add("commit_tps", float64(committed)/secs, "1/s")
		res.add("ack_p50_ms", quantile(acct.latMs, 0.5), "ms")
		res.add("ack_p99_ms", quantile(acct.latMs, 0.99), "ms")
		res.add("on_time_ratio", 1-ratio(float64(acct.missed), float64(acct.attempted)), "ratio")
		res.add("cpu_ms_per_ktx", cpuPerK, "ms/ktx")
		rejoin := median(joinTimes)
		if spec.crash {
			rejoin = c.join.seconds()
		}
		res.add("rejoin_s", rejoin, "s")
		if lag := quantile(acct.lagMs, 0.99); lag > quantile(acct.latMs, 0.5)/4 {
			fmt.Fprintf(os.Stderr, "perfbench: warning: generator lag p99 %.2f ms is not well below ack p50\n", lag)
		}
		return res, nil
	}

	tr := run.tr
	rt, err := tr.replay(cfg.Dir, true)
	if err != nil {
		return nil, err
	}
	d := after.since(before)
	layers := layerInputs{
		d: d, committed: committed, secs: secs, proc: proc, smp: smp,
		batches: tr.batchStats(healthy), replay: rt,
		walBytesPerTx: ratio(float64(walBytes), float64(final["r0.txs"])),
		tcp:           &acct, cpuPerK: cpuPerK, ackP50: quantile(acct.latMs, 0.5),
	}
	res.Metrics = layerMetrics(layers)
	if err := tr.dump(filepath.Join(cfg.Dir, "batches.csv")); err != nil {
		return nil, err
	}
	if err := dumpTxSpans(filepath.Join(cfg.Dir, "txs.csv"), c.clients, clock.loadStart); err != nil {
		return nil, err
	}
	return res, nil
}

// tcpAccount is the client-side view of the window: transactions due in
// it, their fates and latencies from the due time.
type tcpAccount struct {
	attempted, failed, missed uint64
	ackedInWindow             uint64
	acked                     idSet
	latMs, lagMs              []float64
	commitToAckMs, submitUs   []float64
}

func accountTCP(clients []*loadClient, clock windowClock) tcpAccount {
	a := tcpAccount{acked: idSet{}}
	from, to := clock.start.UnixNano(), clock.end.UnixNano()
	limit := int64(latencyLimit)
	for _, lc := range clients {
		lc.mu.Lock()
		for seq, r := range lc.recs {
			if r.committed {
				a.acked.add(lc.id, uint64(seq))
				if r.done >= from && r.done < to {
					a.ackedInWindow++
				}
			}
			if r.sent == 0 || r.due < from || r.due >= to {
				continue
			}
			a.attempted++
			a.lagMs = append(a.lagMs, float64(r.sent-r.due)/1e6)
			a.submitUs = append(a.submitUs, float64(r.returned-r.sent)/1e3)
			switch {
			case !r.committed:
				a.failed++
				a.missed++
			default:
				lat := r.done - r.due
				a.latMs = append(a.latMs, float64(lat)/1e6)
				if lat > limit {
					a.missed++
				}
				if r.gwSeen != 0 {
					a.commitToAckMs = append(a.commitToAckMs, float64(r.done-r.gwSeen)/1e6)
				}
			}
		}
		for _, due := range lc.refusals {
			if due >= from && due < to {
				a.attempted++
				a.failed++
				a.missed++
			}
		}
		lc.mu.Unlock()
	}
	return a
}

// dirBytes sums the sizes of the files in dir whose names contain substr.
func dirBytes(dir, substr string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !strings.Contains(e.Name(), substr) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
