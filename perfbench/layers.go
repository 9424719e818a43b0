package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// layerInputs is everything a traced run measured.
type layerInputs struct {
	d         counters // counter deltas over the window
	committed uint64   // transactions replica 0 committed in the window
	secs      float64
	proc      procSample
	smp       *sampler
	batches   batchLayers
	replay    replayTimes
	// walBytesPerTx is WAL plus snapshot bytes on disk after the run over
	// every transaction replica 0 committed (0 without a journal).
	walBytesPerTx float64
	tcp           *tcpAccount // nil without gateway clients
	// cpuPerK and ackP50 are the traced run's own end-to-end figures;
	// against the untraced run they give the tracing overhead.
	cpuPerK, ackP50 float64
}

// layerMetrics returns the per-layer metrics, in path order. Every
// workload reports every name; a layer the workload does not exercise
// reads 0.
func layerMetrics(l layerInputs) []metric {
	d, tx := l.d, l.committed
	var r result
	var gw tcpAccount
	if l.tcp != nil {
		gw = *l.tcp
	}
	r.add("gateway.ack_drops_per_ktx", perK(d["gw_ack_drops"], tx), "1/ktx")
	r.add("gateway.rejected_per_ktx", perK(d["gw_rejected"], tx), "1/ktx")
	r.add("gateway.commit_to_ack_p50_ms", quantile(gw.commitToAckMs, 0.5), "ms")
	r.add("gateway.commit_to_ack_p99_ms", quantile(gw.commitToAckMs, 0.99), "ms")
	r.add("gateway.submit_us", mean(gw.submitUs), "us")
	r.add("loadgen.lag_ms", quantile(gw.lagMs, 0.99), "ms")
	r.add("loadgen.fail_ratio", ratio(float64(gw.failed), float64(gw.attempted)), "ratio")

	r.add("mempool.batch_wait_ms", l.batches.batchWaitMs, "ms")
	r.add("mempool.txs_per_batch", l.batches.txsPerBatch, "count")
	r.add("mempool.depth_max", float64(l.smp.mempoolMax), "count")

	r.add("core.seal_to_commit_p50_ms", l.batches.sealToCommitP50, "ms")
	r.add("core.seal_to_commit_p99_ms", l.batches.sealToCommitP99, "ms")
	r.add("lane.depth_max", float64(l.smp.laneDepthMax), "count")
	r.add("lane.votes_per_batch", ratio(float64(d["votes"]), float64(d["proposed"])), "count")
	r.add("consensus.slots_per_s", float64(d["r0.slots"])/l.secs, "1/s")
	r.add("consensus.txs_per_slot", ratio(float64(d["r0.txs"]), float64(d["r0.slots"])), "count")
	r.add("consensus.timeouts", float64(d["timeouts"]), "count")
	r.add("order.commit_skew_ms", l.batches.commitSkewMs, "ms")

	r.add("crypto.cert_cache_hit_ratio", ratio(float64(d["cert_hits"]), float64(d["cert_hits"]+d["cert_misses"])), "ratio")
	r.add("crypto.verify_us", l.replay.verifyUs, "us")
	r.add("crypto.poa_verify_us", l.replay.poaVerifyUs, "us")

	r.add("transport.data_bytes_per_tx", ratio(float64(d["data_bytes"]), float64(tx)), "B")
	r.add("transport.control_bytes_per_tx", ratio(float64(d["control_bytes"]), float64(tx)), "B")
	r.add("transport.frames_per_flush", ratio(float64(d["frames"]), float64(d["flushes"])), "count")
	r.add("transport.drops", float64(d["transport_drops"]+d["loop_drops"]), "count")
	r.add("runtime.control_events_per_tx", ratio(float64(d["control_events"]), float64(tx)), "count")
	r.add("runtime.shard_events_per_tx", ratio(float64(d["shard_events"]), float64(tx)), "count")
	r.add("wire.car_decode_ns_per_kb", l.replay.decodeNsPerKB, "ns/KB")
	r.add("wire.car_encode_ns_per_kb", l.replay.encodeNsPerKB, "ns/KB")

	r.add("exec.apply_ns_per_tx", l.replay.applyNsPerTx, "ns")
	r.add("exec.snapshot_build_ms", l.replay.snapshotBuildMs, "ms")
	r.add("exec.snapshot_verify_ms", l.replay.snapshotVerifyMs, "ms")
	r.add("storage.wal_bytes_per_tx", l.walBytesPerTx, "B")
	r.add("storage.put_flush_us", l.replay.putFlushUs, "us")
	r.add("fetch.sync_requests", float64(d["sync_requests"]), "count")
	r.add("core.snapshots_installed", float64(d["snapshots_installed"]), "count")

	r.add("go.alloc_bytes_per_tx", ratio(float64(l.proc.allocs), float64(tx)), "B")
	r.add("go.heap_mb", l.smp.heapMB(), "MB")
	r.add("go.gc_cycles", float64(l.proc.gcs), "count")
	r.add("go.gc_cpu_ms_per_ktx", ms(l.proc.gcCPU)/(float64(tx)/1000), "ms/ktx")
	r.add("os.syscalls_per_tx", ratio(float64(l.proc.syscalls), float64(tx)), "count")
	r.add("os.loopback_write_us", l.replay.loopbackWriteUs, "us")
	r.add("trace.cpu_ms_per_ktx", l.cpuPerK, "ms/ktx")
	r.add("trace.ack_p50_ms", l.ackP50, "ms")
	return r.Metrics
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// dumpTxSpans writes one line per gateway transaction: client, seq, and
// its span edges in ns since load start (empty = not reached).
func dumpTxSpans(path string, clients []*loadClient, loadStart time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	base := loadStart.UnixNano()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,seq,due_ns,submit_ns,submit_returned_ns,gateway_commit_ns,outcome_ns,status")
	for _, lc := range clients {
		lc.mu.Lock()
		for seq, r := range lc.recs {
			if r.sent == 0 {
				continue
			}
			fmt.Fprintf(w, "%d,%d", lc.id, seq)
			for _, t := range []int64{r.due, r.sent, r.returned, r.gwSeen, r.done} {
				if t == 0 {
					fmt.Fprint(w, ",")
				} else {
					fmt.Fprintf(w, ",%d", t-base)
				}
			}
			fmt.Fprintf(w, ",%d\n", r.status)
		}
		lc.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
