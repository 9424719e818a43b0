package main

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// counters is one sample of the public counter snapshots, summed over
// replicas ("r0." keys are replica 0's own). Samples are taken at the
// edges of the timed window and subtracted.
type counters map[string]uint64

func (c counters) node(id int, nd *core.Node) {
	s := nd.Stats()
	if id == 0 {
		c["r0.slots"] += s.SlotsDecided
		c["r0.txs"] += s.TxOrdered
	}
	c["votes"] += s.VotesSent
	c["proposed"] += s.BatchesProposed
	c["sync_requests"] += s.SyncRequestsSent
	c["timeouts"] += s.TimeoutsSent
	c["snapshots_installed"] += s.SnapshotsInstalled
	hits, misses := nd.CertCacheStats()
	c["cert_hits"] += hits
	c["cert_misses"] += misses
}

func (c counters) loop(s metrics.LoopSnapshot) {
	c["control_events"] += s.ControlEvents
	c["shard_events"] += s.ShardEvents
	c["loop_drops"] += s.InboxDrops + s.ShardDrops
}

func (c counters) transport(s metrics.TransportSnapshot) {
	c["control_bytes"] += s.Control.Bytes
	c["data_bytes"] += s.Data.Bytes
	c["frames"] += s.Control.Frames + s.Data.Frames
	c["flushes"] += s.Control.Flushes + s.Data.Flushes
	c["transport_drops"] += s.Control.Drops + s.Data.Drops
}

func (c counters) gateway(s metrics.GatewaySnapshot) {
	c["gw_ack_drops"] += s.AckDrops
	c["gw_rejected"] += s.Rejected()
	c["gw_chain_dups"] += s.ChainDups
}

// add folds another sample in (a stopped replica incarnation's totals).
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// since returns c - base per key.
func (c counters) since(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}
