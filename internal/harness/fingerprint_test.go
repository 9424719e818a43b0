package harness

import (
	"fmt"
	"testing"
	"time"
)

// TestSimFingerprint pins the deterministic-simulation fingerprint used
// to validate refactors of the real runtime: the fixed-seed sim path
// must stay byte-identical across transport/egress/ingress changes. The
// simulator ignores runtime.Sharder, so every node runs core's shard
// handlers inline on its single event loop (W=1) — the same lane code
// the real-time runtimes run on their shard workers — and digest
// memoization is value-deterministic; this test re-verifies that on
// every run (only the real-time runtimes may change behavior). If a PR intentionally
// changes simulated protocol behavior, it must update these constants
// and say so.
func TestSimFingerprint(t *testing.T) {
	p := MeasurePoint(Autobahn, 4, 5e3, 5*time.Second, 42)
	if got := fmt.Sprintf("%.2f", p.Throughput); got != "4995.33" {
		t.Fatalf("throughput fingerprint drifted: %s tx/s, want 4995.33", got)
	}
	if p.MeanLat != 166069675*time.Nanosecond {
		t.Fatalf("mean latency fingerprint drifted: %v, want 166.069675ms", p.MeanLat)
	}
	if p.P99 != 237308553*time.Nanosecond {
		t.Fatalf("p99 fingerprint drifted: %v, want 237.308553ms", p.P99)
	}
}
