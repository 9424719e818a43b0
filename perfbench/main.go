// Command perfbench is the repository's performance ledger: it drives a
// deployment from outside, through the public API only (autobahn.Replica,
// autobahn.LiveCluster, gateway.Client and the public counter snapshots),
// checks that what it committed is correct, and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload tcp-gateway|inproc-saturate|tcp-crash -seed N -seconds S -trace 0|1
//
// With -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// records spans and counter samples, replays the run's own committed
// batches through the layers it cannot time from outside, and reports the
// per-layer metrics instead. -tamper and -dupcommit are the oracle's
// self-test: each must make the run fail. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	// Tamper makes one replica corrupt its AppHash chain; DupCommit shows
	// the oracle one commit twice. Either must fail the run.
	Tamper    bool
	DupCommit bool
	// Dir holds the run's WALs, snapshots and trace dumps.
	Dir string
}

func (c runConfig) window() time.Duration { return time.Duration(c.Seconds) * time.Second }

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is a run's outcome. Failures lists every correctness check that
// failed; a run with failures reports no numbers.
type result struct {
	Attempted uint64
	Failed    uint64
	Metrics   []metric
	Failures  []string
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*result, error){
	"tcp-gateway":     func(c runConfig) (*result, error) { return runTCP(c, tcpGateway) },
	"tcp-crash":       func(c runConfig) (*result, error) { return runTCP(c, tcpCrash) },
	"inproc-saturate": runInproc,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: tcp-gateway, inproc-saturate or tcp-crash")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: payloads derive from it")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.Tamper, "tamper", false, "self-test: one replica corrupts its AppHash chain")
	flag.BoolVar(&cfg.DupCommit, "dupcommit", false, "self-test: the oracle sees one commit twice")
	flag.StringVar(&cfg.Dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory for WALs and trace dumps")
	flag.Parse()
	cfg.Trace = trace == 1
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.Workload, cfg.Seconds, trace)
		os.Exit(2)
	}
	if err := os.RemoveAll(cfg.Dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	os.Exit(report(cfg, res))
}

// report prints the metric table and the result line; it returns the
// process exit code.
func report(cfg runConfig, res *result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(res.Failures) == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", cfg.Workload, f)
	}
	if out.Correct {
		fmt.Printf("%s seed=%d seconds=%d trace=%v attempted=%d failed=%d\n",
			cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, res.Attempted, res.Failed)
		for _, m := range res.Metrics {
			fmt.Printf("  %-32s %16.4f %s\n", m.Name, m.Value, m.Unit)
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// --- small statistics helpers ---

// quantile returns the nearest-rank p-quantile of xs, sorting xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// weighted is a sample carrying a weight (a batch's latency, weighted by
// its transaction count).
type weighted struct {
	v float64
	w uint64
}

// weightedQuantile returns the p-quantile of a weighted sample, sorting
// it in place.
func weightedQuantile(xs []weighted, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].v < xs[j].v })
	var total uint64
	for _, x := range xs {
		total += x.w
	}
	target := p * float64(total)
	var acc uint64
	for _, x := range xs {
		acc += x.w
		if float64(acc) >= target {
			return x.v
		}
	}
	return xs[len(xs)-1].v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanNs averages Unix-ns timestamps without overflowing their sum.
type meanNs struct {
	base, sum int64
	n         int
}

func (m *meanNs) add(t int64) {
	if m.n == 0 {
		m.base = t
	}
	m.sum += t - m.base
	m.n++
}

func (m *meanNs) mean() (int64, bool) {
	if m.n == 0 {
		return 0, false
	}
	return m.base + m.sum/int64(m.n), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perK returns n per 1000 of base (0 when base is 0).
func perK(n, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(base)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
