#!/usr/bin/env python3
"""Build and run the perfbench performance ledger.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Other modes:

    --workload all          every workload, untraced then traced: every metric
                            by name and unit, the tracing overhead, and the
                            cpu_ms_per_ktx attribution table (README.md)
    --repeat K              K runs of one workload on seeds N..N+K-1: each
                            metric's median, quartiles and spread
    --selftest              the correctness oracle must fail a run with a
                            tampered replica and one with a duplicated commit

Run from the root of a checkout. Everything the build and the runs write
goes under .bench_build/ there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["tcp-gateway", "inproc-saturate", "tcp-crash"]
# A run exits by itself well inside this; the bound only stops a hang.
RUN_TIMEOUT = 170


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."],
                          cwd=os.path.join(ROOT, "perfbench"), env=env,
                          stdout=sys.stderr, timeout=840)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs the benchmark binary; returns (exit code, parsed result or None,
    stderr text)."""
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-dir", os.path.join(BUILD, "run")] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def summarize(values):
    """Median, first and third quartile, and spread (IQR over median)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def repeat(args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, res, _ = run_once(args.workload, seed, args.seconds, args.trace, echo=False)
        if code != 0 or not res or not res["correct"]:
            print(f"seed {seed}: run failed (exit {code})")
            return 1
        runs.append(res)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
    print(f"\n{args.workload} trace={args.trace} runs={len(runs)} seconds={args.seconds}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} unit")
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarize(vals)
        unit = runs[0]["metrics"][name]["unit"]
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {unit}")
    return 0


PAYLOAD = {"tcp-gateway": 512, "inproc-saturate": 128, "tcp-crash": 512}


def attribution(e2e, layer, payload, n=4):
    """Models each layer's CPU per 1000 tx from the traced run's per-tx work
    counts and replayed unit costs (microseconds per tx = ms per ktx), and
    the bound the bytes and operations a transaction must cause set."""
    m = layer
    per_batch = 1.0 / m["mempool.txs_per_batch"] if m["mempool.txs_per_batch"] else 0.0
    data = m["transport.data_bytes_per_tx"]
    miss = 1.0 - m["crypto.cert_cache_hit_ratio"]
    encode = m["wire.car_encode_ns_per_kb"] / 1024 / 1000  # us per byte
    decode = m["wire.car_decode_ns_per_kb"] / 1024 / 1000
    apply_us = n * m["exec.apply_ns_per_tx"] / 1000
    rows = [
        ("gateway client Submit", max(0.0, m["gateway.submit_us"] - m["os.loopback_write_us"]),
         "time inside Client.Submit per tx, less its write (counted below)"),
        ("TCP syscalls", m["os.syscalls_per_tx"] * m["os.loopback_write_us"],
         "read+write syscalls/tx x one small loopback write"),
        ("wire encode", encode * data / (n - 1),
         "encode ns/KB x data bytes/tx / (n-1): one encode per broadcast"),
        ("wire decode", decode * data,
         "decode ns/KB x data bytes/tx received"),
        ("journal put+flush", m["storage.put_flush_us"] * per_batch,
         "one own-car record and barrier per batch"),
        ("crypto", (n - 1) * (m["crypto.verify_us"] + miss * m["crypto.poa_verify_us"]) * per_batch,
         "(n-1) receivers x (car signature + PoA on a cache miss) per batch"),
        ("exec apply", apply_us, "n replicas x apply ns/tx"),
        ("GC", m["go.gc_cpu_ms_per_ktx"], "runtime's GC CPU estimate"),
    ]
    modelled = sum(r[1] for r in rows)
    measured = e2e["cpu_ms_per_ktx"]
    rows.append(("unattributed", measured - modelled,
                 "measured - modelled: gateway server, transport and loop bookkeeping, scheduling"))
    # The least a transaction costs: every replica applies it, and its
    # payload is encoded once and decoded by each of the n-1 others.
    bound = apply_us + (encode + (n - 1) * decode) * payload
    ops = [
        ("data bytes/tx", data, f"payload x (n-1) = {payload * (n - 1)}"),
        ("cars/tx", per_batch, "1 / txs per batch"),
        ("syscalls/tx", m["os.syscalls_per_tx"], "tends to 0 as batching amortises them"),
        ("alloc bytes/tx", m["go.alloc_bytes_per_tx"], f"payload = {payload}"),
    ]
    return rows, measured, bound, ops


def run_all(args):
    ok = True
    e2e, layer = {}, {}
    for w in WORKLOADS:
        for trace in (0, 1):
            code, res, _ = run_once(w, args.seed, args.seconds, trace)
            if code != 0 or not res or not res["correct"]:
                print(f"{w} trace={trace}: FAILED (exit {code})")
                ok = False
                continue
            vals = {k: v["value"] for k, v in res["metrics"].items()}
            (layer if trace else e2e)[w] = vals
    for w in WORKLOADS:
        if w in e2e and w in layer:
            cpu = layer[w]["trace.cpu_ms_per_ktx"] - e2e[w]["cpu_ms_per_ktx"]
            p50 = layer[w]["trace.ack_p50_ms"] - e2e[w]["ack_p50_ms"]
            print(f"tracing overhead {w}: cpu_ms_per_ktx {cpu:+.3f}, ack_p50_ms {p50:+.3f}")
    if all(w in e2e and w in layer for w in ("tcp-gateway", "inproc-saturate")):
        tcp = attribution(e2e["tcp-gateway"], layer["tcp-gateway"], PAYLOAD["tcp-gateway"])
        inp = attribution(e2e["inproc-saturate"], layer["inproc-saturate"], PAYLOAD["inproc-saturate"])
        print("\ncpu_ms_per_ktx attribution (modelled from traced unit costs)")
        print(f"{'layer':24} {'tcp-gateway':>12} {'inproc-sat':>12}  basis")
        for (name, t, basis), (_, i, _) in zip(tcp[0], inp[0]):
            print(f"{name:24} {t:12.3f} {i:12.3f}  {basis}")
        print(f"{'measured':24} {tcp[1]:12.3f} {inp[1]:12.3f}  untraced cpu_ms_per_ktx")
        print(f"{'gap':24} {tcp[1] - inp[1]:12.3f}")
        print(f"{'bytes-and-ops bound':24} {tcp[2]:12.3f} {inp[2]:12.3f}  apply at n replicas + encode once + decode at n-1")
        print("\nbytes and operations per tx")
        for (name, t, tb), (_, i, ib) in zip(tcp[3], inp[3]):
            print(f"{name:24} {t:12.3f} {i:12.3f}  minimum: tcp {tb}; inproc {ib}")
    print(json.dumps({"correct": ok, "workloads": {w: {"end_to_end": e2e.get(w), "per_layer": layer.get(w)} for w in WORKLOADS}}))
    return 0 if ok else 1


def selftest(args):
    """The oracle must trip on each injected fault, and only then."""
    cases = [
        ("tcp-gateway", [], 0, None),
        ("tcp-gateway", ["-tamper"], 1, "AppHash agreement"),
        ("tcp-gateway", ["-dupcommit"], 1, "exactly-once"),
        ("inproc-saturate", ["-tamper"], 1, "AppHash agreement"),
        ("inproc-saturate", ["-dupcommit"], 1, "exactly-once"),
    ]
    failed = 0
    for workload, extra, want_code, want_msg in cases:
        code, res, err = run_once(workload, args.seed, 2, 0, extra, echo=False)
        good = (code == 0) == (want_code == 0) and (want_msg is None or want_msg in err)
        if want_code and res is not None and res.get("correct"):
            good = False
        print(f"{'PASS' if good else 'FAIL'}: {workload} {' '.join(extra) or '(clean)'}: exit {code}")
        failed += not good
    print(json.dumps({"correct": failed == 0, "cases": len(cases), "failed": failed}))
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload or --selftest is required")
    build()
    if args.selftest:
        return selftest(args)
    if args.workload == "all":
        return run_all(args)
    if args.repeat:
        return repeat(args)
    code, _, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
