#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bss-dense --seed 1 --seconds 15 --trace 0

Run from the repository root. The script builds perfbench/bench.exe with
dune, then:

  1. runs untraced passes of the workload, each in a fresh process, until
     --seconds have passed (at least three); host metrics are their medians;
  2. before each pass, times set-up (engine, network, every member stack in
     its first view) several times in a fresh process; set-up is the median
     of all those samples;
  3. runs one instrumented pass (protocol metrics on; with --trace 1 also
     the obs log, spans and the layer replays) for the counters only the
     instrumented stack keeps.

Every pass checks delivery order from outside (causal order, or total
order with all-or-none delivery) and the steady-state gates; all passes
must give the same delivery fingerprint and the same simulated-time
figures. Any failure exits non-zero without printing a result. The last
line of stdout is one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("bss-dense", "pc-encoded", "abcast-faults")
MIN_PASSES = 3
PASS_TIMEOUT_S = 60
MB = 1 << 20

# Figures that depend only on the seed: every pass, instrumented or not,
# must reproduce them exactly.
DETERMINISTIC = (
    "fingerprint", "deliveries", "multicasts", "attempted", "missing",
    "survivors", "crashes", "latency_p50_us", "latency_p999_us",
    "peak_unstable_bytes", "peak_unstable_msgs", "packets",
    "engine_messages_sent", "engine_messages_delivered", "header_bytes",
    "delayed_messages", "control_messages", "flush_messages",
    "suppressed_us", "dropped_at_view_change", "data_received",
)

# host: the simulator's own speed and memory, from the untraced passes;
# sim: the modelled protocol, identical for every run of one seed
CLOCK = {
    "deliveries_per_s": "host", "setup_s": "host", "peak_heap_mb": "host",
    "alloc_words_per_delivery": "host",
    "latency_p50_ms": "sim", "latency_p999_ms": "sim",
    "peak_unstable_kb": "sim", "wire_bytes_per_delivery": "sim",
    "packets_per_delivery": "sim", "delivered_frac": "sim",
}


# Layers each workload bypasses: with --trace 1 every per-layer metric of
# these layers must read zero there, or the workload no longer isolates
# what it claims to.
BYPASSED = {
    "bss-dense": ("wire_codec.", "pc_causal.", "total_order.", "view."),
    "pc-encoded": ("total_order.", "view."),
    "abcast-faults": ("wire_codec.", "pc_causal."),
}


class Failure(Exception):
    pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}")
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr[-4000:])


def bench(*args):
    """Run bench.exe in a fresh process; (result object, preceding lines)."""
    try:
        r = subprocess.run([EXE, *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(f"bench.exe {' '.join(args)} timed out")
    if r.returncode != 0:
        raise Failure(f"bench.exe {' '.join(args)} failed "
                      f"(exit {r.returncode}): {r.stderr.strip()[-2000:]}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise Failure(f"bench.exe {' '.join(args)} printed nothing")
    return json.loads(lines[-1]), lines[:-1]


def same_seed_figures(passes):
    first = passes[0]
    for i, p in enumerate(passes[1:], 1):
        for k in DETERMINISTIC:
            if p[k] != first[k]:
                raise Failure(f"determinism: pass {i} gives {k}={p[k]!r}, "
                              f"pass 0 gave {first[k]!r}")


def measure(workload, seed, seconds, trace, chaos):
    common = ["--workload", workload, "--seed", str(seed)]
    extra = ["--chaos", chaos] if chaos else []
    # set-up is sampled in a fresh process before every pass, so that its
    # median spans the whole run rather than one burst
    setups, passes = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        s, _ = bench("setup", *common)
        setups += s["setup_s"]
        p, _ = bench("pass", *common, "--level", "plain", *extra)
        passes.append(p)

    level = "traced" if trace else "metrics"
    probe, table = bench("pass", *common, "--level", level, *extra)
    same_seed_figures(passes + [probe])
    return statistics.median(setups), passes, probe, table


def end_to_end(setup_s, passes, probe):
    p = passes[0]
    deliveries = p["deliveries"]
    med = lambda k: statistics.median(x[k] for x in passes)
    return {
        "deliveries_per_s": deliveries / med("run_norm_s"),
        "setup_s": setup_s,
        "peak_heap_mb": med("top_heap_words") * 8 / MB,
        "alloc_words_per_delivery": med("alloc_words") / deliveries,
        "latency_p50_ms": p["latency_p50_us"] / 1000,
        "latency_p999_ms": p["latency_p999_us"] / 1000,
        "peak_unstable_kb": p["peak_unstable_bytes"] / 1024,
        "wire_bytes_per_delivery": probe["wire_bytes_total"] / deliveries,
        "packets_per_delivery": p["packets"] / deliveries,
        "delivered_frac": 1 - p["missing"] / p["attempted"],
    }


def per_layer(workload, passes, probe, names):
    values = {k: probe[k] for k in names if k in probe}
    values["obs.traced_overhead_frac"] = (
        probe["run_norm_s"] / statistics.median(x["run_norm_s"] for x in passes) - 1)
    missing = [k for k in names if k not in values]
    if missing:
        raise Failure(f"per-layer metrics not produced: {missing}")
    leaks = [k for k in names
             if k.startswith(BYPASSED[workload]) and values[k] != 0]
    if leaks:
        raise Failure(f"bypassed layers did work on {workload}: {leaks}")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chaos", choices=("queue", "forwarding"),
                    help="enable a protocol fault hook; the run must fail")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        setup_s, passes, probe, table = measure(
            args.workload, args.seed, args.seconds, args.trace, args.chaos)
        e2e = end_to_end(setup_s, passes, probe)
        if args.trace:
            layers = per_layer(args.workload, passes, probe,
                               [m["name"] for m in spec["per_layer"]])
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except (Failure, OSError, KeyError, ValueError) as e:
        print(f"{args.workload} seed {args.seed}: {e}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed {args.seed}: {len(passes)} untraced passes, "
          f"{passes[0]['deliveries']} deliveries and {passes[0]['multicasts']} "
          f"multicasts per pass (latency sample count = deliveries), "
          f"fingerprint {passes[0]['fingerprint']}")
    print(f"# required deliveries attempted {passes[0]['attempted']}, "
          f"missing {passes[0]['missing']}; crashes {passes[0]['crashes']}")
    for m in spec["end_to_end"]:
        print(f"# {m['name']} = {e2e[m['name']]:.6g} {m['unit']} "
              f"({CLOCK[m['name']]})")
    # the JSON result carries it as delivered_frac and attempted/failed,
    # since a metric that reads 0 cannot carry a relative bound
    print(f"# failed_frac = {1 - e2e['delivered_frac']:.6g} ratio (sim)")
    for line in table:
        print(line)
    print(json.dumps({"correct": True, "attempted": passes[0]["attempted"],
                      "failed": passes[0]["missing"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
