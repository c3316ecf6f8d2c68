"""forestgraph benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload fgraph-dense --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory.  Set-up (import, input generation, warm-up) runs three
times before the timed phase and, untraced, once more after each round; its
median is reported.  The expected answers are then computed
by the benchmark's own oracles.  The timed phase repeats the workload's round
of operations until `--seconds` have passed, one call at a time, checking
every result after its clock stops.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs half the time
untraced and half traced and prints the per-layer metrics.  The traced half
starts with one set of probe calls that reaches every layer.  The last stdout
line is a JSON object {correct, attempted, failed, metrics}.  A full record
(per-operation latencies, the tail percentile and its sample count, source
line count) and, when tracing, every span go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "forestgraph")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MODULES = ("graphs", "forests", "forest_graph", "dynamics", "roots", "io", "cli", "checks")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import FAILED, REFUSED  # noqa: E402


def import_package():
    """Import forestgraph afresh from this checkout's src/ directory."""
    for name in [k for k in sys.modules if k == "forestgraph" or k.startswith("forestgraph.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("forestgraph")
    if os.path.dirname(os.path.abspath(package.__file__)) != PACKAGE_DIR:
        raise ImportError(f"forestgraph was imported from {package.__file__}, not {PACKAGE_DIR}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"forestgraph.{m}")
                                    for m in MODULES})


def set_up(workload, seed):
    start = time.perf_counter()
    P = import_package()
    ops = workloads.WORKLOADS[workload](P, seed)
    workloads.warm_up(P)
    return time.perf_counter() - start, P, ops


def run_rounds(ops, seconds, budget_error, tracer=None, between=None):
    """Repeat whole rounds until `seconds` have passed, calling `between`
    after each round but the last.

    Returns the records (position in the round, label, latency, status,
    fgraph edges), the number of rounds and the wall time.  The heap is
    collected before each call, so every call starts from the same collector
    state.
    """
    records = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for position, op in enumerate(ops):
            gc.collect()
            if tracer is not None:
                tracer.op_id += 1
                frame = tracer.begin("bench.op")
            result = error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except (Exception, SystemExit) as err:
                error = err
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish(frame)
                if op.kind == "cli" and result is not None:
                    tracer.add("cli.main.stdout_bytes", len(result[1]))
            status, edges = op.verify(result, error, budget_error)
            records.append((position, op.label, latency, status, edges))
            result = None
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return records, rounds, time.perf_counter() - start
        if between is not None:
            between()


def tail(records):
    """Highest percentile with TAIL_BEYOND samples beyond it; failures rank
    above every success.  Returns (latency, percentile, samples)."""
    ranked = sorted(records, key=lambda r: (r[3] == FAILED, r[2]))
    n = len(ranked)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ranked[k][2], 100.0 * (k + 1) / n, n


def end_to_end(records, setup_times):
    """The end-to-end metrics of an untraced run.

    Throughputs divide totals by the summed call time.  The median is taken
    over the operations of the round, each at its mean latency over the
    rounds: the machine's speed can switch between two levels for seconds at
    a time, and a mean moves smoothly with the share of slow calls where the
    median of raw samples jumps from one level to the other.
    """
    busy = sum(r[2] for r in records)
    by_position = {}
    for position, _, latency, _, _ in records:
        by_position.setdefault(position, []).append(latency)
    n = len(records)
    bad = sum(r[3] in (FAILED, REFUSED) for r in records)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(statistics.fmean(v)
                                                    for v in by_position.values()), "ms"),
        "latency_tail_ms": (1000 * tail(records)[0], "ms"),
        "fgraph_edges_per_s": (sum(r[4] for r in records) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((n - bad) / n, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def net_source_lines():
    """Lines of src/forestgraph/*.py that are neither blank nor only a comment."""
    total = 0
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as src:
                total += sum(1 for line in src
                             if line.strip() and not line.lstrip().startswith("#"))
    return total


def per_label(records):
    labels = {}
    for _, label, latency, status, _ in records:
        labels.setdefault(label, []).append((latency, status))
    return {label: {"median_ms": 1000 * statistics.median(x for x, _ in rows),
                    "count": len(rows), "not_ok": sum(s != "ok" for _, s in rows),
                    "ms": [round(1000 * x, 3) for x, _ in rows]}
            for label, rows in sorted(labels.items())}


def self_time_table(workload, tracer, rounds, wall, overhead):
    layers = tracer.layer_self()
    lines = [f"self time per round, {workload} ({rounds} traced rounds, "
             f"wall {wall / rounds:.3f} s per round)",
             f"  {'layer':<14}{'self_s':>10}{'share':>9}"]
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14}{value / rounds:>10.4f}{value / wall:>8.1%}")
    lines.append(f"  {'sum':<14}{sum(layers.values()) / rounds:>10.4f}"
                 f"{sum(layers.values()) / wall:>8.1%}")
    lines.append(f"tracing overhead: {overhead:+.1%} busy time per round")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(PACKAGE_DIR):
        print(f"error: no package at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    try:
        setups = [set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    except ImportError as err:
        print(f"error: cannot import forestgraph: {err}", file=sys.stderr)
        return 2
    setup_times = [s[0] for s in setups]
    _, P, ops = setups[-1]
    del setups
    for op in ops:
        op.prepare()
    budget_error = P.graphs.BudgetError
    src_lines = net_source_lines()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "src_net_lines": src_lines, "setup_s": setup_times}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace == 0:
        # one more set-up after each round: the machine's speed drifts over
        # seconds, and a median over the whole run follows it less than a
        # median of back-to-back repeats
        records, rounds, wall = run_rounds(
            ops, args.seconds, budget_error,
            between=lambda: setup_times.append(set_up(args.workload, args.seed)[0]))
        metrics = end_to_end(records, setup_times)
        _, percentile, samples = tail(records)
        print(f"{args.workload}: {rounds} rounds, {len(records)} operations in {wall:.1f} s; "
              f"tail is p{percentile:.1f} of {samples} samples ({TAIL_BEYOND} beyond); "
              f"src net lines {src_lines}")
        record.update(rounds=rounds, wall_s=wall, tail_percentile=percentile,
                      tail_samples=samples, operations=per_label(records),
                      calls=[[r[0], round(1000 * r[2], 3), r[3]] for r in records])
    else:
        plain, plain_rounds, _ = run_rounds(ops, args.seconds / 2, budget_error)
        probes = workloads.probe_ops(P)
        for op in probes:
            op.prepare()
        tracer = tracing.Tracer()
        with tracer.installed(P):
            start = time.perf_counter()
            probed, _, _ = run_rounds(probes, 0, budget_error, tracer)
            traced, rounds, _ = run_rounds(ops, args.seconds / 2, budget_error, tracer)
            wall = time.perf_counter() - start
        overhead = ((sum(r[2] for r in traced) / rounds)
                    / (sum(r[2] for r in plain) / plain_rounds) - 1)
        metrics = tracer.metrics(rounds, wall, overhead, src_lines)
        tracer.write_spans(stem + "-spans.tsv")
        print(self_time_table(args.workload, tracer, rounds, wall, overhead))
        print(f"src net lines {src_lines}")
        records = plain + probed + traced
        record.update(rounds=rounds, untraced_rounds=plain_rounds, wall_s=wall,
                      operations=per_label(probed + traced))
    failed = sum(r[3] == FAILED for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    record.update(result)
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
