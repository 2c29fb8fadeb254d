"""pillarcost benchmark: one workload as a closed loop with a single caller.

    python3 bench/run.py --workload paper11 --seed 1 --seconds 20 --trace 0

Run it from the root of a repository checkout; the package is imported
from ``src/`` (``cli-cold`` starts one child process at a time).  The run
sets up ``SETUP_REPEATS`` times, then measures whole passes for
``--seconds`` seconds.  Every output is checked against
``bench/expected.json``.  End-to-end times are scaled to a reference host
speed measured by ``kernel_seconds`` between operations.  With
``--trace 1`` half the time is measured untraced and then ``TRACE_PASSES``
passes run with spans around the package's public functions, which give
the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The inputs each
seed generates are written to ``.bench_runs/`` so a run can be replayed.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback

import tracing
from workloads import BENCH, ROOT, SRC, WORKLOADS, CliCold

SETUP_REPEATS = 3
# traced passes per workload: a fixed number, and a multiple of the passes
# after which every seed has done the same work (2 for paper11, 11 for the
# variant cycles of cli-cold), so call counts repeat exactly for every seed
TRACE_PASSES = {"paper11": 40, "deep-sweep": 3, "graph-roundtrip": 3, "cli-cold": 11}
# host-speed kernel: its size, and the time it takes on the reference host
KERNEL_SIZE = 2000
KERNEL_REF_S = 0.001


class Loop:
    """Latencies, per-pass rates and failures of a run of whole passes.

    Times are scaled to the reference host speed: each is divided by the
    pass's host factor, the trimmed mean of the pass's kernel times over
    KERNEL_REF_S.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.op_rates: list[float] = []
        self.node_rates: list[float] = []
        self.factors: list[float] = []
        self.raw_op_rates: list[float] = []
        self.kernel_s = 0.0
        self.attempted = 0
        self.failed = 0


def kernel_seconds() -> float:
    """Time of a fixed pure-Python kernel that uses no pillarcost code.

    It runs after every operation and tracks how fast the shared host is
    at that moment.  Like the program, it is bound by allocation and memory
    traffic; its objects are strings, which the garbage collector does not
    track, so it neither pays for nor triggers collections of the
    program's objects.
    """
    start = time.perf_counter()
    parts = [f"{i * 7919}:{i % 13}" for i in range(KERNEL_SIZE)]
    sum(len(part) for part in ",".join(parts).split(","))
    return time.perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth (at least one each side);
    every pass has at least ten operations."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_pass(wl, items: list, loop: Loop, op=None, after=None) -> None:
    """Time each item's operation; check its output and time the kernel
    outside that timing."""
    op = op or wl.run
    raw: list[float] = []
    kernels: list[float] = []
    nodes = 0
    for item in items:
        start = time.perf_counter()
        try:
            count, out = op(item)
        except Exception:  # a failing operation is counted and the run goes on
            traceback.print_exc(file=sys.stderr)
            count, out = 0, None
        raw.append(time.perf_counter() - start)
        loop.attempted += 1
        if out is None or not wl.check(item, out):
            loop.failed += 1
            print(f"failed: {wl.name} {item!r}", file=sys.stderr)
        elif after is not None:
            after(item, out)
        nodes += count
        # the first kernel refills the caches the operation used and is not
        # counted, so the program's memory use cannot move the host factor;
        # then the host is sampled for about a twentieth of the operation
        kernel_seconds()
        for _ in range(max(1, round(raw[-1] / KERNEL_REF_S / 20))):
            kernels.append(kernel_seconds())
    factor = trimmed_mean(kernels) / KERNEL_REF_S
    busy = sum(raw) / factor
    loop.kernel_s += sum(kernels)
    loop.factors.append(factor)
    loop.latencies += [took / factor for took in raw]
    loop.op_rates.append(len(items) / busy)
    loop.node_rates.append(nodes / busy)
    loop.raw_op_rates.append(len(items) / sum(raw))


def measure(wl, seconds: float, loop: Loop) -> list:
    """Run whole passes, from pass 1, until ``seconds`` have gone by."""
    plans = []
    deadline = time.perf_counter() + seconds
    while not plans or time.perf_counter() < deadline:
        plans.append(wl.plan(len(plans) + 1))
        run_pass(wl, plans[-1], loop)
    return plans


def import_pillarcost():
    """A fresh import of the package, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "pillarcost" or n.startswith("pillarcost.")]:
        del sys.modules[name]
    return importlib.import_module("pillarcost")


def set_up(workload: str, seed: int, expected: dict):
    """Import, generate the inputs and references, and run warm-up pass 0.

    Returns the workload and the set-up time scaled to the reference host
    speed by the host factor of the warm-up pass.
    """
    start = time.perf_counter()
    wl = WORKLOADS[workload](import_pillarcost(), expected, seed)
    warm = Loop()
    run_pass(wl, wl.plan(0), warm, after=wl.verify)
    took = time.perf_counter() - start - warm.kernel_s
    if warm.failed:
        wl.problems.append(f"warm-up pass: {warm.failed} operations failed")
    return wl, took / warm.factors[0]


def tail(latencies: list[float]) -> tuple[float, int]:
    """The nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(len(ordered) * 0.9)
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(wl, loop: Loop, setup_times: list[float]) -> dict:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    p_tail, beyond = tail(loop.latencies)
    print(f"op_p90_ms: 90th percentile of {len(loop.latencies)} operations, "
          f"{beyond} beyond it")
    print(f"host factor: median {statistics.median(loop.factors):.4f} over "
          f"{len(loop.factors)} passes; unscaled ops_per_s "
          f"{statistics.median(loop.raw_op_rates):.4f} 1/s")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(loop.op_rates), "1/s"),
        "op_p50_ms": (statistics.median(loop.latencies) * 1000, "ms"),
        "op_p90_ms": (p_tail * 1000, "ms"),
        "nodes_per_s": (statistics.median(loop.node_rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }


def per_layer(wl, untraced: Loop, passes: int) -> tuple[dict, Loop, list]:
    """Run ``passes`` traced passes and turn their spans into layer metrics."""
    startup = (wl.interpreter_ms(), wl.import_ms()) if isinstance(wl, CliCold) else (0.0, 0.0)
    tracer = tracing.Tracer()
    loop = Loop()
    plans = [wl.plan(index) for index in range(1, passes + 1)]
    if isinstance(wl, CliCold):
        wl.child_traces = []
    tracer.install()
    try:
        op = tracer.wrap("op", wl.run)
        for plan in plans:
            run_pass(wl, plan, loop, op)
    finally:
        tracer.uninstall()

    layers = tracing.self_times(tracer.spans)
    counters = tracer.counters
    for child in wl.child_traces if isinstance(wl, CliCold) else ():
        for name, (calls, self_s) in tracing.self_times(child["spans"]).items():
            have = layers.get(name, (0, 0.0))
            layers[name] = (have[0] + calls, have[1] + self_s)
        counters.update(child["counters"])

    own = {name: v for name, v in layers.items() if name != "op"}
    total_self = sum(self_s for _, self_s in own.values())
    top = sorted(own.items(), key=lambda kv: -kv[1][1])[:6]
    print("largest self-time shares: " + ", ".join(
        f"{name} {self_s / total_self:.1%}" for name, (_, self_s) in top))

    def calls(name: str) -> tuple[int, str]:
        return layers.get(name, (0, 0.0))[0], "count"

    def self_ms(*names: str) -> tuple[float, str]:
        return sum((layers.get(n, (0, 0.0))[1] for n in names), 0.0) * 1000, "ms"

    def count(name: str, unit: str = "count") -> tuple[int, str]:
        return counters.get(name, 0), unit

    return {
        "graph.inputs_of.calls": calls("graph.inputs_of"),
        "graph.inputs_of.self_ms": self_ms("graph.inputs_of"),
        "graph.edges_scanned": count("graph.edges_scanned"),
        "graph.validate.calls": calls("graph.validate"),
        "graph.validate.self_ms": self_ms("graph.validate"),
        "graph.topo_order.calls": calls("graph.topo_order"),
        "graph.topo_order.self_ms": self_ms("graph.topo_order"),
        "graph.add_node.calls": calls("graph.add_node"),
        "graph.add_node.self_ms": self_ms("graph.add_node"),
        "graph.to_json.self_ms": self_ms("graph.to_json"),
        "graph.from_json.self_ms": self_ms("graph.from_json"),
        "graph.json_bytes": count("graph.json_bytes", "B"),
        "shapes.infer_all.calls": calls("shapes.infer_all"),
        "shapes.infer_all.self_ms": self_ms("shapes.infer_all"),
        "shapes.node_output_shape.calls": calls("shapes.node_output_shape"),
        "cost.graph_cost.self_ms": self_ms("cost.graph_cost"),
        "cost.render.self_ms": self_ms("cost.render"),
        "arch.build.calls": calls("arch.build"),
        "arch.build.self_ms": self_ms("arch.build"),
        "arch.nodes_built": count("arch.nodes_built"),
        "cli.interpreter_ms": (startup[0], "ms"),
        "cli.import_ms": (startup[1], "ms"),
        "cli.run.self_ms": self_ms("cli.run"),
        "analysis.self_ms": self_ms(*[n for n in layers if n.startswith("analysis.")]),
        "svg.render_scatter.self_ms": self_ms("svg.render_scatter"),
        "svg.bytes": count("svg.bytes", "B"),
        "trace.overhead_ratio": (statistics.median(loop.op_rates)
                                 / statistics.median(untraced.op_rates), "ratio"),
    }, loop, plans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pillarcost" / "__init__.py").is_file():
        print(f"error: no pillarcost package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl, took = set_up(args.workload, args.seed, expected)
        setup_times.append(took)
    for problem in wl.problems:
        print(f"set-up: {problem}", file=sys.stderr)
    gc.collect()

    loop = Loop()
    replay = {"argv": [sys.executable, *sys.argv], "workload": args.workload,
              "seed": args.seed, "warm_up": wl.plan(0)}
    if args.trace:
        replay["passes"] = measure(wl, args.seconds / 2, loop)
        metrics, traced, replay["traced_passes"] = per_layer(
            wl, loop, TRACE_PASSES[args.workload])
        loop.attempted += traced.attempted
        loop.failed += traced.failed
    else:
        replay["passes"] = measure(wl, args.seconds, loop)
        metrics = end_to_end(wl, loop, setup_times)

    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(replay) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0 and not wl.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
