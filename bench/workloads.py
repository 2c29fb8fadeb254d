"""The benchmark's workloads: seeded inputs, one operation each and its check.

A workload runs in passes.  A pass is a seeded shuffle of a fixed set of
inputs (for ``cli-cold``, one argv of each command group, taken from a
seeded cycle), so every seed does the same work in another order and the
figures of different seeds can be compared.  ``run`` is the timed operation and
returns ``(nodes, output)``; ``check`` compares the output with the pinned
references in ``expected.json``; ``verify`` runs during set-up only and
compares the package's costing with the independent counter.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refcount

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEPTHS = (12, 24, 48)
SCOPES = ("overall", "car", "pedestrian", "cyclist")
STARTUP_RUNS = 9  # child processes per cli.interpreter_ms and cli.import_ms
_DATA = "src/pillarcost/data"
PROFILES = {f"{_DATA}/fpga_timing.json": ("backbone", "other"),
            f"{_DATA}/mmdet3d_timing.json": ("pfn", "backbone", "neck", "nms")}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def deep_key(variant: str, k: int) -> str:
    return f"{variant}:k{k}"


def cli_commands(variants: list[str]) -> dict[str, list[list[str]]]:
    """Every argv ``cli-cold`` may run, in groups; a pass runs one of each group."""
    compare = ["compare", "--format", "csv"]
    return {
        "list": [["list"]],
        "describe": [["describe", v] for v in variants],
        "cost": [["cost", v, "--format", "csv"] for v in variants],
        "compare": [compare],
        "compare-folded": [[*compare, "--fold-batchnorm"]],
        "pareto": [["pareto", "--scope", s] for s in SCOPES],
        **{f"amdahl-{Path(path).stem}": [
            ["amdahl", "--profile", path, "--speedup", f"{stage}={speedup}"]
            for stage in stages for speedup in ("inf", "2")]
           for path, stages in PROFILES.items()},
        "plot": [["plot", "--scope", s] for s in SCOPES],
        "export": [["export", v] for v in variants],
    }


def counter_agrees(graph, report, count_batchnorm: bool) -> bool:
    rows = [(c.name, c.kind, c.madds, c.params) for c in report.per_node]
    return refcount.recount(graph.to_json_dict(), count_batchnorm) == rows


class Workload:
    name = ""

    def __init__(self, pc, expected: dict, seed: int) -> None:
        self.pc = pc
        self.expected = expected
        self.seed = seed
        self.variants = [v.value for v in pc.Variant]
        self.problems: list[str] = []  # set-up mismatches

    def shuffled(self, items: list, key: int | str) -> list:
        """``items`` in an order drawn from the seed and ``key``."""
        order = list(items)
        random.Random(f"{self.name}:{self.seed}:{key}").shuffle(order)
        return order

    def verify(self, item, output) -> None:
        pass


class Paper11(Workload):
    """All 11 variants at the reference config: build, cost, render."""

    name = "paper11"

    def plan(self, index: int) -> list:
        # batch norm is counted for alternate variants and folded for the
        # others, the other way round in the next pass, so any two passes
        # cost every variant both ways whatever the seed
        items = [(v, (i + index) % 2 == 0) for i, v in enumerate(self.variants)]
        return self.shuffled(items, index)

    def run(self, item):
        variant, count_batchnorm = item
        graph = self.pc.build_pointpillars(self.pc.Variant(variant))
        report = self.pc.graph_cost(graph, count_batchnorm=count_batchnorm)
        return len(graph), (graph, report, report.to_csv(), report.to_json(),
                            report.per_stage())

    def check(self, item, output) -> bool:
        variant, count_batchnorm = item
        _, report, csv, doc, stages = output
        want = self.expected["paper"][variant]["counted" if count_batchnorm else "folded"]
        return (report.total_madds == want["madds"]
                and report.total_params == want["params"]
                and sha256(csv) == want["csv_sha256"]
                and sha256(doc) == want["json_sha256"]
                and {k: list(v) for k, v in stages.items()} == want["per_stage"])

    def verify(self, item, output) -> None:
        variant, count_batchnorm = item
        graph, report = output[0], output[1]
        other = self.pc.graph_cost(graph, count_batchnorm=not count_batchnorm)
        for mode, rep in ((count_batchnorm, report), (not count_batchnorm, other)):
            if not counter_agrees(graph, rep, mode):
                self.problems.append(f"{variant} (count_batchnorm={mode}): "
                                     "graph_cost differs from the independent counter")


class DeepSweep(Workload):
    """Every variant with block_units=(k, k, k), k in DEPTHS: build, cost."""

    name = "deep-sweep"

    def __init__(self, pc, expected: dict, seed: int) -> None:
        super().__init__(pc, expected, seed)
        self.configs = {k: pc.ArchConfig(block_units=(k, k, k)) for k in DEPTHS}
        self.items = [(v, k) for k in DEPTHS for v in self.variants]

    def plan(self, index: int) -> list:
        return self.shuffled(self.items, index)

    def run(self, item):
        variant, k = item
        graph = self.pc.build_pointpillars(self.pc.Variant(variant), self.configs[k])
        return len(graph), (graph, self.pc.graph_cost(graph))

    def check(self, item, output) -> bool:
        report = output[1]
        want = self.expected["deep"][deep_key(*item)]
        return report.total_madds == want["madds"] and report.total_params == want["params"]

    def verify(self, item, output) -> None:
        if not counter_agrees(output[0], output[1], True):
            self.problems.append(f"{deep_key(*item)}: graph_cost differs from "
                                 "the independent counter")


class GraphRoundtrip(Workload):
    """The graphs of paper11 and deep-sweep: to_json -> from_json -> to_json."""

    name = "graph-roundtrip"

    def __init__(self, pc, expected: dict, seed: int) -> None:
        super().__init__(pc, expected, seed)
        self.graphs = {v: pc.build_pointpillars(pc.Variant(v)) for v in self.variants}
        for k in DEPTHS:
            cfg = pc.ArchConfig(block_units=(k, k, k))
            for v in self.variants:
                self.graphs[deep_key(v, k)] = pc.build_pointpillars(pc.Variant(v), cfg)

    def plan(self, index: int) -> list:
        return self.shuffled(list(self.graphs), index)

    def run(self, key):
        graph = self.graphs[key]
        text = graph.to_json()
        return len(graph), (text, self.pc.Graph.from_json(text).to_json())

    def check(self, key, output) -> bool:
        text, again = output
        return text == again and sha256(text) == self.expected["graph_json_sha256"][key]

    def verify(self, key, output) -> None:
        # costing is not part of this workload, so the recount is compared
        # with the pinned graph_cost totals instead of a fresh graph_cost
        rows = refcount.recount(self.graphs[key].to_json_dict())
        want = (self.expected["deep"][key] if key in self.expected["deep"]
                else self.expected["paper"][key]["counted"])
        if (sum(r[2] for r in rows), sum(r[3] for r in rows)) != (want["madds"], want["params"]):
            self.problems.append(f"{key}: independent counter differs from the pinned totals")


class CliCold(Workload):
    """One fresh ``python -m pillarcost.cli`` process per operation."""

    name = "cli-cold"

    def __init__(self, pc, expected: dict, seed: int) -> None:
        super().__init__(pc, expected, seed)
        commands = cli_commands(self.variants)
        self.cycles = [self.shuffled(argvs, group) for group, argvs in commands.items()]
        sizes = {}
        for v in self.variants:
            graph = pc.build_pointpillars(pc.Variant(v))
            sizes[v] = len(graph)
            for mode in (True, False):
                if not counter_agrees(graph, pc.graph_cost(graph, count_batchnorm=mode), mode):
                    self.problems.append(f"{v} (count_batchnorm={mode}): graph_cost "
                                         "differs from the independent counter")
        # nodes built by each command: one variant, or all of them for compare
        self.nodes_of = {}
        for argvs in commands.values():
            for argv in argvs:
                built = sizes.get(argv[1], 0) if len(argv) > 1 else 0
                if argv[0] == "compare":
                    built = sum(sizes.values())
                self.nodes_of[" ".join(argv)] = built
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.child_traces: list[dict] | None = None  # set to a list to trace children

    def plan(self, index: int) -> list:
        # each group walks its own seeded cycle, so every 11 passes run each
        # variant once per command and runs of different seeds do equal work
        return self.shuffled([cycle[index % len(cycle)] for cycle in self.cycles], index)

    def run(self, argv):
        if self.child_traces is None:
            cmd = [sys.executable, "-m", "pillarcost.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True)
        stderr = proc.stderr
        if self.child_traces is not None:
            stderr, _, dump = stderr.rstrip(b"\n").rpartition(b"\n")
            self.child_traces.append(json.loads(dump))
        return self.nodes_of[" ".join(argv)], (proc.returncode, proc.stdout, stderr)

    def check(self, argv, output) -> bool:
        code, stdout, stderr = output
        return (code == 0 and not stderr
                and sha256(stdout) == self.expected["cli_stdout_sha256"][" ".join(argv)])

    def interpreter_ms(self) -> float:
        """Median wall time of a bare ``python -c pass``."""
        times = []
        for _ in range(STARTUP_RUNS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env,
                           check=True, capture_output=True)
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)

    def import_ms(self) -> float:
        """Median ``-X importtime`` total for ``import pillarcost.cli``."""
        totals = []
        for _ in range(STARTUP_RUNS):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import pillarcost.cli"],
                cwd=ROOT, env=self.env, check=True, capture_output=True, text=True)
            total_us = 0
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if (line.startswith("import time:") and len(fields) == 3
                        and fields[2].strip() in ("pillarcost", "pillarcost.cli")):
                    total_us += int(fields[1])
            totals.append(total_us / 1000)
        return statistics.median(totals)


WORKLOADS = {wl.name: wl for wl in (Paper11, DeepSweep, GraphRoundtrip, CliCold)}
