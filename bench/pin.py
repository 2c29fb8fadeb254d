"""Write bench/expected.json, the outputs the benchmark accepts.

    python3 bench/pin.py

Run it from a checkout whose outputs are known to be right.  It pins the
exact MAdd and parameter totals of every variant (batch norm counted and
folded) and of every deep-sweep graph, and the SHA-256 of each cost CSV
and JSON, graph JSON and ``cli-cold`` standard output (which includes the
SVG plots).  It refuses to write if base does not have the 4,834,888
parameters the paper prints.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import BENCH, DEPTHS, ROOT, SRC, cli_commands, deep_key, sha256

PRINTED_BASE_PARAMS = 4_834_888


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pillarcost as pc

    paper, deep, graph_json = {}, {}, {}
    for variant in pc.Variant:
        graph = pc.build_pointpillars(variant)
        graph_json[variant.value] = sha256(graph.to_json())
        paper[variant.value] = {}
        for label, count_batchnorm in (("counted", True), ("folded", False)):
            report = pc.graph_cost(graph, count_batchnorm=count_batchnorm)
            paper[variant.value][label] = {
                "madds": report.total_madds,
                "params": report.total_params,
                "csv_sha256": sha256(report.to_csv()),
                "json_sha256": sha256(report.to_json()),
                "per_stage": {k: list(v) for k, v in report.per_stage().items()},
            }
    if paper["base"]["counted"]["params"] != PRINTED_BASE_PARAMS:
        print(f"error: base has {paper['base']['counted']['params']} params, "
              f"the paper prints {PRINTED_BASE_PARAMS}", file=sys.stderr)
        return 1

    for k in DEPTHS:
        cfg = pc.ArchConfig(block_units=(k, k, k))
        for variant in pc.Variant:
            graph = pc.build_pointpillars(variant, cfg)
            report = pc.graph_cost(graph)
            key = deep_key(variant.value, k)
            deep[key] = {"madds": report.total_madds, "params": report.total_params,
                         "nodes": len(graph)}
            graph_json[key] = sha256(graph.to_json())

    cli = {}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argvs in cli_commands([v.value for v in pc.Variant]).values():
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "pillarcost.cli", *argv],
                                  cwd=ROOT, env=env, capture_output=True, check=True)
            if proc.stderr:
                print(f"error: {' '.join(argv)} wrote to stderr", file=sys.stderr)
                return 1
            cli[" ".join(argv)] = sha256(proc.stdout)

    doc = {"paper": paper, "deep": deep, "graph_json_sha256": graph_json,
           "cli_stdout_sha256": cli}
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
