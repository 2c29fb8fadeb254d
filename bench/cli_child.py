"""Run one pillarcost command with spans recorded, for the traced cli-cold run.

    PYTHONPATH=src python3 bench/cli_child.py ARGV...

Standard output is the command's own.  The last line of standard error is
a JSON object with the spans and counters recorded in this process; the
package is imported before tracing starts, so import time is not in them.
"""
from __future__ import annotations

import json
import sys

import tracing


def main(argv: list[str]) -> int:
    import pillarcost.cli

    tracer = tracing.Tracer()
    tracer.install()
    code = pillarcost.cli.run(argv)
    sys.stdout.flush()
    sys.stderr.write(json.dumps({"spans": tracer.spans, "counters": tracer.counters}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
