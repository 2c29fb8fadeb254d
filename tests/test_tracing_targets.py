"""The benchmark's tracer wraps pillarcost functions and methods by name."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TRACED:
        # imports the module too: the package loads most of them on first use
        owner = importlib.import_module(f"pillarcost.{module}")
        *cls_name, name = attr.split(".")
        if cls_name:  # Tracer.install reads a method from its class __dict__
            owner = getattr(owner, cls_name[0])
        assert name in vars(owner), f"pillarcost.{module}.{attr}"
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_importing_the_package_loads_analysis():
    # Tracer.install reads sys.modules["pillarcost.analysis"] right after
    # the package is imported
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pillarcost; print('pillarcost.analysis' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=60, check=True)
    assert proc.stdout.strip() == "True"
