"""The benchmark's tracer wraps pillarcost functions and methods by name."""
import importlib
from pathlib import Path

import pillarcost.cli  # noqa: F401  (imports every module the tracer wraps)


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    for module, attr, _ in tracing.TRACED:
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
