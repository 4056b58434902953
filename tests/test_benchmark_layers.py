"""The benchmark tracer's layer table names callables that exist.

benchmarks/tracer.py wraps each name in LAYERS in its growthlab module;
a renamed function would otherwise surface only when a traced benchmark
run fails. The tracer's source is executed into a plain namespace, so
nothing is imported from or written to benchmarks/.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _layers():
    namespace = {"__name__": "benchmark_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         namespace)
    return namespace["LAYERS"]


def test_every_traced_name_is_a_callable_of_its_module():
    layers = _layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"growthlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"growthlab.{layer}.{name}"
