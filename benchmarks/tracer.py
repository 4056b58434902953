"""Run the growthlab CLI in-process with a span around each layer's calls.

    python3 benchmarks/tracer.py SPANS.json GROWTHLAB-ARGS...

Before calling growthlab.cli.main, every public function named in LAYERS is
replaced, in each growthlab module that holds it, by a wrapper that
records (id, name, start, end, thread, parent id, raised). Spans stay in
memory and are written to SPANS.json when main returns. The program's own
code is untouched; the process exits with main's exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# Module -> the public functions that cli, experiment and estimators call through.
LAYERS = {
    "sampler": ["series_totals"],
    "ingest": ["load_events", "aggregate"],
    "estimators": ["pool_and_fit_beta", "binned_cloud", "rescale_histogram",
                   "fit_gamma_tls"],
    "experiment": ["compare_prediction", "run_sweep"],
}
ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A call on a worker thread was caused by the span open on the main thread.
            caller = stack or self._main_stack
            parent = caller[-1] if caller else None
            span_id = next(self._ids)
            stack.append(span_id)
            raised = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end,
                                   threading.get_ident(), parent, raised))
        return traced


def install(tracer: Tracer) -> None:
    import growthlab
    from growthlab import cli, estimators, experiment, ingest, sampler

    modules = {"sampler": sampler, "ingest": ingest, "estimators": estimators,
               "experiment": experiment, "cli": cli, "growthlab": growthlab}
    for layer, names in LAYERS.items():
        for name in names:
            original = getattr(modules[layer], name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in modules.values():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)


def main(argv: list[str]) -> int:
    spans_path, program_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from growthlab import cli

    code = tracer.wrap(ROOT, cli.main)(program_argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as sink:
        json.dump({"exit": code, "spans": tracer.spans}, sink)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
