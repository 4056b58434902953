"""growthlab benchmark: two workloads run through the CLI, timed and checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): predict-log and sweep-grid. One
operation is one `python -m growthlab ...` process, timed from start to
exit, with its peak RSS from os.wait4. Operations run back to back
(a closed loop, one client) until S seconds have passed; all of them get
the same inputs, made from the seed. The first operation's outputs are
checked against reference computations; every operation's data outputs
are hashed, and a digest that differs from the first operation's fails
the operation. With --trace 1 one more operation runs under tracer.py and
the per-layer metrics replace the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). A full record goes to
benchmarks/results/. The program must be in src/ of the checkout this file
sits in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS, ROOT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

# Fresh interpreters that import growthlab.cli, after one warm-up import.
SETUP_RUNS = 11

END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mib": "MiB",
              "setup_s": "s"}
COUNTED = {"sampler.series_totals": ("calls", "raised"),
           "estimators.binned_cloud": ("calls", "raised"),
           "estimators.fit_gamma_tls": ("calls",)}
PER_LAYER = {}
for _layer, _names in LAYERS.items():
    for _name in _names:
        PER_LAYER[f"{_layer}.{_name}.s"] = "s"
        for _count in COUNTED.get(f"{_layer}.{_name}", ()):
            PER_LAYER[f"{_layer}.{_name}.{_count}"] = "count"
PER_LAYER["cli.self.s"] = "s"
PER_LAYER["trace.overhead_s"] = "s"


@dataclass
class Op:
    """One timed command run."""

    wall_s: float
    rss_mib: float
    exit_code: int
    traced: bool = False
    items: int = 0
    report: str = ""                # stdout without the manifest line
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def program_env(extra: dict) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key != "GROWTHLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(extra)
    return env


def timed_process(command: list, env: dict, stdout_path: str) -> tuple:
    """(wall seconds, peak RSS MiB, exit code) of one child process."""
    with open(stdout_path, "wb") as sink, open(stdout_path + ".err", "wb") as errors:
        start = time.perf_counter()
        child = subprocess.Popen(command, env=env, stdout=sink, stderr=errors,
                                 cwd=CHECKOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def measure_setup(env: dict, work: str) -> list:
    command = [sys.executable, "-c", "import growthlab.cli"]
    log = os.path.join(work, "setup.out")
    samples = []
    for attempt in range(SETUP_RUNS + 1):
        wall, _, code = timed_process(command, env, log)
        if code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as source:
                raise RuntimeError(f"cannot import growthlab.cli: {source.read()[-500:]}")
        if attempt:
            samples.append(wall)
    return samples


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as source:
        for block in iter(lambda: source.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_outputs(workload: str, out: str, report: str) -> dict:
    digests = {}
    for name in WORKLOADS[workload][2]:
        if name == "predict.tsv":
            digests[name] = hashlib.sha256(report.encode("utf-8")).hexdigest()
        else:
            digests[name] = sha256_file(os.path.join(out, name))
    return digests


def run_op(workload: str, case, op_dir: str, reference: Op | None,
           trace_path: str | None = None, corrupt=None) -> Op:
    """Run one command; check it fully, or compare its digests with `reference`.

    `corrupt(out_dir, stdout) -> stdout` edits the outputs before they are
    checked; the self-test uses it to show that each check can fail.
    """
    os.makedirs(op_dir)
    argv = [part.replace("{out}", op_dir) for part in case.argv]
    if trace_path is None:
        command = [sys.executable, "-m", "growthlab", *argv]
    else:
        command = [sys.executable, str(HERE / "tracer.py"), trace_path, *argv]
    stdout_path = os.path.join(op_dir, "stdout.txt")
    wall, rss, code = timed_process(command, program_env(case.env), stdout_path)
    op = Op(wall_s=wall, rss_mib=rss, exit_code=code, traced=trace_path is not None)
    if code != 0:
        with open(stdout_path + ".err", encoding="utf-8", errors="replace") as source:
            op.problems.append(f"exit {code}: {source.read()[-300:].strip()}")
        return op
    with open(stdout_path, encoding="utf-8") as source:
        stdout = source.read()
    if corrupt is not None:
        stdout = corrupt(op_dir, stdout)
    op.report = "\n".join(line for line in stdout.splitlines()
                          if not line.startswith("# manifest"))
    try:
        op.digests = digest_outputs(workload, op_dir, op.report)
        if reference is None:
            op.problems, op.items = WORKLOADS[workload][1](case, op_dir, op.report)
        else:
            op.items = reference.items
            if op.digests != reference.digests:
                op.problems.append("data outputs differ from the first run's at the same seed")
            op.problems += reference.problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        op.problems.append(f"outputs unreadable: {exc!r}")
    return op


def layer_metrics(trace_path: str, traced_wall: float, untraced_wall: float) -> dict:
    with open(trace_path, encoding="utf-8") as source:
        spans = json.load(source)["spans"]
    values = {name: 0.0 for name in PER_LAYER}
    root = next(span for span in spans if span[1] == ROOT)
    children = 0.0
    for span_id, name, start, end, _, parent, raised in spans:
        if parent == root[0]:
            children += end - start
        if name == ROOT:
            continue
        values[f"{name}.s"] += end - start
        if f"{name}.calls" in values:
            values[f"{name}.calls"] += 1
        if raised and f"{name}.raised" in values:
            values[f"{name}.raised"] += 1
    values["cli.self.s"] = (root[3] - root[2]) - children
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def environment() -> dict:
    sha = ""
    if (CHECKOUT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha or "unknown"}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    prepare = WORKLOADS[workload][0]
    setup = measure_setup(program_env({}), work)
    case = prepare(work, seed)
    ops: list[Op] = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        op_dir = os.path.join(work, f"op{len(ops)}")
        ops.append(run_op(workload, case, op_dir, ops[0] if ops else None))
        shutil.rmtree(op_dir)
    wall = statistics.median(op.wall_s for op in ops)
    metrics = {
        "wall_s": wall,
        "items_per_s": statistics.median(op.items / op.wall_s for op in ops),
        "peak_rss_mib": statistics.median(op.rss_mib for op in ops),
        "setup_s": statistics.median(setup),
    }
    units = END_TO_END
    if trace:
        trace_path = os.path.join(work, "spans.json")
        op_dir = os.path.join(work, "traced")
        ops.append(run_op(workload, case, op_dir, ops[0], trace_path=trace_path))
        shutil.rmtree(op_dir)
        metrics = layer_metrics(trace_path, ops[-1].wall_s, wall) \
            if ops[-1].exit_code == 0 else {name: 0.0 for name in PER_LAYER}
        units = PER_LAYER
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "truth": {key: value for key, value in case.truth.items()
                  if isinstance(value, (int, float, str))},
        "setup_samples_s": setup,
        "ops": [vars(op) for op in ops],
        "digests": ops[0].digests,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        # A check failure is a wrong output; a non-zero exit is a failed run.
        "correct": not any(op.problems and op.exit_code == 0 for op in ops),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "growthlab" / "cli.py").is_file():
        print(f"benchmark: no growthlab program under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for index, op in enumerate(record["ops"]):
        status = "FAILED " + "; ".join(op["problems"]) if op["problems"] else "ok"
        print(f"# op {index}{' traced' if op['traced'] else ''}: {op['wall_s']:.3f} s, "
              f"{op['rss_mib']:.0f} MiB, {op['items']} items, {status}")
    for line in record["ops"][0]["report"].splitlines():
        print(f"# | {line}")
    for name, digest in record["digests"].items():
        print(f"# sha256 {name} {digest}")
    for name, metric in record["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# attempted {record['attempted']}, failed {record['failed']}; "
          f"record in {result_path.relative_to(CHECKOUT)}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
