"""Self-test of the benchmark's checks: each must fail on a corrupted output.

    python3 benchmarks/selftest.py

For each workload, on a small seeded input, one operation runs clean (all
checks pass), a second clean one must write the same data digests, and a
third has one output corrupted after the command exits:

  predict-log   gamma_fit in the predict table is shifted by 0.01
  sweep-grid    the first ok cell of cells.tsv is relabelled as failed

The corrupted operation must then fail the named check, count as failed,
and also fail the digest comparison with the clean run. The test also
checks that run.py reports the metrics BENCHMARK.json lists. Exits 0 when
every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import Case, make_log


def shift_gamma_fit(out: str, stdout: str) -> str:
    lines = stdout.splitlines()
    column = lines[0].split("\t").index("gamma_fit")
    cells = lines[1].split("\t")
    cells[column] = f"{float(cells[column]) + 0.01:.6g}"
    lines[1] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def relabel_ok_cell(out: str, stdout: str) -> str:
    path = os.path.join(out, "cells.tsv")
    with open(path, encoding="utf-8") as source:
        lines = source.read().splitlines()
    first_ok = next(i for i, line in enumerate(lines) if line.endswith("\tok"))
    cells = lines[first_ok].split("\t")
    cells[3] = cells[5] = "nan"
    cells[6] = "failed: day 0: population 100 gives cutoff 1 at or below the lower cutoff 1.0"
    lines[first_ok] = "\t".join(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        sink.write("\n".join(lines) + "\n")
    return stdout


def cases(work: str) -> dict:
    """Small inputs: (case, corruption, words the failed check must print)."""
    log = os.path.join(work, "small.csv")
    predict = Case(argv=["predict", "--input", log, "--bootstrap-reps", "100"],
                   truth=make_log(log, seed=7))
    sweep = Case(argv=["sweep", "--out", "{out}", "--seed", "7"],
                 env={"GROWTHLAB_THREADS": "1"})
    return {
        "predict-log": (predict, shift_gamma_fit, "gamma_fit"),
        "sweep-grid": (sweep, relabel_ok_cell, "failed although the cutoff"),
    }


def main() -> int:
    errors = []
    with open(run.CHECKOUT / "BENCHMARK.json", encoding="utf-8") as source:
        spec = json.load(source)
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {metric["name"]: metric["unit"] for metric in spec[key]}
        if listed != names:
            errors.append(f"BENCHMARK.json {key} {sorted(listed.items())} "
                          f"!= run.py {sorted(names.items())}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for workload, (case, corrupt, words) in cases(work).items():
            ops = {}
            for label, reference, change in (("clean", None, None), ("rerun", "clean", None),
                                             ("corrupt", None, corrupt),
                                             ("corrupt-vs-clean", "clean", corrupt)):
                op_dir = os.path.join(work, f"{workload}-{label}")
                ops[label] = run.run_op(workload, case, op_dir, ops.get(reference),
                                        corrupt=change)
                shutil.rmtree(op_dir)
                print(f"# {workload} {label}: failed={ops[label].failed} "
                      f"{'; '.join(ops[label].problems)[:200]}")
            if ops["clean"].failed or ops["rerun"].failed:
                errors.append(f"{workload}: a clean run failed")
            if not (ops["corrupt"].failed and any(words in p for p in ops["corrupt"].problems)):
                errors.append(f"{workload}: the corrupted output passed the {words!r} check")
            if not (ops["corrupt-vs-clean"].failed and any(
                    "differ from the first run" in p for p in ops["corrupt-vs-clean"].problems)):
                errors.append(f"{workload}: the corrupted output passed the digest check")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"SELF-TEST FAILED: {error}")
    print("self-test passed" if not errors else f"self-test: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
