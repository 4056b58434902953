"""The two workloads: the inputs each seed makes, the command, the checks.

A workload's `prepare` turns the benchmark seed into the program's inputs
(an input file or a program seed) and returns a Case; `check` reads the
outputs of one command run and returns (problems, items), where problems
lists the failed checks (empty when all pass) and items is the work done:
rows read or cells completed. Checks compare with reference.py, never with
a stored copy of an earlier output.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from reference import (
    agrees_to_6,
    continuous_growth_slope,
    coupled_cutoff,
    growth_exponent,
    tls_slope,
)

# Benchmark seeds reach numpy and the program modulo 2^64.
_MASK64 = (1 << 64) - 1

# predict-log: a log made here with numpy.
LOG_BETA = 1.5
LOG_DAYS = 12
LOG_RANGE = (1e3, 1e5)
# LOG_DAYS times the mean of the log-uniform population, held to 0.5%.
LOG_USER_DAYS = 258_000
LOG_SIZE_TOLERANCE = 0.005
LOG_SPLIT_SHARE = 0.1
LOG_POOL = 400_000
LOG_FIRST_DAY = dt.date(2009, 1, 1)
# beta from the collapse must lie within this share of LOG_BETA.
PREDICT_BETA_TOLERANCE = 0.1

# sweep-grid: the default 400-cell grid.
SWEEP_C = [float(c) for c in range(1, 11)]
SWEEP_BETAS = 1.0 / np.linspace(0.1, 1.0, 40, endpoint=False)
SWEEP_RANGE = (100.0, 10000.0)
# |gamma_fit - finite-size slope of P*E[X]| for every ok cell.
SWEEP_SLOPE_TOLERANCE = 0.03


@dataclass
class Case:
    """The inputs one seed makes for one workload."""

    argv: list                      # growthlab arguments; "{out}" marks the output dir
    env: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as source:
        lines = source.read().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def _table(stdout: str) -> dict:
    """The report table that precedes the '# ...' lines, as {column: text}."""
    rows = [line.split("\t") for line in stdout.splitlines()
            if line and not line.startswith("#")]
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise ValueError(f"expected a 2-line report table, got {len(rows)} lines")
    return dict(zip(rows[0], rows[1]))


# --- predict-log -----------------------------------------------------------

def make_log(path: str, seed: int) -> dict:
    """Write a coupled-truncation event log with numpy; return its truth.

    Day d's population is log-uniform within the d-th of LOG_DAYS equal
    strata of [log10 1e3, log10 1e5] (days in random order), redrawn until
    the days hold LOG_USER_DAYS users, so every seed makes a log of the
    same size. Activities are floor(X), X ~ x^-LOG_BETA on
    [1, ((beta-1)P)^(1/beta)]. Users come from a pool of LOG_POOL ids; one
    user-day in ten is split over two rows, and rows are shuffled.
    """
    rng = np.random.default_rng([seed & _MASK64, 0x70726564])
    low, high = np.log10(LOG_RANGE)
    while True:
        strata = (rng.permutation(LOG_DAYS) + rng.random(LOG_DAYS)) / LOG_DAYS
        populations = np.rint(10.0 ** (low + (high - low) * strata)).astype(np.int64)
        if abs(populations.sum() - LOG_USER_DAYS) <= LOG_SIZE_TOLERANCE * LOG_USER_DAYS:
            break
    user_cols, day_cols, count_cols = [], [], []
    totals = []
    for day, population in enumerate(populations):
        upper = coupled_cutoff(population, LOG_BETA)
        u = rng.random(population)
        x = (1.0 - u * (1.0 - upper ** (1.0 - LOG_BETA))) ** (-1.0 / (LOG_BETA - 1.0))
        counts = np.maximum(1, np.floor(x)).astype(np.int64)
        users = rng.choice(LOG_POOL, size=population, replace=False)
        totals.append(int(counts.sum()))
        # Split LOG_SPLIT_SHARE of the user-days, each with a count c >= 2,
        # into a + (c - a) with 1 <= a < c.
        eligible = np.flatnonzero(counts >= 2)
        chosen = rng.choice(eligible, replace=False, size=min(
            len(eligible), round(LOG_SPLIT_SHARE * population)))
        split = np.zeros(population, dtype=bool)
        split[chosen] = True
        first = np.where(split, 1 + (rng.random(population) * (counts - 1)).astype(np.int64),
                         counts)
        user_cols += [users, users[split]]
        day_cols += [np.full(population + int(split.sum()), day)]
        count_cols += [first, counts[split] - first[split]]
    users = np.concatenate(user_cols)
    days = np.concatenate(day_cols)
    counts = np.concatenate(count_cols)
    order = rng.permutation(len(users))
    dates = [(LOG_FIRST_DAY + dt.timedelta(days=int(d))).isoformat()
             for d in range(LOG_DAYS)]
    lines = [f"user{user:06d},{dates[day]},{count}" for user, day, count in
             zip(users[order].tolist(), days[order].tolist(), counts[order].tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        sink.write("user_id,day,count\n" + "\n".join(lines) + "\n")
    return {"populations": populations, "totals": np.array(totals), "rows": len(lines)}


def prepare_predict(work: str, seed: int) -> Case:
    path = os.path.join(work, "predict-log.csv")
    truth = make_log(path, seed)
    return Case(argv=["predict", "--input", path], truth=truth)


def check_predict(case: Case, out: str, stdout: str):
    rows = case.truth["rows"]
    try:
        table = _table(stdout)
        beta = float(table["beta"])
        gamma_fit = float(table["gamma_fit"])
        gamma_low = float(table["gamma_ci_low"])
        gamma_high = float(table["gamma_ci_high"])
        gamma_predicted = float(table["gamma_predicted"])
        consistent = table["consistent"]
    except (KeyError, ValueError) as exc:
        return [f"predict report unreadable: {exc}"], rows
    problems = []
    truth = case.truth
    expected = tls_slope(np.log10(truth["populations"]), np.log10(truth["totals"]))
    if not agrees_to_6(table["gamma_fit"], expected):
        problems.append(f"gamma_fit {gamma_fit} != TLS of the true (P, F) {expected:.6g}")
    if not gamma_low <= gamma_fit <= gamma_high:
        problems.append("the gamma interval does not contain gamma_fit")
    if not 1.0 < beta < 2.0:
        problems.append(f"beta {beta} outside (1, 2)")
    # Both printed values carry at most 4e-6 of relative rounding.
    elif not math.isclose(gamma_predicted, growth_exponent(beta), rel_tol=1e-5):
        problems.append(f"gamma_predicted {gamma_predicted} != gamma({beta})")
    if abs(beta - LOG_BETA) > PREDICT_BETA_TOLERANCE * LOG_BETA:
        problems.append(f"beta {beta} not within {PREDICT_BETA_TOLERANCE:.0%} of {LOG_BETA}")
    inside = gamma_low <= gamma_predicted <= gamma_high
    if consistent != ("true" if inside else "false"):
        problems.append(f"consistent={consistent} but the prediction is "
                        f"{'inside' if inside else 'outside'} the gamma interval")
    return problems, rows


# --- sweep-grid ------------------------------------------------------------

def prepare_sweep(work: str, seed: int) -> Case:
    threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    return Case(argv=["sweep", "--out", "{out}", "--seed", str(seed & _MASK64)],
                env={"GROWTHLAB_THREADS": str(threads)})


_FAILED = re.compile(r"failed: day \d+: population (\d+) gives cutoff (\S+) "
                     r"at or below the lower cutoff (\S+)$")


def check_sweep(case: Case, out: str, stdout: str):
    header, rows = _read_tsv(os.path.join(out, "cells.tsv"))
    expected_header = ["C", "beta", "inv_beta", "gamma_fit", "gamma_theory", "r2", "status"]
    if header != expected_header:
        return [f"cells.tsv header {header}"], len(rows)
    grid = [(c, beta) for c in SWEEP_C for beta in SWEEP_BETAS]
    if len(rows) != len(grid):
        return [f"cells.tsv has {len(rows)} rows, not {len(grid)}"], len(rows)
    problems = []
    low, high = SWEEP_RANGE
    for number, (row, (c, beta)) in enumerate(zip(rows, grid), start=2):
        where = f"cells.tsv line {number}"
        if len(row) != 7:
            problems.append(f"{where}: {len(row)} fields")
            continue
        if not (agrees_to_6(row[0], c) and agrees_to_6(row[1], beta)
                and agrees_to_6(row[2], 1.0 / beta)):
            problems.append(f"{where}: (C, beta) is not cell ({c:g}, {beta:.6g}) of the grid")
            continue
        if not agrees_to_6(row[4], growth_exponent(beta)):
            problems.append(f"{where}: gamma_theory {row[4]} != gamma({beta:.6g})")
        status = row[6]
        if status == "ok":
            if coupled_cutoff(high, beta) <= c:
                problems.append(f"{where}: ok although the cutoff at P = {high:g} is <= C")
                continue
            expected = continuous_growth_slope(c, beta, low, high)
            if not abs(float(row[3]) - expected) <= SWEEP_SLOPE_TOLERANCE:
                problems.append(f"{where}: gamma_fit {row[3]} is not within "
                                f"{SWEEP_SLOPE_TOLERANCE} of the finite-size {expected:.5f}")
            continue
        if coupled_cutoff(low, beta) > c:
            problems.append(f"{where}: failed although the cutoff at P = {low:g} exceeds C")
        match = _FAILED.match(status)
        if match is None:
            problems.append(f"{where}: unexpected status {status!r}")
            continue
        population, cutoff, lower = int(match[1]), match[2], float(match[3])
        if not (low <= population <= high and lower == c
                and agrees_to_6(cutoff, float(coupled_cutoff(population, beta)))
                and float(cutoff) <= c):
            problems.append(f"{where}: {status!r} disagrees with the closed-form cutoff")
    return problems, len(rows)


# name -> (prepare, check, data outputs hashed for the determinism check).
# "predict.tsv" is the predict report table on stdout, without its manifest.
WORKLOADS = {
    "predict-log": (prepare_predict, check_predict, ["predict.tsv"]),
    "sweep-grid": (prepare_sweep, check_sweep, ["cells.tsv"]),
}
