"""Acceptance gate: one test per shipping criterion.

Each test prints a single ACCEPTANCE line (PASS or FAIL with the measured
numbers) and then asserts. Criterion 4 is implemented literally and is
expected to fail: the single-term moment formulas carry more than 2%
error over part of the audited grid (the error is a property of the
formulas, not of the implementation; the exact identities are pinned in
the theory tests). Everything else passes within budget.
"""

import math
import time

import numpy as np
from scipy import integrate

import growthlab as gl
from growthlab import seeding
from growthlab.cli import main


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_growth_law_values():
    measured = {1.58: gl.gamma_of_beta(1.58), 1.41: gl.gamma_of_beta(1.41)}
    gaps = {1.58: abs(measured[1.58] - 1.266), 1.41: abs(measured[1.41] - 1.418)}
    ok = gaps[1.58] <= 0.005 and gaps[1.41] <= 0.005
    _verdict(
        1, "growth law values", ok,
        f"gamma(1.58)={measured[1.58]:.5f} gamma(1.41)={measured[1.41]:.5f} "
        f"(tolerance 0.005)",
    )


def test_criterion_2_sweep_reproduction():
    start = time.monotonic()
    betas = (1.2, 1.4, 1.6, 1.8, 2.5, 3.0, 5.0)
    cells = gl.run_sweep(
        c_values=(1.0,), beta_values=betas, days_per_cell=200,
        population_range=(1e3, 1e5), seed=0,
    )
    elapsed = time.monotonic() - start
    gaps = {}
    ok = all(cell.status == "ok" for cell in cells) and elapsed < 60.0
    for cell in cells:
        tolerance = 0.10 if cell.beta < 2.0 else 0.05
        gaps[cell.beta] = cell.gamma_fit - cell.gamma_theory
        ok = ok and abs(gaps[cell.beta]) <= tolerance
    rendered = " ".join(f"{beta}:{gaps[beta]:+.3f}" for beta in betas)
    _verdict(
        2, "sweep reproduction", ok,
        f"gaps {rendered} (tol 0.10 below beta 2, 0.05 above) in {elapsed:.1f}s",
    )


def test_criterion_3_collapse_quality():
    start = time.monotonic()
    results = {}
    for beta, days in ((1.58, 171), (1.41, 120)):
        schedule = gl.log_uniform_schedule(
            seeding.generator(0, seeding.STREAM_SCHEDULE), days, (1e4, 1e6)
        )
        config = gl.SamplerConfig(
            beta=beta, lower_cutoff=3.0, integerize=True, seed=0
        )
        series = gl.synthesize_series(schedule, config, "coupled-truncation")
        quality, fit = gl.collapse_check(series, bootstrap_reps=0)
        results[beta] = (fit.beta - beta, quality)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0 and all(
        abs(gap) <= 0.06 and quality >= 0.9 for gap, quality in results.values()
    )
    rendered = " ".join(
        f"{beta}:{gap:+.4f} R2={quality:.4f}"
        for beta, (gap, quality) in results.items()
    )
    _verdict(
        3, "collapse quality", ok,
        f"{rendered} (tol 0.06, R2 floor 0.9) in {elapsed:.1f}s",
    )


def test_criterion_4_moment_approximation_audit():
    def quad_moment(f_max, beta, order):
        density = lambda t: math.exp(t * (order - beta)) * f_max**beta
        value, _ = integrate.quad(density, 0.0, math.log(f_max), limit=200)
        return value

    quad_ok = True
    over_budget = []
    for f_max in (1e3, 1e4, 1e5):
        for beta in (1.1, 1.5, 1.9, 2.0, 2.5, 4.0):
            exact = gl.exact_moments(f_max, beta)
            for order, side in ((1, "P"), (2, "F")):
                reference = quad_moment(f_max, beta, order)
                measured = exact.population if side == "P" else exact.total_activity
                if abs(measured - reference) > 1e-6 * reference:
                    quad_ok = False
            approx = gl.approx_moments(f_max, beta)
            err_p = abs(approx.population - exact.population) / exact.population
            err_f = (abs(approx.total_activity - exact.total_activity)
                     / exact.total_activity)
            if max(err_p, err_f) > 0.02:
                over_budget.append(
                    f"(f_max=1e{int(math.log10(f_max))}, beta={beta}): "
                    f"P {err_p * 100:.1f}% F {err_f * 100:.1f}%"
                )
    detail = (f"quadrature at 1e-6 {'ok' if quad_ok else 'BROKEN'}; "
              f"{len(over_budget)}/36 grid cells exceed the 2% budget")
    if over_budget:
        detail += ": " + "; ".join(over_budget)
    _verdict(4, "moment approximation audit", quad_ok and not over_budget, detail)


def test_criterion_5_estimator_exactness():
    start = time.monotonic()
    populations = np.logspace(2, 6, 12)
    pairs = [(float(p), float(p**1.37)) for p in populations]
    tls = gl.fit_gamma_tls(pairs, bootstrap_reps=0)
    tls_gap = abs(tls.slope - 1.37)

    config = gl.SamplerConfig(beta=1.58, lower_cutoff=1.0)
    draws = gl.sample_activity(
        config, seeding.generator(0, seeding.STREAM_DAY, 0).random(100_000)
    )
    mle = gl.fit_beta_mle(draws, x_min=1.0)
    mle_gap = abs(mle.beta - 1.58)
    elapsed = time.monotonic() - start
    ok = tls_gap <= 1e-9 and mle_gap <= 0.02 and elapsed < 5.0
    _verdict(
        5, "estimator exactness", ok,
        f"TLS gap {tls_gap:.2e} (tol 1e-9), MLE beta {mle.beta:.5f} "
        f"gap {mle_gap:.5f} (tol 0.02) in {elapsed:.1f}s",
    )


def test_criterion_6_protocol_divergence(tmp_path, capsys):
    start = time.monotonic()
    schedule = gl.log_uniform_schedule(
        seeding.generator(0, seeding.STREAM_SCHEDULE), 200, (1e3, 1e5)
    )
    config = gl.SamplerConfig(beta=1.5, lower_cutoff=1.0, seed=0)
    totals = gl.series_totals(schedule, config, "unbounded")
    fit = gl.fit_gamma_tls(totals, bootstrap_reps=0)

    code = main([
        "sweep", "--protocol", "unbounded", "--c-values", "1",
        "--beta-grid", "1.5", "--days", "30", "--pmin", "1000",
        "--pmax", "100000", "--seed", "0", "--out", str(tmp_path / "sweep"),
    ])
    stdout = capsys.readouterr().out
    report_lines = [line for line in stdout.splitlines()
                    if "coupled-truncation law predicts gamma 1.33333" in line
                    and "iid-sum scaling predicts gamma 2" in line]
    elapsed = time.monotonic() - start
    ok = fit.slope > 1.6 and code == 0 and len(report_lines) == 1 \
        and elapsed < 30.0
    _verdict(
        6, "protocol divergence", ok,
        f"unbounded fitted gamma {fit.slope:.3f} (must exceed 1.6); report "
        f"states 1.33333 vs 2: {bool(report_lines)}; in {elapsed:.1f}s",
    )


def test_criterion_7_round_trips(tmp_path, capsys):
    schedule = gl.log_uniform_schedule(
        seeding.generator(11, seeding.STREAM_SCHEDULE), 6, (1e3, 1e4)
    )
    config = gl.SamplerConfig(beta=1.6, lower_cutoff=1.0, integerize=True, seed=11)
    series = gl.synthesize_series(schedule, config, "coupled-truncation")
    events_path = tmp_path / "events.csv"
    gl.write_events_csv(gl.events_from_series(series), str(events_path))
    recovered = gl.aggregate(gl.load_events(str(events_path)))
    exact = len(recovered) == len(series.days) and all(
        got.population == want.population
        and got.total_activity == want.total_activity
        and np.array_equal(got.levels, want.levels)
        and np.array_equal(got.counts, want.counts)
        for got, want in zip(recovered, series.days)
    )

    kwargs = dict(c_values=(1.0, 2.0), beta_values=(1.3, 2.5),
                  days_per_cell=30, seed=9)
    sweep_equal = gl.run_sweep(**kwargs) == gl.run_sweep(**kwargs)

    flags = ["simulate", "--beta", "1.6", "--days", "6", "--pmin", "1000",
             "--pmax", "10000", "--seed", "11", "--integerize"]
    assert main(flags + ["--out", str(tmp_path / "a")]) == 0
    assert main(flags + ["--out", str(tmp_path / "b")]) == 0
    cli_flags = ["sweep", "--c-values", "1,2", "--beta-grid", "1.3,2.5",
                 "--days", "30", "--seed", "9"]
    assert main(cli_flags + ["--out", str(tmp_path / "s1")]) == 0
    assert main(cli_flags + ["--out", str(tmp_path / "s2")]) == 0
    capsys.readouterr()
    byte_equal = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("snapshots.tsv", "events.csv")
    ) and (tmp_path / "s1" / "cells.tsv").read_bytes() == \
        (tmp_path / "s2" / "cells.tsv").read_bytes()

    ok = exact and sweep_equal and byte_equal
    _verdict(
        7, "round trips", ok,
        f"event log reproduces (P, F, histogram) exactly: {exact}; two serial "
        f"sweeps equal: {sweep_equal}; reruns byte-identical: {byte_equal}",
    )
