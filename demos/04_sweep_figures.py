"""
The Monte Carlo sweep: tracing gamma(beta) across protocols
===========================================================

run_sweep synthesizes a series per (C, beta) cell and fits gamma in each,
tracing the theoretical curve gamma = 2/beta (beta < 2), 1 (beta >= 2).
The coupling between daily cutoff and population is what realizes that
law; switch it off (protocol "unbounded") and the fitted exponent runs
away toward the iid-sum value 1/(beta-1) instead. Cells that cannot be
synthesized, e.g. a high beta forcing the cutoff below C, come back as
flagged rows rather than exceptions. The figure lands in demo_output/.
"""

import pathlib

import numpy as np

from growthlab import gamma_of_beta, iid_sum_exponent, run_sweep
from growthlab.svg import sweep_svg

# A reduced grid keeps this demo quick; the CLI default is 10 cutoffs
# by 40 betas. Every cell derives its streams from (seed, cell index),
# so the table is a pure function of the grid and the seed.
cells = run_sweep(
    c_values=(1.0, 2.0, 3.0),
    beta_values=(1.2, 1.4, 1.6, 1.8, 2.2, 3.0, 5.0, 8.0),
    days_per_cell=60,
    population_range=(1e3, 1e4),
    seed=0,
)

print("C     beta   gamma fit   gamma theory   status")
for cell in cells:
    fitted = f"{cell.gamma_fit:9.4f}" if cell.status == "ok" else "      ---"
    print(f"{cell.c:3.0f} {cell.beta:6.2f}   {fitted}"
          f"   {cell.gamma_theory:8.4f}       {cell.status}")

# Collapse the grid to one number per beta: the median fitted exponent
# across cutoffs hugs the curve.
print("\nbeta   median gamma   2/beta or 1")
for beta in sorted({cell.beta for cell in cells}):
    fits = [c.gamma_fit for c in cells if c.beta == beta and c.status == "ok"]
    print(f"{beta:4.1f}   {np.median(fits):9.4f}      {gamma_of_beta(beta):6.4f}")

# The same beta = 1.5 cell under both protocols: coupled truncation lands
# on 4/3, unbounded sampling overshoots toward the iid-sum exponent 2.
for protocol in ("coupled-truncation", "unbounded"):
    cell = run_sweep(
        c_values=(1.0,), beta_values=(1.5,), days_per_cell=60,
        population_range=(1e3, 1e5), protocol=protocol, seed=0,
    )[0]
    print(f"\n{protocol}: fitted gamma = {cell.gamma_fit:.4f}")
print(f"bounded-law prediction {gamma_of_beta(1.5):.4f},"
      f" iid-sum prediction {iid_sum_exponent(1.5):.4f}")

# One dot per ok cell, colored by C, over the theoretical polyline.
out_dir = pathlib.Path(__file__).resolve().parent / "demo_output"
out_dir.mkdir(exist_ok=True)
figure = out_dir / "sweep.svg"
figure.write_text(sweep_svg(cells))
print(f"\nwrote {figure}")
