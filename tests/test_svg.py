"""Structural checks on the emitted SVG figures."""

import math
import xml.etree.ElementTree as ET

import pytest

from growthlab import (
    DailySnapshot,
    SamplerConfig,
    SweepCell,
    binned_cloud,
    rescale_histogram,
    synthesize_series,
)
from growthlab.cli import main
from growthlab.errors import DomainError
from growthlab.svg import collapse_svg, growth_scatter_svg, sweep_svg


def _inventory(svg_text):
    """Parse the document and count classed elements by (tag, class)."""
    root = ET.fromstring(svg_text)
    counts = {}
    for element in root.iter():
        tag = element.tag.rsplit("}", 1)[-1]
        css = element.get("class")
        if css is not None:
            counts[(tag, css)] = counts.get((tag, css), 0) + 1
    return counts


def _cells(n_ok, n_failed=0):
    cells = []
    for i in range(n_ok):
        beta = 1.1 + 8.0 * i / max(1, n_ok - 1)
        cells.append(SweepCell(
            c=float(1 + i % 10), beta=beta,
            gamma_fit=2.0 / beta if beta < 2 else 1.0,
            fit_quality=0.99, status="ok",
        ))
    for i in range(n_failed):
        beta = 9.0 + i
        cells.append(SweepCell(
            c=10.0, beta=beta,
            gamma_fit=math.nan, fit_quality=math.nan,
            status="failed", message="cutoff collapsed",
        ))
    return cells


@pytest.fixture()
def short_series():
    config = SamplerConfig(beta=1.41, upper_cutoff=300.0, integerize=True, seed=0)
    return synthesize_series([5000] * 4, config, "fixed-truncation")


class TestGrowthScatter:
    def test_well_formed_with_one_fit_line(self):
        pairs = [(10.0**k, 10.0 ** (1.4 * k)) for k in range(2, 7)]
        svg = growth_scatter_svg(pairs, slope=1.4, intercept=0.0)
        counts = _inventory(svg)
        assert counts[("polyline", "fit")] == 1
        assert counts[("circle", "dot")] == len(pairs)

    def test_rejects_degenerate_input(self):
        with pytest.raises(DomainError, match="2 points"):
            growth_scatter_svg([(100.0, 300.0)], slope=1.0, intercept=0.0)

    def test_byte_deterministic(self):
        pairs = [(10.0**k, 10.0 ** (1.4 * k)) for k in range(2, 7)]
        first = growth_scatter_svg(pairs, slope=1.4, intercept=0.0)
        again = growth_scatter_svg(pairs, slope=1.4, intercept=0.0)
        assert first == again


class TestSweepFigure:
    def test_exactly_one_theory_curve(self):
        counts = _inventory(sweep_svg(_cells(12, n_failed=3)))
        theory = [key for key in counts if key[1] == "theory"]
        assert theory == [("polyline", "theory")]
        assert counts[("polyline", "theory")] == 1

    def test_failed_cells_are_skipped(self):
        counts = _inventory(sweep_svg(_cells(12, n_failed=3)))
        assert counts[("circle", "dot")] == 12

    def test_full_grid_stays_within_budget(self):
        counts = _inventory(sweep_svg(_cells(400)))
        assert counts[("circle", "dot")] <= 400
        assert counts[("polyline", "theory")] == 1

    def test_empty_ok_set_still_renders(self):
        counts = _inventory(sweep_svg(_cells(0, n_failed=2)))
        assert ("circle", "dot") not in counts
        assert counts[("polyline", "theory")] == 1


class TestCollapseFigure:
    def test_two_panels_one_fit_line(self, short_series):
        rescaled = [rescale_histogram(s)
                    for s in short_series.days]
        cloud = binned_cloud(rescaled, 5)
        svg = collapse_svg(short_series.days, cloud, beta=1.41)
        counts = _inventory(svg)
        assert counts[("polyline", "fit")] == 1
        raw_points = sum(len(s.levels) for s in short_series.days)
        assert counts[("circle", "dot")] == raw_points + len(cloud[0])

    def test_rejects_empty_input(self):
        with pytest.raises(DomainError, match="at least one day"):
            collapse_svg([], ([0.0], [1.0]), beta=1.5)

    def test_days_with_one_user_per_level_are_well_formed(self):
        # Every drawn count is 1, so the left panel's count range is one
        # value and is padded around it.
        days = [DailySnapshot(day=d, total_activity=25.0 + d, levels=[1, 4, 20 + d],
                              counts=[1, 1, 1]) for d in range(3)]
        cloud = binned_cloud([rescale_histogram(s) for s in days], 3)
        svg = collapse_svg(days, cloud, beta=1.5)
        counts = _inventory(svg)
        assert counts[("polyline", "fit")] == 1
        assert counts[("circle", "dot")] == 9 + len(cloud[0])
        assert "nan" not in svg and "inf" not in svg


class TestCliFigures:
    def test_fit_and_sweep_write_parseable_svg(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--beta", "1.5", "--days", "8",
                     "--pmin", "300", "--pmax", "3000", "--seed", "0",
                     "--out", str(out)]) == 0
        figure = tmp_path / "growth.svg"
        assert main(["fit", "--input", str(out / "snapshots.tsv"),
                     "--svg", str(figure)]) == 0
        assert _inventory(figure.read_text())[("polyline", "fit")] == 1

        sweep_dir = tmp_path / "sweep"
        sweep_figure = tmp_path / "sweep.svg"
        assert main(["sweep", "--c-values", "1,2", "--beta-grid", "1.5,3",
                     "--days", "20", "--seed", "0", "--svg", str(sweep_figure),
                     "--out", str(sweep_dir)]) == 0
        counts = _inventory(sweep_figure.read_text())
        assert counts[("polyline", "theory")] == 1
        assert counts[("circle", "dot")] == 4
        capsys.readouterr()

    def test_collapse_figure_from_events(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--beta", "1.5", "--days", "6",
                     "--pmin", "1000", "--pmax", "20000", "--seed", "1",
                     "--integerize", "--out", str(out)]) == 0
        figure = tmp_path / "collapse.svg"
        assert main(["collapse", "--input", str(out / "events.csv"),
                     "--bootstrap-reps", "50", "--svg", str(figure)]) == 0
        counts = _inventory(figure.read_text())
        assert counts[("polyline", "fit")] == 1
        assert counts.get(("circle", "dot"), 0) > 0
        capsys.readouterr()
