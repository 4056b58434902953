"""End-to-end tests of the command line interface.

Everything runs main() in process and inspects exit codes, stdout tables
and the files written; one test builds the console-script launcher from
the `[project.scripts]` entry in pyproject.toml and runs it in a
subprocess to prove the packaging wiring.
"""

import gc
import json
import hashlib
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import growthlab
from growthlab import aggregate, ingest, load_events
from growthlab.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(table):
    """An event table's (user_id, day, count) rows, in order."""
    return [(table.users[user], table.days[day], count) for user, day, count
            in zip(table.user_codes.tolist(), table.day_codes.tolist(),
                   table.counts.tolist())]


def _table_row(stdout, index=1):
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    return lines[index].split("\t")


def _write_noiseless_snapshots(path, exponent=1.39, n_days=9):
    lines = ["day\tP\tF\tf_max"]
    for day, population in enumerate(np.logspace(3, 5, n_days)):
        population = float(population)
        activity = population**exponent
        lines.append(f"{day}\t{population!r}\t{activity!r}\t{activity!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_pairs(path, populations, activities):
    """A snapshot table of the given (P, F) days; f_max is F."""
    lines = ["day\tP\tF\tf_max"]
    lines += [f"{day}\t{p}\t{f}\t{f}"
              for day, (p, f) in enumerate(zip(populations, activities))]
    path.write_text("\n".join(lines) + "\n")


def _write_model_events(path, beta=1.41, f_max=1259, days=(0, 1)):
    """Two identical days drawn exactly from the bounded power law."""
    rows = ["user_id,day,count"]
    for day in days:
        user = 0
        for level in range(1, f_max + 1):
            for _ in range(round((level / f_max) ** -beta)):
                rows.append(f"u{user:06d},{day},{level}")
                user += 1
    path.write_text("\n".join(rows) + "\n")


def _source_env():
    """The environment for a subprocess that imports this source tree."""
    source_root = Path(growthlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source_root), env.get("PYTHONPATH")]))
    return env


class TestSimulate:
    def test_writes_snapshot_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = _run(
            capsys, "simulate", "--beta", "1.5", "--days", "12",
            "--pmin", "1000", "--pmax", "100000", "--seed", "0",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "snapshots.tsv").read_text().splitlines()
        assert lines[0] == "day\tP\tF\tf_max"
        assert len(lines) == 13
        for line in lines[1:]:
            day, population, activity, f_max = line.split("\t")
            assert 1000 <= int(population) <= 100000
            assert float(activity) >= float(population)
            assert float(f_max) >= 1.0
        assert not (out / "events.csv").exists()
        assert "events.csv skipped" in stdout
        assert "# manifest " in stdout

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        flags = ["simulate", "--beta", "1.41", "--days", "8", "--pmin", "500",
                 "--pmax", "20000", "--seed", "3", "--integerize"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *flags, "--out", str(first))[0] == 0
        assert _run(capsys, *flags, "--out", str(second))[0] == 0
        for name in ("snapshots.tsv", "events.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        # Digests of the files these flags wrote when events were written
        # one object per row; any change to the bytes is a format change.
        out = tmp_path / "run"
        assert _run(capsys, "simulate", "--beta", "1.6", "--days", "6",
                    "--pmin", "1000", "--pmax", "10000", "--seed", "11",
                    "--integerize", "--out", str(out))[0] == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("events.csv", "snapshots.tsv")}
        assert digests == {
            "events.csv": "22cf1fd73bed75577ec0408d2619bc21"
                          "0f1c61cab542daaf361dfeb018afe02f",
            "snapshots.tsv": "94c4a6f9dcd863c0f61f36aebf6251f2"
                             "b6c354e52a0a47ea745aea7e5b84e024",
        }

    def test_read_side_bytes_are_pinned(self, tmp_path, capsys):
        # Digests of predict's table and collapse's figure on the run above,
        # taken while snapshots still carried a {level: count} mapping.
        out = tmp_path / "run"
        assert _run(capsys, "simulate", "--beta", "1.6", "--days", "6",
                    "--pmin", "1000", "--pmax", "10000", "--seed", "11",
                    "--integerize", "--out", str(out))[0] == 0
        events, svg = str(out / "events.csv"), out / "collapse.svg"
        code, stdout, _ = _run(capsys, "predict", "--input", events)
        assert code == 0
        table = "".join(line + "\n" for line in stdout.splitlines()
                        if not line.startswith("# manifest"))
        assert _run(capsys, "collapse", "--beta", "1.6", "--input", events,
                    "--svg", str(svg))[0] == 0
        digests = {"predict": hashlib.sha256(table.encode()).hexdigest(),
                   "collapse.svg": hashlib.sha256(svg.read_bytes()).hexdigest()}
        assert digests == {
            "predict": "1ec4a8f5c52a46ca01fe3692252b40e5"
                       "62b6701f7e9ebb7cde48b65db8860929",
            "collapse.svg": "66e90d7b3e92eee038c7548781343e31"
                            "31ce5bc00cfd73e55c60e667e7e33cf1",
        }

    def test_fit_and_sweep_figures_are_pinned(self, tmp_path, capsys):
        # Digests of the figures these flags drew when cli.py imported svg
        # at start-up; the collapse figure is pinned above.
        out = tmp_path / "run"
        assert _run(capsys, "simulate", "--beta", "1.6", "--days", "6",
                    "--pmin", "1000", "--pmax", "10000", "--seed", "11",
                    "--integerize", "--out", str(out))[0] == 0
        assert _run(capsys, "fit", "--input", str(out / "events.csv"),
                    "--svg", str(out / "fit.svg"))[0] == 0
        assert _run(capsys, "sweep", "--c-values", "1,3", "--beta-grid", "1.5,2.5",
                    "--days", "10", "--out", str(out),
                    "--svg", str(out / "sweep.svg"))[0] == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("fit.svg", "sweep.svg")}
        assert digests == {
            "fit.svg": "9e0850861f33a5155e23d161b5cb75d1"
                       "3801a336aac73097503fbb38a9864d97",
            "sweep.svg": "966068e8e0bbb9a215615eef6363d4a2"
                         "00e6917d75f4440332b399910143b492",
        }

    def test_hypothesis_scores_are_pinned(self, tmp_path, capsys):
        # collapse's score against a fixed beta on the run above, as the
        # residual-based R^2 printed it before the fits shared one
        # weighted-sums core.
        out = tmp_path / "run"
        assert _run(capsys, "simulate", "--beta", "1.6", "--days", "6",
                    "--pmin", "1000", "--pmax", "10000", "--seed", "11",
                    "--integerize", "--out", str(out))[0] == 0
        for beta, line in [("1.6", "# hypothesis beta 1.6: adj_r2 0.976467"),
                           ("6", "# hypothesis beta 6: adj_r2 -10.7815")]:
            code, stdout, _ = _run(capsys, "collapse", "--beta", beta,
                                   "--input", str(out / "events.csv"))
            assert code == 0
            assert line in stdout.splitlines()

    def test_integerized_events_reproduce_the_snapshots(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = _run(
            capsys, "simulate", "--beta", "1.6", "--days", "5",
            "--pmin", "300", "--pmax", "3000", "--seed", "1",
            "--integerize", "--out", str(out),
        )
        assert code == 0
        snapshots = aggregate(load_events(str(out / "events.csv")))
        rows = (out / "snapshots.tsv").read_text().splitlines()[1:]
        assert len(snapshots) == len(rows)
        for snapshot, row in zip(snapshots, rows):
            day, population, activity, f_max = row.split("\t")
            assert snapshot.day == int(day)
            assert snapshot.population == int(population)
            assert snapshot.total_activity == float(activity)
            assert snapshot.f_max == float(f_max)

    def test_usage_errors_exit_one(self, tmp_path, capsys):
        out = str(tmp_path / "x")
        cases = [
            ["simulate", "--beta", "1.5", "--days", "0", "--out", out],
            ["simulate", "--beta", "1.5", "--pmin", "5000", "--pmax", "100",
             "--out", out],
            ["simulate", "--beta", "1.5", "--pmin", "5000", "--pmax", "5000",
             "--out", out],
            ["simulate", "--beta", "0.8", "--out", out],
            ["simulate", "--beta", "inf", "--out", out],
            ["simulate", "--beta", "1.5", "--protocol", "fixed", "--out", out],
        ]
        for argv in cases:
            code, _, stderr = _run(capsys, *argv)
            assert code == 1
            assert "error" in stderr
        cutoff = "cutoff must be finite and >= 1, got"
        for flags, message in [
            (["--c", "0.5"], f"argument --c: {cutoff} '0.5'"),
            (["--c", "nan"], f"argument --c: {cutoff} 'nan'"),
            (["--c", "inf"], f"argument --c: {cutoff} 'inf'"),
            (["--protocol", "fixed", "--upper-cutoff", "nan"],
             f"argument --upper-cutoff: {cutoff} 'nan'"),
            (["--protocol", "fixed", "--upper-cutoff", "0"],
             f"argument --upper-cutoff: {cutoff} '0'"),
            (["--protocol", "fixed", "--c", "3", "--upper-cutoff", "3"],
             "--upper-cutoff must exceed --c"),
            (["--c", "5", "--upper-cutoff", "2"], "--upper-cutoff must exceed --c"),
            (["--upper-cutoff", "50"], "--upper-cutoff applies only to --protocol fixed"),
            (["--protocol", "unbounded", "--upper-cutoff", "50"],
             "--upper-cutoff applies only to --protocol fixed"),
        ]:
            code, stdout, stderr = _run(capsys, "simulate", "--beta", "1.5",
                                        *flags, "--out", out)
            assert (code, stdout) == (1, "")
            assert stderr == f"growthlab: error: {message}\n"

    def test_beta_that_is_not_a_number_is_a_usage_error(self, tmp_path, capsys):
        code, stdout, stderr = _run(capsys, "simulate", "--beta", "abc",
                                    "--out", str(tmp_path / "x"))
        assert (code, stdout) == (1, "")
        assert stderr == "growthlab: error: argument --beta: 'abc' is not a number\n"

    @pytest.mark.parametrize("protocol, ok", [
        ("coupled", True), ("fixed", True), ("unbounded", True),
        ("coupled-truncation", False), ("bounded", False),
    ])
    def test_protocol_takes_exactly_the_short_names(
            self, tmp_path, capsys, protocol, ok):
        cutoff = ["--upper-cutoff", "50"] if protocol == "fixed" else []
        code, _, stderr = _run(
            capsys, "simulate", "--beta", "1.5", "--days", "3",
            "--pmin", "100", "--pmax", "1000", "--protocol", protocol,
            *cutoff, "--out", str(tmp_path / "run"),
        )
        assert code == (0 if ok else 1)
        if not ok:
            assert "choose from 'coupled', 'fixed', 'unbounded'" in stderr

    @pytest.mark.parametrize("flags, message", [
        (["--beta", "1.2", "--integerize", "--pmin", "100000",
          "--pmax", "200000"], r"an integerized activity draw .* exceeds 2\^63 - 1"),
        (["--beta", "1.01", "--pmin", "100000", "--pmax", "200000"],
         "an activity draw overflows to inf"),
    ], ids=["past-int64", "inf"])
    def test_overflowing_draws_exit_two_naming_the_day(
            self, tmp_path, capsys, flags, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, stderr = _run(
                capsys, "simulate", "--protocol", "unbounded", *flags,
                "--out", str(tmp_path / "run"),
            )
        assert code == 2
        assert re.match(r"growthlab: day \d+: " + message, stderr)
        assert "must be positive" not in stderr
        assert stdout == ""

    def test_pmax_past_the_float_range_exits_two(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, stderr = _run(
                capsys, "simulate", "--beta", "1.5", "--days", "3",
                "--pmax", str(10**400), "--out", str(tmp_path / "run"),
            )
        assert (code, stdout) == (2, "")
        assert stderr.startswith(
            "growthlab: population range bounds must be finite numbers, got (1000, ")
        assert not os.path.exists(tmp_path / "run" / "snapshots.tsv")


class TestFit:
    def test_noiseless_power_law_is_recovered_exactly(self, tmp_path, capsys):
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path, exponent=1.39)
        code, stdout, _ = _run(capsys, "fit", "--input", str(path))
        assert code == 0
        header = _table_row(stdout, 0)
        assert header == ["gamma", "theta", "ci95_low", "ci95_high",
                          "adj_r2", "n_days"]
        row = _table_row(stdout)
        assert row == ["1.39", "0.39", "1.39", "1.39", "1", "9"]

    def test_three_collinear_days_give_zero_width_interval(self, tmp_path, capsys):
        path = tmp_path / "three.tsv"
        _write_noiseless_snapshots(path, exponent=1.2, n_days=3)
        code, stdout, _ = _run(capsys, "fit", "--input", str(path))
        assert code == 0
        row = _table_row(stdout)
        assert row[2] == row[3] == row[0]

    def test_interval_covers_the_sampled_exponent(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.41", "--days", "15",
             "--pmin", "300", "--pmax", "30000", "--seed", "15",
             "--out", str(out))
        code, stdout, _ = _run(
            capsys, "fit", "--input", str(out / "snapshots.tsv"),
            "--bootstrap-reps", "1000", "--seed", "0",
        )
        assert code == 0
        row = _table_row(stdout)
        low, high = float(row[2]), float(row[3])
        assert low <= 2.0 / 1.41 <= high
        assert high - low < 0.15
        assert row[5] == "15"

    def test_accepts_event_logs_too(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.8", "--days", "6",
             "--pmin", "300", "--pmax", "3000", "--seed", "4",
             "--integerize", "--out", str(out))
        code, stdout, _ = _run(capsys, "fit", "--input", str(out / "events.csv"))
        assert code == 0
        assert _table_row(stdout)[5] == "6"

    def test_crlf_table_fits_as_lf(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.5", "--days", "12",
             "--pmin", "300", "--pmax", "30000", "--seed", "3", "--out", str(out))
        crlf = tmp_path / "crlf.tsv"
        crlf.write_bytes((out / "snapshots.tsv").read_bytes().replace(b"\n", b"\r\n"))
        tables = []
        for source in (out / "snapshots.tsv", crlf):
            code, stdout, stderr = _run(capsys, "fit", "--input", str(source),
                                        "--bootstrap-reps", "200")
            assert (code, stderr) == (0, "")
            tables.append([line for line in stdout.splitlines()
                           if not line.startswith("#")])
        assert tables[0] == tables[1]
        assert tables[0][1].split("\t")[5] == "12"

    def test_one_day_resamples_stay_out_of_the_interval(self, tmp_path, capsys):
        # With 3 days, 3 of the 27 resamples draw one day three times.
        path = tmp_path / "three.tsv"
        path.write_text("day\tP\tF\tf_max\n0\t1007\t16004\t100\n"
                        "1\t10000\t418012\t500\n2\t100000\t9699999\t3000\n")
        code, stdout, _ = _run(capsys, "fit", "--input", str(path))
        assert code == 0
        gamma, _, low, high = map(float, _table_row(stdout)[:4])
        assert 1.0 < low <= gamma <= high

    def test_one_population_replicates_are_skipped(self, tmp_path, capsys):
        # 7 of the 9 days have P = 3. The 105 of 1000 replicates that draw
        # only those days have no growth line; 895 enter the interval.
        path = tmp_path / "nine.tsv"
        _write_pairs(path, [3, 3, 3, 3, 3, 3, 3, 100, 1000],
                     [4, 5, 6, 4, 5, 6, 5, 300, 5000])
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert (code, stderr) == (0, "")
        assert _table_row(stdout) == ["1.18861", "0.188608", "1.15643",
                                      "1.21215", "0.996244", "9"]

    @pytest.mark.parametrize("population, activities", [
        (3, [4, 5, 6, 4, 5, 6, 5]), (10, [4, 5, 6])])
    def test_one_population_exits_two(self, tmp_path, capsys, population,
                                      activities):
        path = tmp_path / "one.tsv"
        _write_pairs(path, [population] * len(activities), activities)
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == (f"growthlab: all {len(activities)} days have "
                          f"population {population}; a growth line needs two "
                          "distinct populations\n")

    def test_missing_input_exits_two(self, capsys, tmp_path):
        code, _, stderr = _run(
            capsys, "fit", "--input", str(tmp_path / "absent.tsv")
        )
        assert code == 2
        assert "absent.tsv" in stderr

    @pytest.mark.parametrize("name, header", [
        ("snapshots.tsv", "day\tP\tF\tf_max\n"),
        ("events.csv", "user_id,day,count\n"),
    ])
    def test_empty_input_needs_three_days(self, tmp_path, capsys, name, header):
        path = tmp_path / name
        path.write_text(header)
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == "growthlab: need at least 3 days to fit a growth line\n"

    def test_malformed_header_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("population\tactivity\n1000\t2000\n")
        code, _, stderr = _run(capsys, "fit", "--input", str(path))
        assert code == 2
        assert "line 1" in stderr

    @pytest.mark.parametrize("population, activity", [
        ("nan", "2000"), ("1000", "inf"), ("-inf", "2000"), ("1000", "NaN"),
        ("0.5", "2000"), ("1000", "0"),
    ])
    def test_non_finite_or_sub_unit_values_name_their_line(
            self, tmp_path, capsys, population, activity):
        path = tmp_path / "bad.tsv"
        _write_noiseless_snapshots(path, n_days=5)
        lines = path.read_text().splitlines()
        lines[3] = f"2\t{population}\t{activity}\t{activity}"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert code == 2
        assert stderr.startswith("growthlab: line 4: P and F must be finite")
        assert "RuntimeWarning" not in stderr and "bracket" not in stderr
        assert stdout == ""

    @pytest.mark.parametrize("row, message", [
        ("foo\t1000\t15000\tbar", "day 'foo' is neither an ISO date nor an integer"),
        ("2\t1000\t15000\tbar", "P, F and f_max must be numeric"),
        ("2\t1000\t15000\t-5", "f_max must be finite and >= 1, got '-5'"),
        ("2\t1000\t15000\tnan", "f_max must be finite and >= 1, got 'nan'"),
        ("2\t1000\t15000\tinf", "f_max must be finite and >= 1, got 'inf'"),
        ("2\t1000\t15000\t0.5", "f_max must be finite and >= 1, got '0.5'"),
        ("1\t1000\t15000\t100", "day 1 repeats"),
        (" 01\t1000\t15000\t100", "day 1 repeats"),
    ], ids=["day-foo", "f_max-bar", "f_max-negative", "f_max-nan", "f_max-inf",
            "f_max-below-one", "repeated-day", "repeated-padded-day"])
    def test_bad_day_or_f_max_names_its_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.tsv"
        _write_noiseless_snapshots(path, n_days=5)
        lines = path.read_text().splitlines()
        lines[3] = row
        path.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == f"growthlab: line 4: {message}\n"

    @pytest.mark.parametrize("separator, lineno", [
        ("\x0b", 3), ("\x0c", 3), ("\x85", 3), ("\u2028", 3), ("\u2029", 3),
        # float() does not strip these, so line 2 itself is bad.
        ("\x1c", 2), ("\x1d", 2), ("\x1e", 2),
    ])
    def test_only_newlines_end_a_line(self, tmp_path, capsys, separator, lineno):
        # A character str.splitlines breaks at ends line 2; line 3 is bad.
        path = tmp_path / "bad.tsv"
        _write_noiseless_snapshots(path, n_days=5)
        lines = path.read_text().splitlines()
        lines[1] += separator
        lines[2] = "1\tmany\t15000\t100"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == f"growthlab: line {lineno}: P, F and f_max must be numeric\n"


# Day d has 2**(d+1) users; user u logs u + d + 1 tags.
_AGREEMENT_ROWS = [(f"u{user}", day, user + day + 1)
                   for day in range(4) for user in range(2 ** (day + 1))]
_AGREEMENT_BODY = "".join(f"{u},{d},{c}\n" for u, d, c in _AGREEMENT_ROWS)
_AGREEMENT_TEXTS = {
    "csv": "user_id,day,count\n" + _AGREEMENT_BODY,
    "jsonl": "".join(json.dumps({"user_id": u, "day": d, "count": c}) + "\n"
                     for u, d, c in _AGREEMENT_ROWS),
    "padded-header": " user_id , day , count \n" + _AGREEMENT_BODY,
}
_AGREEMENT_TEXTS["blank-first-jsonl"] = "\n" + _AGREEMENT_TEXTS["jsonl"]


def _pipe(text):
    """The read end of a pipe that holds text and whose writer has closed."""
    read_fd, write_fd = os.pipe()
    with os.fdopen(write_fd, "w") as sink:
        sink.write(text)
    return read_fd


class TestLibraryAndCliAgreeOnFormat:
    """load_events and `fit --input` decide every file's format alike."""

    @pytest.mark.parametrize("name, kind", [
        ("log.csv", "csv"), ("log.CSV", "csv"), ("log", "csv"),
        ("log.jsonl", "jsonl"), ("log.JSONL", "jsonl"), ("log.ndjson", "jsonl"),
        ("log.NDJSON", "jsonl"), ("log", "jsonl"), ("log.txt", "padded-header"),
        ("log", "blank-first-jsonl"),
    ])
    def test_same_events(self, tmp_path, capsys, name, kind):
        path = tmp_path / name
        path.write_text(_AGREEMENT_TEXTS[kind])
        assert _rows(load_events(str(path))) == _AGREEMENT_ROWS
        reference = tmp_path / "reference.csv"
        reference.write_text(_AGREEMENT_TEXTS["csv"])
        tables = []
        for source in (path, reference):
            code, stdout, stderr = _run(capsys, "fit", "--input", str(source),
                                        "--bootstrap-reps", "0")
            assert (code, stderr) == (0, "")
            tables.append([line for line in stdout.splitlines()
                           if not line.startswith("#")])
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("header", ["usr_id,day,count", "user_id;day;count"])
    def test_same_line_one_error(self, tmp_path, capsys, header):
        path = tmp_path / "log.txt"
        path.write_text(header + "\nu1,0,1\n")
        with pytest.raises(growthlab.DataError) as raised:
            load_events(str(path))
        assert str(raised.value).startswith("line 1: expected header")
        code, stdout, stderr = _run(capsys, "fit", "--input", str(path),
                                    "--bootstrap-reps", "0")
        assert (code, stdout, stderr) == (2, "", f"growthlab: {raised.value}\n")

    @pytest.mark.parametrize("name, kind", [
        ("log.csv", "csv"), ("log", "csv"), ("log.jsonl", "jsonl"),
        ("log", "jsonl"), ("log.tsv", "snapshot"), ("log", "snapshot"),
    ])
    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, name,
                                                  kind):
        plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
        plain.parent.mkdir()
        marked.parent.mkdir()
        if kind == "snapshot":
            _write_noiseless_snapshots(plain)
        else:
            plain.write_text(_AGREEMENT_TEXTS[kind])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())

        def read(path):
            with open(path, "rb") as stream:
                format = ingest._sniff_format(str(path), stream)
                if format == "snapshot":
                    return format, ingest.parse_pairs(stream, format)
                return format, _rows(ingest.parse_events(stream, format))

        assert read(marked) == read(plain)
        assert read(plain)[0] == kind
        tables = []
        for path in (marked, plain):
            code, stdout, stderr = _run(capsys, "fit", "--input", str(path),
                                        "--bootstrap-reps", "0")
            assert (code, stderr) == (0, "")
            tables.append([line for line in stdout.splitlines()
                           if not line.startswith("#")])
            # The digest is of the file's bytes, a mark included.
            manifest = json.loads(stdout.split("# manifest ", 1)[1])
            assert manifest["inputs"] == {
                str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
        assert tables[0] == tables[1]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("kind", ["csv", "jsonl"])
    def test_a_pipe_is_sniffed_without_losing_rows(self, capsys, kind):
        # A pipe cannot be reopened at its start, so sniffing must not use
        # up the rows that parsing then reads.
        read_fd = _pipe(_AGREEMENT_TEXTS[kind])
        try:
            events = load_events(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        assert _rows(events) == _AGREEMENT_ROWS
        tables = []
        for kind in (kind, "csv"):
            read_fd = _pipe(_AGREEMENT_TEXTS[kind])
            path = f"/dev/fd/{read_fd}"
            try:
                code, stdout, stderr = _run(capsys, "fit", "--input", path,
                                            "--bootstrap-reps", "0")
            finally:
                os.close(read_fd)
            assert (code, stderr) == (0, "")
            tables.append(_table_row(stdout))
            # A pipe cannot be read again for its digest.
            manifest = json.loads(stdout.split("# manifest ", 1)[1])
            assert manifest["inputs"] == {path: None}
        assert tables[0] == tables[1]


@pytest.mark.parametrize("subcommand", ["fit", "collapse"])
def test_svg_inside_a_fresh_out_directory(tmp_path, capsys, subcommand):
    path = tmp_path / "events.csv"
    if subcommand == "fit":
        path.write_text(_AGREEMENT_TEXTS["csv"])
    else:
        _write_model_events(path, f_max=100)
    out = tmp_path / "res"
    code, stdout, stderr = _run(capsys, subcommand, "--input", str(path),
                                "--bootstrap-reps", "0", "--out", str(out),
                                "--svg", str(out / "figure.svg"))
    assert (code, stderr) == (0, "")
    assert (out / "figure.svg").read_text().startswith("<svg")
    assert json.loads((out / "manifest.json").read_text())["subcommand"] == subcommand


class TestPredict:
    def test_consistent_series_reports_true(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.8", "--c", "3", "--days", "10",
             "--pmin", "1000", "--pmax", "100000", "--seed", "2",
             "--integerize", "--out", str(out))
        code, stdout, _ = _run(
            capsys, "predict", "--input", str(out / "events.csv"),
            "--bootstrap-reps", "400", "--seed", "0",
        )
        assert code == 0
        header = _table_row(stdout, 0)
        assert header == ["beta", "beta_ci_low", "beta_ci_high",
                          "gamma_predicted", "gamma_fit", "gamma_ci_low",
                          "gamma_ci_high", "consistent"]
        row = _table_row(stdout)
        beta = float(row[0])
        assert 1.0 < beta < 2.0
        assert float(row[3]) == pytest.approx(2.0 / beta, rel=1e-4)
        assert float(row[5]) <= float(row[4]) <= float(row[6])
        assert row[7] == "true"

    def test_bootstrap_tables_are_pinned(self, tmp_path, capsys):
        # Taken while the TLS bootstrap refit each replicate's points in turn.
        out = tmp_path / "sim"
        assert _run(capsys, "simulate", "--beta", "1.5", "--days", "30",
                    "--pmax", "10000", "--integerize", "--seed", "1",
                    "--out", str(out))[0] == 0
        events, snapshots = str(out / "events.csv"), str(out / "snapshots.tsv")
        fit_table = ["gamma\ttheta\tci95_low\tci95_high\tadj_r2\tn_days",
                     "1.33515\t0.335151\t1.31155\t1.35946\t0.998421\t30"]
        expected = {
            ("predict", events, "200"): [
                "beta\tbeta_ci_low\tbeta_ci_high\tgamma_predicted\t"
                "gamma_fit\tgamma_ci_low\tgamma_ci_high\tconsistent",
                "1.34664\t1.33627\t1.36055\t1.48517\t1.33515\t1.3119\t"
                "1.3559\tfalse"],
            ("collapse", events, "200"): [
                "beta\tci95_low\tci95_high\tadj_r2\tn_days",
                "1.34664\t1.33627\t1.36055\t0.998194\t30"],
            ("fit", events, "1000"): fit_table,
            ("fit", snapshots, "1000"): fit_table,
        }
        for (command, source, reps), table in expected.items():
            code, stdout, stderr = _run(capsys, command, "--input", source,
                                        "--bootstrap-reps", reps)
            assert (code, stderr) == (0, "")
            assert [line for line in stdout.splitlines()
                    if not line.startswith("#")] == table

    @pytest.mark.parametrize("name, data", [
        ("bad.csv", b"user_id,day,count\nu1,0,1\nu\xff2,0,1\n"),
        ("bad.jsonl", b'{"user_id": "u1", "day": 0, "count": 1}\n'
                      b'{"user_id": "u\xff2", "day": 0, "count": 1}\n'),
        ("bad.tsv", b"day\tP\tF\tf_max\n0\t1000\t2000\t9\n1\t1\xff00\t2000\t9\n"),
    ])
    def test_non_utf8_log_exits_two(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        # A snapshot table holds (P, F) pairs only, which fit reads.
        subcommand = "fit" if name.endswith(".tsv") else "predict"
        code, stdout, stderr = _run(capsys, subcommand, "--input", str(path))
        assert code == 2
        assert stderr.startswith("growthlab: input is not valid UTF-8")
        assert stdout == ""

    def test_oversized_csv_cell_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("user_id,day,count\nu1,0,3\n" + "u" * 200_000 + ",0,1\n")
        code, stdout, stderr = _run(capsys, "predict", "--input", str(path))
        assert code == 2
        assert stderr.startswith("growthlab: line 3: field larger than field limit")
        assert "internal error" not in stderr
        assert stdout == ""

    @pytest.mark.parametrize("subcommand", ["predict", "fit"])
    @pytest.mark.parametrize("line", [
        '{"user_id": "a", "day": %s, "count": 1}\n' % ("1" * 5000),
        '{"user_id": "a", "day": 1, "count": %s}\n' % ("1" * 5000),
        '{"user_id": ' + "[" * 100_000 + "]" * 100_000 + ', "day": 1, "count": 1}\n',
    ], ids=["day-digits", "count-digits", "nesting"])
    def test_a_line_the_json_decoder_refuses_exits_two(self, tmp_path, capsys,
                                                       subcommand, line):
        path = tmp_path / "big.jsonl"
        path.write_text(line)
        code, stdout, stderr = _run(capsys, subcommand, "--input", str(path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("growthlab: line 1: invalid JSON (")
        assert "internal error" not in stderr

    def test_snapshot_input_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.5", "--days", "5",
             "--pmin", "300", "--pmax", "3000", "--seed", "0",
             "--out", str(out))
        code, _, stderr = _run(
            capsys, "predict", "--input", str(out / "snapshots.tsv"),
        )
        assert code == 2
        assert "event log" in stderr


class TestSweep:
    def test_writes_cells_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = _run(
            capsys, "sweep", "--c-values", "1,3", "--beta-grid", "1.4,2.5",
            "--days", "30", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        lines = (out / "cells.tsv").read_text().splitlines()
        assert lines[0] == "C\tbeta\tinv_beta\tgamma_fit\tgamma_theory\tr2\tstatus"
        assert len(lines) == 5
        theory = [line.split("\t")[4] for line in lines[1:]]
        assert theory == ["1.42857", "1", "1.42857", "1"]
        assert all(line.split("\t")[6] == "ok" for line in lines[1:])
        assert "(4 ok, 0 failed of 4 cells)" in stdout

    def test_cells_bytes_are_pinned(self, tmp_path, capsys):
        # Digest taken while every day built its own generator; drawing a
        # series' day streams in one pass must not move a bit.
        out = tmp_path / "sweep"
        assert _run(capsys, "sweep", "--c-values", "1,4", "--beta-grid", "1.3,1.8,3",
                    "--days", "20", "--seed", "12345", "--out", str(out))[0] == 0
        assert hashlib.sha256((out / "cells.tsv").read_bytes()).hexdigest() == (
            "e50f9d04761b9d29474e9b2ad71b83e5dbbd87c22f19e97beb6b36735d779637")

    @pytest.mark.parametrize("protocol, digest", [
        ("coupled", "8ee6495ef1fa82c46ab501818ac076ff362c96b7ec3ee31e68565af9addd1234"),
        ("unbounded", "499b65d8731effc4359ad79a15ee60893c1c02c773d46b88f417dc51f1924903"),
    ])
    def test_default_grid_bytes_are_pinned(self, tmp_path, capsys, protocol, digest):
        # The whole default 400-cell grid, so that no change to the draws or
        # to how the cells are run moves a bit of the sweep's table.
        out = tmp_path / "sweep"
        assert _run(capsys, "sweep", "--seed", "0", "--protocol", protocol,
                    "--out", str(out))[0] == 0
        assert hashlib.sha256((out / "cells.tsv").read_bytes()).hexdigest() == digest

    def test_small_grid_text_is_pinned(self, tmp_path, capsys):
        # The full table, ok rows and failed rows with their messages alike.
        out = tmp_path / "sweep"
        assert _run(capsys, "sweep", "--c-values", "1,8", "--beta-grid",
                    "1.3,2.5,6", "--days", "20", "--seed", "3",
                    "--out", str(out))[0] == 0
        assert (out / "cells.tsv").read_text() == (
            "C\tbeta\tinv_beta\tgamma_fit\tgamma_theory\tr2\tstatus\n"
            "1\t1.3\t0.769231\t1.48609\t1.53846\t0.998925\tok\n"
            "1\t2.5\t0.4\t1.05688\t1\t0.999262\tok\n"
            "1\t6\t0.166667\t1.00405\t1\t0.999964\tok\n"
            "8\t1.3\t0.769231\t1.44848\t1.53846\t0.999718\tok\n"
            "8\t2.5\t0.4\tnan\t1\tnan\tfailed: day 9: population 119 gives "
            "cutoff 7.95528 at or below the lower cutoff 8.0\n"
            "8\t6\t0.166667\tnan\t1\tnan\tfailed: day 0: population 2509 "
            "gives cutoff 4.82035 at or below the lower cutoff 8.0\n")
        assert hashlib.sha256((out / "cells.tsv").read_bytes()).hexdigest() == (
            "15a4e0105a375e252b5a1d6297da741a7d2fdd6ca26e57b70eef10c317c6ec08")

    @pytest.mark.parametrize("protocol", ["coupled", "unbounded"])
    def test_every_protocol_choice_fits_a_cell(self, tmp_path, capsys, protocol):
        out = tmp_path / "sweep"
        code, _, _ = _run(
            capsys, "sweep", "--protocol", protocol, "--c-values", "1,8",
            "--beta-grid", "1.3,2.5,6", "--days", "20", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        statuses = [line.split("\t")[6] for line in
                    (out / "cells.tsv").read_text().splitlines()[1:]]
        assert "ok" in statuses

    def test_fixed_protocol_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, stderr = _run(
            capsys, "sweep", "--protocol", "fixed", "--c-values", "1",
            "--beta-grid", "1.5", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert "argument --protocol: invalid choice" in stderr
        assert "choose from 'coupled', 'unbounded'" in stderr
        assert not (out / "cells.tsv").exists()

    def test_pooled_sweep_leaves_stderr_empty(self, tmp_path):
        # In a subprocess, so that anything a forked worker writes to the
        # inherited stderr is seen too.
        out = tmp_path / "sweep"
        result = subprocess.run(
            [sys.executable, "-m", "growthlab", "sweep", "--c-values", "1,8",
             "--beta-grid", "1.3,6", "--days", "20", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=_source_env(),
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert "(3 ok, 1 failed of 4 cells)" in result.stdout

    def test_failed_cells_become_rows_not_errors(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = _run(
            capsys, "sweep", "--c-values", "10", "--beta-grid", "8",
            "--days", "30", "--pmin", "100", "--pmax", "1000",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert "(0 ok, 1 failed of 1 cells)" in stdout
        row = (out / "cells.tsv").read_text().splitlines()[1].split("\t")
        assert row[3] == "nan"
        assert row[6].startswith("failed: ")
        assert "lower cutoff" in row[6]

    def test_unbounded_run_reports_both_scaling_laws(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = _run(
            capsys, "sweep", "--protocol", "unbounded", "--c-values", "1",
            "--beta-grid", "1.5", "--days", "30", "--pmin", "1000",
            "--pmax", "100000", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert ("# beta 1.5: coupled-truncation law predicts gamma 1.33333; "
                "unbounded iid-sum scaling predicts gamma 2") in stdout

    def test_overflowing_cell_names_the_day(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, _ = _run(
                capsys, "sweep", "--protocol", "unbounded", "--c-values", "1",
                "--beta-grid", "1.01", "--seed", "0", "--out", str(out),
            )
        assert code == 0
        assert "(0 ok, 1 failed of 1 cells)" in stdout
        status = (out / "cells.tsv").read_text().splitlines()[1].split("\t")[6]
        assert re.fullmatch(r"failed: day \d+: an activity draw overflows to "
                            r"inf; beta 1.01 is too close to 1 for this cutoff",
                            status)

    # The sweep's thread pool went, and with it its flag and its environment
    # variable. Their names are spelled in two pieces so that a search of
    # the tree for them finds no live use.
    REMOVED_FLAG = "--" "threads"
    REMOVED_VARIABLE = "GROWTHLAB_" "THREADS"

    def test_removed_thread_flag_is_a_usage_error(self, tmp_path, capsys):
        code, stdout, stderr = _run(
            capsys, "sweep", "--beta-grid", "1.5", "--c-values", "1",
            self.REMOVED_FLAG, "2", "--out", str(tmp_path / "sweep"),
        )
        assert code == 1
        assert "unrecognized arguments" in stderr and self.REMOVED_FLAG in stderr
        assert stdout == ""

    def test_removed_thread_variable_is_ignored(self, tmp_path, capsys,
                                                monkeypatch):
        flags = ["sweep", "--c-values", "1,3", "--beta-grid", "1.4,2.5",
                 "--days", "30", "--seed", "5"]
        first, second = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *flags, "--out", str(first))[0] == 0
        monkeypatch.setenv(self.REMOVED_VARIABLE, "abc")
        assert _run(capsys, *flags, "--out", str(second))[0] == 0
        assert (first / "cells.tsv").read_bytes() == \
            (second / "cells.tsv").read_bytes()

    def test_empty_or_invalid_grid_is_a_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code, _, stderr = _run(capsys, "sweep", "--beta-grid", "", "--out", out)
        assert code == 1
        assert "beta" in stderr
        code, _, stderr = _run(capsys, "sweep", "--beta-grid", "0.8", "--out", out)
        assert code == 1
        assert "exceed 1" in stderr
        for flag, values, message in [
            ("--beta-grid", "1.5,nan", "beta must be finite and exceed 1"),
            ("--beta-grid", "inf", "beta must be finite and exceed 1"),
            ("--c-values", "0.5", "cutoff must be finite and >= 1, got '0.5'"),
            ("--c-values", "1,nan", "cutoff must be finite and >= 1, got 'nan'"),
            ("--c-values", "inf", "cutoff must be finite and >= 1, got 'inf'"),
        ]:
            code, stdout, stderr = _run(capsys, "sweep", flag, values, "--out", out)
            assert (code, stdout) == (1, "")
            assert stderr == f"growthlab: error: argument {flag}: {message}\n"
        assert not os.path.exists(os.path.join(out, "cells.tsv"))

    def test_cutoff_list_of_no_values_is_a_usage_error(self, tmp_path, capsys):
        code, stdout, stderr = _run(capsys, "sweep", "--c-values", ",",
                                    "--out", str(tmp_path / "sweep"))
        assert (code, stdout) == (1, "")
        assert stderr == "growthlab: error: --c-values must name at least one cutoff\n"

    @pytest.mark.parametrize("flags, message", [
        (["--pmin", "5"], "argument --pmin: '5' must be >= 10"),
        (["--days", "5"], "argument --days: '5' must be >= 10"),
        (["--pmin", "5000", "--pmax", "5000"], "--pmax must exceed --pmin"),
    ], ids=["pmin", "days", "pmax-equals-pmin"])
    def test_population_and_day_flags_name_the_flag(self, tmp_path, capsys,
                                                    flags, message):
        code, stdout, stderr = _run(capsys, "sweep", "--beta-grid", "1.5",
                                    "--c-values", "1", *flags,
                                    "--out", str(tmp_path / "sweep"))
        assert (code, stdout) == (1, "")
        assert stderr == f"growthlab: error: {message}\n"

    def test_pmax_past_the_float_range_exits_two(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, stdout, stderr = _run(
                capsys, "sweep", "--beta-grid", "1.5", "--c-values", "1",
                "--pmax", str(10**400), "--out", str(tmp_path / "sweep"),
            )
        assert (code, stdout) == (2, "")
        assert stderr.startswith(
            "growthlab: population range bounds must be finite numbers, got (100, ")
        assert not os.path.exists(tmp_path / "sweep" / "cells.tsv")

    def test_internal_failures_exit_three(self, tmp_path, capsys, monkeypatch):
        import growthlab.cli as cli_module

        def boom(**kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "run_sweep", boom)
        code, _, stderr = _run(
            capsys, "sweep", "--beta-grid", "1.5", "--c-values", "1",
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 3
        assert "internal error" in stderr


class TestCollapse:
    def test_exact_model_events_recover_beta(self, tmp_path, capsys):
        path = tmp_path / "model.csv"
        _write_model_events(path, beta=1.41, f_max=1259)
        code, stdout, _ = _run(
            capsys, "collapse", "--input", str(path),
            "--bootstrap-reps", "200", "--seed", "0", "--beta", "1.41",
        )
        assert code == 0
        assert _table_row(stdout, 0) == ["beta", "ci95_low", "ci95_high",
                                         "adj_r2", "n_days"]
        row = _table_row(stdout)
        assert abs(float(row[0]) - 1.41) < 0.01
        assert float(row[3]) >= 0.999
        assert row[4] == "2"
        hypothesis = [line for line in stdout.splitlines()
                      if line.startswith("# hypothesis beta 1.41")]
        assert len(hypothesis) == 1
        assert float(hypothesis[0].rsplit(" ", 1)[1]) > 0.99

    def test_sampled_series_round_trip(self, tmp_path, capsys):
        out = tmp_path / "sim"
        _run(capsys, "simulate", "--beta", "1.41", "--c", "3", "--days", "10",
             "--pmin", "3000", "--pmax", "300000", "--seed", "0",
             "--integerize", "--out", str(out))
        code, stdout, _ = _run(
            capsys, "collapse", "--input", str(out / "events.csv"),
            "--bootstrap-reps", "100", "--seed", "0",
        )
        assert code == 0
        row = _table_row(stdout)
        assert abs(float(row[0]) - 1.41) < 0.1
        assert float(row[3]) >= 0.99
        assert row[4] == "10"

    def test_single_day_exits_two(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        _write_model_events(path, beta=1.41, f_max=200, days=(0,))
        code, _, stderr = _run(capsys, "collapse", "--input", str(path))
        assert code == 2
        assert "2 days" in stderr


class TestBootstrapRepsOption:
    @pytest.mark.parametrize("subcommand", ["fit", "predict", "collapse",
                                            "sweep"])
    @pytest.mark.parametrize("value", ["-3", "many"])
    def test_bad_count_is_a_usage_error(self, tmp_path, capsys, subcommand,
                                        value):
        target = ["--out", str(tmp_path / "out")] if subcommand == "sweep" \
            else ["--input", str(tmp_path / "events.csv")]
        code, stdout, stderr = _run(capsys, subcommand, *target,
                                    "--bootstrap-reps", value)
        assert code == 1
        assert "--bootstrap-reps" in stderr
        assert stdout == ""


_SIZE_FLAGS = [("simulate", "--days"), ("sweep", "--days"),
               ("fit", "--bootstrap-reps"), ("predict", "--bootstrap-reps"),
               ("collapse", "--bootstrap-reps"), ("predict", "--bins-per-decade"),
               ("collapse", "--bins-per-decade")]


def _size_flag_argv(tmp_path, subcommand, flag, value):
    # Each command fails at once if the value gets past the parser: a
    # missing --input, or --pmax below --pmin, so no test can start a run
    # of that size.
    out = ["--out", str(tmp_path / "out"), "--pmin", "5000", "--pmax", "100"]
    target = {"simulate": ["--beta", "1.5", *out], "sweep": out}.get(
        subcommand, ["--input", str(tmp_path / "events.csv")])
    return [subcommand, *target, flag, str(value)]


class TestSizeFlagBound:
    """--days, --bootstrap-reps and --bins-per-decade stop at 10^8, so no
    array numpy forms from two of them reaches 2^63 bytes."""

    @pytest.mark.parametrize("subcommand, flag", _SIZE_FLAGS)
    @pytest.mark.parametrize("value", [10**8 + 1, 2**61])
    def test_a_value_past_the_bound_is_a_usage_error(self, tmp_path, capsys,
                                                     subcommand, flag, value):
        code, stdout, stderr = _run(
            capsys, *_size_flag_argv(tmp_path, subcommand, flag, value))
        assert (code, stdout) == (1, "")
        assert stderr == (f"growthlab: error: argument {flag}: '{value}' "
                          f"must be <= 100000000\n")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("subcommand, flag", _SIZE_FLAGS)
    def test_the_bound_itself_is_accepted(self, tmp_path, subcommand, flag):
        # Parsed only: a run at the bound could allocate gigabytes.
        args = build_parser().parse_args(
            _size_flag_argv(tmp_path, subcommand, flag, 10**8))
        assert getattr(args, flag[2:].replace("-", "_")) == 10**8


def _refused_allocation(*args, **kwargs):
    raise MemoryError(f"Unable to allocate 8.00 EiB in process {os.getpid()}")


class TestRefusedAllocation:
    """An allocation the machine refuses is a data error carrying numpy's
    message; the tests raise it rather than ask for memory."""

    @pytest.mark.parametrize("subcommand, function", [
        ("simulate", "synthesize_series"), ("fit", "fit_gamma_tls"),
        ("predict", "compare_prediction"), ("collapse", "collapse_check")])
    def test_in_process(self, tmp_path, capsys, monkeypatch, subcommand, function):
        import growthlab.cli as cli_module

        monkeypatch.setattr(cli_module, function, _refused_allocation)
        if subcommand == "fit":
            _write_noiseless_snapshots(tmp_path / "input")
        else:
            _write_model_events(tmp_path / "input")
        target = (["--beta", "1.5", "--out", str(tmp_path / "out")]
                  if subcommand == "simulate" else ["--input", str(tmp_path / "input")])
        code, stdout, stderr = _run(capsys, subcommand, *target)
        assert (code, stdout) == (2, "")
        assert stderr == (f"growthlab: Unable to allocate 8.00 EiB in process "
                          f"{os.getpid()}\n")

    def test_in_a_forked_sweep_worker(self, tmp_path, capsys, monkeypatch):
        from growthlab import experiment

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(experiment, "series_totals", _refused_allocation)
        code, stdout, stderr = _run(capsys, "sweep", "--c-values", "1",
                                    "--beta-grid", "1.5,2.5",
                                    "--out", str(tmp_path / "sweep"))
        assert (code, stdout) == (2, "")
        match = re.fullmatch(r"growthlab: Unable to allocate 8\.00 EiB in "
                             r"process (\d+)\n", stderr)
        assert match and int(match[1]) != os.getpid()
        assert not os.path.exists(tmp_path / "sweep" / "cells.tsv")

    def test_an_empty_memory_error_still_says_what_failed(self, tmp_path, capsys,
                                                          monkeypatch):
        import growthlab.cli as cli_module

        def bare(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_module, "synthesize_series", bare)
        code, _, stderr = _run(capsys, "simulate", "--beta", "1.5",
                               "--out", str(tmp_path / "out"))
        assert (code, stderr) == (2, "growthlab: out of memory\n")


class TestSeedOption:
    @pytest.mark.parametrize("subcommand", ["simulate", "fit", "predict",
                                            "collapse", "sweep"])
    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_usage_error(self, tmp_path, capsys,
                                                   subcommand, value):
        target = {"simulate": ["--beta", "1.5", "--out", str(tmp_path / "out")],
                  "sweep": ["--out", str(tmp_path / "out")]}.get(
            subcommand, ["--input", str(tmp_path / "events.csv")])
        code, stdout, stderr = _run(capsys, subcommand, *target, "--seed", value)
        assert code == 1
        assert stdout == ""
        assert "argument --seed" in stderr


class TestManifest:
    def test_manifest_file_only_with_out(self, tmp_path, capsys):
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        code, stdout, _ = _run(capsys, "fit", "--input", str(path))
        assert code == 0
        assert "# manifest " in stdout
        assert list(tmp_path.iterdir()) == [path]

        out = tmp_path / "report"
        code, stdout, _ = _run(capsys, "fit", "--input", str(path),
                               "--out", str(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "fit"
        assert manifest["parameters"]["bootstrap_reps"] == 1000
        assert manifest["parameters"]["seed"] == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["inputs"][str(path)] == digest
        assert "created_utc" in manifest

    def test_manifest_line_matches_file(self, tmp_path, capsys):
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        out = tmp_path / "report"
        _, stdout, _ = _run(capsys, "fit", "--input", str(path),
                            "--out", str(out))
        line = [l for l in stdout.splitlines() if l.startswith("# manifest ")][0]
        assert json.loads(line[len("# manifest "):]) == \
            json.loads((out / "manifest.json").read_text())


class TestClosedStdout:
    def test_closed_pipe_exits_zero_without_a_message(self, tmp_path):
        # `growthlab ... | head -1`: the reader may be gone before a write.
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        source_root = Path(growthlab.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "growthlab", "fit", "--input", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert result.stderr == b""


class TestEntryPoints:
    def test_no_subcommand_prints_help_and_exits_one(self, capsys):
        code, _, stderr = _run(capsys)
        assert code == 1
        assert "SUBCOMMAND" in stderr

    def test_importing_the_cli_starts_no_process_machinery(self):
        # The sweep imports its process pool when it starts one, so that
        # every other command's start-up does not pay for it.
        probe = ("import sys, growthlab.cli; print(sorted(name for name in "
                 "('multiprocessing', 'concurrent.futures') if name in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120, env=_source_env())
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_bootstrap_fits_leave_numpy_ma_unimported(self):
        # np.percentile imports numpy.ma, several milliseconds of every
        # bootstrapping command; the bootstrap intervals do without it.
        probe = (
            "import sys, growthlab as gl\n"
            "cfg = gl.SamplerConfig(beta=1.5, integerize=True, seed=0)\n"
            "series = gl.synthesize_series([300, 1000, 3000, 600, 2000], cfg)\n"
            "gl.compare_prediction(series, bootstrap_reps=50)\n"
            "gl.collapse_check(series, bootstrap_reps=50)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120, env=_source_env())
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_pooled_sweep_leaves_multiprocessing_unimported(self, tmp_path):
        # The sweep forks its workers with os.fork and asks os whether it
        # may; multiprocessing would add several milliseconds of import.
        probe = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from growthlab import experiment\n"
            "from growthlab.cli import main\n"
            "code = main(['sweep', '--c-values', '1', '--beta-grid', '1.5,2.5',\n"
            f"             '--days', '10', '--out', {str(tmp_path)!r}])\n"
            "print(code, experiment._pool_workers(2), 'multiprocessing' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120, env=_source_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "0 2 False"

    def test_a_run_without_a_figure_leaves_svg_unimported(self, tmp_path, capsys):
        # Only --svg draws, so only --svg pays for compiling svg.py.
        assert _run(capsys, "simulate", "--beta", "1.6", "--days", "5", "--pmin",
                    "100", "--pmax", "1000", "--integerize",
                    "--out", str(tmp_path))[0] == 0
        path = tmp_path / "events.csv"
        probe = (
            "import sys, growthlab.cli\n"
            "imported = 'growthlab.svg' in sys.modules\n"
            f"code = growthlab.cli.main(['predict', '--input', {str(path)!r},\n"
            "                            '--bootstrap-reps', '10'])\n"
            "print(code, imported, 'growthlab.svg' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120, env=_source_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "0 False False"

    def test_main_in_process_leaves_the_collector_as_it_was(self, tmp_path, capsys):
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert _run(capsys, "fit", "--input", str(path))[0] == 0
        assert _run(capsys, "fit")[0] == 1
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_the_module_launcher_freezes_the_collector_after_main(self, tmp_path):
        # python -m growthlab exits with main's code, and the objects still
        # alive then are frozen, out of the shutdown collections' walk.
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        probe = (
            "import gc, sys\n"
            "from growthlab.__main__ import run\n"
            f"sys.argv = ['growthlab', 'fit', '--input', {str(path)!r}]\n"
            "before = gc.get_freeze_count()\n"
            "code = run()\n"
            "print(code, before, gc.get_freeze_count() > 0)\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, timeout=120, env=_source_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "0 0 True"
        for argv, code in [(["fit", "--input", str(path)], 0), (["fit"], 1),
                           (["fit", "--input", str(tmp_path / "missing.tsv")], 2)]:
            result = subprocess.run([sys.executable, "-m", "growthlab", *argv],
                                    capture_output=True, text=True, timeout=120,
                                    env=_source_env())
            assert result.returncode == code
        assert result.stderr.startswith("growthlab: ")

    def test_version_flag(self, capsys):
        assert _run(capsys, "--version")[0] == 0

    def test_console_script(self, tmp_path):
        # Write the launcher an installer generates for the declared entry
        # point, so the check covers the commit's wiring, not an install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            entry = tomllib.load(handle)["project"]["scripts"]["growthlab"]
        module, attr = entry.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "growthlab"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        executable = shutil.which("growthlab", path=str(bin_dir))
        assert executable is not None
        source_root = Path(growthlab.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source_root), env.get("PYTHONPATH")]))
        path = tmp_path / "noiseless.tsv"
        _write_noiseless_snapshots(path)
        result = subprocess.run(
            [executable, "fit", "--input", str(path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[1].split("\t")[0] == "1.39"
