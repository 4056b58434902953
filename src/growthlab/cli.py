"""Command line front end.

Five subcommands mirror the library's workflow:

  simulate   synthesize a multi-day activity series to disk
  fit        growth exponent gamma from a snapshot TSV or event log
  predict    measure beta, map it through the growth law, compare with gamma
  sweep      Monte Carlo grid over (C, beta) confronting theory
  collapse   rescaled-distribution fit of beta from an event log

Exit codes: 0 success, 1 usage error, 2 data or domain error, 3 internal
error. Every run emits a manifest (subcommand, full parameters, input
digests, null for a pipe, version, timestamp); re-running with identical
flags reproduces the data outputs byte for byte, the manifest's timestamp
being the single provenance exception. Numeric report tables use 6
significant digits.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import hashlib
import json
import os
import sys

from . import __version__, seeding
from .errors import (DomainError, GrowthlabError, check_beta, check_cutoff,
                     check_integer, read_number)
from .estimators import binned_cloud, fit_gamma_tls
from .experiment import _SWEEP_PROTOCOLS, collapse_check, compare_prediction, run_sweep
from .ingest import (_fmt, _sniff_format, _snapshots_tsv, aggregate,
                     parse_events, parse_pairs, write_events_csv)
from .sampler import (
    _PROTOCOL_ALIASES,
    SamplerConfig,
    canonical_protocol,
    events_from_series,
    log_uniform_schedule,
    synthesize_series,
)
from .theory import gamma_of_beta, iid_sum_exponent

# svg is imported in the three --svg branches, so a run without a figure
# does not compile or load it.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems must map to exit code 1, not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


# The largest --days, --bootstrap-reps or --bins-per-decade. numpy refuses
# an array of 2^63 bytes or more, and the largest array two such flags size
# together, bootstrap replicates by collapse bins (19 decades of int64
# counts), stays below it: 10^8 x 1.9e9 bins x 8 B = 1.5e18 B.
_MAX_SIZE = 10**8


def _flag(kind: type, check, *rule):
    """An argparse type: the text read as kind (int or float) by
    read_number, then check(value, *rule), whose DomainError message
    argparse prints. A text that is no number goes to check as it is, and
    every check refuses a str."""
    def parse(text: str):
        try:
            value = read_number(text, kind)
        except ValueError:
            value = text
        try:
            return check(value, *rule)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _list_of(parse):
    """An argparse type for comma-separated values, each read by parse."""
    def parse_list(text: str) -> list:
        return [parse(piece) for piece in text.split(",") if piece.strip()]
    return parse_list


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        sink.write(text)


def _emit_manifest(args: argparse.Namespace, subcommand: str,
                   inputs: dict[str, str | None]) -> None:
    parameters = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "subcommand")
    }
    manifest = {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "version": __version__,
        "created_utc": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    text = json.dumps(manifest, sort_keys=True)
    if getattr(args, "out", None):
        _write_text(os.path.join(args.out, "manifest.json"), text + "\n")
    print(f"# manifest {text}")


def _write_figure(path: str, svg: str) -> None:
    _write_text(path, svg)
    print(f"# wrote {path}")


def _read_input(args: argparse.Namespace, parse) -> tuple:
    """parse(stream, format) of --input, opened once and read in the format
    _sniff_format decides, and {path: SHA-256}, hashed from byte 0 of the
    same file after the parse; None for a pipe or any other stream that
    cannot seek."""
    with open(args.input, "rb") as stream:
        parsed = parse(stream, _sniff_format(args.input, stream))
        if not stream.seekable():
            return parsed, {args.input: None}
        stream.seek(0)
        sha = hashlib.sha256()
        for block in iter(lambda: stream.read(1 << 20), b""):
            sha.update(block)
    return parsed, {args.input: sha.hexdigest()}


def _read_days(args: argparse.Namespace) -> tuple:
    """The aggregated days of the event log --input, and its digests."""
    events, inputs = _read_input(args, parse_events)
    return aggregate(events), inputs


def _print_table(header: list[str], row: list[str]) -> None:
    print("\t".join(header))
    print("\t".join(row))


def cmd_simulate(args: argparse.Namespace) -> dict:
    if args.pmax <= args.pmin:
        raise _UsageError("--pmax must exceed --pmin")
    protocol = canonical_protocol(args.protocol)
    if protocol == "fixed-truncation" and args.upper_cutoff is None:
        raise _UsageError("--protocol fixed requires --upper-cutoff")
    if args.upper_cutoff is not None and not args.upper_cutoff > args.c:
        raise _UsageError("--upper-cutoff must exceed --c")
    if args.upper_cutoff is not None and protocol != "fixed-truncation":
        raise _UsageError("--upper-cutoff applies only to --protocol fixed")
    config = SamplerConfig(
        beta=args.beta, lower_cutoff=args.c, upper_cutoff=args.upper_cutoff,
        integerize=args.integerize, seed=args.seed,
    )
    schedule = log_uniform_schedule(
        seeding.generator(args.seed, seeding.STREAM_SCHEDULE),
        args.days, (args.pmin, args.pmax),
    )
    series = synthesize_series(schedule, config, protocol)
    snapshot_path = os.path.join(args.out, "snapshots.tsv")
    _write_text(snapshot_path, _snapshots_tsv(series.days))
    written = [snapshot_path]
    if args.integerize:
        events_path = os.path.join(args.out, "events.csv")
        write_events_csv(events_from_series(series), events_path)
        written.append(events_path)
    else:
        print("# continuous activities: events.csv skipped "
              "(event counts are integers; use --integerize)")
    print(f"# wrote {', '.join(written)} ({len(series.days)} days)")
    return {}


def cmd_fit(args: argparse.Namespace) -> dict:
    pairs, inputs = _read_input(args, parse_pairs)
    fit = fit_gamma_tls(pairs, bootstrap_reps=args.bootstrap_reps, seed=args.seed)
    low, high = fit.ci95_slope
    _print_table(
        ["gamma", "theta", "ci95_low", "ci95_high", "adj_r2", "n_days"],
        [_fmt(fit.slope), _fmt(fit.slope - 1.0), _fmt(low), _fmt(high),
         _fmt(fit.adjusted_r2), str(fit.n_points)],
    )
    if args.svg:
        from .svg import growth_scatter_svg
        _write_figure(args.svg, growth_scatter_svg(pairs, fit.slope, fit.intercept))
    return inputs


def cmd_predict(args: argparse.Namespace) -> dict:
    snapshots, inputs = _read_days(args)
    prediction = compare_prediction(
        snapshots, bins_per_decade=args.bins_per_decade,
        bootstrap_reps=args.bootstrap_reps, seed=args.seed,
    )
    beta_low, beta_high = prediction.beta_fit.ci95_beta
    gamma_low, gamma_high = prediction.gamma_fit.ci95_slope
    _print_table(
        ["beta", "beta_ci_low", "beta_ci_high", "gamma_predicted",
         "gamma_fit", "gamma_ci_low", "gamma_ci_high", "consistent"],
        [_fmt(prediction.beta_fit.beta), _fmt(beta_low), _fmt(beta_high),
         _fmt(prediction.gamma_theory), _fmt(prediction.gamma_fit.slope),
         _fmt(gamma_low), _fmt(gamma_high),
         "true" if prediction.consistent else "false"],
    )
    return inputs


def cmd_sweep(args: argparse.Namespace) -> dict:
    if args.pmax <= args.pmin:
        raise _UsageError("--pmax must exceed --pmin")
    betas = args.beta_grid
    if betas is not None and not betas:
        raise _UsageError("--beta-grid must name at least one beta")
    c_values = args.c_values
    if c_values is not None and not c_values:
        raise _UsageError("--c-values must name at least one cutoff")
    protocol = canonical_protocol(args.protocol)
    cells = run_sweep(
        c_values=c_values, beta_values=betas, days_per_cell=args.days,
        population_range=(args.pmin, args.pmax), protocol=protocol,
        seed=args.seed)
    lines = ["C\tbeta\tinv_beta\tgamma_fit\tgamma_theory\tr2\tstatus"]
    for cell in cells:
        status = cell.status if cell.status == "ok" else (
            "failed: " + " ".join(cell.message.split())
        )
        lines.append(
            f"{_fmt(cell.c)}\t{_fmt(cell.beta)}\t{_fmt(cell.inverse_beta)}"
            f"\t{_fmt(cell.gamma_fit)}\t{_fmt(cell.gamma_theory)}"
            f"\t{_fmt(cell.fit_quality)}\t{status}"
        )
    cells_path = os.path.join(args.out, "cells.tsv")
    _write_text(cells_path, "\n".join(lines) + "\n")
    ok = sum(1 for cell in cells if cell.status == "ok")
    print(f"# wrote {cells_path} ({ok} ok, {len(cells) - ok} failed of "
          f"{len(cells)} cells)")
    if protocol == "unbounded":
        # The bounded-distribution law and the iid-sum scaling part ways
        # for beta < 2; report both so the divergence is explicit.
        for beta in sorted({cell.beta for cell in cells}):
            print(
                f"# beta {_fmt(beta)}: coupled-truncation law predicts gamma "
                f"{_fmt(gamma_of_beta(beta))}; unbounded iid-sum scaling "
                f"predicts gamma {_fmt(iid_sum_exponent(beta))}"
            )
    if args.svg:
        from .svg import sweep_svg
        _write_figure(args.svg, sweep_svg(cells))
    return {}


def cmd_collapse(args: argparse.Namespace) -> dict:
    snapshots, inputs = _read_days(args)
    quality, fit = collapse_check(
        snapshots, beta_hypothesis=args.beta,
        bins_per_decade=args.bins_per_decade,
        bootstrap_reps=args.bootstrap_reps, seed=args.seed,
    )
    low, high = fit.ci95_beta
    _print_table(
        ["beta", "ci95_low", "ci95_high", "adj_r2", "n_days"],
        [_fmt(fit.beta), _fmt(low), _fmt(high), _fmt(fit.adjusted_r2),
         str(len(snapshots))],
    )
    if args.beta is not None:
        print(f"# hypothesis beta {_fmt(args.beta)}: adj_r2 {_fmt(quality)}")
    if args.svg:
        from .svg import collapse_svg
        cloud = binned_cloud(snapshots, args.bins_per_decade)
        _write_figure(args.svg, collapse_svg(snapshots, cloud, fit.beta))
    return inputs


def build_parser() -> _Parser:
    parser = _Parser(prog="growthlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"growthlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    # Flag types: count(name, minimum, maximum) reads an int flag.
    count = functools.partial(_flag, int, check_integer)
    beta = _flag(float, check_beta)
    cutoff = _flag(float, check_cutoff, "cutoff")
    # Flags that several subcommands share, each declared once.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_flag(int, seeding.check_seed), default=0)
    resampled = argparse.ArgumentParser(add_help=False)
    resampled.add_argument("--bootstrap-reps", default=1000,
                           type=count("bootstrap_reps", 0, _MAX_SIZE))
    binned = argparse.ArgumentParser(add_help=False)
    binned.add_argument("--bins-per-decade", default=5,
                        type=count("bins_per_decade", 1, _MAX_SIZE))

    simulate = sub.add_parser("simulate", parents=[seeded],
                              help="synthesize an activity series")
    simulate.add_argument("--beta", type=beta, required=True)
    simulate.add_argument("--c", type=cutoff, default=1.0,
                          help="lower activity cutoff (default 1)")
    simulate.add_argument("--protocol", choices=sorted(_PROTOCOL_ALIASES),
                          default="coupled")
    simulate.add_argument("--upper-cutoff", type=cutoff, default=None,
                          help="cutoff for --protocol fixed")
    simulate.add_argument("--days", type=count("days", 1, _MAX_SIZE), default=100)
    simulate.add_argument("--pmin", type=count("pmin", 1), default=1000)
    simulate.add_argument("--pmax", type=count("pmax", 1), default=100000)
    simulate.add_argument("--integerize", action="store_true",
                          help="floor activities to integers; also writes events.csv")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", parents=[resampled, seeded],
                         help="fit the growth exponent gamma")
    fit.add_argument("--input", required=True,
                     help="snapshot TSV or event log (csv/jsonl)")
    fit.add_argument("--svg", default=None, help="write a scatter+fit figure here")
    fit.add_argument("--out", default=None, help="directory for the manifest")
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", parents=[binned, resampled, seeded],
                             help="predict gamma from measured heterogeneity")
    predict.add_argument("--input", required=True, help="event log (csv/jsonl)")
    predict.add_argument("--out", default=None)
    predict.set_defaults(func=cmd_predict)

    sweep = sub.add_parser("sweep", parents=[seeded],
                           help="Monte Carlo sweep over (C, beta)")
    sweep.add_argument("--c-values", type=_list_of(cutoff), default=None,
                       help="comma-separated cutoffs (default 1..10)")
    sweep.add_argument("--beta-grid", type=_list_of(beta), default=None,
                       help="comma-separated betas (default 40 values in (1,10])")
    sweep.add_argument("--days", type=count("days", 10, _MAX_SIZE), default=100)
    sweep.add_argument("--pmin", type=count("pmin", 10), default=100)
    sweep.add_argument("--pmax", type=count("pmax", 1), default=10000)
    sweep.add_argument("--protocol", default="coupled", choices=sorted(
        name for name, p in _PROTOCOL_ALIASES.items() if p in _SWEEP_PROTOCOLS))
    sweep.add_argument("--svg", default=None)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    collapse = sub.add_parser("collapse", parents=[binned, resampled, seeded],
                              help="fit beta from rescaled daily distributions")
    collapse.add_argument("--input", required=True, help="event log (csv/jsonl)")
    collapse.add_argument("--beta", type=beta, default=None,
                          help="score the collapse against this fixed beta")
    collapse.add_argument("--svg", default=None)
    collapse.add_argument("--out", default=None)
    collapse.set_defaults(func=cmd_collapse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"growthlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits directly for --help/--version; keep their code 0.
        return EXIT_OK if not exc.code else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "out", None):
            # Before any work, so an unusable --out fails first and every
            # output (an --svg inside it too) has its directory.
            os.makedirs(args.out, exist_ok=True)
        inputs = args.func(args)
        _emit_manifest(args, args.subcommand, inputs)
        # Flush here, not at interpreter exit, so a closed pipe lands below.
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader of stdout has gone (`growthlab ... | head -1`): not a
        # data error. Point stdout at devnull so the exit-time flush of
        # what is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _UsageError as exc:
        print(f"growthlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GrowthlabError, OSError) as exc:
        print(f"growthlab: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # An allocation the machine refused, such as data too large for it;
        # numpy's message names the size.
        print(f"growthlab: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"growthlab: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
