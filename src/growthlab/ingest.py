"""Reading, aggregating and writing activity event logs and snapshot tables.

The on-disk interchange formats are deliberately tiny. CSV files carry a
header ``user_id,day,count``; JSONL files carry one object per line with
the same three keys. ``day`` is either an ISO-8601 calendar date or an
integer day index, ``count`` a positive integer that fits in 64 bits. A
snapshot table is tab-separated with the header ``day P F f_max``, one
row per day; it holds each day's (P, F) pair but no per-user histogram.
Parsing is strict and error messages name the offending line, because
silent coercion of a malformed activity log poisons every estimate
downstream.

A log is read as a stream, one row at a time, into an ``EventTable``: the
distinct day values, the distinct user ids, and per-row int64 arrays of
day code, user code and count. Each distinct day text is parsed once, and
day texts naming the same day (``5``, `` 5``, ``05``) share a code.
``aggregate`` sums and histograms those arrays with numpy into one
``DailySnapshot`` per day, whose histogram is two arrays, ``levels`` and
``counts``. ``EventTable.from_rows`` builds a table from hand-written
``(user_id, day, count)`` rows.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import DataError, DomainError

__all__ = [
    "DailySnapshot",
    "EventTable",
    "parse_events",
    "parse_pairs",
    "load_events",
    "aggregate",
    "export_events_csv",
    "write_events_csv",
]

Day = Union[int, dt.date]

_CSV_HEADER = ["user_id", "day", "count"]

# A CSV cell is quoted when it holds any of these.
_CSV_QUOTED = re.compile('[,"\r\n]')

_SNAPSHOT_HEADER = ["day", "P", "F", "f_max"]

_FORMAT_BY_SUFFIX = {".tsv": "snapshot", ".csv": "csv", ".jsonl": "jsonl",
                     ".ndjson": "jsonl"}

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class DailySnapshot:
    """One day's aggregate state: total activity and histogram.

    The histogram is held as read-only 1-D arrays sorted by level:
    ``levels``, the activity levels f (tags per user that day), positive
    and strictly increasing, and ``counts``, n(f) >= 1, the number of
    users that produced exactly f tags. The constructor copies both, and
    checks that sum f*n(f) == total_activity. ``population`` (sum n(f))
    and ``f_max`` (the largest level) are read from the arrays. Snapshots
    compare equal by value, arrays included.
    """

    day: Day
    total_activity: float
    levels: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        levels, counts = np.array(self.levels), np.array(self.counts)
        if levels.ndim != 1 or levels.shape != counts.shape:
            raise DomainError("levels and counts must be 1-D and of one length")
        if not len(levels):
            raise DomainError("histogram must be non-empty")
        if levels.dtype.kind not in "iuf" or counts.dtype.kind not in "iu":
            raise DomainError("levels must be numbers and counts integers")
        bad = ~(levels > 0)  # also true for nan
        if bad.any():
            raise DomainError(f"activity level must be positive, got {levels[bad][0]}")
        if not (np.diff(levels) > 0).all():
            raise DomainError("activity levels must be strictly increasing")
        if counts.min() < 1:
            raise DomainError(f"user count must be >= 1, got {counts.min()}")
        # In floats: an int64 product could wrap.
        total = float(levels @ counts.astype(float))
        if not math.isclose(total, self.total_activity, rel_tol=1e-9, abs_tol=1e-6):
            raise DomainError(
                f"total_activity {self.total_activity} != histogram sum {total}"
            )
        for name, array in (("levels", levels), ("counts", counts)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    population = property(lambda self: int(self.counts.sum()))
    f_max = property(lambda self: float(self.levels[-1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DailySnapshot):
            return NotImplemented
        return ((self.day, self.total_activity) == (other.day, other.total_activity)
                and np.array_equal(self.levels, other.levels)
                and np.array_equal(self.counts, other.counts))


class EventTable:
    """An event log in columns.

    Row i is user ``users[user_codes[i]]`` with ``counts[i]`` tags on day
    ``days[day_codes[i]]``. ``days`` and ``users`` hold distinct values;
    the three columns are read-only int64 arrays of one length.
    """

    __slots__ = ("days", "users", "day_codes", "user_codes", "counts")

    def __init__(self, days: Iterable[Day], users: Iterable[str],
                 day_codes, user_codes, counts) -> None:
        self.days = tuple(map(_check_day, days))
        self.users = tuple(users)
        try:
            columns = [np.asarray(column, dtype=np.int64)
                       for column in (day_codes, user_codes, counts)]
        except OverflowError:
            raise DataError("codes and counts must fit in 64 bits") from None
        if any(column.ndim != 1 or len(column) != len(columns[0])
               for column in columns):
            raise DataError("day_codes, user_codes and counts must be "
                            "1-D and of one length")
        if len(set(self.days)) != len(self.days):
            raise DataError("days must be distinct")
        # Dict keys are distinct already; skip the set that would prove it.
        user_set = users if isinstance(users, dict) else set(self.users)
        if len(user_set) != len(self.users) or "" in user_set:
            raise DataError("user ids must be distinct and non-empty")
        for name, column, size in (("day_codes", columns[0], len(self.days)),
                                   ("user_codes", columns[1], len(self.users))):
            if len(column) and not (column.min() >= 0 and column.max() < size):
                raise DataError(f"{name} must lie in [0, {size})")
        if len(columns[2]) and columns[2].min() < 1:
            raise DataError(f"count must be >= 1, got {columns[2].min()}")
        for column in columns:
            column.flags.writeable = False
        self.day_codes, self.user_codes, self.counts = columns

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, Day, int]]) -> "EventTable":
        """A table of (user_id, day, count) rows in their order. A user id
        must be a non-empty str, a day an int or a date, and a count an int in
        [1, 2^63 - 1]; anything else raises DataError."""
        builder = _TableBuilder()
        for user_id, day, count in rows:
            if not isinstance(user_id, str):
                raise DataError(f"user_id must be a string, got {user_id!r}")
            builder.add(_check_day(day), user_id, _check_count(count))
        return builder.table()

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return (f"EventTable({len(self)} events, {len(self.days)} days, "
                f"{len(self.users)} users)")


class _TableBuilder:
    """Rows appended as codes; each distinct day and user id gets the next code."""

    def __init__(self) -> None:
        self.days: dict[Day, int] = {}
        self.users: dict[str, int] = {}
        self.day_codes: list[int] = []
        self.user_codes: list[int] = []
        self.counts: list[int] = []

    def day_code(self, day: Day) -> int:
        return self.days.setdefault(day, len(self.days))

    def user_code(self, user_id: str) -> int:
        if not user_id:
            raise DataError("user_id must be non-empty")
        return self.users.setdefault(user_id, len(self.users))

    def add(self, day: Day, user_id: str, count: int) -> None:
        self.day_codes.append(self.day_code(day))
        self.user_codes.append(self.user_code(user_id))
        self.counts.append(count)

    def table(self) -> EventTable:
        return EventTable(self.days, self.users, self.day_codes,
                          self.user_codes, self.counts)


def _parse_day(text: str) -> Day:
    """ISO date if it looks like one, else integer index."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise DataError(f"day {text!r} is neither an ISO date nor an integer") from None


def _check_day(day: object) -> Day:
    if isinstance(day, bool) or not isinstance(day, (int, dt.date)):
        raise DataError(f"day must be a date or integer index, got {day!r}")
    return day


def _check_count(count: object) -> int:
    if isinstance(count, bool) or not isinstance(count, int):
        raise DataError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    if count > _INT64_MAX:
        raise DataError(f"count {count} does not fit in 64 bits")
    return count


def _parse_count(raw: object) -> int:
    if isinstance(raw, str):
        try:
            raw = int(raw)  # int() itself ignores surrounding whitespace
        except ValueError:
            raise DataError(f"count {raw!r} is not an integer") from None
    return _check_count(raw)


def _parse_csv(text: IO[str]) -> EventTable:
    reader = csv.reader(text)
    try:
        return _csv_table(reader)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _csv_table(reader) -> EventTable:
    builder = _TableBuilder()
    header = next(reader, None)
    if header is None:
        return builder.table()
    if [column.strip() for column in header] != _CSV_HEADER:
        raise DataError(
            f"line 1: expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    # Raw cell text -> day code or count; a miss parses the text and caches
    # it, so a bad text still fails, with its message, at its first line.
    # Raw user text that hits builder.users is already stripped.
    day_by_text: dict[str, int] = {}
    count_by_text: dict[str, int] = {}
    user_by_id = builder.users
    add_day = builder.day_codes.append
    add_user = builder.user_codes.append
    add_count = builder.counts.append
    for lineno, row in enumerate(reader, start=2):
        try:
            user_text, day_text, count_text = row
        except ValueError:
            if not row:
                continue
            raise DataError(f"line {lineno}: expected 3 fields, got {len(row)}") from None
        try:
            day = day_by_text.get(day_text)
            if day is None:
                day = day_by_text[day_text] = builder.day_code(_parse_day(day_text))
            count = count_by_text.get(count_text)
            if count is None:
                count = count_by_text[count_text] = _parse_count(count_text)
            user = user_by_id.get(user_text)
            if user is None:
                user = builder.user_code(user_text.strip())
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        add_day(day)
        add_user(user)
        add_count(count)
    return builder.table()


def _parse_jsonl(text: IO[str]) -> EventTable:
    builder = _TableBuilder()
    for lineno, line in enumerate(text, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise DataError(f"line {lineno}: expected an object")
        missing = [key for key in _CSV_HEADER if key not in record]
        if missing:
            raise DataError(f"line {lineno}: missing key(s) {', '.join(missing)}")
        day_raw = record["day"]
        try:
            if isinstance(day_raw, bool):
                raise DataError(f"day {day_raw!r} is neither an ISO date nor an integer")
            day = day_raw if isinstance(day_raw, int) else _parse_day(str(day_raw))
            builder.add(day, str(record["user_id"]), _parse_count(record["count"]))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
    return builder.table()


def _parse_snapshots(text: IO[str]) -> list[tuple[float, float]]:
    # Only \n and \r\n end a line; str.splitlines would also break at \f,
    # \x85, \u2028 and more, and misnumber every line after them.
    lines = [line.removesuffix("\r") for line in text.read().split("\n")]
    if lines[-1] == "":
        lines.pop()
    if lines and [cell.strip() for cell in lines[0].split("\t")] != _SNAPSHOT_HEADER:
        expected = "\t".join(_SNAPSHOT_HEADER)
        raise DataError(f"line 1: expected header {expected!r}")
    pairs = []
    days = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != 4:
            raise DataError(f"line {lineno}: expected 4 fields, got {len(cells)}")
        try:
            day = _parse_day(cells[0])
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if day in days:
            raise DataError(f"line {lineno}: day {_format_day(day)} repeats")
        days.add(day)
        try:
            population, activity, f_max = map(float, cells[1:])
        except ValueError:
            raise DataError(f"line {lineno}: P, F and f_max must be numeric") from None
        # Also false for nan, which no comparison admits.
        if not (1.0 <= population < math.inf and 1.0 <= activity < math.inf):
            raise DataError(
                f"line {lineno}: P and F must be finite and >= 1, "
                f"got {cells[1].strip()!r} and {cells[2].strip()!r}"
            )
        if not 1.0 <= f_max < math.inf:
            raise DataError(f"line {lineno}: f_max must be finite and >= 1, "
                            f"got {cells[3].strip()!r}")
        pairs.append((population, activity))
    return pairs


def _decoded(stream: IO, parse, newline: str):
    """parse(text), with bytes decoded as UTF-8 while they are read."""
    text = stream if isinstance(stream.read(0), str) \
        else io.TextIOWrapper(stream, encoding="utf-8", newline=newline)
    try:
        return parse(text)
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc.reason}") from None
    finally:
        if text is not stream:
            text.detach()


def parse_events(stream: IO, format: str = "csv") -> EventTable:
    """Parse an event log from a byte or text stream.

    format is "csv" or "jsonl". Bytes are decoded as UTF-8 while rows are
    read, so the log is never held whole as text. Events are returned in
    input order; empty input yields an empty table. Malformed rows raise
    DataError naming the line number. A byte stream is left open.
    """
    if format == "csv":
        return _decoded(stream, _parse_csv, "")
    if format == "jsonl":
        return _decoded(stream, _parse_jsonl, "\n")
    if format == "snapshot":
        raise DataError("per-user histograms need an event log (csv or jsonl), "
                        "not a snapshot TSV")
    raise DataError(f"unknown format {format!r} (expected 'csv' or 'jsonl')")


def parse_pairs(stream: IO, format: str) -> list[tuple[float, float]]:
    """The daily (P, F) pairs of a byte or text stream: a snapshot table's
    rows, whose P and F must be finite and at least 1, for format
    "snapshot"; an event log's aggregated days for "csv" or "jsonl". Errors
    are as parse_events raises them; a byte stream is left open."""
    if format == "snapshot":
        return _decoded(stream, _parse_snapshots, "")
    return [(s.population, s.total_activity)
            for s in aggregate(parse_events(stream, format))]


def _sniff_format(path: str, stream: io.BufferedReader) -> str:
    """"snapshot", "csv" or "jsonl" by the suffix of path in any case, else
    by the first non-blank line, peeked from the open stream so that a pipe
    is read once; else CSV, whose parser names a bad header precisely."""
    suffix = os.path.splitext(path)[1].lower()
    if suffix in _FORMAT_BY_SUFFIX:
        return _FORMAT_BY_SUFFIX[suffix]
    head = stream.peek().decode("utf-8", errors="replace").lstrip()
    if head.startswith("day\t"):
        return "snapshot"
    return "jsonl" if head.startswith("{") else "csv"


def load_events(path: str) -> EventTable:
    """parse_events on a file path, in the format its suffix (any case)
    names, else its first non-blank line's, else CSV; a snapshot table
    raises DataError."""
    with open(path, "rb") as stream:
        format = _sniff_format(path, stream)
        if format == "snapshot":
            raise DataError(f"{str(path)!r} is a snapshot table, not an event log")
        return parse_events(stream, format)


def _day_sort_key(day: Day) -> tuple:
    # Integer indices and calendar dates are mutually unordered; rank the
    # type first so mixed logs still sort deterministically.
    return (isinstance(day, dt.date), day)


def _format_day(day: Day) -> str:
    return day.isoformat() if isinstance(day, dt.date) else str(day)


def _fmt(value) -> str:
    """6 significant digits; integral values print as plain integers."""
    number = float(value)
    if math.isfinite(number) and number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return f"{number:.6g}"


def _snapshots_tsv(snapshots: Iterable[DailySnapshot]) -> str:
    lines = ["\t".join(_SNAPSHOT_HEADER)]
    for snapshot in snapshots:
        lines.append(f"{_format_day(snapshot.day)}\t{snapshot.population}"
                     f"\t{_fmt(snapshot.total_activity)}\t{_fmt(snapshot.f_max)}")
    return "\n".join(lines) + "\n"


def _ranking(values: Sequence) -> tuple[list[int], np.ndarray]:
    """The indices of values in ascending order, and each index's rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return order, rank


def aggregate(table: EventTable) -> list[DailySnapshot]:
    """Collapse an event log into per-day snapshots.

    Multiple events for the same (user, day) pair sum their counts; a sum
    above 2^63 - 1 raises DataError. Days come back sorted ascending; days
    with no events simply do not appear. The result is invariant under
    permutation of the rows.
    """
    if not len(table):
        return []
    day_order, day_rank = _ranking(list(map(_day_sort_key, table.days)))
    n_users = len(table.users)
    user_days, inverse = np.unique(day_rank[table.day_codes] * n_users
                                   + table.user_codes, return_inverse=True)
    counts = table.counts
    if int(counts.max()) > _INT64_MAX // len(counts):
        # A per-user-day or per-day sum could pass 2^63 - 1, where int64
        # wraps: add exact Python ints instead.
        counts = counts.astype(object)
    totals = np.zeros(len(user_days), dtype=counts.dtype)
    np.add.at(totals, inverse, counts)
    too_big = np.flatnonzero(totals > _INT64_MAX)
    if too_big.size:
        key = int(user_days[too_big[0]])
        day = table.days[day_order[key // n_users]]
        raise DataError(
            f"user {table.users[key % n_users]!r} on day {_format_day(day)}: "
            f"summed count {totals[too_big[0]]} does not fit in 64 bits"
        )
    # user_days is sorted, so each day's user totals form one run.
    bounds = np.searchsorted(user_days // n_users, np.arange(len(day_order) + 1))
    snapshots = []
    for rank, code in enumerate(day_order):
        user_totals = totals[bounds[rank]:bounds[rank + 1]]
        if not len(user_totals):
            continue
        levels, users = np.unique(user_totals, return_counts=True)
        snapshots.append(
            DailySnapshot(
                day=table.days[code],
                total_activity=float(user_totals.sum()),
                # Every total fits in int64 now, exact sums or not.
                levels=levels.astype(np.int64, copy=False),
                counts=users,
            )
        )
    return snapshots


def _csv_cells(users: Sequence[str]) -> list[str]:
    """Each user id as a CSV cell: an id that holds , " \\r or \\n is
    quoted, with each " doubled, as csv.writer writes it. An id with
    surrounding whitespace raises DataError: reading the CSV back would
    strip it."""
    cells = []
    for user in users:
        if user.strip() != user:
            raise DataError(f"user id {user!r} has surrounding whitespace, "
                            "which reading the CSV back would strip")
        if _CSV_QUOTED.search(user):
            user = '"' + user.replace('"', '""') + '"'
        cells.append(user)
    return cells


def _write_csv(table: EventTable) -> Iterator[str]:
    """A table's CSV text, a day at a time, in (day, user_id) order. The
    sort is stable: rows of one user on one day keep their input order.
    Every user id is checked before this returns."""
    cells = _csv_cells(table.users)
    day_order, day_rank = _ranking(list(map(_day_sort_key, table.days)))
    row_days = day_rank[table.day_codes]
    by_day = np.argsort(row_days, kind="stable")
    bounds = np.cumsum(np.bincount(row_days, minlength=len(day_order)))
    _, user_rank = _ranking(table.users)

    def chunks() -> Iterator[str]:
        yield ",".join(_CSV_HEADER) + "\n"
        for code, day_rows in zip(day_order, np.split(by_day, bounds[:-1])):
            day_rows = day_rows[np.argsort(user_rank[table.user_codes[day_rows]],
                                           kind="stable")]
            middle = f",{_format_day(table.days[code])},"
            yield "".join(f"{cells[user]}{middle}{count}\n" for user, count in zip(
                table.user_codes[day_rows].tolist(), table.counts[day_rows].tolist()))
    return chunks()


def export_events_csv(table: EventTable) -> str:
    """Serialize an event table as the canonical CSV interchange text.

    Rows are ordered by (day, user_id lexicographic); rows of one user on
    one day keep their input order. So equal inputs give byte-identical
    text, the text is a function of the event multiset when no (user, day)
    pair repeats, and parse_events(export_events_csv(table)) returns the
    same events up to ordering; so a user id with surrounding whitespace,
    which that parse would strip, raises DataError.
    """
    return "".join(_write_csv(table))


def write_events_csv(table: EventTable, path: str) -> None:
    """export_events_csv streamed to a file, a day at a time (UTF-8, \\n
    line endings). A DataError is raised before the file is created."""
    chunks = _write_csv(table)
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        sink.writelines(chunks)
