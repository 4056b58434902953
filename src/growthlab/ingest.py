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
``aggregate`` sums and histograms those arrays with numpy. The table is
still a sequence of ``ActivityEvent`` for code that wants rows.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import operator
import os
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import DataError, DomainError

__all__ = [
    "ActivityEvent",
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


@dataclass(frozen=True)
class ActivityEvent:
    """One user's tag count on one day."""

    user_id: str
    day: Day
    count: int

    def __post_init__(self) -> None:
        if not self.user_id:
            raise DataError("user_id must be non-empty")
        if isinstance(self.count, bool) or not isinstance(self.count, int):
            raise DataError(f"count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise DataError(f"count must be >= 1, got {self.count}")
        if isinstance(self.day, bool) or not isinstance(self.day, (int, dt.date)):
            raise DataError(f"day must be a date or integer index, got {self.day!r}")


class _Histogram(Mapping):
    """A read-only {level: user count} Mapping over two arrays sorted by level.

    Levels come out as Python ints from an integer array and as floats
    from a float array; they must be positive, and there must be one.
    Equality with any Mapping compares arrays.
    """

    __slots__ = ("levels", "counts")

    def __init__(self, levels: np.ndarray, counts: np.ndarray) -> None:
        if not len(levels):
            raise DomainError("histogram must be non-empty")
        bad = ~(levels > 0)  # also true for nan
        if bad.any():
            raise DomainError(f"activity level must be positive, got {levels[bad][0]}")
        levels.flags.writeable = False
        counts.flags.writeable = False
        self.levels, self.counts = levels, counts

    @classmethod
    def of(cls, histogram: Mapping) -> "_Histogram":
        """A view as it is, or any other mapping's items sorted by level."""
        if isinstance(histogram, cls):
            return histogram
        levels = np.array(list(histogram))
        counts = np.array(list(histogram.values()))
        order = np.argsort(levels, kind="stable")
        return cls(levels[order], counts[order])

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator:
        return iter(self.levels.tolist())

    def __getitem__(self, level):
        try:
            index = int(np.searchsorted(self.levels, level))
        except TypeError:  # a key no level compares with
            raise KeyError(level) from None
        if index == len(self.levels) or self.levels[index] != level:
            raise KeyError(level)
        return self.counts[index].item()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        try:
            other = _Histogram.of(other)
        except (TypeError, ValueError):  # not a histogram at all
            return False
        return (np.array_equal(self.levels, other.levels)
                and np.array_equal(self.counts, other.counts))


@dataclass(frozen=True)
class DailySnapshot:
    """One day's aggregate state: population, total activity and histogram.

    The histogram is held as read-only arrays sorted by level: ``levels``,
    the activity levels f (tags per user that day), and ``counts``, n(f),
    the number of users that produced exactly f tags. ``histogram`` is a
    read-only {f: n(f)} Mapping over them; any Mapping is accepted on
    construction. Consistency is enforced on construction: sum n(f) ==
    population, sum f*n(f) == total_activity, f_max == max level.
    """

    day: Day
    population: int
    total_activity: float
    histogram: Mapping[float, int] = field(repr=False)
    f_max: float

    def __post_init__(self) -> None:
        histogram = _Histogram.of(self.histogram)
        object.__setattr__(self, "histogram", histogram)
        levels, counts = histogram.levels, histogram.counts
        if counts.min() < 1:
            raise DomainError(f"user count must be >= 1, got {counts.min()}")
        users = counts.sum()
        if users != self.population:
            raise DomainError(
                f"population {self.population} != histogram user total {users}"
            )
        # In floats: an int64 product could wrap.
        total = float(levels @ counts.astype(float))
        if not math.isclose(total, self.total_activity, rel_tol=1e-9, abs_tol=1e-6):
            raise DomainError(
                f"total_activity {self.total_activity} != histogram sum {total}"
            )
        if not math.isclose(float(levels[-1]), self.f_max, rel_tol=1e-12):
            raise DomainError(f"f_max {self.f_max} != max activity level {levels[-1]}")

    levels = property(lambda self: self.histogram.levels)
    counts = property(lambda self: self.histogram.counts)


class EventTable(Sequence):
    """An event log in columns.

    Row i is user ``users[user_codes[i]]`` with ``counts[i]`` tags on day
    ``days[day_codes[i]]``. ``days`` and ``users`` hold distinct values;
    the three columns are read-only int64 arrays of one length. The table
    is a Sequence of ActivityEvent (len, indexing, iteration) and compares
    equal to any sequence of the same events in the same order.
    """

    __slots__ = ("days", "users", "day_codes", "user_codes", "counts")
    __hash__ = None  # mutable-sequence equality, like list

    def __init__(self, days: Iterable[Day], users: Iterable[str],
                 day_codes, user_codes, counts) -> None:
        self.days = tuple(days)
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
        for day in self.days:
            if isinstance(day, bool) or not isinstance(day, (int, dt.date)):
                raise DataError(f"day must be a date or integer index, got {day!r}")
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

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        return ActivityEvent(self.users[self.user_codes[index]],
                             self.days[self.day_codes[index]],
                             int(self.counts[index]))

    def __iter__(self) -> Iterator[ActivityEvent]:
        users, days = self.users, self.days
        for user, day, count in zip(self.user_codes.tolist(),
                                    self.day_codes.tolist(),
                                    self.counts.tolist()):
            yield ActivityEvent(users[user], days[day], count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

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


def _parse_count(raw: object) -> int:
    if isinstance(raw, str):
        try:
            count = int(raw)  # int() itself ignores surrounding whitespace
        except ValueError:
            raise DataError(f"count {raw!r} is not an integer") from None
    elif isinstance(raw, int) and not isinstance(raw, bool):
        count = raw
    else:
        raise DataError(f"count must be an integer, got {raw!r}")
    if count < 1:
        raise DataError(f"count must be >= 1, got {count}")
    if count > _INT64_MAX:
        raise DataError(f"count {count} does not fit in 64 bits")
    return count


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
            day_code = builder.day_code(day)
            count = _parse_count(record["count"])
            user_code = builder.user_code(str(record["user_id"]))
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        builder.day_codes.append(day_code)
        builder.user_codes.append(user_code)
        builder.counts.append(count)
    return builder.table()


def _parse_snapshots(text: IO[str]) -> list[tuple[float, float]]:
    lines = text.read().splitlines()
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


def _as_table(events: Iterable[ActivityEvent]) -> EventTable:
    if isinstance(events, EventTable):
        return events
    builder = _TableBuilder()
    for event in events:
        builder.day_codes.append(builder.day_code(event.day))
        builder.user_codes.append(builder.user_code(event.user_id))
        builder.counts.append(_parse_count(event.count))
    return builder.table()


def _ranking(values: Sequence) -> tuple[list[int], np.ndarray]:
    """The indices of values in ascending order, and each index's rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return order, rank


def aggregate(events: Iterable[ActivityEvent]) -> list[DailySnapshot]:
    """Collapse an event log into per-day snapshots.

    events is an EventTable or any iterable of ActivityEvent. Multiple
    events for the same (user, day) pair sum their counts; a sum above
    2^63 - 1 raises DataError. Days come back sorted ascending; days with
    no events simply do not appear. The result is invariant under
    permutation of the input.
    """
    table = _as_table(events)
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
                population=len(user_totals),
                total_activity=float(user_totals.sum()),
                # Every total fits in int64 now, exact sums or not.
                histogram=_Histogram(levels.astype(np.int64, copy=False), users),
                f_max=float(levels[-1]),
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


def export_events_csv(events: Iterable[ActivityEvent]) -> str:
    """Serialize events as the canonical CSV interchange text.

    events is an EventTable or any iterable of ActivityEvent. Rows are
    ordered by (day, user_id lexicographic); rows of one user on one day
    keep their input order. So equal inputs give byte-identical text, the
    text is a function of the event multiset when no (user, day) pair
    repeats, and parse_events(export_events_csv(events)) returns the same
    events up to ordering; so a user id with surrounding whitespace, which
    that parse would strip, raises DataError.
    """
    return "".join(_write_csv(_as_table(events)))


def write_events_csv(events: Iterable[ActivityEvent], path: str) -> None:
    """export_events_csv streamed to a file, a day at a time (UTF-8, \\n
    line endings). A DataError is raised before the file is created."""
    chunks = _write_csv(_as_table(events))
    with open(path, "w", encoding="utf-8", newline="\n") as sink:
        sink.writelines(chunks)
