"""Reading, aggregating and writing activity event logs and snapshot tables.

The on-disk interchange formats are deliberately tiny. CSV files carry a
header ``user_id,day,count``; JSONL files carry one object per line with
the same three keys. ``day`` is either an ISO ``YYYY-MM-DD`` date or an
integer day index, ``count`` a positive integer that fits in 64 bits. A
snapshot table is tab-separated with the header ``day P F f_max``, one
row per day; it holds each day's (P, F) pair but no per-user histogram.
Parsing is strict, numbers in ASCII without ``_``, and error messages
name the offending line, because silent coercion of a malformed
activity log poisons every estimate downstream.

A log is read as a stream into an ``EventTable``: the distinct day values,
the distinct user ids, and per-row int64 arrays of day code, user code and
count. Each distinct day text is parsed once, and day texts naming the
same day (``5``, `` 5``, ``05``) share a code. A CSV log is read in blocks
of whole lines, about 64 KiB each. A plain block (every line three
unquoted cells without ``\\r``, every day and count text parses, no user
id is empty or padded) is split at its commas and coded a column at a
time. At the first block that is not plain, csv.reader reads that block
and the rest of the stream row by row: it is the one path for quoted
cells, carriage returns, blank lines, padded or empty ids and every error.
``aggregate`` sums and histograms those arrays with numpy into one
``DailySnapshot`` per day, whose histogram is two arrays, ``levels`` and
``counts``. ``EventTable.from_rows`` builds a table from hand-written
``(user_id, day, count)`` rows.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import math
import os
import re
from array import array
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

# int(), float() and date.fromisoformat() alone also read "1_0", digits of
# other scripts and, from Python 3.11, week dates such as 2009-W01-1.
_NUMBER = re.compile(r"\s*[!-^`-~]+\s*")  # printable ASCII but "_"
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")

# The CSV block reader reads this many characters, then the rest of the line.
_CSV_BLOCK = 1 << 16

# Every byte but , \n " and \r: deleting them from a plain block's UTF-8
# leaves ",,\n" per line.
_NOT_PLAIN = bytes(byte for byte in range(256) if byte not in b',\n"\r')


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
        total = float((levels * counts.astype(float)).sum())
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
    ``days[day_codes[i]]``. ``days`` and ``users`` hold distinct values,
    the users as non-empty strings; the three columns are read-only int64
    arrays of one length.
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
        # Test each distinct type once rather than each user id.
        if not all(issubclass(kind, str) for kind in set(map(type, self.users))):
            bad = next(user for user in self.users if not isinstance(user, str))
            raise DataError(f"user ids must be strings, got {bad!r}")
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
            builder.add(_check_day(day), _check_user_id(user_id), _check_count(count))
        return builder.table()

    def __len__(self) -> int:
        return len(self.counts)

    def __repr__(self) -> str:
        return (f"EventTable({len(self)} events, {len(self.days)} days, "
                f"{len(self.users)} users)")


class _TableBuilder:
    """Rows appended as codes; each distinct day and user id gets the next
    code. The columns are int64 arrays, which EventTable wraps uncopied."""

    def __init__(self) -> None:
        self.days: dict[Day, int] = {}
        self.users: dict[str, int] = {}
        self.day_codes = array("q")
        self.user_codes = array("q")
        self.counts = array("q")

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


def _ascii_number(parse, text: str):
    """parse(text) if text is printable ASCII but "_", else ValueError."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(text)
    return parse(text)


def _parse_day(text: str) -> Day:
    """ISO date if it looks like one, else integer index."""
    text = text.strip()
    try:
        if _ISO_DATE.fullmatch(text):
            return dt.date.fromisoformat(text)
        return _ascii_number(int, text)
    except ValueError:
        raise DataError(f"day {text!r} is neither an ISO date nor an integer") from None


def _check_day(day: object) -> Day:
    if isinstance(day, bool) or not isinstance(day, (int, dt.date)):
        raise DataError(f"day must be a date or integer index, got {day!r}")
    return day


def _check_user_id(user_id: object) -> str:
    if not isinstance(user_id, str):
        raise DataError(f"user_id must be a string, got {user_id!r}")
    return user_id


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
            raw = _ascii_number(int, raw)  # int() ignores surrounding whitespace
        except ValueError:
            raise DataError(f"count {raw!r} is not an integer") from None
    return _check_count(raw)


def _parse_csv(text: IO[str]) -> EventTable:
    builder = _TableBuilder()
    reader = csv.reader(text)
    try:
        header = next(reader, None)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise DataError(f"line {reader.line_num}: {exc}") from None
    if header is None:
        return builder.table()
    if [column.strip() for column in header] != _CSV_HEADER:
        raise DataError(
            f"line 1: expected header {','.join(_CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    # Raw cell text -> day code or count, shared by both paths.
    day_by_text: dict[str, int] = {}
    count_by_text: dict[str, int] = {}
    while block := text.read(_CSV_BLOCK):
        block += text.readline()
        if not _add_plain_block(block, builder, day_by_text, count_by_text):
            # The block's lines split as in a stream opened with newline="",
            # as csv.reader expects; each line of a plain block was one row.
            rest = itertools.chain(io.StringIO(block, newline=""), text)
            _csv_table(rest, reader.line_num + len(builder.counts) + 1,
                       builder, day_by_text, count_by_text)
            break
    return builder.table()


def _add_plain_block(block: str, builder: _TableBuilder,
                     day_by_text: dict[str, int], count_by_text: dict[str, int]) -> bool:
    """Add a block of whole lines to builder and return True if the block
    is plain, else False; it writes nothing before its last check.

    Plain: at most csv.field_size_limit() characters, no " or \\r, two
    commas on every line, every new day and count text parses, and no
    user id is empty or padded. csv.reader splits such a line at its
    commas alone, and the row loop would accept every row.
    """
    if not block.endswith("\n"):  # the input's last line
        block += "\n"
    raw = block.encode("utf-8", "surrogatepass")
    if (len(block) > csv.field_size_limit()
            or raw.translate(None, _NOT_PLAIN) != b",,\n" * raw.count(b"\n")):
        return False
    cells = block.replace("\n", ",").split(",")
    cells.pop()  # the empty text after the last newline
    user_texts, day_texts, count_texts = cells[0::3], cells[1::3], cells[2::3]
    # Most blocks bring no new day or count text: one lookup pass per
    # column, and the parse pass below only for a column that misses.
    day_codes = _cached(day_by_text, day_texts)
    counts = _cached(count_by_text, count_texts)
    try:
        # In order of first use, so that new days get the row loop's codes.
        new_days = [] if day_codes is not None else [
            (text, _parse_day(text)) for text in dict.fromkeys(day_texts)
            if text not in day_by_text]
        new_counts = {} if counts is not None else {
            text: _parse_count(text)
            for text in set(count_texts).difference(count_by_text)}
    except DataError:
        return False
    if "" in user_texts or list(map(str.strip, user_texts)) != user_texts:
        return False
    for text, day in new_days:
        day_by_text[text] = builder.day_code(day)
    count_by_text.update(new_counts)
    users = builder.users
    builder.day_codes.fromlist(day_codes or _cached(day_by_text, day_texts))
    builder.user_codes.fromlist([users.setdefault(text, len(users)) for text in user_texts])
    builder.counts.fromlist(counts or _cached(count_by_text, count_texts))
    return True


def _cached(cache: dict[str, int], texts: list[str]) -> list[int] | None:
    """cache[text] for every text in texts, or None if one is missing."""
    try:
        return list(map(cache.__getitem__, texts))
    except KeyError:
        return None


def _csv_table(lines: Iterable[str], first_line: int, builder: _TableBuilder,
               day_by_text: dict[str, int], count_by_text: dict[str, int]) -> None:
    """Add the CSV rows of lines to builder, one at a time. The lines are
    numbered from first_line, and an error names the line its row starts
    on."""
    reader = csv.reader(lines)
    # A cache miss parses the text and caches it, so a bad text still fails,
    # with its message, at its first line. Raw user text that hits
    # builder.users is already stripped.
    user_by_id = builder.users
    add_day = builder.day_codes.append
    add_user = builder.user_codes.append
    add_count = builder.counts.append
    start = first_line
    try:
        for row in reader:
            lineno, start = start, first_line + reader.line_num
            if not row:
                continue
            try:
                if len(row) != 3:
                    raise DataError(f"expected 3 fields, got {len(row)}")
                user_text, day_text, count_text = row
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
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise DataError(f"line {first_line - 1 + reader.line_num}: {exc}") from None


def _parse_jsonl(text: IO[str]) -> EventTable:
    builder = _TableBuilder()
    for lineno, line in enumerate(text, start=1):
        if not line.strip():
            continue
        try:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"invalid JSON ({exc.msg})") from None
            except ValueError:  # an integer past int()'s digit limit
                raise DataError("invalid JSON (number has too many digits)") from None
            except RecursionError:
                raise DataError("invalid JSON (nested too deeply)") from None
            if not isinstance(record, dict):
                raise DataError("expected an object")
            if missing := [key for key in _CSV_HEADER if key not in record]:
                raise DataError(f"missing key(s) {', '.join(missing)}")
            day = record["day"]
            if isinstance(day, str):
                day = _parse_day(day)
            elif isinstance(day, bool) or not isinstance(day, int):
                raise DataError(f"day {day!r} is neither an ISO date nor an integer")
            builder.add(day, _check_user_id(record["user_id"]),
                        _parse_count(record["count"]))
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
        try:
            if len(cells) != 4:
                raise DataError(f"expected 4 fields, got {len(cells)}")
            day = _parse_day(cells[0])
            if day in days:
                raise DataError(f"day {_format_day(day)} repeats")
            days.add(day)
            try:
                population, activity, f_max = [_ascii_number(float, c) for c in cells[1:]]
            except ValueError:
                raise DataError("P, F and f_max must be numeric") from None
            # Also false for nan, which no comparison admits.
            if not (1.0 <= population < math.inf and 1.0 <= activity < math.inf):
                raise DataError(f"P and F must be finite and >= 1, got "
                                f"{cells[1].strip()!r} and {cells[2].strip()!r}")
            if not 1.0 <= f_max < math.inf:
                raise DataError(f"f_max must be finite and >= 1, got {cells[3].strip()!r}")
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        pairs.append((population, activity))
    return pairs


def _decoded(stream: IO, parse, newline: str):
    """parse(text), with bytes decoded as UTF-8 while they are read; one
    leading byte-order mark is dropped, from bytes by the codec and from
    text by _skip_mark."""
    text = stream if isinstance(stream.read(0), str) \
        else io.TextIOWrapper(stream, encoding="utf-8-sig", newline=newline)
    try:
        if text is stream:
            _skip_mark(text)
        return parse(text)
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc.reason}") from None
    finally:
        if text is not stream:
            text.detach()


def _skip_mark(text: IO[str]) -> None:
    """Read past a leading U+FEFF of text, which must be able to say where
    it is so that any other first character can be put back; a pipe, or a
    file being iterated, cannot, and keeps its mark."""
    try:
        start = text.tell()
    except OSError:
        return
    if text.read(1) != "\ufeff":
        text.seek(start)


def parse_events(stream: IO, format: str = "csv") -> EventTable:
    """Parse an event log from a byte or text stream.

    format is "csv" or "jsonl". Bytes are decoded as UTF-8 while rows are
    read, so the log is never held whole as text. One leading byte-order
    mark is dropped, also from text that can seek. Events are returned in
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
    head = stream.peek().decode("utf-8-sig", errors="replace").lstrip()
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
