"""Event-log parsing, aggregation and the CSV interchange round trip."""

import datetime as dt
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthlab as gl
from growthlab import DailySnapshot, DataError, DomainError, EventTable

CSV_SAMPLE = """user_id,day,count
alice,2024-03-01,3
bob,2024-03-01,1
alice,2024-03-02,2
"""

JSONL_SAMPLE = """{"user_id": "alice", "day": 5, "count": 3}
{"user_id": "bob", "day": 5, "count": 1}
"""


def _events(*rows):
    return EventTable.from_rows(rows)


def _rows(table):
    """An event table's (user_id, day, count) rows, in order."""
    return [(table.users[user], table.days[day], count) for user, day, count
            in zip(table.user_codes.tolist(), table.day_codes.tolist(),
                   table.counts.tolist())]


def _snapshot(day, histogram):
    """The snapshot of a {level: user count} dict."""
    levels = sorted(histogram)
    return DailySnapshot(
        day=day, total_activity=float(sum(f * n for f, n in histogram.items())),
        levels=levels, counts=[histogram[level] for level in levels])


# (user_id, day, count) rows.
events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=30,
)


class TestParseEvents:
    def test_csv_with_dates(self):
        events = gl.parse_events(io.StringIO(CSV_SAMPLE))
        assert len(events) == 3
        assert _rows(events)[0] == ("alice", dt.date(2024, 3, 1), 3)

    def test_csv_with_integer_day_indices(self):
        text = "user_id,day,count\nu1,0,4\nu2,17,1\n"
        events = gl.parse_events(io.StringIO(text))
        assert [day for _, day, _ in _rows(events)] == [0, 17]

    def test_jsonl(self):
        events = gl.parse_events(io.StringIO(JSONL_SAMPLE), format="jsonl")
        assert _rows(events) == [("alice", 5, 3), ("bob", 5, 1)]

    def test_bytes_input_is_decoded(self):
        events = gl.parse_events(io.BytesIO(CSV_SAMPLE.encode()))
        assert len(events) == 3

    def test_empty_input_yields_no_events(self):
        assert len(gl.parse_events(io.StringIO(""))) == 0
        assert len(gl.parse_events(io.StringIO(""), format="jsonl")) == 0

    def test_header_mismatch_names_line_one(self):
        with pytest.raises(DataError, match="line 1"):
            gl.parse_events(io.StringIO("user,day,count\nu,0,1\n"))

    def test_malformed_rows_name_their_line(self):
        bad_count = "user_id,day,count\nu1,0,1\nu2,1,zero\n"
        with pytest.raises(DataError, match="line 3"):
            gl.parse_events(io.StringIO(bad_count))
        bad_day = "user_id,day,count\nu1,first,1\n"
        with pytest.raises(DataError, match="line 2"):
            gl.parse_events(io.StringIO(bad_day))
        short_row = "user_id,day,count\nu1,0\n"
        with pytest.raises(DataError, match="line 2"):
            gl.parse_events(io.StringIO(short_row))

    def test_jsonl_errors_name_their_line(self):
        with pytest.raises(DataError, match="line 2"):
            gl.parse_events(
                io.StringIO('{"user_id":"u","day":0,"count":1}\nnot json\n'),
                format="jsonl")
        with pytest.raises(DataError, match="missing key"):
            gl.parse_events(io.StringIO('{"user_id":"u","day":0}\n'),
                            format="jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(DataError):
            gl.parse_events(io.StringIO(CSV_SAMPLE), format="tsv")

    def test_snapshot_table_has_no_events(self):
        with pytest.raises(DataError, match="event log"):
            gl.parse_events(io.BytesIO(b"day\tP\tF\tf_max\n0\t10\t20\t5\n"),
                            format="snapshot")


class TestParsePairs:
    def test_snapshot_rows_in_input_order(self):
        text = b"day\tP\tF\tf_max\r\n3\t10\t20\t5\r\n\r\n1\t1e3\t4.5e3\t9\r\n"
        assert gl.parse_pairs(io.BytesIO(text), "snapshot") == [(10.0, 20.0),
                                                                  (1e3, 4.5e3)]
        assert gl.parse_pairs(io.BytesIO(b""), "snapshot") == []

    @pytest.mark.parametrize("format, text", [("csv", CSV_SAMPLE),
                                              ("jsonl", JSONL_SAMPLE)])
    def test_event_log_days(self, format, text):
        snapshots = gl.aggregate(gl.parse_events(io.StringIO(text), format))
        assert gl.parse_pairs(io.BytesIO(text.encode()), format) == [
            (s.population, s.total_activity) for s in snapshots]

    def test_non_utf8_table_is_a_data_error(self):
        with pytest.raises(DataError, match="not valid UTF-8"):
            gl.parse_pairs(io.BytesIO(b"day\tP\tF\tf_max\n0\t1\xff\t2\t2\n"),
                           "snapshot")


class TestLoadEvents:
    def test_suffix_sniffing(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text(CSV_SAMPLE)
        jsonl_path = tmp_path / "log.jsonl"
        jsonl_path.write_text(JSONL_SAMPLE)
        assert len(gl.load_events(str(csv_path))) == 3
        assert len(gl.load_events(str(jsonl_path))) == 2

    def test_explicit_format_wins(self, tmp_path):
        path = tmp_path / "log.data"
        path.write_text(JSONL_SAMPLE)
        with open(path, "rb") as stream:
            assert len(gl.parse_events(stream, "jsonl")) == 2

    @pytest.mark.parametrize("name", ["snapshots.tsv", "snapshots.TSV", "snapshots"])
    def test_snapshot_table_is_named_in_the_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("day\tP\tF\tf_max\n0\t10\t20\t5\n")
        with pytest.raises(DataError, match="snapshot table") as raised:
            gl.load_events(str(path))
        assert repr(str(path)) in str(raised.value)


class TestFromRows:
    def test_rows_read_back_in_order(self):
        rows = [("b", dt.date(2024, 3, 1), 3), ("a", 7, 2**63 - 1), ("b", 7, 1)]
        table = EventTable.from_rows(iter(rows))
        assert _rows(table) == rows
        assert table.days == (dt.date(2024, 3, 1), 7)
        assert table.users == ("b", "a")

    @pytest.mark.parametrize("row, message", [
        (("", 0, 1), "user_id must be non-empty"),
        ((5, 0, 1), "user_id must be a string, got 5"),
        (("u", 0, 0), "count must be >= 1, got 0"),
        (("u", 0, True), "count must be an integer, got True"),
        (("u", 0, 1.0), "count must be an integer, got 1.0"),
        (("u", 0, "3"), "count must be an integer, got '3'"),
        (("u", 0, 2**63), f"count {2**63} does not fit in 64 bits"),
        (("u", 1.5, 1), "day must be a date or integer index, got 1.5"),
        (("u", "0", 1), "day must be a date or integer index, got '0'"),
        (("u", True, 1), "day must be a date or integer index, got True"),
    ], ids=["empty-user", "user-int", "count-zero", "count-bool", "count-float",
            "count-str", "count-past-int64", "day-float", "day-str", "day-bool"])
    def test_validation(self, row, message):
        # Each bad row follows a good one, so a bool day cannot pass as day 1.
        with pytest.raises(DataError) as raised:
            EventTable.from_rows([("u", 1, 1), row])
        assert str(raised.value) == message


class TestDailySnapshot:
    def test_consistent_snapshot_constructs(self):
        levels, counts = np.array([1, 5]), np.array([2, 1])
        snap = DailySnapshot(day=0, total_activity=7.0, levels=levels, counts=counts)
        assert (snap.population, snap.f_max) == (3, 5.0)
        assert type(snap.population) is int and type(snap.f_max) is float
        assert snap.levels.tolist() == [1, 5] and snap.counts.tolist() == [2, 1]
        # Held as read-only copies: the caller's arrays stay its own.
        assert not snap.levels.flags.writeable and not snap.counts.flags.writeable
        levels[0] = 2
        assert snap.levels.tolist() == [1, 5] and levels.flags.writeable

    @pytest.mark.parametrize("kwargs", [
        dict(total_activity=7.0, levels=[], counts=[]),
        dict(total_activity=9.0, levels=[1, 5], counts=[2, 1]),
        dict(total_activity=7.0, levels=[-1, 9], counts=[2, 1]),
        dict(total_activity=6.0, levels=[1, 5], counts=[0, 1]),
        dict(total_activity=7.0, levels=[5, 1], counts=[1, 2]),
        dict(total_activity=7.0, levels=[1, 1, 5], counts=[1, 1, 1]),
        dict(total_activity=7.0, levels=[1, 5], counts=[2, 1, 1]),
        dict(total_activity=7.0, levels=[[1, 5]], counts=[[2, 1]]),
        dict(total_activity=7.0, levels=[1, 5], counts=[2.0, 1.0]),
        dict(total_activity=7.0, levels=[float("nan"), 5], counts=[2, 1]),
    ], ids=["empty", "total", "negative-level", "zero-count", "unsorted",
            "repeated-level", "lengths", "2-D", "float-counts", "nan-level"])
    def test_inconsistent_snapshots_rejected(self, kwargs):
        with pytest.raises(DomainError):
            DailySnapshot(day=0, **kwargs)

    def test_equality_compares_the_arrays(self):
        snap = _snapshot(0, {1: 2, 5: 1})
        assert snap == _snapshot(0, {1: 2, 5: 1})
        assert snap == DailySnapshot(0, 7.0, np.array([1.0, 5.0]), np.array([2, 1]))
        assert snap != _snapshot(0, {1: 1, 2: 1, 4: 1})
        assert snap != _snapshot(1, {1: 2, 5: 1})
        with pytest.raises(TypeError):
            hash(snap)


class TestAggregate:
    def test_same_user_same_day_counts_sum(self):
        events = _events(("u1", 0, 2), ("u1", 0, 3), ("u2", 0, 1))
        (snap,) = gl.aggregate(events)
        assert snap.population == 2
        assert snap.total_activity == 6.0
        assert snap.levels.tolist() == [1, 5] and snap.counts.tolist() == [1, 1]

    def test_days_come_back_sorted(self):
        events = _events(("u1", 3, 1), ("u1", 0, 1), ("u1", 2, 1))
        assert [s.day for s in gl.aggregate(events)] == [0, 2, 3]

    def test_mixed_day_styles_sort_deterministically(self):
        events = _events(("u1", dt.date(2024, 1, 1), 1), ("u1", 7, 2))
        days = [s.day for s in gl.aggregate(events)]
        assert days == [7, dt.date(2024, 1, 1)]

    @given(events_strategy, st.randoms())
    @settings(max_examples=100)
    def test_invariant_under_input_permutation(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert gl.aggregate(_events(*shuffled)) == gl.aggregate(_events(*rows))

    def test_empty_input(self):
        assert gl.aggregate(_events()) == []


class TestExportEventsCsv:
    def test_rows_ordered_by_day_then_user(self):
        events = _events(("zoe", 0, 1), ("amy", 1, 2), ("amy", 0, 3))
        text = gl.export_events_csv(events)
        assert text.splitlines() == [
            "user_id,day,count",
            "amy,0,3",
            "zoe,0,1",
            "amy,1,2",
        ]

    def test_export_is_a_function_of_the_event_multiset(self):
        rows = [("u1", 0, 1), ("u2", 0, 2), ("u1", 1, 3)]
        assert (gl.export_events_csv(_events(*rows))
                == gl.export_events_csv(_events(*reversed(rows))))

    @given(events_strategy)
    @settings(max_examples=100)
    def test_parse_of_export_returns_the_same_events(self, rows):
        text = gl.export_events_csv(_events(*rows))
        reparsed = gl.parse_events(io.StringIO(text))
        assert sorted(_rows(reparsed)) == sorted(rows)

    def test_write_reads_back_identically(self, tmp_path):
        events = _events(("u1", 0, 1), ("u2", 3, 9))
        path = tmp_path / "out.csv"
        gl.write_events_csv(events, str(path))
        assert path.read_text() == gl.export_events_csv(events)


class TestSamplerRoundTrip:
    def test_aggregation_recovers_per_day_totals_exactly(self):
        cfg = gl.SamplerConfig(beta=1.41, lower_cutoff=1.0, integerize=True,
                               seed=21)
        series = gl.synthesize_series([800, 2_500, 6_000], cfg)
        text = gl.export_events_csv(gl.events_from_series(series))
        snapshots = gl.aggregate(gl.parse_events(io.StringIO(text)))
        assert [(s.day, s.population, s.total_activity) for s in snapshots] \
            == [(s.day, s.population, s.total_activity) for s in series.days]
        assert snapshots == list(series.days)


def reference_export(rows):
    """(user_id, day, count) rows sorted by (day, user_id), stably, and
    written one by one: the earlier implementation of export_events_csv,
    kept as the reference the columnar writer must match byte for byte. A
    user id holding any of , " \\r or \\n is quoted, with its quotes
    doubled."""
    ordered = sorted(rows, key=lambda row: ((isinstance(row[1], dt.date), row[1]),
                                            row[0]))
    lines = ["user_id,day,count\n"]
    for user, day, count in ordered:
        if any(char in user for char in ',"\r\n'):
            user = '"' + user.replace('"', '""') + '"'
        day = day.isoformat() if isinstance(day, dt.date) else day
        lines.append(f"{user},{day},{count}\n")
    return "".join(lines)


def _by_key(rows):
    return sorted(rows, key=lambda row: ((isinstance(row[1], dt.date), row[1]),
                                         row[0], row[2]))


awkward_events = st.lists(
    st.tuples(
        st.text(alphabet='ab,"\n\r \'é', min_size=1, max_size=4),
        st.one_of(st.integers(min_value=-2, max_value=3),
                  st.dates(min_value=dt.date(2024, 1, 1),
                           max_value=dt.date(2024, 1, 4))),
        st.integers(min_value=1, max_value=2**63 - 1),
    ),
    max_size=30,
)


class TestCsvWriterMatchesRowReference:
    @given(events=awkward_events)
    @settings(max_examples=200)
    def test_bytes_equal_the_reference(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("w") / "events.csv"
        clean = [row for row in events if row[0] == row[0].strip()]
        if clean != events:
            # Reading the CSV back would strip such an id: both writers refuse.
            with pytest.raises(DataError, match="surrounding whitespace"):
                gl.export_events_csv(_events(*events))
            with pytest.raises(DataError, match="surrounding whitespace"):
                gl.write_events_csv(_events(*events), str(path))
            assert not path.exists()
        expected = reference_export(clean)
        assert gl.export_events_csv(_events(*clean)) == expected
        gl.write_events_csv(_events(*clean), str(path))
        assert path.read_bytes() == expected.encode("utf-8")
        assert _by_key(_rows(gl.load_events(str(path)))) == _by_key(clean)

    def test_user_ids_needing_quotes(self):
        rows = [("a,b", 0, 1), ('say "hi"', 0, 2), ("two\nlines", 0, 3),
                ("plain", 0, 4)]
        text = gl.export_events_csv(_events(*rows))
        assert text == reference_export(rows)
        assert text == ('user_id,day,count\n"a,b",0,1\nplain,0,4\n'
                        '"say ""hi""",0,2\n"two\nlines",0,3\n')

    def test_carriage_return_in_an_id_round_trips(self, tmp_path):
        rows = [("a\rb", 0, 1), ("c\r\nd", 0, 2), ("e", 0, 3)]
        text = gl.export_events_csv(_events(*rows))
        assert text == 'user_id,day,count\n"a\rb",0,1\n"c\r\nd",0,2\ne,0,3\n'
        assert _rows(gl.parse_events(io.StringIO(text))) == rows
        path = tmp_path / "events.csv"
        gl.write_events_csv(_events(*rows), str(path))
        assert _rows(gl.load_events(str(path))) == rows

    @pytest.mark.parametrize("user", [" a", "a ", "a\n", "\ra", "\t"])
    def test_ids_the_reader_would_strip_are_refused(self, tmp_path, user):
        # " a" and "a" would read back as one user with summed counts.
        events = _events((user, 0, 1), ("a", 0, 2))
        path = tmp_path / "events.csv"
        with pytest.raises(DataError, match=re.escape(repr(user))):
            gl.export_events_csv(events)
        with pytest.raises(DataError, match=re.escape(repr(user))):
            gl.write_events_csv(events, str(path))
        assert not path.exists()

    def test_mixed_integer_and_iso_days_keep_their_order(self):
        events = _events(("u", dt.date(2024, 1, 2), 1), ("u", 10, 2),
                         ("u", dt.date(2023, 12, 31), 3), ("u", -1, 4))
        assert gl.export_events_csv(events).splitlines()[1:] == [
            "u,-1,4", "u,10,2", "u,2023-12-31,3", "u,2024-01-02,1"]

    def test_duplicate_user_days_keep_their_input_order(self):
        rows = [("u1", 0, 5), ("u0", 0, 1), ("u1", 0, 2)]
        assert gl.export_events_csv(_events(*rows)).splitlines()[1:] == [
            "u0,0,1", "u1,0,5", "u1,0,2"]
        assert gl.export_events_csv(_events(*rows[::-1])).splitlines()[1:] == [
            "u0,0,1", "u1,0,2", "u1,0,5"]
        # Enough equal keys that an unstable sort would reorder them.
        counts = [int(c) for c in np.random.default_rng(2).permutation(200) + 1]
        events = EventTable.from_rows(
            (user, day, count) for count in counts
            for user, day in (("u1", 1), ("u0", 1), ("u1", 0)))
        rows = gl.export_events_csv(events).splitlines()[1:]
        for key in ("u1,0,", "u0,1,", "u1,1,"):
            assert [int(row.rsplit(",", 1)[1]) for row in rows
                    if row.startswith(key)] == counts

    def test_a_million_users_sort_as_strings(self):
        # Past 10^6 users in a day ids grow a digit: u1000000 < u100001.
        cfg = gl.SamplerConfig(beta=2.5, integerize=True, seed=1)
        series = gl.synthesize_series([1_000_002], cfg)
        text = gl.export_events_csv(gl.events_from_series(series))
        users = [line.split(",", 1)[0] for line in text.splitlines()[1:]]
        assert len(users) == 1_000_002
        assert users == sorted(users)
        assert users.index("u1000000") < users.index("u100001")


def reference_aggregate(rows):
    """Row-by-row aggregation: a dict of per-user totals for each day.

    This is the earlier implementation of aggregate, kept as the reference
    the columnar path must match.
    """
    per_day = {}
    for user, day, count in rows:
        user_totals = per_day.setdefault(day, {})
        user_totals[user] = user_totals.get(user, 0) + count
    snapshots = []
    for day in sorted(per_day, key=lambda d: (isinstance(d, dt.date), d)):
        histogram = {}
        for total in per_day[day].values():
            histogram[total] = histogram.get(total, 0) + 1
        snapshots.append(_snapshot(day, histogram))
    return snapshots


def _day_spellings(day):
    """Texts that all parse to `day`: padding, leading zeros, a sign."""
    if isinstance(day, dt.date):
        return [day.isoformat(), f" {day.isoformat()}", f"{day.isoformat()} "]
    return [str(day), f" {day}", f"{day} ", f"0{day}", f"+{day}", f"00{day} "]


# One row: (user, day, count, day spelling pick, user padding, blank row after).
rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "user_7"]),
        st.one_of(st.integers(min_value=0, max_value=12),
                  st.dates(min_value=dt.date(2024, 2, 27),
                           max_value=dt.date(2024, 3, 2))),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["", " ", "  "]),
        st.booleans(),
    ),
    max_size=40,
)


class TestColumnarMatchesRowReference:
    @given(rows_strategy, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_parse_and_aggregate_match_the_row_path(self, rows, as_bytes):
        lines = ["user_id,day,count"]
        events = []
        for user, day, count, pick, pad, blank in rows:
            spellings = _day_spellings(day)
            lines.append(f"{pad}{user},{spellings[pick % len(spellings)]}, {count} ")
            if blank:
                lines.append("")
            events.append((user, day, count))
        text = "\n".join(lines) + "\n"
        stream = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        table = gl.parse_events(stream)
        assert isinstance(table, gl.EventTable)
        assert _rows(table) == events
        expected = reference_aggregate(events)
        assert gl.aggregate(table) == expected
        assert gl.aggregate(_events(*events)) == expected

    def test_day_aliases_merge_into_one_day(self):
        text = "user_id,day,count\nu1,5,1\nu1, 5,2\nu2,05,4\nu3,2024-01-02,1\n"
        table = gl.parse_events(io.StringIO(text))
        assert table.days == (5, dt.date(2024, 1, 2))
        first, second = gl.aggregate(table)
        assert (first.day, first.population) == (5, 2)
        assert first.levels.tolist() == [3, 4] and first.counts.tolist() == [1, 1]
        assert second.day == dt.date(2024, 1, 2)

    def test_table_reads_as_columns(self):
        table = gl.parse_events(io.StringIO(CSV_SAMPLE))
        assert table.days == (dt.date(2024, 3, 1), dt.date(2024, 3, 2))
        assert table.users == ("alice", "bob")
        assert table.day_codes.tolist() == [0, 0, 1]
        assert table.user_codes.tolist() == [0, 1, 0]
        assert table.counts.tolist() == [3, 1, 2]
        for column in (table.day_codes, table.user_codes, table.counts):
            assert column.dtype == "int64" and not column.flags.writeable
        assert repr(table) == "EventTable(3 events, 2 days, 2 users)"


HEADER = "user_id,day,count\n"


class TestBadRowsKeepTheirMessages:
    @pytest.mark.parametrize("text, message", [
        (HEADER + "u1,0,1\nu2,1\n", "line 3: expected 3 fields, got 2"),
        (HEADER + "u1,0,1,9\n", "line 2: expected 3 fields, got 4"),
        (HEADER + "  ,0,1\n", "line 2: user_id must be non-empty"),
        (HEADER + "u1,first,1\n",
         "line 2: day 'first' is neither an ISO date nor an integer"),
        (HEADER + "u1,0,zero\n", "line 2: count 'zero' is not an integer"),
        (HEADER + "u1,0,0\n", "line 2: count must be >= 1, got 0"),
        (HEADER + "u1,0,1\n\nu1,0,-2\n", "line 4: count must be >= 1, got -2"),
        # Day, then count, then user id: the first failing check names the row.
        (HEADER + ",x,0\n", "line 2: day 'x' is neither an ISO date nor an integer"),
        (HEADER + ",0,0\n", "line 2: count must be >= 1, got 0"),
        (HEADER + "u1,0,9223372036854775808\n",
         "line 2: count 9223372036854775808 does not fit in 64 bits"),
    ])
    def test_csv(self, text, message):
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text))
        assert str(raised.value) == message

    @pytest.mark.parametrize("lines, lineno", [
        ([HEADER.rstrip("\n"), "u1,0,1", "u" * 200_000 + ",0,1"], 3),
        (["u" * 200_000 + ",day,count"], 1),
    ], ids=["row", "header"])
    def test_csv_cell_past_the_field_limit(self, lines, lineno):
        text = "\n".join(lines) + "\n"
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text))
        assert str(raised.value) == \
            f"line {lineno}: field larger than field limit (131072)"

    @pytest.mark.parametrize("text, message", [
        ('{"user_id": "", "day": 0, "count": 1}\n', "line 1: user_id must be non-empty"),
        ('\n{"user_id": "u", "day": true, "count": 1}\n',
         "line 2: day True is neither an ISO date nor an integer"),
        ('{"user_id": "u", "day": 0, "count": "0"}\n',
         "line 1: count must be >= 1, got 0"),
        ('{"user_id": "u", "day": 0, "count": 1.5}\n',
         "line 1: count must be an integer, got 1.5"),
        ('{"user_id": "u", "day": 0, "count": 9223372036854775808}\n',
         "line 1: count 9223372036854775808 does not fit in 64 bits"),
    ])
    def test_jsonl(self, text, message):
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text), format="jsonl")
        assert str(raised.value) == message

    def test_largest_int64_count_is_accepted(self):
        table = gl.parse_events(io.StringIO(HEADER + "u1,0,9223372036854775807\n"))
        assert table.counts.tolist() == [2**63 - 1]

    @pytest.mark.parametrize("data, format", [
        (HEADER.encode() + b"u1,0,1\nu\xff,0,1\n", "csv"),
        (b'{"user_id": "u\xff", "day": 0, "count": 1}\n', "jsonl"),
    ])
    def test_non_utf8_bytes(self, data, format):
        stream = io.BytesIO(data)
        with pytest.raises(DataError, match="^input is not valid UTF-8"):
            gl.parse_events(stream, format=format)
        assert not stream.closed


class TestSumsDoNotWrap:
    def test_user_day_sum_past_int64_is_a_data_error(self):
        text = HEADER + f"u1,3,{2**62}\nu2,3,1\nu1,3,{2**62}\n"
        table = gl.parse_events(io.StringIO(text))
        with pytest.raises(DataError, match="'u1' on day 3: summed count "
                                            f"{2**63} does not fit in 64 bits"):
            gl.aggregate(table)

    def test_day_total_past_int64_stays_exact(self):
        rows = [("u1", 0, 2**62), ("u2", 0, 2**62), ("u3", 0, 2**62 - 1)]
        (snap,) = gl.aggregate(_events(*rows))
        assert snap == reference_aggregate(rows)[0]
        assert snap.levels.tolist() == [2**62 - 1, 2**62]
        assert snap.counts.tolist() == [1, 2]
        assert snap.total_activity == float(3 * 2**62 - 1)

    def test_event_count_past_int64_is_a_data_error(self):
        with pytest.raises(DataError, match="does not fit in 64 bits"):
            EventTable.from_rows([("u1", 0, 2**63)])


class TestMemory:
    def test_streamed_read_peaks_below_eight_times_the_file(self, tmp_path):
        # A 50k-row log shaped like a real one: ISO dates, mostly distinct
        # users, rows shuffled. Reading the whole text plus one object per
        # row peaked at about 12x the file size.
        rng = np.random.default_rng(5)
        rows = 50_000
        days = [(dt.date(2009, 1, 1) + dt.timedelta(days=d)).isoformat()
                for d in range(12)]
        users = rng.integers(0, 400_000, rows)
        day_codes = rng.integers(0, 12, rows)
        counts = np.floor(rng.pareto(0.5, rows) + 1).astype(np.int64)
        path = tmp_path / "log.csv"
        path.write_text(HEADER + "".join(
            f"user{user:06d},{days[day]},{min(count, 10**6)}\n"
            for user, day, count in zip(users.tolist(), day_codes.tolist(),
                                        counts.tolist())))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            snapshots = gl.aggregate(gl.load_events(str(path)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(s.population for s in snapshots) > 0.9 * rows
        assert peak < 8 * size, f"peak {peak / size:.1f}x the file size"
