"""Event-log parsing, aggregation and the CSV interchange round trip."""

import csv
import datetime as dt
import io
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthlab as gl
from growthlab import DailySnapshot, DataError, DomainError, EventTable, ingest

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

    def test_short_snapshot_row_names_its_line(self):
        with pytest.raises(DataError) as raised:
            gl.parse_pairs(io.BytesIO(b"day\tP\tF\tf_max\n0\t10\t20\n"), "snapshot")
        assert str(raised.value) == "line 2: expected 4 fields, got 3"

    @pytest.mark.parametrize("format, text", [
        ("csv", CSV_SAMPLE), ("jsonl", JSONL_SAMPLE),
        ("snapshot", "day\tP\tF\tf_max\n0\t10\t20\t5\n")],
        ids=["csv", "jsonl", "snapshot"])
    def test_a_text_stream_drops_one_leading_byte_order_mark(self, format, text):
        # As the UTF-8 codec does for bytes: one mark goes, a second is text.
        assert gl.parse_pairs(io.StringIO("\ufeff" + text), format) \
            == gl.parse_pairs(io.StringIO(text), format)
        if format != "snapshot":
            _assert_same_table(gl.parse_events(io.StringIO("\ufeff" + text), format),
                               gl.parse_events(io.StringIO(text), format))
        with pytest.raises(DataError, match="^line 1: "):
            gl.parse_pairs(io.StringIO("\ufeff\ufeff" + text), format)

    def test_a_text_file_being_iterated_is_read_from_where_it_is(self, tmp_path):
        # It cannot tell where it is, so it is not looked at for a mark.
        path = tmp_path / "log.jsonl"
        path.write_text('{"skipped": true}\n' + JSONL_SAMPLE, encoding="utf-8")
        with open(path, encoding="utf-8") as stream:
            next(stream)
            assert _rows(gl.parse_events(stream, "jsonl")) == [("alice", 5, 3),
                                                               ("bob", 5, 1)]

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


class TestEventTableConstructor:
    @pytest.mark.parametrize("users, message", [
        ([5], "user ids must be strings, got 5"),
        (["a", None, 7], "user ids must be strings, got None"),
        ([("a",)], "user ids must be strings, got ('a',)"),
        (["a", "a"], "user ids must be distinct and non-empty"),
        ([""], "user ids must be distinct and non-empty"),
    ], ids=["int", "first-bad-named", "tuple", "repeated", "empty"])
    def test_rejects_bad_user_ids(self, users, message):
        with pytest.raises(DataError) as raised:
            EventTable([0], users, [0], [0], [1])
        assert str(raised.value) == message

    @pytest.mark.parametrize("columns, message", [
        (([0, 0], ["a"], [0, 1], [0, 0], [1, 1]), "days must be distinct"),
        (([0], ["a"], [0, 0], [0], [1]),
         "day_codes, user_codes and counts must be 1-D and of one length"),
        (([0], ["a"], [1], [0], [1]), "day_codes must lie in [0, 1)"),
        (([0], ["a"], [0], [0], [0]), "count must be >= 1, got 0"),
        (([0], ["a"], [0], [0], [2**64]), "codes and counts must fit in 64 bits"),
    ], ids=["repeated-days", "lengths", "code-out-of-range", "zero-count",
            "count-2^64"])
    def test_rejects_inconsistent_columns(self, columns, message):
        with pytest.raises(DataError) as raised:
            EventTable(*columns)
        assert str(raised.value) == message

    def test_str_subclass_ids_are_strings(self):
        class Name(str):
            pass

        assert EventTable([0], [Name("a")], [0], [0], [1]).users == ("a",)


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

    def test_a_snapshot_is_not_equal_to_a_tuple_of_its_fields(self):
        snap = _snapshot(0, {1: 2, 5: 1})
        fields = (snap.day, snap.total_activity, snap.levels, snap.counts)
        assert snap.__eq__(fields) is NotImplemented
        assert snap != fields and not snap == fields


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

    def test_a_day_without_rows_is_left_out(self):
        table = EventTable([0, 1, 2], ["u1"], [0, 2], [0, 0], [1, 3])
        assert [s.day for s in gl.aggregate(table)] == [0, 2]


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
        ('[1, 2]\n', "line 1: expected an object"),
        ('{"user_id": %s, "day": 1, "count": 1}\n' % ("[" * 50 + "]" * 50),
         "line 1: user_id must be a string, got " + "[" * 50 + "]" * 50),
        ('{"user_id": "u", "day": null, "count": 1}\n',
         "line 1: day None is neither an ISO date nor an integer"),
        ('{"user_id": "u", "day": 5.0, "count": 1}\n',
         "line 1: day 5.0 is neither an ISO date nor an integer"),
        ('{"user_id": "u", "day": [1], "count": 1}\n',
         "line 1: day [1] is neither an ISO date nor an integer"),
        ('{"user_id": "u", "day": {"x": 1}, "count": 1}\n',
         "line 1: day {'x': 1} is neither an ISO date nor an integer"),
    ])
    def test_jsonl(self, text, message):
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text), format="jsonl")
        assert str(raised.value) == message

    # json.loads refuses these with no JSONDecodeError: an integer past
    # int()'s 4,300-digit limit, and nesting past the decoder's depth.
    @pytest.mark.parametrize("line, reason", [
        ('{"user_id": "a", "day": %s, "count": 1}\n' % ("1" * 5000),
         "number has too many digits"),
        ('{"user_id": "a", "day": 1, "count": %s}\n' % ("1" * 5000),
         "number has too many digits"),
        ('{"user_id": ' + "[" * 100_000 + "]" * 100_000 + ', "day": 1, "count": 1}\n',
         "nested too deeply"),
    ], ids=["day-digits", "count-digits", "nesting"])
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["text", "bytes"])
    def test_jsonl_past_a_decoder_limit(self, line, reason, as_bytes):
        text = '{"user_id": "u", "day": 0, "count": 1}\n' + line
        stream = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        with pytest.raises(DataError, match=rf"^line 2: invalid JSON \({reason}\)$"):
            gl.parse_events(stream, format="jsonl")

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


class TestLineNumbersAndUserIds:
    @pytest.mark.parametrize("text, message", [
        (HEADER + '"a\nb",0,1\nu2,0,0\n', "line 4: count must be >= 1, got 0"),
        (HEADER + '"a\n\nb",0,1\n\nu2,0\n', "line 6: expected 3 fields, got 2"),
        (HEADER + '"a\nb",0,1\n' + "u" * 200_000 + ",0,1\n",
         "line 4: field larger than field limit (131072)"),
    ])
    def test_csv_errors_name_the_physical_line(self, text, message):
        # A quoted line break is a line of the file: the rows after it
        # are named by the line they start on, not by their record number.
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text))
        assert str(raised.value) == message

    @pytest.mark.parametrize("value, shown", [
        ("null", "None"), ("17", "17"), ('["a"]', "['a']")])
    def test_jsonl_user_id_must_be_a_string(self, value, shown):
        text = '{"user_id": "u", "day": 0, "count": 1}\n' \
            f'{{"user_id": {value}, "day": 0, "count": 1}}\n'
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text), format="jsonl")
        assert str(raised.value) == f"line 2: user_id must be a string, got {shown}"


def _assert_same_table(table, expected):
    assert table.days == expected.days and table.users == expected.users
    for column in ("day_codes", "user_codes", "counts"):
        assert getattr(table, column).tolist() == getattr(expected, column).tolist()


def _reference_day(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return dt.date.fromisoformat(text)


# Plain rows: ids of letters, digits and characters that neither csv nor a
# line split treats specially; days and counts in several spellings.
plain_rows = st.lists(
    st.tuples(
        st.text(alphabet="ab7 é\t\x00\x0c\x85\u2028\U0001f600", min_size=1,
                max_size=5).filter(lambda user: user.strip() == user),
        st.one_of(st.integers(min_value=-3, max_value=40).map(str),
                  st.dates(min_value=dt.date(2024, 2, 27),
                           max_value=dt.date(2024, 3, 2)).map(dt.date.isoformat),
                  st.sampled_from([" 5", "05", "+5 "])),
        st.integers(min_value=1, max_value=2**63 - 1).map(str)
        | st.sampled_from([" 3", "03 "]),
    ),
    max_size=60,
)


class TestCsvBlockReader:
    """The block reader against csv.reader, with blocks patched small so a
    short log spans many of them."""

    @given(plain_rows, st.integers(min_value=1, max_value=80), st.booleans(),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_plain_logs_read_as_csv_reader_rows(self, rows, block, final_newline,
                                                as_bytes):
        body = "".join(",".join(row) + "\n" for row in rows)
        text = HEADER + (body if final_newline else body[:-1])
        expected = EventTable.from_rows(
            (user, _reference_day(day), int(count))
            for user, day, count in list(csv.reader(io.StringIO(text, newline="")))[1:])
        stream = io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)
        with mock.patch.object(ingest, "_CSV_BLOCK", block):
            table = gl.parse_events(stream)
        _assert_same_table(table, expected)

    PLAIN = "".join(f"u{i % 150},{i % 7},{1 + i % 4}\n" for i in range(600))
    EXPECTED = [(f"u{i % 150}", i % 7, 1 + i % 4) for i in range(600)]
    TAIL = "fresh,9,2\nu1,9,1\n"  # a new user and a new day after the switch

    @pytest.mark.parametrize("line, rows", [
        ('"q,1",0,3\n', [("q,1", 0, 3)]),
        ("u1,2,3\r\n", [("u1", 2, 3)]),
        ("u1,2,3\ru2,4,5\n", [("u1", 2, 3), ("u2", 4, 5)]),
        ("\n", []),
        (" u7 ,2,3\n", [("u7", 2, 3)]),
        (" new\t,8,1\n", [("new", 8, 1)]),
    ], ids=["quoted id", "CRLF", "CR", "blank line", "padded id", "padded new id"])
    @pytest.mark.parametrize("block", [32, 1000, 1 << 16])
    def test_input_that_needs_the_row_loop(self, line, rows, block):
        text = HEADER + self.PLAIN + "late,3,1\n" + line + self.TAIL
        with mock.patch.object(ingest, "_CSV_BLOCK", block):
            table = gl.parse_events(io.BytesIO(text.encode()))
        _assert_same_table(table, EventTable.from_rows(
            self.EXPECTED + [("late", 3, 1)] + rows
            + [("fresh", 9, 2), ("u1", 9, 1)]))

    @pytest.mark.parametrize("line, message", [
        ("x" * 200_000 + ",0,1\n", "field larger than field limit (131072)"),
        ("u1,first,1\n", "day 'first' is neither an ISO date nor an integer"),
        ("u1,0,zero\n", "count 'zero' is not an integer"),
        ("u1,0,0\n", "count must be >= 1, got 0"),
        (",0,1\n", "user_id must be non-empty"),
        (" ,0,1\n", "user_id must be non-empty"),
        ("u1,0\n", "expected 3 fields, got 2"),
    ], ids=["over-limit cell", "bad day", "bad count", "zero count", "empty id",
            "blank id", "short row"])
    @pytest.mark.parametrize("block", [32, 1000, 1 << 16])
    @pytest.mark.parametrize("quoted_break", [False, True])
    def test_errors_in_a_late_block(self, line, message, block, quoted_break):
        # The header, 600 plain rows, a row with a new day and a row whose
        # quoted id may hold a line break: the bad row is on line 604 or 605.
        lead = '"a\nb",0,1\n' if quoted_break else "a,0,1\n"
        text = HEADER + self.PLAIN + "late,3,1\n" + lead + line + self.TAIL
        with mock.patch.object(ingest, "_CSV_BLOCK", block):
            with pytest.raises(DataError) as raised:
                gl.parse_events(io.BytesIO(text.encode()))
        assert str(raised.value) == f"line {604 + quoted_break}: {message}"

    def test_later_blocks_that_bring_new_day_or_count_texts(self):
        # Blocks of 32 characters, five rows and then two, each missing the
        # caches in the columns marked; "00" is a new text for a known day.
        rows = [("u1", "0", "1"), ("u2", "0", "1"), ("u3", "1", "1"),
                ("u1", "2", "1"), ("u4", "0", "1"),  # both columns miss
                ("u2", "3", "1"), ("u5", "1", "1"), ("u3", "00", "1"),
                ("u1", "2", "1"), ("u6", "0", "1"),  # the day column misses
                ("u7", "1", "7"), ("u2", "0", "9"), ("u3", "3", "1"),
                ("u1", "2", "07"), ("u4", "0", "1"),  # the count column misses
                ("u5", "1", "7"), ("u6", "3", "9")]  # neither misses
        text = HEADER + "".join(",".join(row) + "\n" for row in rows)
        with mock.patch.object(ingest, "_CSV_BLOCK", 32):
            table = gl.parse_events(io.StringIO(text))
        _assert_same_table(table, EventTable.from_rows(
            (user, int(day), int(count)) for user, day, count in rows))

    @pytest.mark.parametrize("new_user", [" pad", ""])
    def test_a_block_refused_for_a_user_id_changes_nothing(self, new_user):
        # The new day and count texts parse, but a new id is padded or
        # empty: the row loop gets the block and the builder as they were.
        builder = ingest._TableBuilder()
        day_by_text, count_by_text = {}, {}
        assert ingest._add_plain_block("u1,0,1\n", builder, day_by_text, count_by_text)
        block = f"u1,5,3\n{new_user},6,4\n"
        assert not ingest._add_plain_block(block, builder, day_by_text, count_by_text)
        assert (day_by_text, count_by_text) == ({"0": 0}, {"1": 1})
        assert (builder.days, builder.users) == ({0: 0}, {"u1": 0})
        assert [builder.day_codes.tolist(), builder.user_codes.tolist(),
                builder.counts.tolist()] == [[0], [0], [1]]

    def test_a_surrogate_in_a_text_stream_is_an_id(self):
        text = HEADER + "\ud800,0,1\nu,0,2\n"
        assert _rows(gl.parse_events(io.StringIO(text))) == [("\ud800", 0, 1),
                                                             ("u", 0, 2)]


# Spellings that int(), float() or date.fromisoformat() read but a log may
# not hold: "_" between digits, digits of another script, and a week date,
# which Python 3.11 reads as 2008-12-29 and Python 3.10 refuses.
BAD_DAYS = ["1_0", "\u0663", "2009-W01-1"]
BAD_COUNTS = ["1_0", "\u0663"]
BAD_NUMBERS = ["1_000", "1_0", "\u0663"]
DAY_ERROR = "day {!r} is neither an ISO date nor an integer"
COUNT_ERROR = "count {!r} is not an integer"


def _csv_lines(bad, column):
    """A CSV line with bad in its day or count column, and its message."""
    if column == "day":
        return f"u2,{bad},1\n", DAY_ERROR.format(bad)
    return f"u2,0,{bad}\n", COUNT_ERROR.format(bad)


CSV_CASES = [(bad, "day") for bad in BAD_DAYS] + [(bad, "count") for bad in BAD_COUNTS]


class TestStrictNumbersAndDates:
    """Numbers and dates are read the same way on every supported Python:
    integers as ASCII [+-]?[0-9]+, dates as ASCII YYYY-MM-DD, snapshot
    numbers as ASCII without "_", each after the strip."""

    @pytest.mark.parametrize("bad, column", CSV_CASES)
    def test_a_plain_block_refuses_it(self, bad, column):
        line, _ = _csv_lines(bad, column)
        builder = ingest._TableBuilder()
        assert not ingest._add_plain_block(line, builder, {}, {})
        assert not builder.users and not builder.counts

    @pytest.mark.parametrize("bad, column", CSV_CASES)
    @pytest.mark.parametrize("quoted_break", [False, True])
    def test_the_row_loop_names_its_line(self, bad, column, quoted_break):
        # Blocks of 8 characters. Without a quoted line break, the rows
        # before the bad one make a plain block; with one, the row loop
        # takes over at line 2. The bad row starts on line 4 or 5.
        line, message = _csv_lines(bad, column)
        lead = '"a\nb",0,1\n' if quoted_break else "a,0,1\n"
        text = HEADER + "u1,0,1\n" + lead + line + "u3,0,1\n"
        with mock.patch.object(ingest, "_CSV_BLOCK", 8):
            with pytest.raises(DataError) as raised:
                gl.parse_events(io.BytesIO(text.encode()))
        assert str(raised.value) == f"line {4 + quoted_break}: {message}"

    @pytest.mark.parametrize("bad, column", CSV_CASES)
    def test_a_jsonl_string_is_refused(self, bad, column):
        cells = {"user_id": "u", "day": 0, "count": 1, column: bad}
        text = '{"user_id": "u", "day": 0, "count": 1}\n' + json.dumps(cells) + "\n"
        _, message = _csv_lines(bad, column)
        with pytest.raises(DataError) as raised:
            gl.parse_events(io.StringIO(text), format="jsonl")
        assert str(raised.value) == f"line 2: {message}"

    @pytest.mark.parametrize("bad", BAD_DAYS)
    def test_a_snapshot_day_is_refused(self, bad):
        text = f"day\tP\tF\tf_max\n0\t10\t20\t5\n{bad}\t10\t20\t5\n"
        with pytest.raises(DataError) as raised:
            gl.parse_pairs(io.StringIO(text), "snapshot")
        assert str(raised.value) == f"line 3: {DAY_ERROR.format(bad)}"

    @pytest.mark.parametrize("bad", BAD_NUMBERS)
    @pytest.mark.parametrize("column", [1, 2, 3], ids=["P", "F", "f_max"])
    def test_a_snapshot_number_is_refused(self, bad, column):
        cells = ["1", "10", "20", "5"]
        cells[column] = bad
        text = "day\tP\tF\tf_max\n0\t10\t20\t5\n" + "\t".join(cells) + "\n"
        with pytest.raises(DataError) as raised:
            gl.parse_pairs(io.StringIO(text), "snapshot")
        assert str(raised.value) == "line 3: P, F and f_max must be numeric"

    def test_ascii_spellings_still_read(self):
        text = HEADER + "u, +5 ,03 \nv,-2,+4\nw,2009-01-05,\u00a07\n"
        assert _rows(gl.parse_events(io.StringIO(text))) == [
            ("u", 5, 3), ("v", -2, 4), ("w", dt.date(2009, 1, 5), 7)]
        table = "day\tP\tF\tf_max\n 2009-01-05\t1e3\t 4.5E3 \t+9.0\n"
        assert gl.parse_pairs(io.StringIO(table), "snapshot") == [(1e3, 4.5e3)]

    def test_an_integer_past_the_digit_limit_is_a_data_error(self):
        digits = "1" * 5000
        with pytest.raises(DataError, match="^line 2: count '1{5000}' is not"):
            gl.parse_events(io.StringIO(HEADER + f"u,0,{digits}\n"))
        with pytest.raises(DataError, match="^line 2: day '1{5000}' is neither"):
            gl.parse_events(io.StringIO(HEADER + f"u,{digits},1\n"))


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
