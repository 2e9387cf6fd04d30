from __future__ import annotations

import csv
import io
import random
import warnings
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from testprio import history
from testprio.errors import (
    BadVerdict,
    DuplicateExecution,
    EmptyHistory,
    InputError,
    MalformedRow,
    MissingColumn,
    NegativeDuration,
)
from testprio.history import (
    COLUMNS,
    NEVER_RAN,
    CycleLog,
    NameView,
    ReplayState,
    StatusMatrix,
    _parse_row,
    _parse_stamps,
    build_status_matrix,
    emit_csv,
    ingest_csv,
    to_epoch_us,
)

from testprio.features import feature_matrix
from testprio.simulate import GSDTSR_LIKE, generate_history

from conftest import cycles_from, day_us, traced_peak

HEADER = "Id,Name,Duration,LastRun,Verdict,Cycle\n"


def write(tmp_path, body, header=HEADER):
    path = tmp_path / "log.csv"
    path.write_text(header + body, encoding="utf-8")
    return path


class TestIngest:
    def test_row_field_mapping(self, tmp_path):
        cycles = ingest_csv(write(tmp_path, "1,T1,5.0,2016-01-02,1,3\n"))
        assert len(cycles) == 1
        record = cycles[0].records[0]
        assert record.test_id == 1
        assert record.duration_s == 5.0
        assert record.failed is True
        assert record.cycle_id == 3
        assert record.last_run == datetime(2016, 1, 2)

    def test_empty_file_with_header(self, tmp_path):
        assert ingest_csv(write(tmp_path, "")) == []

    def test_duplicate_execution_rejected(self, tmp_path):
        body = "1,T1,1.0,2016-01-02,0,3\n1,T1,2.0,2016-01-02,1,3\n"
        with pytest.raises(DuplicateExecution):
            ingest_csv(write(tmp_path, body))
        # The first repeat in file order is named, not the first in cycle order.
        body = "2,T2,1.0,2016-01-02,0,5\n2,T2,1.0,2016-01-02,0,5\n" + body
        with pytest.raises(DuplicateExecution, match="test 2 appears more than once in cycle 5"):
            ingest_csv(write(tmp_path, body))

    @pytest.mark.parametrize("missing", ["Id", "Name", "Duration", "LastRun", "Verdict", "Cycle"])
    def test_missing_column(self, tmp_path, missing):
        columns = [c for c in HEADER.strip().split(",") if c != missing]
        path = write(tmp_path, "", header=",".join(columns) + "\n")
        with pytest.raises(MissingColumn):
            ingest_csv(path)

    @pytest.mark.parametrize("verdict", ["2", "-1", "yes", ""])
    def test_bad_verdict(self, tmp_path, verdict):
        with pytest.raises(BadVerdict):
            ingest_csv(write(tmp_path, f"1,T1,1.0,2016-01-02,{verdict},1\n"))

    def test_negative_duration(self, tmp_path):
        with pytest.raises(NegativeDuration):
            ingest_csv(write(tmp_path, "1,T1,-0.5,2016-01-02,0,1\n"))

    def test_malformed_fields(self, tmp_path):
        with pytest.raises(MalformedRow):
            ingest_csv(write(tmp_path, "x,T1,1.0,2016-01-02,0,1\n"))
        with pytest.raises(MalformedRow):
            ingest_csv(write(tmp_path, "1,T1,1.0,not-a-date,0,1\n"))
        with pytest.raises(MalformedRow):
            ingest_csv(write(tmp_path, "1,T1,1.0,2016-01-02,0,0\n"))

    def test_short_row_without_last_run(self, tmp_path):
        with pytest.raises(MalformedRow, match="row 2: bad timestamp None"):
            ingest_csv(write(tmp_path, "1,,0.0\n"))

    def test_timestamp_formats(self, tmp_path):
        body = ("1,T1,1.0,2016-01-02,0,1\n"
                "2,T2,1.0,2016-01-02 13:33:52,0,1\n"
                "3,T3,1.0,2016-01-02 13:33:52.931000,0,1\n")
        cycles = ingest_csv(write(tmp_path, body))
        stamps = [r.last_run for r in cycles[0].records]
        assert stamps[0] == datetime(2016, 1, 2)
        assert stamps[1] == datetime(2016, 1, 2, 13, 33, 52)
        assert stamps[2].microsecond == 931000

    def test_extra_columns_ignored(self, tmp_path):
        header = "Id,Name,Duration,LastRun,Verdict,Cycle,LastResults,CalcPrio\n"
        cycles = ingest_csv(write(tmp_path, "1,T1,1.0,2016-01-02,0,1,[1 0],0.75\n", header))
        assert cycles == ingest_csv(write(tmp_path, "1,T1,1.0,2016-01-02,0,1\n"))

    def test_cycles_sorted_ascending(self, tmp_path):
        body = "1,T1,1.0,2016-01-03,0,3\n1,T1,1.0,2016-01-01,0,1\n1,T1,1.0,2016-01-02,0,2\n"
        cycles = ingest_csv(write(tmp_path, body))
        assert [c.cycle_id for c in cycles] == [1, 2, 3]


def dictreader_ingest(path):
    """ingest_csv as it was before the columnar path: csv.DictReader and
    _parse_row, one row at a time, plus the rule that a log's stamps all
    carry a UTC offset or none do."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise MissingColumn("Id")
        for col in COLUMNS:
            if col not in header:
                raise MissingColumn(col)
        by_cycle, seen, first_of_kind = {}, set(), {}
        for rownum, row in enumerate(reader, start=2):
            cycle_id, last_run, values = _parse_row(row, rownum)
            first_of_kind.setdefault(last_run.utcoffset() is not None, rownum)
            if len(first_of_kind) == 2:
                raise MalformedRow(rownum, f"LastRun {row['LastRun']!r} differs from row "
                                           f"{min(first_of_kind.values())}'s in having a UTC offset")
            key = (values[0], cycle_id)
            if key in seen:
                raise DuplicateExecution(*key)
            seen.add(key)
            by_cycle.setdefault(cycle_id, []).append(values)
    return [CycleLog(cid, *zip(*by_cycle[cid])) for cid in sorted(by_cycle)]


FAULTS = {
    "bad id": ("Id", "7x"),
    "nan duration": ("Duration", "nan"),
    "inf duration": ("Duration", "-inf"),
    "negative duration": ("Duration", "-0.5"),
    "bad timestamp": ("LastRun", "2016-02-30"),
    "bad verdict": ("Verdict", "2"),
    "cycle 0": ("Cycle", "0"),
    "duplicate": None,
}
PADDED = st.sampled_from(["{}", " {}", "{} ", "  {}\t"])
FREE_TEXT = st.text(alphabet='aT1 ,"\n', max_size=6)
ZONES = st.sampled_from([timezone.utc, timezone(timedelta(hours=-5)),
                         timezone(timedelta(hours=5, minutes=30))])


@st.composite
def stamp_texts(draw, offsets):
    """A LastRun field: naive (a date or a datetime) when ``offsets`` is
    "none", a datetime with a UTC offset when it is "all", either when "mixed"."""
    stamp = draw(st.datetimes(datetime(2015, 1, 1), datetime(2017, 1, 1)))
    if offsets == "all" or offsets == "mixed" and draw(st.booleans()):
        return stamp.replace(tzinfo=draw(ZONES)).isoformat(sep=draw(st.sampled_from(" T")))
    return draw(st.sampled_from([stamp.isoformat(sep=" "), stamp.date().isoformat()]))


@st.composite
def execution_logs(draw, valid=False):
    """CSV text of an execution log and the fault injected (or None). A
    CalcPrio column, when drawn, is one that ingest ignores. Rows come in
    the order drawn, in cycle order, or in cycle order but for one row moved
    to the end, where it may follow later cycles. Names are drawn for each
    row, so that most ids change name from row to row, or for each id, with
    a few rows renamed. A ``valid`` log has no fault, no short row and no
    mix of stamps with and without offsets."""
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5)),
                         max_size=25, unique=True))
    order = draw(st.sampled_from(["drawn", "by-cycle", "a-row-comes-back"]))
    if order != "drawn":
        keys.sort(key=lambda key: key[1])
    if order == "a-row-comes-back" and keys:
        keys.append(keys.pop(draw(st.integers(0, len(keys) - 1))))
    with_prio = draw(st.booleans())
    fields = [*COLUMNS, *(["CalcPrio"] if with_prio else [])]
    extras = draw(st.lists(st.sampled_from(["LastResults", "Id", "Duration", "Cycle"]),
                           max_size=3))
    header = draw(st.permutations(fields + extras))
    last = {name: i for i, name in enumerate(header)}  # DictReader reads the last one

    offsets = draw(st.sampled_from(["none", "all"] if valid else ["none", "none", "all", "mixed"]))
    naming = draw(st.sampled_from(["per-row", "per-id"]))
    id_names = {}
    rows = []
    for test_id, cycle in keys:
        if naming == "per-id" and test_id not in id_names:
            id_names[test_id] = draw(FREE_TEXT)
        renamed = naming == "per-row" or draw(st.integers(0, 5)) == 0
        value = {
            "Id": draw(PADDED).format(test_id),
            "Name": draw(FREE_TEXT) if renamed else id_names[test_id],
            "Duration": draw(PADDED).format(
                repr(draw(st.floats(0, 1e4, allow_nan=False)))),
            "LastRun": draw(PADDED).format(draw(stamp_texts(offsets))),
            "Verdict": draw(PADDED).format(draw(st.sampled_from("01"))),
            "Cycle": draw(PADDED).format(cycle),
            "CalcPrio": draw(st.sampled_from(["", "  ", repr(draw(st.floats(0, 1)))])),
        }
        # A column that a later one of the same name shadows holds a decoy,
        # valid but different, or free text.
        decoy = {"Id": str(test_id + 10), "Duration": "7.5", "Cycle": str(cycle + 5)}
        rows.append([
            value[name] if name in value and last[name] == i
            else draw(st.sampled_from([decoy[name], draw(FREE_TEXT)])) if name in decoy
            else draw(FREE_TEXT)
            for i, name in enumerate(header)
        ])

    fault = draw(st.sampled_from([None, *FAULTS])) if rows and not valid else None
    if fault == "duplicate" and len(rows) > 1:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                             unique=True))
        for name in ("Id", "Cycle"):
            rows[j][last[name]] = rows[i][last[name]]
    elif fault == "duplicate":
        fault = None
    elif fault is not None:
        name, text = FAULTS[fault]
        rows[draw(st.integers(0, len(rows) - 1))][last[name]] = text
    if rows and not valid and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][: draw(st.integers(1, len(header) - 1))]

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
        if draw(st.booleans()):
            out.write("\r\n")  # a blank line
    return out.getvalue(), fault


def outcome(ingest, path):
    try:
        cycles = ingest(path)
    except Exception as exc:
        return type(exc), str(exc)
    return cycles, [tuple(c.records) for c in cycles]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=execution_logs())
def test_ingest_matches_row_by_row_dictreader(tmp_path, log):
    """The columnar ingest returns the cycles the DictReader loop returns, or
    raises its exception with the same message (and row number)."""
    text, fault = log
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(dictreader_ingest, path)
    assert outcome(ingest_csv, path) == expected
    if fault is not None:
        assert isinstance(expected[0], type), fault


@pytest.mark.parametrize("block_chars", [1, 7, 40])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=execution_logs())
def test_ingest_matches_row_by_row_dictreader_across_block_edges(tmp_path, block_chars, log):
    """With tiny read blocks, quoted multi-line names, CRLF line ends and blank
    lines fall across block edges; the outcome is still the DictReader loop's,
    and a block of blank lines alone warns of nothing."""
    text, _ = log
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(dictreader_ingest, path)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
        assert outcome(ingest_csv, path) == expected


@pytest.mark.parametrize("block_chars", [1, 7, 40, 1 << 16])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=execution_logs(valid=True))
def test_a_valid_log_is_read_in_bulk_in_any_row_order(tmp_path, block_chars, log):
    """Cycles split across blocks and rows that come back to a cycle after a
    later one are assembled by the bulk path, as the DictReader loop groups
    them."""
    text, _ = log
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(dictreader_ingest, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
        patch.setattr(history, "_ingest_rows", None)  # the row path is not taken
        assert outcome(ingest_csv, path) == expected


@pytest.mark.parametrize("block_chars", [1, 40, 1 << 16])
@pytest.mark.parametrize("rows", [
    [(1, 1), (2, 1), (3, 1), (1, 2)],
    [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (4, 1)],
    [(3, 2), (1, 2), (1, 1), (2, 1), (2, 2)],
    [(1, 1), (2, 1), (2, 1), (1, 2)],
    [(1, 1), (2, 1), (1, 2), (2, 1)],
], ids=["a-cycle-across-cuts", "a-cycle-comes-back", "cycles-descend-and-come-back",
        "a-duplicate-across-a-cut", "a-duplicate-that-comes-back"])
def test_cycles_are_assembled_across_block_cuts(tmp_path, monkeypatch, block_chars, rows):
    """With 1-character reads every row is a block of its own, with 40 a
    cut falls inside most cycles, and 1 << 16 reads the log in one block. A
    duplicate execution is found wherever its two rows fall."""
    body = "".join(f"{t},T{t},{t}.5,2016-01-0{c} 10:0{t}:00,{t % 2},{c}\n" for t, c in rows)
    path = write(tmp_path, body)
    expected = outcome(dictreader_ingest, path)
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
    if not isinstance(expected[0], type):
        monkeypatch.setattr(history, "_ingest_rows", None)  # a valid log is read in bulk
    assert outcome(ingest_csv, path) == expected


# (id, name, cycle) of each row, in file order. Test 2 is renamed in cycle 2,
# test 5 in a row that comes back to cycle 1 after cycle 3, and tests 3 and
# 4 share one name; test 3's row back in cycle 3 keeps its first name.
RENAMES = [(1, "a", 1), (2, "b", 1), (3, "same", 1), (4, "same", 1),
           (1, "a", 2), (2, "b2", 2), (3, "same", 2), (5, "e", 2),
           (1, "a", 3), (2, "b", 3), (4, "same", 3),
           (5, "e-late", 1), (3, "same", 3)]


@pytest.mark.parametrize("block_chars", [1, 40, 1 << 16])
@pytest.mark.parametrize("path", ["bulk", "row-by-row"])
def test_renamed_tests_keep_the_name_of_every_row(tmp_path, monkeypatch, block_chars, path):
    """A cycle with a row whose name differs from the first name read for
    its id holds its rows' names; every other cycle reads them from the
    log's one name per id. Either way each row keeps its own name, and the
    log is written back byte for byte as the cycles of tuples write it."""
    log = write(tmp_path, "".join(f"{t},{n},1.5,2016-01-0{c} 10:00:00,{t % 2},{c}\n"
                                  for t, n, c in RENAMES))
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
    if path == "bulk":
        monkeypatch.setattr(history, "_ingest_rows", None)
    else:
        monkeypatch.setattr(history, "_ingest_columns", lambda fh, header: None)
    cycles, expected = ingest_csv(log), dictreader_ingest(log)
    assert cycles == expected
    assert sorted((r.test_id, r.test_name, r.cycle_id) for c in cycles for r in c.records) == (
        sorted(RENAMES))
    assert [isinstance(c.names, NameView) for c in cycles] == [False, False, True]
    assert [type(c.names) for c in expected] == [tuple] * 3
    emit_csv(cycles, tmp_path / "out.csv")
    emit_csv(expected, tmp_path / "expected.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("block_chars", [1, 40, 1 << 16])
def test_a_renamed_cycle_shares_the_logs_name_objects_for_its_other_rows(
        tmp_path, monkeypatch, block_chars):
    """Every row that keeps the first name read for its id holds the one
    object of that name, also in a cycle that holds a tuple of names
    because another of its rows is renamed."""
    log = write(tmp_path, "".join(f"{t},{n},1.5,2016-01-0{c} 10:00:00,{t % 2},{c}\n"
                                  for t, n, c in RENAMES))
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(history, "_ingest_rows", None)
    cycles = ingest_csv(log)
    assert [type(c.names) for c in cycles] == [tuple, tuple, NameView]
    first = {}
    for t, n, _ in RENAMES:
        first.setdefault(t, n)
    kept = [(t, n) for c in cycles for t, n in zip(c.test_ids, c.names) if n == first[t]]
    assert len(kept) == 11
    for t in first:
        assert len({id(n) for u, n in kept if u == t}) == 1, t


def test_ids_new_in_block_after_block_are_shared_and_sorted_a_few_times(tmp_path, monkeypatch):
    """3,000 ids, new in every block of about five rows and read again in a
    second cycle: each keeps one int object and one name, and the ids read
    so far are sorted O(log n) times, not once a block."""
    ids = random.Random(7).sample(range(10**6, 10**7), 3000)
    body = "".join(f"{t},T{t},1.5,2016-01-0{c} 10:00:00,0,{c}\n" for c in (1, 2) for t in ids)
    log = write(tmp_path, body)
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", 200)
    monkeypatch.setattr(history, "_ingest_rows", None)
    settle = history._Known._settle
    sorts = []
    monkeypatch.setattr(history._Known, "_settle", lambda known: sorts.append(settle(known)))
    cycles = ingest_csv(log)
    assert cycles == dictreader_ingest(log)
    assert len(sorts) <= 13
    for column in ("test_ids", "names"):
        values = [v for c in cycles for v in getattr(c, column)]
        assert len({id(v) for v in values}) == len(set(values)) == 3000


NAME_LAST = "Id,Duration,LastRun,Verdict,Cycle,Name\n"


@pytest.mark.parametrize("block_chars", [1, 7, 40, 1 << 16])
@pytest.mark.parametrize("text", [
    # A stray quote in an unquoted field makes the count of '"' even at the
    # line end inside the quoted name: csv reads rows 2 and 3 as one.
    NAME_LAST + '1,1.0,2016-01-02,0,1,x"y\n2,1.0,2016-01-02,0,1,"a\n'
                '3,1.0,2016-01-02,0,1,b"\n',
    HEADER + '1,"a"b"c,1.0,2016-01-02,0,1\n',
    HEADER + '1, "a",1.0,2016-01-02,0,1\n',
    HEADER + '1,T1,1.0,2016-01-02,"0\0",1\n',  # a U field would drop the NUL
    HEADER + f'1,T1,1.0,2016-01-02,0{" " * 7}x,1\n',  # cut short by the verdict field
    HEADER + '1,T1,1.0,2016-01-02,0\r2,T2,1.0,2016-01-02,0,1\r',  # bare CR line ends
    HEADER + '1,T1,1.0,2016-01-02,0,1\n \n',  # a line of one blank field
    HEADER + '1,T1,1_0,2016-01-02,0,1\n',
    HEADER + '1,T1,1.0,2016-01-02,0,1\n2,"T2\n',  # an unclosed quote
])
def test_text_csv_may_read_otherwise_takes_the_row_path(tmp_path, monkeypatch, block_chars,
                                                        text):
    path = write(tmp_path, text, header="")
    expected = outcome(dictreader_ingest, path)
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
    assert outcome(ingest_csv, path) == expected


@pytest.mark.parametrize("block_chars", [1, 7, 40])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(st.lists(st.one_of(
    st.sampled_from(['a', '"', ",", "\n"]),
    st.integers(10, 10**6).map("{},1.0,2016-01-02,0,1,".format),  # a row's start
), max_size=6).map("".join), min_size=1, max_size=6))
def test_raw_quotes_and_line_ends_in_names_read_as_csv_reads_them(tmp_path, block_chars, names):
    """Names written without csv's quoting: stray, unclosed and doubled
    quotes, and line ends inside or outside quoted fields, before text that
    reads as a row of its own."""
    text = NAME_LAST + "".join(f"{i},1.0,2016-01-02,0,1,{name}\n"
                               for i, name in enumerate(names, start=1))
    path = write(tmp_path, text, header="")
    expected = outcome(dictreader_ingest, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
        assert outcome(ingest_csv, path) == expected


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
@pytest.mark.parametrize("block_chars", [1, 7, 40])
def test_quoted_names_are_read_in_bulk_across_block_edges(tmp_path, monkeypatch, block_chars,
                                                          quoting):
    """A block is never cut inside a quoted field, even where the field's
    next line would read as a row of its own."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting)
    writer.writerow(NAME_LAST.strip().split(","))
    names = ["a\n2,1.0,2016-01-02,0,1,b", 'c,"d"', "e\r\nf", "", "g"]
    for i, name in enumerate(names, start=1):
        writer.writerow([i, 1.5, "2016-01-02 10:00:00", i % 2, 1 + i // 3, name])
        out.write("\r\n" * (i % 2))
    path = write(tmp_path, out.getvalue(), header="")
    expected = outcome(dictreader_ingest, path)
    assert [n for c in expected[0] for n in c.names] == names
    monkeypatch.setattr(history, "INGEST_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(history, "_ingest_rows", None)  # the row path is not taken
    assert outcome(ingest_csv, path) == expected


def test_a_field_longer_than_csvs_limit_is_a_malformed_row(tmp_path):
    path = write(tmp_path, "1,T1,1.0,2016-01-02,0,1\n"
                           f"2,{'T' * (csv.field_size_limit() + 1)},1.0,2016-01-02,0,1\n")
    with pytest.raises(MalformedRow, match="^row 3: field larger than field limit"):
        ingest_csv(path)


@pytest.mark.parametrize("rows_before", [0, 2000], ids=["first-row", "past-first-read"])
def test_a_log_that_is_not_utf8_is_an_input_error(tmp_path, rows_before):
    """A latin-1 name fails as one InputError wherever the undecodable byte
    falls: in the first read, with the header, or in a later one."""
    path = tmp_path / "log.csv"
    rows = "".join(f"{i},T{i},1.0,2016-01-02,0,1\n" for i in range(rows_before))
    path.write_bytes((HEADER + rows + "1,Caf\u00e9,1.0,2016-01-02,0,2\n").encode("latin-1"))
    with pytest.raises(InputError, match="^the log is not UTF-8 text: byte 0xe9 is "):
        ingest_csv(path)


def random_cycles(rng: random.Random):
    cycles = []
    for cycle_id in sorted(rng.sample(range(1, 30), rng.randint(1, 8))):
        rows = []
        for test_id in rng.sample(range(1, 15), rng.randint(1, 6)):
            duration = round(rng.uniform(0, 50), 6)
            last_run = datetime(2016, 1, 1) + timedelta(
                days=cycle_id, seconds=rng.randint(0, 86399),
                microseconds=rng.choice([0, rng.randint(0, 999999)]))
            failed = rng.choice([False, True])
            rows.append((test_id, f"T{test_id}", failed, duration, to_epoch_us(last_run)))
        cycles.append(CycleLog(cycle_id, *zip(*rows)))
    return cycles


def test_emit_ingest_round_trip(tmp_path):
    """ingest(emit(cycles)) reproduces the cycles exactly."""
    rng = random.Random(1234)
    for trial in range(25):
        cycles = random_cycles(rng)
        path = tmp_path / f"round_{trial}.csv"
        emit_csv(cycles, path)
        assert ingest_csv(path) == cycles


# Columns of a valid two-row cycle, in CycleLog's argument order after cycle_id.
TWO_ROWS = dict(test_ids=(1, 2), names=("T1", "T2"), failed=[False, True],
                duration_s=[1.0, 0.5], last_run=[day_us(1), day_us(1) + 7])


class TestCycleLog:
    def test_columns_are_stored_as_tuples_and_read_only_arrays(self):
        log = CycleLog(3, [5, 4], ["a", "b"], [1, 0], [2, 3], [10, 20])
        assert (log.test_ids, log.names) == ((5, 4), ("a", "b"))
        assert [log.failed.dtype, log.duration_s.dtype, log.last_run.dtype] == [
            np.bool_, np.float64, np.int64]
        for column in (log.failed, log.duration_s, log.last_run):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_a_name_view_is_kept_over_the_cycles_own_ids_only(self):
        table, ids = {5: "a", 4: "b", 9: "c"}, (5, 4)
        log = CycleLog(3, ids, NameView(table, ids), [1, 0], [2, 3], [10, 20])
        assert log.names.table is table and log.names.test_ids is log.test_ids
        assert log.names == ("a", "b") and log.names[::-1] == ("b", "a")
        assert (log.names[-1], len(log.names), list(log.records)[0].test_name) == ("b", 2, "a")
        copied = CycleLog(3, list(ids), NameView(table, ids), [1, 0], [2, 3], [10, 20])
        assert type(copied.names) is tuple and copied == log
        with pytest.raises(ValueError, match="columns differ in shape"):
            CycleLog(3, ids, NameView(table, (9,)), [1, 0], [2, 3], [10, 20])

    @pytest.mark.parametrize("cycle_id,change,error,message", [
        (1, dict(test_ids=(2, 2)), DuplicateExecution, "test 2 appears more than once in cycle 1"),
        (1, dict(names=("T1",)), ValueError, "columns differ in shape"),
        (1, dict(failed=[False, True, True]), ValueError, "columns differ in shape"),
        (1, dict(last_run=[[1, 2]]), ValueError, "columns differ in shape"),
        (1, dict(duration_s=[1.0, -0.5]), ValueError, "durations must be finite and >= 0"),
        (1, dict(duration_s=[np.nan, 1.0]), ValueError, "durations must be finite and >= 0"),
        (1, dict(duration_s=[1.0, np.inf]), ValueError, "durations must be finite and >= 0"),
        (0, {}, ValueError, "cycle_id must be >= 1, got 0"),
        (-3, {}, ValueError, "cycle_id must be >= 1, got -3"),
    ], ids=["duplicate id", "short names", "long failed", "2-d last_run",
            "negative duration", "nan duration", "inf duration", "cycle 0", "cycle -3"])
    def test_rejects_invalid_columns(self, cycle_id, change, error, message):
        with pytest.raises(error, match=message):
            CycleLog(cycle_id, **{**TWO_ROWS, **change})


class TestStatusMatrix:
    def test_window_example(self):
        """Fail in cycle 3, pass in cycle 5, window 4 as of 5: [-1, 1, -1, 0]."""
        cycles = cycles_from([(1, 3, True), (1, 5, False)])
        matrix = build_status_matrix(cycles, window_len=4, as_of_cycle=5)
        assert matrix.statuses.tolist() == [[-1, 1, -1, 0]]

    def test_never_executed_padding(self, tiny_history):
        state = ReplayState.from_cycles(tiny_history, 10, tiny_history[-1].cycle_id)
        matrix = state.matrix_for([*state.index, 99])
        row = matrix.statuses[matrix.test_ids.index(99)]
        assert row.tolist() == [-1] * 10
        assert matrix.mean_duration_s[matrix.test_ids.index(99)] == 0.0
        assert matrix.last_run[matrix.test_ids.index(99)] == NEVER_RAN

    def test_mean_duration(self):
        cycles = cycles_from([(1, 1, False, 4.0), (1, 2, False, 6.0)])
        matrix = build_status_matrix(cycles, window_len=10, as_of_cycle=2)
        assert matrix.mean_duration_s[0] == pytest.approx(5.0)

    def test_mean_over_full_history_not_window(self):
        cycles = cycles_from([(1, 1, False, 100.0), (1, 9, False, 2.0), (1, 10, False, 4.0)])
        matrix = build_status_matrix(cycles, window_len=2, as_of_cycle=10)
        assert matrix.statuses.tolist() == [[0, 0]]
        assert matrix.mean_duration_s[0] == pytest.approx((100.0 + 2.0 + 4.0) / 3)

    def test_last_run_is_most_recent(self, tiny_history):
        matrix = build_status_matrix(tiny_history, window_len=10)
        i = matrix.test_ids.index(1)
        assert matrix.last_run[i] == day_us(5)

    def test_empty_history(self, tiny_history):
        with pytest.raises(EmptyHistory):
            build_status_matrix(tiny_history, window_len=4, as_of_cycle=0)

    def test_unsorted_cycles_rejected(self, tiny_history):
        with pytest.raises(ValueError):
            build_status_matrix(list(reversed(tiny_history)), window_len=4)

    def test_window_suffix_property(self):
        """A narrower window is the suffix of a wider one, test by test."""
        rng = random.Random(7)
        for _ in range(20):
            cycles = random_cycles(rng)
            as_of = cycles[-1].cycle_id
            w2 = rng.randint(2, 12)
            w1 = rng.randint(1, w2 - 1)
            m1 = build_status_matrix(cycles, w1, as_of)
            m2 = build_status_matrix(cycles, w2, as_of)
            assert m1.test_ids == m2.test_ids
            assert np.array_equal(m1.statuses, m2.statuses[:, -w1:])

    def test_status_codomain(self):
        rng = random.Random(8)
        for _ in range(20):
            cycles = random_cycles(rng)
            matrix = build_status_matrix(cycles, rng.randint(1, 12))
            assert set(np.unique(matrix.statuses)) <= {-1, 0, 1}

    @pytest.mark.parametrize("statuses", [
        np.array([[0, 2]], dtype=np.int8),
        np.array([[-2, 1]], dtype=np.int8),
        np.array([[0.5, 1.0]]),
        np.array([[0, 2]]),
    ])
    def test_statuses_outside_the_codomain_rejected(self, statuses):
        with pytest.raises(ValueError, match="statuses must be in"):
            StatusMatrix(("a",), 2, statuses, np.zeros(1), np.zeros(1, dtype=np.int64))

    def test_statuses_of_any_dtype_inside_the_codomain_accepted(self):
        for statuses in (np.array([[-1, 1]], dtype=np.int8), np.array([[0.0, -1.0]]),
                         np.empty((0, 3), dtype=np.int8)):
            n = len(statuses)
            StatusMatrix(("a",)[:n], statuses.shape[1], statuses, np.zeros(n),
                         np.zeros(n, dtype=np.int64))

    def test_matrix_invariant_to_file_row_order(self, tmp_path):
        """Shuffling the CSV rows does not change means or statuses."""
        rng = random.Random(9)
        cycles = random_cycles(rng)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(cycles, path_a)
        lines = path_a.read_text().splitlines()
        body = lines[1:]
        rng.shuffle(body)
        path_b.write_text("\n".join([lines[0]] + body) + "\n")
        ma = build_status_matrix(ingest_csv(path_a), 10)
        mb = build_status_matrix(ingest_csv(path_b), 10)
        for tid in ma.test_ids:
            ia, ib = ma.test_ids.index(tid), mb.test_ids.index(tid)
            assert np.array_equal(ma.statuses[ia], mb.statuses[ib])
            assert ma.mean_duration_s[ia] == pytest.approx(mb.mean_duration_s[ib])
            assert ma.last_run[ia] == mb.last_run[ib]


# --- the int64 time axis ----------------------------------------------------------


def stamp_text(ts: datetime, shape: str) -> str:
    if shape == "date":
        return ts.date().isoformat()
    sep = "T" if shape.startswith("T") else " "
    if shape.endswith("minutes"):
        return ts.isoformat(sep=sep, timespec="minutes")
    if shape.endswith("seconds"):
        return ts.isoformat(sep=sep, timespec="seconds")
    digits = int(shape[-1])  # "...fraction<k>": k fractional digits
    return ts.isoformat(sep=sep, timespec="microseconds")[: 20 + digits]


STAMP_SHAPES = ["date", " minutes", "Tminutes", " seconds", "Tseconds",
                *(f"{sep}fraction{k}" for sep in " T" for k in range(1, 7))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31)),
                          st.sampled_from(STAMP_SHAPES)), min_size=1, max_size=40))
def test_bulk_stamps_equal_fromisoformat(stamps):
    """numpy's bulk parse gives what datetime.fromisoformat gives, in epoch
    microseconds, for every shape the bulk path accepts, widths mixed."""
    texts = [stamp_text(ts, shape) for ts, shape in stamps]
    expected = [to_epoch_us(datetime.fromisoformat(t)) for t in texts]
    assert _parse_stamps(texts).tolist() == expected


@pytest.mark.parametrize("text", ["2016-01-05 10:00:00+01:00", "2016-01-05T09:00:00Z",
                                  " 2016-01-05", "2016-01-05 \t", "2016-01-05t09:00:00",
                                  "20160105", "2016-01-05 09:00:00,5"])
def test_stamps_numpy_may_misread_take_the_row_path(tmp_path, text):
    """numpy does not parse an offset, padding or another ISO form; ingest
    gives fromisoformat's value for it, an aware one in UTC."""
    with pytest.raises(ValueError):
        _parse_stamps(["2016-01-04", text])
    cycles = ingest_csv(write(tmp_path, f'1,T1,1.0,"{text}",0,1\n'))
    assert cycles[0].last_run[0] == to_epoch_us(datetime.fromisoformat(text.strip()))


@pytest.mark.parametrize("text", ["NaT", "today", "2016", "2016-01", "0000-01-01",
                                  "+2016-01-05", "2016-01-05 00:00:00.", "10000-01-01"])
def test_stamps_only_numpy_reads_are_rejected(tmp_path, text):
    with pytest.raises(ValueError):
        _parse_stamps([text])
    with pytest.raises(MalformedRow, match="row 3: bad timestamp"):
        ingest_csv(write(tmp_path, f"1,T1,1.0,2016-01-04,0,1\n2,T2,1.0,{text},0,1\n"))


def test_mixed_offset_kinds_rejected_at_the_first_differing_row(tmp_path):
    body = ("1,T1,1.0,2016-01-04 09:00:00,0,1\n"
            "2,T2,1.0,2016-01-04 10:00:00,0,1\n"
            "1,T1,1.0,2016-01-05 09:00:00+02:00,0,2\n"
            "2,T2,1.0,2016-01-05 10:00:00,0,2\n")
    with pytest.raises(MalformedRow, match="row 4: .*row 2.*UTC offset"):
        ingest_csv(write(tmp_path, body))


def test_a_log_whose_stamps_all_carry_offsets_is_read_in_bulk(tmp_path, monkeypatch):
    body = ("1,T1,1.0,2016-01-04 09:00:00+02:00,0,1\n"
            "2,T2,1.0,2016-01-04T10:00:00.5-05:00,1,1\n"
            "1,T1,1.0,2016-01-05 09:00:00Z,0,2\n")
    path = write(tmp_path, body)
    expected = outcome(dictreader_ingest, path)
    monkeypatch.setattr(history, "_ingest_rows", None)  # the row path is not taken
    assert outcome(ingest_csv, path) == expected


def test_offset_stamps_give_the_features_of_their_utc_times(tmp_path):
    """A log whose stamps all carry offsets scales LastRun by UTC differences,
    as the naive log of the same UTC times does."""
    rng = random.Random(21)
    cycles = random_cycles(rng)
    zones = [timezone(timedelta(hours=h)) for h in (-5, 0, 2, 9)]
    aware_path, naive_path = tmp_path / "aware.csv", tmp_path / "naive.csv"
    emit_csv(cycles, naive_path)
    aware_path.write_text(HEADER + "".join(
        f"{r.test_id},{r.test_name},{r.duration_s!r},"
        f"{r.last_run.replace(tzinfo=timezone.utc).astimezone(rng.choice(zones))},"
        f"{int(r.failed)},{r.cycle_id}\n"
        for c in cycles for r in c.records))
    aware = build_status_matrix(ingest_csv(aware_path), 10)
    naive = build_status_matrix(ingest_csv(naive_path), 10)
    assert np.array_equal(aware.last_run, naive.last_run)
    assert np.array_equal(feature_matrix(aware), feature_matrix(naive))


@pytest.mark.parametrize("order", [1, -1], ids=["in-cycle-order", "reversed"])
def test_an_ingested_log_holds_one_object_per_distinct_name_and_id(tmp_path, order):
    rows = [(100_000 + t, c, t % 3 == 0) for c in range(1, 9) for t in range(25)]
    emit_csv(cycles_from(rows)[::order], tmp_path / "log.csv")
    cycles = ingest_csv(tmp_path / "log.csv")
    assert cycles == cycles_from(rows)
    for column in ("test_ids", "names"):
        values = [v for c in cycles for v in getattr(c, column)]
        assert len(values) == 200
        assert len({id(v) for v in values}) == len(set(values)) == 25


def ingest_peak(tmp_path, n_cycles, order):
    """ingest_csv's traced peak and what its result holds, on a GSDTSR-like
    log of 600 tests over ``n_cycles`` cycles, written in cycle order (1) or
    in reverse (-1)."""
    cycles = generate_history(replace(GSDTSR_LIKE, n_tests=600, n_cycles=n_cycles), seed=3)
    path = tmp_path / f"log-{n_cycles}.csv"
    emit_csv(cycles[::order], path)
    ingest_csv(path)  # what the first call imports is not traced below
    return traced_peak(ingest_csv, path)


@pytest.mark.parametrize("order", [1, -1], ids=["in-cycle-order", "reversed"])
def test_ingest_peak_stays_near_the_size_of_its_result(tmp_path, order):
    """ingest_csv builds no whole-log column: each cycle's columns are copied
    out of the block that holds them, and a block's rows are dropped before
    the next block is parsed. On this 50,880-row log the traced peak
    measured 1.54 times what the result holds, in either row order. It read
    1.64 with a tuple of names per cycle and the last block's rows held
    while the next was parsed, and 1.83 with one set of whole-log columns."""
    peak, kept = ingest_peak(tmp_path, 100, order)
    assert peak < 1.75 * kept, peak / kept


@pytest.mark.parametrize("order", [1, -1], ids=["in-cycle-order", "reversed"])
def test_an_ingested_log_holds_under_30_bytes_a_row(tmp_path, order):
    """A row holds its id's pointer, verdict, duration and stamp: 25 bytes,
    plus each cycle's own objects and each test's name. On this 50,880-row
    log that measured 27.5-27.6 bytes a row, and 35.2 with a tuple of names
    per cycle."""
    _, kept = ingest_peak(tmp_path, 100, order)
    with open(tmp_path / "log-100.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 50_880
    assert kept / rows < 30, kept / rows


@pytest.mark.parametrize("order", [1, -1], ids=["in-cycle-order", "reversed"])
def test_ingest_excess_does_not_grow_with_the_log(tmp_path, order):
    """What ingest holds beyond its result is a block and the cycle being
    read, whatever the log's length. From 100 to 200 cycles it measured
    0.72 -> 0.72 MiB, against 1.09 -> 1.06 MiB with the last block's rows
    held while the next was parsed, and 1.42 -> 1.92 (in cycle order) and
    1.41 -> 2.53 MiB (reversed) with whole-log columns."""
    (short_peak, short_kept), (long_peak, long_kept) = (
        ingest_peak(tmp_path, n_cycles, order) for n_cycles in (100, 200))
    assert long_kept > 1.9 * short_kept
    assert long_peak - long_kept < 1.15 * (short_peak - short_kept)
