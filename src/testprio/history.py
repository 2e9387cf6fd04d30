"""CI execution history: CSV ingestion, cycle grouping, status windows.

The raw input is a per-execution log with the fixed header ``COLUMNS``
(Id, Name, Duration, LastRun, Verdict, Cycle; other columns are ignored).
Each row records one run of one test in one CI cycle; a test that did not
run in a cycle simply has no row there. The log is held as columns: each
``CycleLog`` keeps its rows' test ids, names, verdicts, durations and
last-run timestamps side by side, in file order, with last-run stamps as
int64 epoch microseconds. Each of ``ingest_csv``'s cycles holds arrays of
its own, so dropping a cycle frees its rows. Names are held once per test,
not once per row: the cycles of one log share a dict of one name per test
id, the first name read for it, and a cycle's ``names`` is a ``NameView``
that reads each row's name there by its id. Only a cycle in which some
row's name differs from that first name holds a tuple of its rows' names,
in which a row that keeps the first name holds that name's one object.
Every path that makes a cycle, ingest, the simulator and tests alike, hands
``CycleLog`` its columns, and ingest and the simulator hand it a
``NameView``. ``ExecutionRecord`` objects, with datetimes, are built only
for callers that read ``CycleLog.records``.

``ingest_csv`` reads the log in one pass with numpy's C CSV parser
(``np.loadtxt``), in blocks of whole rows, and checks each block in bulk.
No whole-log column is built: each cycle becomes a ``CycleLog`` as soon as
the reader has passed its last row, so besides the cycles only one block
and the rows of the cycle being read are held. A row of a cycle already
built, in a log out of cycle order, is kept until the file is read and
then appended to its cycle, in file order. Every cycle's id tuple holds the
one int object of each distinct id: a block looks its ids up in the sorted
ids read before, and checks its names against theirs, with array
operations; only rows of ids not yet sorted in are looked at one by one.
The rows read carry no names. A row whose name differs from the first one
read for its id goes into one table for the whole ingest, cycle id ->
{test id: name}, which names it when its cycle is built, in order or late.
A block's LastRun stamps are parsed by numpy when all are of the plain
form, and by ``datetime.fromisoformat`` one at a time otherwise.
Whatever that reader might read differently from ``csv`` (stray
quotes, NUL characters, bare CR line ends, ``1_000``, non-ASCII digits), and
every invalid log, goes to a row-by-row ``csv.DictReader`` walk, which
defines a valid row and reports the first bad one.

``ReplayState`` is the one window builder. It folds cycles in one at a
time, a few array operations per cycle, into per-test status windows where
fail = +1, pass = 0 and not-executed = -1, with the most recent cycle in the
last slot, plus duration and recency statistics. ``build_status_matrix``
is a snapshot of it.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadVerdict,
    DuplicateExecution,
    EmptyHistory,
    InputError,
    MalformedRow,
    MissingColumn,
    NegativeDuration,
)

FAIL = 1
PASS = 0
NOT_RUN = -1

DEFAULT_WINDOW = 10

# The header of an execution log, in the order emit_csv writes it.
COLUMNS = ("Id", "Name", "Duration", "LastRun", "Verdict", "Cycle")

NEVER_RAN = np.iinfo(np.int64).min  # last_run of a test with no execution yet
_EPOCH, _UTC_EPOCH = datetime(1970, 1, 1), datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)

# Characters of the log read for one np.loadtxt call. A block is cut back to
# its last line end outside quotes, so it holds whole rows; one block is parsed
# at a time, and the cycle it ends in may hold slices of it until the next.
# Unless a row is longer than a read, a block is at most two reads long, within
# csv.field_size_limit()'s default; ingest_csv leaves a longer block to csv.
INGEST_BLOCK_CHARS = 1 << 16
# Width of the verdict field as loadtxt reads it. A verdict that fills it may
# have been cut short, and the row-by-row path takes the log.
_VERDICT_WIDTH = 8
# What may precede a '"' that opens a quoted field for csv: a field or line
# start. After another '"', a '"' is the second of a doubled pair.
_OPENS_AFTER = np.array([ord(c) for c in ',\n"'], dtype=np.uint32)


def to_epoch_us(ts: datetime) -> int:
    """Microseconds since 1970-01-01; an aware stamp counts as its UTC time."""
    return (ts - (_EPOCH if ts.utcoffset() is None else _UTC_EPOCH)) // _US


def from_epoch_us(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True)
class ExecutionRecord:
    """One execution of one test in one CI cycle, as ``CycleLog.records``
    builds it from the columns. The library never reads that view;
    bench/worker.py and bench/tracing.py read rows through it."""

    test_id: int
    test_name: str
    duration_s: float
    last_run: datetime
    failed: bool
    cycle_id: int


@dataclass(frozen=True, eq=False)
class CycleLog:
    """All executions of a single CI cycle, in stable input order, as columns.

    ``test_ids`` is stored as a tuple. ``names`` is a ``NameView`` when it
    is one over this cycle's own ``test_ids`` tuple, as every producer in
    this package hands it, and a tuple otherwise. ``failed`` (bool),
    ``duration_s`` (float64) and ``last_run`` (int64 epoch microseconds)
    are read-only arrays. An array of the right dtype is kept without a
    copy and made read-only; ``ingest_csv`` hands each cycle arrays of its
    own. Construction checks, with array operations, that ``cycle_id`` is
    at least 1, that the columns are of one length, that durations are
    finite and at least 0 and that no test id repeats.
    ``records`` is a read-only view that builds one ExecutionRecord per row
    when read, for bench/.
    """

    cycle_id: int
    test_ids: tuple
    names: Sequence[str]
    failed: np.ndarray
    duration_s: np.ndarray
    last_run: np.ndarray

    def __post_init__(self):
        n = len(self.test_ids)
        test_ids, names = tuple(self.test_ids), self.names
        columns = {
            "test_ids": test_ids,
            "names": (names if isinstance(names, NameView) and names.test_ids is test_ids
                      else tuple(names)),
            "failed": np.asarray(self.failed, dtype=bool),
            "duration_s": np.asarray(self.duration_s, dtype=np.float64),
            "last_run": np.asarray(self.last_run, dtype=np.int64),
        }
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.cycle_id < 1:
            raise ValueError(f"cycle_id must be >= 1, got {self.cycle_id}")
        shapes = {name: value.shape if isinstance(value, np.ndarray) else (len(value),)
                  for name, value in columns.items()}
        if set(shapes.values()) != {(n,)}:
            raise ValueError(f"cycle {self.cycle_id}: columns differ in shape: {shapes}")
        duration = self.duration_s
        if not (np.isfinite(duration) & (duration >= 0)).all():
            raise ValueError(f"cycle {self.cycle_id}: durations must be finite and >= 0")
        if len(set(self.test_ids)) < n:
            counts = Counter(self.test_ids)
            raise DuplicateExecution(next(t for t in self.test_ids if counts[t] > 1),
                                     self.cycle_id)

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def _record(self, i: int) -> ExecutionRecord:
        return ExecutionRecord(
            test_id=self.test_ids[i],
            test_name=self.names[i],
            duration_s=float(self.duration_s[i]),
            last_run=from_epoch_us(self.last_run[i]),
            failed=bool(self.failed[i]),
            cycle_id=self.cycle_id,
        )

    def __eq__(self, other):
        if not isinstance(other, CycleLog):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in self.__dataclass_fields__)


class NameView(SequenceABC):
    """A cycle's test names, read through ``table``, a dict of one name per
    test id that every cycle of a log shares: the row of ``test_ids[i]`` is
    named ``table[test_ids[i]]``. It compares equal to the tuple of its
    names, as ``CycleLog.names`` built from a tuple does."""

    __slots__ = ("table", "test_ids")

    def __init__(self, table: dict, test_ids: tuple):
        self.table, self.test_ids = table, test_ids

    def __len__(self) -> int:
        return len(self.test_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.table.__getitem__, self.test_ids[i]))
        return self.table[self.test_ids[i]]

    def __iter__(self):
        return map(self.table.__getitem__, self.test_ids)

    def __eq__(self, other):
        if isinstance(other, (tuple, NameView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


def shared_names(table: dict, test_ids: tuple, names: Sequence[str]) -> Sequence[str]:
    """The names of the rows of ``test_ids``, as a NameView over ``table``,
    which maps each id to the first name given for it (an id it lacks is
    added with its name here), or as a tuple if some row's name differs
    from its id's name in ``table``."""
    if list(map(table.setdefault, test_ids, names)) == list(names):
        return NameView(table, test_ids)
    return tuple(names)


class _Records(SequenceABC):
    """A cycle's rows as ExecutionRecords, each built when it is read."""

    __slots__ = ("_log",)

    def __init__(self, log: CycleLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log.test_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._log._record, range(len(self))[i]))
        return self._log._record(range(len(self))[i])

    def __iter__(self):
        return map(self._log._record, range(len(self)))


def parse_timestamp(text: str) -> datetime:
    """Accepts YYYY-MM-DD and YYYY-MM-DD HH:MM:SS (fractional seconds ok)."""
    return datetime.fromisoformat(text.strip())


_STAMP_SHAPES = {b"0000-00-00 00:00:00.000000"[:w] for w in (10, 16, 19, *range(21, 27))}
_SHAPE_OF = bytes.maketrans(b"0123456789T", b"0000000000 ")  # "0": any digit; " ": also "T"


def _parse_stamps(texts: Sequence[str]) -> np.ndarray:
    """Epoch microseconds of LastRun fields, parsed by numpy. numpy also reads what
    fromisoformat rejects ("NaT", "2016", "20160101", year 0) and moves UTC offsets, so
    a field not of _STAMP_SHAPES raises ValueError: the row-by-row path takes it."""
    shapes = "\n".join(texts).encode().translate(_SHAPE_OF).split(b"\n")
    if len(shapes) == len(texts) and _STAMP_SHAPES.issuperset(shapes):
        stamps = np.array(texts, dtype="datetime64[us]")
        if stamps.min() >= np.datetime64("0001-01-01"):
            return stamps.view(np.int64)
    raise ValueError("a LastRun stamp numpy may misread")


def csv_rows(reader: Iterable, start: int = 1) -> Iterator[tuple[int, list | dict]]:
    """Each row of a csv reader with its row number, counting from ``start``
    (the header is row 1). A csv.Error, such as a field longer than
    csv.field_size_limit(), becomes MalformedRow naming the row it was
    raised in."""
    rownum = start - 1
    try:
        for rownum, row in enumerate(reader, start=start):
            yield rownum, row
    except csv.Error as exc:
        raise MalformedRow(rownum + 1, str(exc)) from None


def check_header(header: list[str], expected: list[str]) -> None:
    """Raise MissingColumn naming the first of ``expected`` that ``header``
    lacks, or, if it lacks none, MalformedRow unless it is ``expected``."""
    if header != expected:
        for name in expected:
            if name not in header:
                raise MissingColumn(name)
        raise MalformedRow(1, f"expected the header {','.join(expected)}")


def ingest_csv(path: str | Path) -> list[CycleLog]:
    """Parse an execution log CSV into cycle-grouped columns.

    Cycles come back sorted ascending by id; row order inside a cycle is
    the file order. The header must name every one of ``COLUMNS``, in any
    order. Verdict must be encoded 0 = pass, 1 = fail. Extra columns (e.g.
    LastResults, CalcPrio) are ignored.

    Below the header, ``np.loadtxt`` (numpy's C CSV parser) reads the file in
    one pass, in blocks of about ``INGEST_BLOCK_CHARS`` characters, each cut
    at a line end outside quoted fields. Each block's fields are checked in
    bulk and the block is split at its cycle boundaries; a cycle's columns
    are copied into its ``CycleLog`` once the reader has passed its last row.
    In a log out of cycle order, a row of a cycle already built is held until
    the file is read and then appended to that cycle, after its earlier rows.
    The whole file is parsed and validated before this returns. If loadtxt
    rejects a block or any row fails a check, the file is re-walked row by
    row (``_parse_row`` is the definition of a valid row), which raises the
    first bad row's error with its row number. A log that is not UTF-8 raises
    InputError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            _, header = next(csv_rows(csv.reader(fh)), (1, None))
            if header is None:
                raise MissingColumn(COLUMNS[0])
            for col in COLUMNS:
                if col not in header:
                    raise MissingColumn(col)
            try:
                cycles = _ingest_columns(fh, header)
            except (ValueError, OverflowError, DuplicateExecution):
                cycles = None
            if cycles is None:
                fh.seek(0)
                cycles = _ingest_rows(csv.DictReader(fh))
    except UnicodeDecodeError as exc:
        raise InputError(f"the log is not UTF-8 text: byte "
                         f"0x{exc.object[exc.start]:02x} is {exc.reason}") from None
    return cycles


def _blocks(fh, size: int):
    """The rest of ``fh`` in blocks of whole rows. Each read of ``size``
    characters is cut after its last line end with an even count of '"'
    before it, so a quoted multi-line field is never split."""
    held, odd = "", 0  # text read but not handed out; the parity of '"' in it
    while text := fh.read(size):
        odd ^= text.count('"') & 1
        before, end = odd, len(text)  # before: the parity of held + text[:end]
        while cut := text.rfind("\n", 0, end) + 1:
            before ^= text.count('"', cut, end) & 1
            if not before:
                break
            end = cut - 1
        if cut:
            yield held + text[:cut]
            held = text[cut:]  # the parity of the rest is still odd
        else:
            held += text
    if held:
        yield held


def _stray_quote(text: str) -> bool:
    """Whether a '"' with an even count of '"' before it in the block sits
    inside an unquoted field, where csv reads it as a plain character.
    Without one, csv reads a line end inside a quoted field exactly when the
    count of '"' before it is odd, so the block's cuts fall between rows."""
    if '"' not in text:
        return False
    chars = np.frombuffer(f"\n{text}".encode("utf-32-le"), dtype=np.uint32)
    at = np.flatnonzero(chars == ord('"'))
    return not np.isin(chars[at[0::2] - 1], _OPENS_AFTER).all()


def _block_stamps(texts: np.ndarray, offsets: set) -> np.ndarray | list[int]:
    """Epoch microseconds of one block's LastRun fields. A block numpy may misread
    is parsed by fromisoformat, as _parse_row does; ``offsets`` collects whether
    stamps carry a UTC offset, and holding both kinds raises ValueError."""
    try:
        stamps, aware = _parse_stamps(texts), {False}
    except ValueError:
        parsed = list(map(parse_timestamp, texts))
        aware = {ts.utcoffset() is not None for ts in parsed}
        stamps = list(map(to_epoch_us, parsed))
    offsets.update(aware)
    if len(offsets) > 1:
        raise ValueError("LastRun stamps with and without a UTC offset")
    return stamps


def _ingest_columns(fh, header: list[str]) -> list[CycleLog] | None:
    """The bulk path of ingest_csv over the rest of ``fh``. Returns None, or
    raises ValueError, OverflowError or DuplicateExecution, when some row is
    not valid or may be read differently by csv.

    Each block is split at its cycle boundaries. The rows of the cycle the
    reader is in wait as pieces, slices of the columns of the blocks they
    came in, and become a CycleLog once a row of another cycle follows. A
    row whose cycle is built already is late: each block's late rows are
    copied out, and once the file is read they are appended to their cycles
    in file order. No piece or late row holds a name: ``table`` holds the
    first name read for each id, and ``renamed`` the name of each row that
    differs from it, by cycle and id, until this returns."""
    # csv.DictReader maps a duplicated header name to its last column.
    where = {name: i for i, name in enumerate(header)}
    usecols = [where[f] for f in COLUMNS]
    dtype = np.dtype([("id", np.int64), ("name", object), ("duration", np.float64),
                      ("last_run", object), ("verdict", f"U{_VERDICT_WIDTH}"),
                      ("cycle", np.int64)])
    known = _Known()
    table = known.table  # each distinct id's one int object -> the first name read for it
    renamed: dict[int, dict] = {}  # cycle id -> {test id: the name of its row there}
    cycles: dict[int, CycleLog] = {}
    current, pieces = None, []  # the cycle the reader is in and its rows read so far
    late = [[] for _ in range(5)]  # the late rows' cycle ids, then their columns, by block
    offsets = set()
    for text in _blocks(fh, INGEST_BLOCK_CHARS):
        if not text.strip("\r\n"):
            continue  # blank lines only, which csv.DictReader skips too
        block = _read_block(text, dtype, usecols, known, renamed, offsets)
        if block is None:
            return None
        cycle, ids, columns = block
        id_list, is_late = ids.tolist(), np.zeros(len(cycle), dtype=bool)
        for cid, lo, hi in _runs(cycle):
            if cid != current:
                if pieces:
                    cycles[current] = _cycle_log(current, pieces, table, renamed)
                current, pieces = (None, None) if cid in cycles else (cid, [])
            if pieces is None:
                is_late[lo:hi] = True
            else:
                pieces.append([id_list[lo:hi], *(c[lo:hi] for c in columns)])
        if is_late.any():
            for kept, column in zip(late, (cycle, ids, *columns)):
                kept.append(column[is_late])
    if pieces:
        cycles[current] = _cycle_log(current, pieces, table, renamed)
    if late[0]:
        for k, kept in enumerate(late):
            late[k] = np.concatenate(kept)  # one column's blocks at a time
        cycle, ids, *columns = late
        order = np.argsort(cycle, kind="stable")  # file order inside each cycle
        for cid, lo, hi in _runs(cycle[order]):
            log, at = cycles[cid], order[lo:hi]
            cycles[cid] = _cycle_log(cid, [
                [log.test_ids, log.failed, log.duration_s, log.last_run],
                [ids[at].tolist(), *(c[at] for c in columns)]], table, renamed)
    return [cycles[cid] for cid in sorted(cycles)]


def _read_block(text: str, dtype: np.dtype, usecols: list[int], known: "_Known",
                renamed: dict, offsets: set) -> tuple | None:
    """One block's rows as cycle ids, shared id objects, and the failed,
    duration and last-run columns. A row whose name differs from the first
    name read for its id is entered, interned, in ``renamed``: cycle id ->
    {test id: name}. None, or ValueError or OverflowError, if some row is
    not valid or csv may read the block otherwise. Nothing returned refers
    to loadtxt's rows, which hold every Name and LastRun object."""
    if "\0" in text or len(text) > csv.field_size_limit() or _stray_quote(text):
        return None  # a U field drops trailing NULs; csv may reject a long field
    rows = np.loadtxt(io.StringIO(text), dtype, delimiter=",", quotechar='"', comments=None,
                      usecols=usecols, ndmin=1)
    verdicts = rows["verdict"]
    if np.char.str_len(verdicts).max() >= _VERDICT_WIDTH:
        return None
    verdicts = np.char.strip(verdicts)
    failed = verdicts == "1"
    if not (failed | (verdicts == "0")).all():
        return None
    cycle, names = rows["cycle"].copy(), rows["name"]
    ids, differs = known.share(rows["id"], names)
    at = np.flatnonzero(differs)
    for cid, tid, name in zip(cycle[at].tolist(), ids[at].tolist(), names[at].tolist()):
        renamed.setdefault(cid, {})[tid] = sys.intern(name)
    stamps = np.asarray(_block_stamps(rows["last_run"], offsets), dtype=np.int64)
    return cycle, ids, (failed, rows["duration"].copy(), stamps)


class _Known:
    """The distinct ids an ingest has read. ``table`` maps each one's shared
    int object to the first name read for it. Most are also settled: held
    sorted, beside their objects and names, so that a block looks its ids up
    with one ``np.searchsorted``. The rest, ``pending``, are looked up one row
    at a time, and once they outnumber the settled ids every id is settled;
    so a log of ever new ids is sorted O(log n) times, not once a block."""

    def __init__(self):
        self.table: dict[int, str] = {}
        self.pending: dict[int, int] = {}  # an id not settled -> its shared int object
        self.ids = np.empty(0, dtype=np.int64)
        self.objects = self.names = np.empty(0, dtype=object)

    def share(self, ids: np.ndarray, names: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The shared int object of each of a block's ``ids``, and whether each
        row's name differs from the first name read for its id."""
        settled = len(self.ids)
        if settled:
            at = np.searchsorted(self.ids, ids).clip(max=settled - 1)
            hit, objects, first = self.ids[at] == ids, self.objects[at], self.names[at]
        else:
            hit = np.zeros(len(ids), dtype=bool)
            objects, first = np.empty((2, len(ids)), dtype=object)
        miss = np.flatnonzero(~hit)
        if len(miss):
            fresh = ids[miss].tolist()
            objects[miss] = fresh = list(map(self.pending.setdefault, fresh, fresh))
            first[miss] = list(map(self.table.setdefault, fresh, names[miss]))
            if len(self.pending) > settled:
                self._settle()
        return objects, first != names

    def _settle(self) -> None:
        pending = list(self.pending)  # each key is its own shared object
        names = list(map(self.table.__getitem__, pending))
        ids = np.concatenate([self.ids, np.array(pending, dtype=np.int64)])
        order = np.argsort(ids)
        self.ids = ids[order]
        self.objects = np.concatenate([self.objects, np.array(pending, dtype=object)])[order]
        self.names = np.concatenate([self.names, np.array(names, dtype=object)])[order]
        self.pending.clear()


def _runs(cycle: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """The id, start and stop of each run of rows of one cycle in ``cycle``."""
    bounds = [0, *(np.flatnonzero(cycle[1:] != cycle[:-1]) + 1).tolist(), len(cycle)]
    return zip(cycle[bounds[:-1]].tolist(), bounds, bounds[1:])


def _cycle_log(cycle_id: int, pieces: list[list], table: dict, renamed: dict) -> CycleLog:
    """The CycleLog of one cycle's rows, given as column pieces in file order;
    its arrays are copies that it alone holds. Its names are a NameView over
    ``table`` unless ``renamed`` holds names of this cycle's rows: then a
    tuple that takes those names there and ``table``'s elsewhere."""
    ids, *arrays = zip(*pieces)
    test_ids = tuple(chain.from_iterable(ids))
    own = renamed.get(cycle_id)
    names = (NameView(table, test_ids) if own is None
             else tuple(map(own.get, test_ids, map(table.__getitem__, test_ids))))
    return CycleLog(cycle_id, test_ids, names, *map(np.concatenate, arrays))


def _ingest_rows(reader: csv.DictReader) -> list[CycleLog]:
    """ingest_csv one row at a time: raises the first bad row's error."""
    by_cycle: dict[int, list[tuple]] = {}  # cycle id -> its rows' column values
    seen: set[tuple[int, int]] = set()
    first_of_kind: dict[bool, int] = {}  # has a UTC offset -> first such row
    table: dict[int, str] = {}  # each id -> the first name read for it
    for rownum, row in csv_rows(reader, start=2):
        cycle_id, last_run, values = _parse_row(row, rownum)
        first_of_kind.setdefault(last_run.utcoffset() is not None, rownum)
        if len(first_of_kind) == 2:
            raise MalformedRow(rownum, f"LastRun {row['LastRun']!r} differs from row "
                                       f"{min(first_of_kind.values())}'s in having a "
                                       f"UTC offset")
        key = (values[0], cycle_id)
        if key in seen:
            raise DuplicateExecution(*key)
        seen.add(key)
        table.setdefault(values[0], values[1])
        by_cycle.setdefault(cycle_id, []).append(values)
    cycles = []
    for cid in sorted(by_cycle):
        ids, names, *columns = zip(*by_cycle[cid])
        cycles.append(CycleLog(cid, ids, shared_names(table, ids, names), *columns))
    return cycles


def _parse_row(row: dict, rownum: int) -> tuple[int, datetime, tuple]:
    """A valid row's cycle id, parsed LastRun and values in CycleLog column
    order (id, name, failed, duration, epoch microseconds); raises the row's
    error otherwise."""
    try:
        test_id = int(row["Id"])
    except (TypeError, ValueError):
        raise MalformedRow(rownum, f"bad id {row.get('Id')!r}") from None
    try:
        duration = float(row["Duration"])
    except (TypeError, ValueError):
        raise MalformedRow(rownum, f"bad duration {row.get('Duration')!r}") from None
    if math.isnan(duration) or math.isinf(duration):
        raise MalformedRow(rownum, f"non-finite duration {duration}")
    if duration < 0:
        raise NegativeDuration(rownum, duration)
    try:
        # a row too short to reach LastRun holds None there
        last_run = parse_timestamp(row["LastRun"] or "")
    except (TypeError, ValueError):
        raise MalformedRow(rownum, f"bad timestamp {row.get('LastRun')!r}") from None
    verdict_raw = (row["Verdict"] or "").strip()
    if verdict_raw not in ("0", "1"):
        raise BadVerdict(rownum, verdict_raw)
    try:
        cycle_id = int(row["Cycle"])
    except (TypeError, ValueError):
        raise MalformedRow(rownum, f"bad cycle {row.get('Cycle')!r}") from None
    if cycle_id < 1:
        raise MalformedRow(rownum, f"cycle id must be >= 1, got {cycle_id}")
    values = (test_id, row["Name"], verdict_raw == "1", duration, to_epoch_us(last_run))
    return cycle_id, last_run, values


def emit_csv(cycles: Iterable[CycleLog], path: str | Path) -> None:
    """Write cycles back out in the ingestible CSV format (lossless up to UTC offsets:
    a stamp that had one is written as its UTC time)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for cycle in cycles:
            for tid, name, duration, stamp, failed in zip(
                cycle.test_ids, cycle.names, cycle.duration_s.tolist(), cycle.last_run.tolist(),
                cycle.failed.tolist(),
            ):
                writer.writerow([
                    tid,
                    name,
                    repr(duration),
                    from_epoch_us(stamp).isoformat(sep=" "),
                    "1" if failed else "0",
                    cycle.cycle_id,
                ])


@dataclass(frozen=True, eq=False)
class StatusMatrix:
    """Per-test execution-status windows plus duration/recency statistics.

    ``statuses[i]`` holds the last ``window_len`` cycle outcomes of test
    ``test_ids[i]``, most recent last, padded with -1 where the test did
    not run (or history is shorter than the window). ``mean_duration_s``
    averages over executed cycles only; a never-executed test gets 0 and a
    ``last_run`` of NEVER_RAN.
    """

    test_ids: tuple
    window_len: int
    statuses: np.ndarray  # (n_tests, window_len) int8
    mean_duration_s: np.ndarray  # (n_tests,) float64
    last_run: np.ndarray  # (n_tests,) int64 epoch microseconds, or NEVER_RAN

    def __post_init__(self):
        n = len(self.test_ids)
        if self.statuses.shape != (n, self.window_len):
            raise ValueError("statuses shape does not match test ids / window length")
        statuses = self.statuses
        if statuses.dtype == np.int8:  # NOT_RUN, PASS and FAIL are the int8 values -1..1
            bad = statuses.size and (statuses.min() < NOT_RUN or statuses.max() > FAIL)
        else:
            bad = not np.isin(statuses, (NOT_RUN, PASS, FAIL)).all()
        if bad:
            raise ValueError("statuses must be in {-1, 0, 1}")

    def __len__(self) -> int:
        return len(self.test_ids)


class ReplayState:
    """Per-test rolling status window, duration stats and recency.

    Tests get rows in order of first appearance. ``ingest`` folds one cycle
    in with a few array operations over that cycle's rows, and the window
    moves by one shift of the matrix, so per-cycle work does not grow with
    the length of the history already folded in.
    """

    def __init__(self, window_len: int):
        self.window_len = window_len
        self.index: dict = {}  # test id -> row; its order is the row order
        self.statuses = np.empty((0, window_len), dtype=np.int8)
        self.dur_sum = np.empty(0)
        self.dur_count = np.empty(0)
        self.last_run = np.empty(0, dtype=np.int64)  # epoch us; NEVER_RAN until a test runs
        self.cycle = 0  # cycle id the last window slot corresponds to

    @classmethod
    def from_cycles(cls, cycles: Sequence[CycleLog], window_len: int,
                    as_of_cycle: int) -> "ReplayState":
        state = cls(window_len)
        for cycle in cycles:
            if cycle.cycle_id > as_of_cycle:
                break
            state.ingest(cycle)
        state.advance_to(as_of_cycle)
        return state

    def _rows(self, test_ids: tuple) -> np.ndarray:
        try:
            return np.fromiter(map(self.index.__getitem__, test_ids), dtype=np.intp,
                               count=len(test_ids))
        except KeyError:  # unseen ids get padded rows, in order of first appearance
            known = len(self.index)
            for tid in test_ids:
                self.index.setdefault(tid, len(self.index))
            fresh = len(self.index) - known
            pad = np.full((fresh, self.window_len), NOT_RUN, dtype=np.int8)
            self.statuses = np.vstack([self.statuses, pad])
            self.dur_sum = np.concatenate([self.dur_sum, np.zeros(fresh)])
            self.dur_count = np.concatenate([self.dur_count, np.zeros(fresh)])
            self.last_run = np.concatenate([self.last_run, np.full(fresh, NEVER_RAN)])
            return self._rows(test_ids)

    def advance_to(self, cycle_id: int) -> None:
        if cycle_id < self.cycle:
            raise ValueError("replay state cannot move backwards")
        shift = min(cycle_id - self.cycle, self.window_len)
        if shift:  # a shift by the whole window moves nothing and clears every slot
            self.statuses[:, :-shift] = self.statuses[:, shift:]
            self.statuses[:, -shift:] = NOT_RUN
        self.cycle = cycle_id

    def ingest(self, cycle: CycleLog) -> None:
        rows = self._rows(cycle.test_ids)
        self.advance_to(cycle.cycle_id)
        self.statuses[rows, -1] = cycle.failed
        self.dur_sum[rows] += cycle.duration_s
        self.last_run[rows] = np.maximum(self.last_run[rows], cycle.last_run)  # the latest wins
        self.dur_count[rows] += 1

    def matrix_for(self, test_ids) -> StatusMatrix:
        test_ids = tuple(test_ids)
        rows = self._rows(test_ids)
        count = self.dur_count[rows]
        mean = np.divide(self.dur_sum[rows], count, out=np.zeros(len(rows)), where=count > 0)
        return StatusMatrix(
            test_ids=test_ids,
            window_len=self.window_len,
            statuses=self.statuses[rows],
            mean_duration_s=mean,
            last_run=self.last_run[rows],
        )


def build_status_matrix(
    cycles: Sequence[CycleLog],
    window_len: int = DEFAULT_WINDOW,
    as_of_cycle: int | None = None,
) -> StatusMatrix:
    """Build per-test status windows ending at ``as_of_cycle``.

    Window slots correspond to cycle ids ``as_of-window_len+1 .. as_of``;
    a cycle id with no record for a test (including ids absent from the
    log altogether, and ids < 1) contributes -1. Mean duration and last
    run are taken over the full history up to ``as_of_cycle``, not just
    the window. Rows follow first appearance in the history. This is a
    snapshot of a ReplayState fed the same cycles.
    """
    if window_len < 1:
        raise ValueError(f"window_len must be >= 1, got {window_len}")
    ids = [c.cycle_id for c in cycles]
    if ids != sorted(ids):
        raise ValueError("cycles must be sorted ascending by cycle_id")
    if as_of_cycle is None:
        as_of_cycle = ids[-1] if ids else 0
    if not ids or ids[0] > as_of_cycle:
        raise EmptyHistory(f"no cycles at or before {as_of_cycle}")
    state = ReplayState.from_cycles(cycles, window_len, as_of_cycle)
    return state.matrix_for(state.index)
