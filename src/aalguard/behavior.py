"""Sensor event streams, timing features and behavior classification.

Two features summarize a user's routine: how long they take to move between
rooms (one duration per consecutive pair of events in different locations)
and how long they hold an activity (one duration per maximal run of the same
non-idle activity).  Events are folded into their user's running sum and
count of durations per feature key as they are read (:class:`EventLog`), so
extracting the features only divides sums already kept.  Users are assigned
to the behavior class whose centroid is nearest in feature space; centroids
evolve by incremental mean as new observations fold in, and a trust value in
[0, 1] expresses how well a fresh feature vector matches a class.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from itertools import chain, repeat
from operator import itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

IDLE_ACTIVITY = "none"

EVENT_HEADER = ["timestamp", "user", "location", "activity"]

DEFAULT_DISTANCE_FLOOR = 30.0  # seconds

MAX_GAP = int(sys.float_info.max)  # longest duration a float holds, seconds


class OrderingError(ValueError):
    """A user's events are not sorted by timestamp."""


class NonFiniteError(ValueError):
    """A behavior distance came out NaN or infinite."""


class EventFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownClassError(KeyError):
    pass


class ModelFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SensorEvent(NamedTuple):
    """One sensor reading: who, when, in which room, doing what.

    An immutable tuple read by attribute.  Being a tuple, it compares equal
    to the plain tuple of its fields, ``(user, timestamp, location,
    activity)``.  It is the form of in-process input to :class:`EventLog`
    and the feature functions; :func:`load_events` builds none.
    """

    user: str
    timestamp: int
    location: str
    activity: str = IDLE_ACTIVITY


class FeatureVector:
    """Mean durations per feature key; vectors compare by their entries."""

    def __init__(self, entries: Optional[Dict[str, float]] = None):
        self.entries = {} if entries is None else entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not FeatureVector:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"FeatureVector(entries={self.entries!r})"


class BehaviorClass:
    def __init__(self, id: str, centroid: FeatureVector, n: int = 1):
        self.id = id
        self.centroid = centroid
        self.n = n


class BehaviorModel:
    def __init__(self, classes: List[BehaviorClass],
                 distance_floor: float = DEFAULT_DISTANCE_FLOOR):
        self.classes = classes
        self.distance_floor = distance_floor
        ids = [c.id for c in classes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate class ids: {ids}")
        if not 0 < distance_floor < math.inf:  # NaN fails too
            raise ValueError("distance_floor must be finite and positive")

    def get(self, class_id: str) -> BehaviorClass:
        for cls in self.classes:
            if cls.id == class_id:
                return cls
        raise UnknownClassError(class_id)


class EventLog:
    """Sensor events folded per user as they are read; no row is kept.

    For each user in first-seen order the log holds the running state of
    that user's stream: last timestamp, room, current activity, the start of
    the current activity run, and the ``moves`` and ``holds`` tables of
    ``[sum, count]`` per key, the sum added up in stream order.  The features
    read that state, so no stream is walked twice and the state does not
    grow with the events read; beyond it the log keeps only the count of
    events folded.  ``EventLog(events)`` folds any iterable of events, each
    timestamp read through ``int``, in the loop :func:`load_events` folds
    CSV rows in, and raises ``OrderingError`` when one user's timestamps go
    backwards, and ``OverflowError`` when one lies over ``MAX_GAP`` after
    its run's start.
    """

    __slots__ = ("_folds", "_rows")

    def __init__(self, events: Iterable[SensorEvent] = ()):
        self._folds: Dict[str, list] = {}
        self._rows = 0
        backwards = self._fold(map(itemgetter(1, 0, 2, 3), events), tuple)
        if backwards is not None:
            user, timestamp, last = backwards
            raise OrderingError(f"{user}: timestamp {timestamp} after {last}")

    def _fold(self, rows: Iterable, clean: Callable
              ) -> Optional[Tuple[str, int, int]]:
        """Fold ``(timestamp, user, location, activity)`` rows in order.

        A row's state is found by its raw user cell, and a location or
        activity cell that differs from the state's is looked up in
        ``shared``, so a padded repeat is no change.  A row with a text not
        seen before, or that does not read as it stands, goes to ``clean``
        for its clean cells (None skips it), each text then mapped to one
        object per clean text.  Returns ``(user, timestamp, last)`` for the
        first row that goes back in time in its user's stream, else None.
        A room change adds its duration to ``moves[(from, to)]``; the end of
        a run of one non-idle activity adds its length to ``holds[activity]``
        and the open run stays in the state.  A sum starts as the float of
        its first duration and adds the later ones as ints, which rounds as
        adding their floats does (``MAX_GAP`` keeps each in float range).
        """
        folds = self._folds
        states: Dict[str, list] = {}  # each user cell text -> its state
        shared: Dict[str, str] = {}  # each cell text -> its clean text
        count = 0
        for row in rows:
            try:
                raw_ts, user, location, activity = row
                timestamp = int(raw_ts)
                state = states[user]
                room, current = state[1], state[2]
                location = room if location == room else shared[location]
                activity = current if activity == current else shared[activity]
            except (ValueError, KeyError):  # a new cell text, or a bad row
                cells = clean(row)
                if cells is None:
                    continue
                timestamp = int(cells[0])
                for raw, cell in zip(row[1:], cells[1:]):
                    shared[raw] = shared.setdefault(cell, cell)
                user, location, activity = map(shared.get, cells[1:])
                # [last, room, current, start, moves, holds]
                state = folds.setdefault(user, [timestamp, location, activity,
                                                timestamp, {}, {}])
                states[row[1]] = state
                room, current = state[1], state[2]
            last = state[0]
            if timestamp < last:
                return shared[user], timestamp, last
            if timestamp - state[3] > MAX_GAP:
                raise OverflowError(
                    f"events for {shared[user]} span a gap beyond float range")
            if location is not room:
                moves = state[4]
                total = moves.get((room, location))
                if total is None:
                    moves[room, location] = [float(timestamp - last), 1]
                else:
                    total[0] += timestamp - last
                    total[1] += 1
                state[1] = location
            if activity is not current:
                if current != IDLE_ACTIVITY:
                    start, holds = state[3], state[5]
                    total = holds.get(current)
                    if total is None:
                        holds[current] = [float(last - start), 1]
                    else:
                        total[0] += last - start
                        total[1] += 1
                state[2] = activity
                state[3] = timestamp
            state[0] = timestamp
            count += 1
        self._rows = count
        return None

    def __len__(self) -> int:
        return self._rows


def _log(events) -> EventLog:
    return events if isinstance(events, EventLog) else EventLog(events)


def extract_features(events, user: str) -> FeatureVector:
    """Per-key mean of the moving and holding durations.

    Reads the sums the fold keeps and closes the open activity run on
    locals, so the folded state never changes and every call answers the
    same.  Each sum adds its durations in stream order, so every mean is
    bit-identical to the mean over a separate pass per feature.
    """
    fv = FeatureVector()
    state = _log(events)._folds.get(user)
    if state is None:
        return fv
    last, _, current, start, moves, holds = state
    entries = fv.entries
    for (src, dst), (total, count) in moves.items():
        entries[f"move:{src}->{dst}"] = total / count
    for activity, (total, count) in holds.items():
        if activity == current:  # the open run; ``holds`` has no idle key
            total += last - start
            count += 1
        entries[f"hold:{activity}"] = total / count
    if current != IDLE_ACTIVITY and current not in holds:
        entries[f"hold:{current}"] = float(last - start)
    return fv


def distance(a: FeatureVector, b: FeatureVector) -> float:
    """Euclidean distance over the union of keys; absent keys count as zero.

    Keys are summed in sorted order so the result is bit-identical no matter
    how the vectors' dicts were built.  Raises ``NonFiniteError`` when the
    result is not finite (a NaN or infinite entry, or a square or a sum of
    squares beyond float range), so no caller compares a NaN.
    """
    x, y = a.entries, b.entries
    try:
        d = math.sqrt(sum([(x.get(k, 0.0) - y.get(k, 0.0)) ** 2
                           for k in sorted(x.keys() | y.keys())]))
    except OverflowError:  # ``**`` raises where ``+`` gives infinity
        d = math.inf
    if not math.isfinite(d):
        raise NonFiniteError(f"distance is not finite ({d})")
    return d


def classify(model: BehaviorModel, fv: FeatureVector) -> Tuple[str, float]:
    """Nearest class by centroid distance; ties go to the earlier class."""
    if not model.classes:
        raise ValueError("model has no classes")
    best = model.classes[0]
    best_d = distance(fv, best.centroid)
    for cls in model.classes[1:]:
        d = distance(fv, cls.centroid)
        if d < best_d:
            best, best_d = cls, d
    return best.id, best_d


def update_class(model: BehaviorModel, class_id: str,
                 fv: FeatureVector) -> BehaviorModel:
    """Fold one observation into a class centroid by incremental mean.

    Keys the centroid already has move by ``(x - c) / (n + 1)``; keys it has
    not seen adopt the observed value outright.  Other classes are untouched.
    """
    cls = model.get(class_id)
    for key, x in fv.entries.items():
        if key in cls.centroid.entries:
            c = cls.centroid.entries[key]
            cls.centroid.entries[key] = c + (x - c) / (cls.n + 1)
        else:
            cls.centroid.entries[key] = x
    cls.n += 1
    return model


def trust_score(model: BehaviorModel, class_id: str, fv: FeatureVector) -> float:
    """The trust of ``fv`` against ``class_id``'s centroid; see
    :func:`trust_at`."""
    return trust_at(model, distance(fv, model.get(class_id).centroid))


def trust_at(model: BehaviorModel, d: float) -> float:
    """``1 / (1 + d/floor)`` for a centroid distance ``d``, such as the one
    :func:`classify` returns: 1 at an exact match, 0.5 at one floor away."""
    return 1.0 / (1.0 + d / model.distance_floor)


# ---------------------------------------------------------------------------
# Event CSV: header `timestamp,user,location,activity`; rows per-user sorted.
# ---------------------------------------------------------------------------

EVENT_SLICE = 1 << 16  # characters of event text read at a time

# A text holding none of these characters splits into the cells the CSV
# reader gives by cutting it at each "\n" and then at each ",".  The reader
# before Python 3.11 refuses a NUL.
_CSV_ONLY = '"\r' if sys.version_info >= (3, 11) else '"\r\0'


def _event_slices(text: str) -> Iterator[str]:
    """``text`` in pieces of about ``EVENT_SLICE`` characters, each cut just
    after a newline: the lines of the pieces are the lines of ``text``, and
    no copy of the whole text is made."""
    start = 0
    while start < len(text):
        cut = text.find("\n", start + EVENT_SLICE)
        stop = len(text) if cut < 0 else cut + 1
        yield text[start:stop]
        start = stop


def _split_rows(piece: str) -> Iterator[List[str]]:
    """The rows of a piece of text holding none of ``_CSV_ONLY``, each line
    split at ",".  Raises ``csv.Error`` where a line is longer than
    ``csv.field_size_limit()``: it may hold a cell the CSV reader refuses."""
    lines = piece.split("\n")
    limit = csv.field_size_limit()
    if len(piece) > limit and max(map(len, lines)) > limit:
        raise csv.Error(f"field larger than field limit ({limit})")
    return map(str.split, lines, repeat(","))


def load_events(text: str) -> EventLog:
    """Read event CSV text into an :class:`EventLog`, folding as it reads.

    One loop folds each row straight into its user's running state
    (:meth:`EventLog._fold`), with no ``SensorEvent``, no per-row tuple and
    nothing kept per row; the user, location and activity cells share one
    string object per distinct stripped text.  The rows come from one
    bounded slice of the text at a time (:func:`_event_slices`).  A text
    with none of ``_CSV_ONLY`` (no quote and no carriage return) is cut
    into rows by ``str.split``, which gives the CSV reader's cells.  The CSV
    reader reads any other text, and reads again a text whose split rows
    fail, so it reports every error.  Blank rows are skipped and cells are
    stripped.  A bad header, a row that is not four fields, a timestamp that
    is not an integer, a user whose timestamps go backwards, or text the CSV
    reader refuses (such as a bare carriage return inside an unquoted cell)
    raises ``EventFormatError`` with the last physical line of its row, as
    does a row more than ``MAX_GAP`` after its user's run start.
    """
    if not any(map(text.__contains__, _CSV_ONLY)):
        rows = chain.from_iterable(map(_split_rows, _event_slices(text)))
        try:
            return _fold_events(rows, lambda: 0)
        except EventFormatError:  # read again below, to report at its line
            pass
    reader = csv.reader(chain.from_iterable(map(io.StringIO,
                                                _event_slices(text))))
    return _fold_events(reader, lambda: reader.line_num)


def _fold_events(rows: Iterator[List[str]], line: Callable[[], int]
                 ) -> EventLog:
    """Check the header row of ``rows`` and fold the rest into a new log;
    ``line()`` is the line an error is reported at."""
    try:
        header = next(rows, None)
        if header is None:
            raise EventFormatError("missing header", 1)
        header = [cell.strip() for cell in header]
        if header != EVENT_HEADER:
            raise EventFormatError(
                f"expected header {','.join(EVENT_HEADER)}, got {','.join(header)}",
                1)
        log = EventLog()
        backwards = log._fold(rows, lambda r: _cells(r, line()))
    except (csv.Error, OverflowError) as err:
        raise EventFormatError(str(err), line()) from None
    if backwards is not None:
        user, timestamp, _ = backwards
        raise EventFormatError(
            f"events for {user} not sorted (timestamp {timestamp})", line())
    return log


def _cells(row: List[str], lineno: int) -> Optional[List[str]]:
    """A row's stripped cells, its timestamp checked; None if all blank."""
    cells = [cell.strip() for cell in row]
    if not any(cells):
        return None
    if len(cells) != 4:
        raise EventFormatError(f"expected 4 fields, got {len(cells)}", lineno)
    try:
        int(cells[0])
    except ValueError:
        raise EventFormatError(f"bad timestamp {cells[0]!r}", lineno) from None
    return cells


def users_in(events) -> List[str]:
    return list(_log(events)._folds)


# ---------------------------------------------------------------------------
# Model checkpoint: `class <id> n=<n>` then indented `  <key> = <value>` lines.
# ---------------------------------------------------------------------------

def load_model(text: str,
               distance_floor: float = DEFAULT_DISTANCE_FLOOR) -> BehaviorModel:
    classes: List[BehaviorClass] = []
    current: Optional[BehaviorClass] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("class "):
            parts = line.split()
            if len(parts) != 3 or not parts[2].startswith("n="):
                raise ModelFormatError(f"bad class line: {line!r}", lineno)
            try:
                n = int(parts[2][2:])
            except ValueError:
                raise ModelFormatError(f"bad count in {line!r}", lineno) from None
            if any(cls.id == parts[1] for cls in classes):
                raise ModelFormatError(f"duplicate class id {parts[1]!r}",
                                       lineno)
            current = BehaviorClass(id=parts[1], centroid=FeatureVector(), n=n)
            classes.append(current)
            continue
        if line.startswith("  ") and current is not None:
            if "=" not in line:
                raise ModelFormatError(f"bad centroid line: {line!r}", lineno)
            key, _, value = line.partition("=")
            try:
                parsed = float(value.strip())
            except ValueError:
                parsed = math.nan
            if not math.isfinite(parsed):
                raise ModelFormatError(f"bad value in {line!r}", lineno)
            current.centroid.entries[key.strip()] = parsed
            continue
        raise ModelFormatError(f"unrecognized line: {line!r}", lineno)
    if not classes:
        raise ModelFormatError("model has no classes", 1)
    return BehaviorModel(classes=classes, distance_floor=distance_floor)
