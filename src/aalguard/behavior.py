"""Sensor event streams, timing features and behavior classification.

Two features summarize a user's routine: how long they take to move between
rooms (one duration per consecutive pair of events in different locations)
and how long they hold an activity (one duration per maximal run of the same
non-idle activity).  Users are assigned to the behavior class whose centroid
is nearest in feature space; centroids evolve by incremental mean as new
observations fold in, and a trust value in [0, 1] expresses how well a fresh
feature vector matches a class.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .facts import format_number

IDLE_ACTIVITY = "none"

EVENT_HEADER = ["timestamp", "user", "location", "activity"]

DEFAULT_DISTANCE_FLOOR = 30.0  # seconds


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
    activity)``.
    """

    user: str
    timestamp: int
    location: str
    activity: str = IDLE_ACTIVITY


@dataclass
class FeatureVector:
    """Mean durations per feature key plus the observation count behind each."""

    entries: Dict[str, float] = field(default_factory=dict)
    support: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "FeatureVector":
        return FeatureVector(dict(self.entries), dict(self.support))


@dataclass
class BehaviorClass:
    id: str
    centroid: FeatureVector
    n: int = 1


@dataclass
class BehaviorModel:
    classes: List[BehaviorClass]
    distance_floor: float = DEFAULT_DISTANCE_FLOOR

    def __post_init__(self) -> None:
        ids = [c.id for c in self.classes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate class ids: {ids}")
        if not 0 < self.distance_floor < math.inf:  # NaN fails too
            raise ValueError("distance_floor must be finite and positive")

    def get(self, class_id: str) -> BehaviorClass:
        for cls in self.classes:
            if cls.id == class_id:
                return cls
        raise UnknownClassError(class_id)


def move_key(from_room: str, to_room: str) -> str:
    return f"move:{from_room}->{to_room}"


def hold_key(activity: str) -> str:
    return f"hold:{activity}"


class EventLog(tuple):
    """Sensor events in file order, with each user's own stream beside them.

    ``streams`` maps each user, in first-seen order, to that user's events in
    order.  The log is a tuple, so its streams can never go stale.
    ``EventLog(events)`` groups any iterable of events and raises
    ``OrderingError`` when one user's timestamps go backwards.
    """

    streams: Mapping[str, Tuple[SensorEvent, ...]]

    def __new__(cls, events: Iterable[SensorEvent] = ()) -> "EventLog":
        events = list(events)
        streams: Dict[str, List[SensorEvent]] = {}
        for event in events:
            if not _file_event(streams, event):
                raise OrderingError(
                    f"{event.user}: timestamp {event.timestamp} after "
                    f"{streams[event.user][-1].timestamp}")
        return cls._grouped(events, streams)

    @classmethod
    def _grouped(cls, events: List[SensorEvent],
                 streams: Dict[str, List[SensorEvent]]) -> "EventLog":
        log = tuple.__new__(cls, events)
        for user, stream in streams.items():
            streams[user] = tuple(stream)
        log.streams = MappingProxyType(streams)
        return log


def _file_event(streams: Dict[str, List[SensorEvent]],
                event: SensorEvent) -> bool:
    """Append ``event`` to its user's stream; False if it goes back in time."""
    stream = streams.get(event.user)
    if stream is None:
        streams[event.user] = [event]
    elif event.timestamp < stream[-1].timestamp:
        return False
    else:
        stream.append(event)
    return True


def _streams(events) -> Mapping[str, Tuple[SensorEvent, ...]]:
    if not isinstance(events, EventLog):
        events = EventLog(events)
    return events.streams


def _user_stream(events, user: str) -> Tuple[SensorEvent, ...]:
    return _streams(events).get(user, ())


def moving_time(events, user: str) -> Dict[Tuple[str, str], List[float]]:
    """Durations of room changes, keyed by (from, to).

    Consecutive events in the same room contribute nothing.
    """
    return _durations(_user_stream(events, user))[0]


def holding_time(events, user: str) -> Dict[str, List[float]]:
    """Durations of maximal runs of the same non-idle activity.

    A single-event run has duration zero; idle (``none``) never counts.
    """
    return _durations(_user_stream(events, user))[1]


def _durations(stream: Sequence[SensorEvent]
               ) -> Tuple[Dict[Tuple[str, str], List[float]],
                          Dict[str, List[float]]]:
    """Moving and holding durations of one user's stream, in one pass.

    Each list keeps its durations in stream order, so
    ``sum(durations) / len(durations)`` is bit-identical to the mean of a
    separate pass per feature.
    """
    moves: Dict[Tuple[str, str], List[float]] = {}
    holds: Dict[str, List[float]] = {}
    if not stream:
        return moves, holds
    _, start, room, current = stream[0]
    last = start
    for _, timestamp, location, activity in stream:
        if location != room:
            moves.setdefault((room, location), []).append(float(timestamp - last))
            room = location
        if activity != current:
            if current != IDLE_ACTIVITY:
                holds.setdefault(current, []).append(float(last - start))
            current = activity
            start = timestamp
        last = timestamp
    if current != IDLE_ACTIVITY:
        holds.setdefault(current, []).append(float(last - start))
    return moves, holds


def extract_features(events, user: str) -> FeatureVector:
    """Per-key mean of the moving and holding duration lists."""
    moves, holds = _durations(_user_stream(events, user))
    fv = FeatureVector()
    for (src, dst), durations in moves.items():
        key = move_key(src, dst)
        fv.entries[key] = sum(durations) / len(durations)
        fv.support[key] = len(durations)
    for activity, durations in holds.items():
        key = hold_key(activity)
        fv.entries[key] = sum(durations) / len(durations)
        fv.support[key] = len(durations)
    return fv


def distance(a: FeatureVector, b: FeatureVector) -> float:
    """Euclidean distance over the union of keys; absent keys count as zero.

    Keys are summed in sorted order so the result is bit-identical no matter
    how the vectors' dicts were built.  Raises ``NonFiniteError`` when the
    result is not finite (a NaN or infinite entry, or a sum of squares beyond float
    range), so no caller compares a NaN.
    """
    keys = sorted(set(a.entries) | set(b.entries))
    d = math.sqrt(sum(
        (a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) ** 2 for k in keys))
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
        cls.centroid.support[key] = cls.centroid.support.get(key, 0) + 1
    cls.n += 1
    return model


def trust_score(model: BehaviorModel, class_id: str, fv: FeatureVector) -> float:
    """``1 / (1 + d/floor)``: 1 at an exact match, 0.5 at one floor away."""
    cls = model.get(class_id)
    d = distance(fv, cls.centroid)
    return 1.0 / (1.0 + d / model.distance_floor)


# ---------------------------------------------------------------------------
# Event CSV: header `timestamp,user,location,activity`; rows per-user sorted.
# ---------------------------------------------------------------------------

def load_events(text: str) -> EventLog:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise EventFormatError("missing header", 1)
    header = [cell.strip() for cell in header]
    if header != EVENT_HEADER:
        raise EventFormatError(
            f"expected header {','.join(EVENT_HEADER)}, got {','.join(header)}", 1)
    events: List[SensorEvent] = []
    streams: Dict[str, List[SensorEvent]] = {}
    shared: Dict[str, str] = {}  # one string object per distinct cell text
    for lineno, row in enumerate(reader, start=2):
        if len(row) == 4:
            raw_ts, user, location, activity = row
            raw_ts = raw_ts.strip()
            user = user.strip()
            location = location.strip()
            activity = activity.strip()
            if not (raw_ts or user or location or activity):
                continue
        else:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            raise EventFormatError(f"expected 4 fields, got {len(cells)}", lineno)
        try:
            timestamp = int(raw_ts)
        except ValueError:
            raise EventFormatError(f"bad timestamp {raw_ts!r}", lineno) from None
        event = SensorEvent(shared.setdefault(user, user), timestamp,
                            shared.setdefault(location, location),
                            shared.setdefault(activity, activity))
        if not _file_event(streams, event):
            raise EventFormatError(
                f"events for {user} not sorted (timestamp {timestamp})", lineno)
        events.append(event)
    return EventLog._grouped(events, streams)


def load_events_file(path) -> EventLog:
    with open(path, "r", encoding="utf-8") as fh:
        return load_events(fh.read())


def users_in(events) -> List[str]:
    return list(_streams(events))


# ---------------------------------------------------------------------------
# Model checkpoint: `class <id> n=<n>` then indented `  <key> = <value>` lines.
# ---------------------------------------------------------------------------

def save_model(model: BehaviorModel) -> str:
    lines = []
    for cls in model.classes:
        lines.append(f"class {cls.id} n={cls.n}")
        for key in sorted(cls.centroid.entries):
            lines.append(f"  {key} = {format_number(cls.centroid.entries[key])}")
    return "\n".join(lines) + ("\n" if lines else "")


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
            key = key.strip()
            current.centroid.entries[key] = parsed
            current.centroid.support[key] = max(current.n, 1)
            continue
        raise ModelFormatError(f"unrecognized line: {line!r}", lineno)
    return BehaviorModel(classes=classes, distance_floor=distance_floor)


def load_model_file(path,
                    distance_floor: float = DEFAULT_DISTANCE_FLOOR) -> BehaviorModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh.read(), distance_floor=distance_floor)


def save_model_file(model: BehaviorModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_model(model))
