import copy
import csv
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import aalguard
from aalguard import behavior
from aalguard.behavior import (
    BehaviorClass,
    BehaviorModel,
    EventFormatError,
    FeatureVector,
    ModelFormatError,
    NonFiniteError,
    OrderingError,
    SensorEvent,
    UnknownClassError,
    classify,
    extract_features,
    load_events,
    load_model,
    trust_score,
    update_class,
    users_in,
)

from oracles import (batch_mean, brute_force_nearest, reference_classify,
                     reference_distance, reference_durations,
                     reference_load_events, reference_means, reference_trust,
                     save_model, scan_user_stream, scan_users)

FIXTURES = Path(aalguard.__file__).parent / "fixtures"


def ev(user, timestamp, location, activity="none"):
    return SensorEvent(user=user, timestamp=timestamp, location=location,
                       activity=activity)


# ---------------------------------------------------------------------------
# Moving and holding time
# ---------------------------------------------------------------------------

def assert_folded(fv, moves, holds):
    """``fv`` holds the means of the reference durations, in the
    reference's key order and bit for bit."""
    assert list(fv.entries.items()) == reference_means(moves, holds)


def durations(events, user):
    """``user``'s moving and holding durations by the reference scan, after
    checking that the fold's features are their means."""
    moves, holds = reference_durations(scan_user_stream(events, user))
    assert_folded(extract_features(events, user), moves, holds)
    return moves, holds


def test_moving_time_records_room_change():
    events = [ev("u1", 100, "kitchen"), ev("u1", 130, "bedroom")]
    assert durations(events, "u1") == ({("kitchen", "bedroom"): [30.0]}, {})


def test_moving_time_single_event_is_empty():
    assert durations([ev("u1", 100, "kitchen")], "u1") == ({}, {})


def test_moving_time_same_room_contributes_nothing():
    events = [ev("u1", 100, "kitchen"), ev("u1", 200, "kitchen")]
    assert durations(events, "u1") == ({}, {})


def test_moving_time_rejects_decreasing_timestamps():
    events = [ev("u1", 200, "kitchen"), ev("u1", 100, "bedroom")]
    with pytest.raises(OrderingError):
        extract_features(events, "u1")


def test_holding_time_measures_activity_run():
    events = [ev("u1", 100, "kitchen", "cooking"),
              ev("u1", 160, "kitchen", "cooking"),
              ev("u1", 200, "kitchen", "none")]
    assert durations(events, "u1") == ({}, {"cooking": [60.0]})


def test_holding_time_all_idle_is_empty():
    events = [ev("u1", 100, "kitchen"), ev("u1", 200, "bedroom")]
    assert durations(events, "u1")[1] == {}


def test_holding_time_disjoint_runs():
    events = [ev("u1", 0, "kitchen", "cooking"),
              ev("u1", 60, "kitchen", "cooking"),
              ev("u1", 100, "kitchen", "none"),
              ev("u1", 200, "kitchen", "cooking"),
              ev("u1", 240, "kitchen", "cooking")]
    assert durations(events, "u1") == ({}, {"cooking": [60.0, 40.0]})
    fv = extract_features(events, "u1")
    assert fv.entries == {"hold:cooking": 50.0}


def test_holding_time_single_event_run_is_zero():
    events = [ev("u1", 100, "kitchen", "coffee"), ev("u1", 200, "kitchen", "none")]
    assert durations(events, "u1") == ({}, {"coffee": [0.0]})


def test_extract_features_takes_means():
    events = [ev("u1", 0, "k"), ev("u1", 30, "b"), ev("u1", 60, "k"),
              ev("u1", 110, "b")]
    fv = extract_features(events, "u1")
    assert fv.entries["move:k->b"] == pytest.approx(40.0)  # mean of 30, 50


def test_extract_features_no_events_is_empty():
    fv = extract_features([], "u1")
    assert fv.entries == {}


def test_durations_do_not_exceed_elapsed_time():
    text = (FIXTURES / "streams" / "events_u1.csv").read_text()
    events = load_events(text)
    _, streams = reference_load_events(text)
    for user in ("u1", "u9"):
        stream = streams[user]
        elapsed = stream[-1][1] - stream[0][1]
        moves, holds = reference_durations(stream)
        assert_folded(extract_features(events, user), moves, holds)
        moving_total = sum(sum(v) for v in moves.values())
        holding_total = sum(sum(v) for v in holds.values())
        assert moving_total + holding_total <= elapsed


# ---------------------------------------------------------------------------
# Committed fixture stream against the hand-computed oracle table
# ---------------------------------------------------------------------------

def load_oracle_table():
    table = {}
    text = (FIXTURES / "streams" / "events_u1_expected.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        user, key, mean, support = line.split()
        table.setdefault(user, {})[key] = (float(mean), int(support))
    return table


def test_fixture_stream_matches_oracle_table():
    events = load_events((FIXTURES / "streams" / "events_u1.csv").read_text())
    table = load_oracle_table()
    for user, expected in table.items():
        fv = extract_features(events, user)
        assert set(fv.entries) == set(expected)
        for key, (mean, _) in expected.items():
            assert fv.entries[key] == pytest.approx(mean, abs=1e-9)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def two_class_model():
    return BehaviorModel(classes=[
        BehaviorClass("class1", FeatureVector({"hold:cooking": 60.0})),
        BehaviorClass("class2", FeatureVector({"hold:cooking": 600.0})),
    ])


def test_classify_picks_nearest_centroid():
    fv = FeatureVector({"hold:cooking": 90.0})
    assert classify(two_class_model(), fv) == ("class1", pytest.approx(30.0))


def test_classify_exact_match_is_distance_zero():
    fv = FeatureVector({"hold:cooking": 600.0})
    assert classify(two_class_model(), fv) == ("class2", 0.0)


def test_classify_empty_vector_against_empty_centroids():
    model = BehaviorModel(classes=[
        BehaviorClass("a", FeatureVector()), BehaviorClass("b", FeatureVector())])
    assert classify(model, FeatureVector()) == ("a", 0.0)


def test_classify_is_key_order_invariant():
    rng = random.Random(5)
    keys = [f"hold:a{i}" for i in range(6)]
    model = BehaviorModel(classes=[
        BehaviorClass("c1", FeatureVector({k: rng.uniform(0, 100) for k in keys})),
        BehaviorClass("c2", FeatureVector({k: rng.uniform(0, 100) for k in keys}))])
    entries = {k: rng.uniform(0, 100) for k in keys}
    shuffled = dict(sorted(entries.items(), reverse=True))
    assert classify(model, FeatureVector(entries)) == classify(
        model, FeatureVector(shuffled))


def _random_model(rng):
    keys = [f"k{i}" for i in range(rng.randint(1, 6))]
    classes = []
    for index in range(rng.randint(1, 5)):
        entries = {k: rng.uniform(0, 300) for k in rng.sample(keys, rng.randint(0, len(keys)))}
        classes.append(BehaviorClass(f"c{index}", FeatureVector(entries)))
    return BehaviorModel(classes=classes), keys


def test_classify_agrees_with_brute_force_scan():
    rng = random.Random(42)
    for _ in range(100):
        model, keys = _random_model(rng)
        entries = {k: rng.uniform(0, 300)
                   for k in rng.sample(keys, rng.randint(0, len(keys)))}
        fv = FeatureVector(entries)
        got_id, got_d = classify(model, fv)
        want_id, want_d = brute_force_nearest(model, fv)
        assert got_d == pytest.approx(want_d, abs=1e-9)
        assert got_id == want_id


# ---------------------------------------------------------------------------
# Incremental update
# ---------------------------------------------------------------------------

def test_update_class_moves_mean():
    model = BehaviorModel(classes=[
        BehaviorClass("c", FeatureVector({"k": 60.0}), n=1)])
    update_class(model, "c", FeatureVector({"k": 100.0}))
    cls = model.get("c")
    assert cls.centroid.entries["k"] == pytest.approx(80.0)
    assert cls.n == 2


def test_update_class_identical_vector_keeps_centroid():
    model = BehaviorModel(classes=[
        BehaviorClass("c", FeatureVector({"k": 60.0}), n=3)])
    update_class(model, "c", FeatureVector({"k": 60.0}))
    assert model.get("c").centroid.entries["k"] == pytest.approx(60.0)
    assert model.get("c").n == 4


def test_update_class_new_key_adopts_value():
    model = BehaviorModel(classes=[
        BehaviorClass("c", FeatureVector({"a": 10.0}), n=4)])
    update_class(model, "c", FeatureVector({"b": 100.0}))
    cls = model.get("c")
    assert cls.centroid.entries["b"] == pytest.approx(100.0)
    assert cls.centroid.entries["a"] == pytest.approx(10.0)
    assert cls.n == 5


def test_classify_tie_goes_to_earlier_class():
    model = BehaviorModel(classes=[
        BehaviorClass("early", FeatureVector({"k": 10.0})),
        BehaviorClass("late", FeatureVector({"k": 30.0}))])
    class_id, d = classify(model, FeatureVector({"k": 20.0}))
    assert class_id == "early"
    assert d == pytest.approx(10.0)


def test_update_class_unknown_id_raises():
    model = two_class_model()
    with pytest.raises(UnknownClassError):
        update_class(model, "missing", FeatureVector())


def test_update_class_preserves_other_classes():
    model = two_class_model()
    before = dict(model.get("class2").centroid.entries)
    update_class(model, "class1", FeatureVector({"hold:cooking": 10.0}))
    assert model.get("class2").centroid.entries == before
    assert model.get("class2").n == 1


def test_incremental_matches_batch_mean():
    rng = random.Random(77)
    for _ in range(100):
        keys = [f"k{i}" for i in range(rng.randint(1, 5))]
        vectors = [FeatureVector({k: rng.uniform(0, 1000) for k in keys})
                   for _ in range(rng.randint(1, 12))]
        model = BehaviorModel(classes=[BehaviorClass("c", FeatureVector(), n=0)])
        for fv in vectors:
            update_class(model, "c", fv)
        expected = batch_mean(vectors)
        got = model.get("c").centroid.entries
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-9)
        assert model.get("c").n == len(vectors)


# ---------------------------------------------------------------------------
# Trust
# ---------------------------------------------------------------------------

def test_trust_is_one_at_zero_distance():
    model = two_class_model()
    fv = FeatureVector({"hold:cooking": 60.0})
    assert trust_score(model, "class1", fv) == 1.0


def test_trust_is_half_at_floor_distance():
    model = BehaviorModel(classes=[
        BehaviorClass("c", FeatureVector({"k": 0.0}))], distance_floor=30.0)
    fv = FeatureVector({"k": 30.0})
    assert trust_score(model, "c", fv) == pytest.approx(0.5)


def test_trust_decreases_with_distance():
    model = BehaviorModel(classes=[BehaviorClass("c", FeatureVector({"k": 100.0}))])
    scores = [trust_score(model, "c", FeatureVector({"k": 100.0 + delta}))
              for delta in (0, 10, 40, 160, 640)]
    assert all(earlier > later for earlier, later in zip(scores, scores[1:]))
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] == 1.0


@pytest.mark.parametrize("entries", [
    {"hold:cooking": math.nan}, {"hold:cooking": math.inf},
    {"hold:a": 1e154, "hold:b": 1e154},  # squares sum beyond float range
    {"hold:cooking": 1e200}])  # one square beyond float range
def test_non_finite_distance_is_rejected(entries):
    model = two_class_model()
    fv = FeatureVector(entries)
    for score in (lambda: classify(model, fv),
                  lambda: trust_score(model, "class1", fv)):
        with pytest.raises(NonFiniteError):
            score()


FEATURE_KEYS = ["hold:cooking", "hold:tv", "move:bath->hall", "move:hall->bath"]
FEATURE_VALUES = (st.sampled_from([0.0, 30.0, 60.0, 1e200, -1e200])
                  | st.floats(-1e6, 1e6, allow_nan=False)
                  | st.integers(0, 10**6).map(float))


def feature_vectors(keys=FEATURE_KEYS):
    return st.dictionaries(st.sampled_from(keys), FEATURE_VALUES,
                           max_size=len(keys)).map(
        FeatureVector)


@st.composite
def scored_models(draw):
    """A model whose classes may share a centroid (ties), and a vector whose
    keys may be disjoint from every centroid's."""
    centroids = draw(st.lists(feature_vectors(FEATURE_KEYS[1:]), min_size=1,
                              max_size=3))
    classes = [BehaviorClass(f"c{i}", FeatureVector(
                   dict(draw(st.sampled_from(centroids)).entries)))
               for i in range(draw(st.integers(1, 4)))]
    fv = draw(feature_vectors(FEATURE_KEYS[:1]) | feature_vectors())
    return BehaviorModel(classes=classes), fv


def _hexed(score):
    """``score()`` with every float as ``float.hex``, or NonFiniteError."""
    try:
        result = score()
    except NonFiniteError:
        return NonFiniteError
    if isinstance(result, tuple):
        class_id, d = result
        return class_id, d.hex()
    return result.hex()


@settings(max_examples=300, deadline=None)
@given(scored_models())
@example((BehaviorModel(classes=[BehaviorClass("a", FeatureVector()),
                                 BehaviorClass("b", FeatureVector())]),
          FeatureVector({"hold:cooking": 0.0})))
@example((BehaviorModel(classes=[BehaviorClass("a", FeatureVector({"k": 1e200})),
                                 BehaviorClass("b", FeatureVector({"k": 0.0}))]),
          FeatureVector({"k": 1e200})))
def test_scores_equal_the_generator_formula_bit_for_bit(scored):
    model, fv = scored
    for cls in model.classes:
        assert _hexed(lambda: behavior.distance(fv, cls.centroid)) == _hexed(
            lambda: reference_distance(fv, cls.centroid))
        assert _hexed(lambda: trust_score(model, cls.id, fv)) == _hexed(
            lambda: reference_trust(model, cls.id, fv))
    assert _hexed(lambda: classify(model, fv)) == _hexed(
        lambda: reference_classify(model, fv))
    # Trust from the distance classify returns, as authn and ``classify``
    # score it, is the trust of the nearest class.
    assert _hexed(lambda: behavior.trust_at(model, classify(model, fv)[1])) \
        == _hexed(lambda: reference_trust(model, classify(model, fv)[0], fv))


def test_trust_unknown_class_raises():
    with pytest.raises(UnknownClassError):
        trust_score(two_class_model(), "nope", FeatureVector())


# ---------------------------------------------------------------------------
# Event CSV and model checkpoint files
# ---------------------------------------------------------------------------

def test_load_events_requires_header():
    with pytest.raises(EventFormatError):
        load_events("1,u1,kitchen,none\n")


def test_load_events_allows_global_disorder_but_not_per_user():
    text = ("timestamp,user,location,activity\n"
            "100,u1,kitchen,none\n"
            "50,u2,bedroom,none\n"
            "150,u1,kitchen,none\n")
    events = load_events(text)
    assert len(events) == 3
    bad = ("timestamp,user,location,activity\n"
           "100,u1,kitchen,none\n"
           "50,u1,bedroom,none\n")
    with pytest.raises(EventFormatError):
        load_events(bad)


def test_load_events_bad_timestamp_reports_line():
    text = "timestamp,user,location,activity\nxx,u1,kitchen,none\n"
    with pytest.raises(EventFormatError) as err:
        load_events(text)
    assert err.value.line == 2


HEADER = "timestamp,user,location,activity\n"
SPANNING = HEADER + '1,"a\nb",k,n\n'  # a quoted cell on lines 2 and 3


@pytest.mark.parametrize("rows, line, message", [
    ("100,u1,kitchen\n", 2, "expected 4 fields, got 3"),
    ("100,u1,kitchen,none,extra\n", 2, "expected 4 fields, got 5"),
    ("100,u1,kitchen,none\n,,,\n\n200,u1,bedroom\n", 5,
     "expected 4 fields, got 3"),
    ("100,u1,kitchen,none\n   \n1.5,u1,bedroom,none\n", 4,
     "bad timestamp '1.5'"),
    ("100,u1,kitchen,none\n50,u2,hall,none\n90,u1,bedroom,none\n", 4,
     "events for u1 not sorted (timestamp 90)"),
])
def test_load_events_bad_row_reports_line(rows, line, message):
    with pytest.raises(EventFormatError) as err:
        load_events(HEADER + rows)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


HUGE = "1" + "0" * 400  # 1e400: its gap from 0 does not fit in a float


@pytest.mark.parametrize("rows", [
    f"0,u1,kitchen,none\n{HUGE},u1,hall,none\n",  # a room change
    f"0,u1,kitchen,cooking\n{HUGE},u1,kitchen,cooking\n",  # the open run
])
def test_a_gap_beyond_float_range_is_a_format_error(rows):
    with pytest.raises(EventFormatError) as err:
        load_events(HEADER + rows)
    assert str(err.value) == \
        "line 3: events for u1 span a gap beyond float range"
    with pytest.raises(OverflowError):
        behavior.EventLog([SensorEvent("u1", 0, "kitchen", "cooking"),
                           SensorEvent("u1", int(HUGE), "kitchen", "cooking")])


@pytest.mark.parametrize("text, line", [
    (HEADER + "100,u1,kit\rchen,none\n", 2),
    (HEADER + "100,u1,kitchen,none\n\n120,u1,\rhall,none\n", 4),
    ("timestamp,user,loc\ration,activity\n", 1),
    (SPANNING + "2,u,k\rx,n\n", 4),
])
def test_load_events_bare_carriage_return_is_a_format_error(text, line):
    with pytest.raises(EventFormatError) as err:
        load_events(text)
    assert err.value.line == line
    assert "new-line character seen in unquoted field" in str(err.value)


@pytest.mark.parametrize("rows, line, message", [
    ("zz,u,k,n\n", 4, "bad timestamp 'zz'"),
    ("2,u,k\n", 4, "expected 4 fields, got 3"),
    ('0,"a\nb",k,n\n', 5, "events for a\nb not sorted (timestamp 0)"),
])
def test_row_errors_after_a_cell_that_spans_lines_report_the_physical_line(
        rows, line, message):
    with pytest.raises(EventFormatError) as err:
        load_events(SPANNING + rows)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_load_events_skips_blank_rows_and_strips_cells(newline):
    lines = [" timestamp , user,location,activity ",
             " 100 , u1 , kitchen , cooking ", ",,,", "   ", "", " , , , ",
             "160,u1,kitchen,cooking\t"]
    events = load_events(newline.join(lines) + newline)
    assert len(events) == 2 and users_in(events) == ["u1"]
    assert extract_features(events, "u1") == FeatureVector(
        {"hold:cooking": 60.0})


def test_disordered_in_process_stream_raises_among_other_users():
    events = [ev("u1", 200, "kitchen"), ev("u2", 0, "hall"),
              ev("u1", 100, "bedroom")]
    for extract in (extract_features, scan_user_stream):
        with pytest.raises(OrderingError):
            extract(events, "u1")


def test_sensor_event_is_an_immutable_tuple():
    event = SensorEvent("u1", 100, "kitchen")
    assert event == ev("u1", 100, "kitchen", "none") == ("u1", 100, "kitchen",
                                                         "none")
    assert (event.user, event.timestamp, event.location, event.activity) == event
    with pytest.raises(AttributeError):
        event.user = "u2"


def test_loaded_events_share_one_string_per_distinct_cell_text():
    # Padded and bare spellings of one cell text alternate, so every key the
    # fold keeps comes from cells of several raw texts.
    rows = [f"{t}, u{t % 3}{' ' * (t % 2)},{ROOMS[t % 2]}{' ' * (t % 5)},"
            f"{' ' * (t % 4)}{ACTIVITIES[t % 3]}\n" for t in range(30)]
    events = load_events(HEADER + "".join(rows))
    users = users_in(events)
    cells = list(users)
    for user in users:
        _, room, current, _, moves, holds = events._folds[user]
        cells += [room, current] + [room for pair in moves for room in pair]
        cells += list(holds)
    # Three users, two rooms, and three activities with the idle one.
    assert len({id(cell) for cell in cells}) == len(set(cells)) == 8


def test_a_padded_cell_is_its_stripped_text_wherever_it_is_first_seen():
    # " u1 " and "kitchen " repeat u1's user and room cells in another raw
    # text: the same resident and no room change.  "u2 " and " u2" are new
    # raw texts of a user already known: they join u2's state.
    text = HEADER + ("0,u1,kitchen,cooking\n5,u2,hall,none\n"
                     "10, u1 ,kitchen ,cooking\n20,u1,bath,none\n"
                     "30,u2 ,hall,tv\n40, u2,bath , tv\n")
    log = load_events(text)
    _, streams = reference_load_events(text)
    assert len(log) == 6 and users_in(log) == list(streams) == ["u1", "u2"]
    for user, entries in (("u1", {"move:kitchen->bath": 10.0,
                                  "hold:cooking": 10.0}),
                          ("u2", {"move:hall->bath": 10.0, "hold:tv": 10.0})):
        assert extract_features(log, user) == FeatureVector(entries)
        assert_folded(extract_features(log, user),
                      *reference_durations(streams[user]))


def _python_calls_to_load(text):
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        load_events(text)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_loading_makes_no_python_call_per_row(monkeypatch):
    # The same three users, rooms and activities at both sizes, each first
    # seen in the same rows.  One event slice holds either text, so the
    # slice generator resumes as often at both.
    def text(rows):
        return HEADER + "".join(f"{t},u{t % 3},{ROOMS[t // 3 % 3]},"
                                f"{ACTIVITIES[t // 2 % 3]}\n"
                                for t in range(rows))

    monkeypatch.setattr(behavior, "EVENT_SLICE", 1 << 20)
    small, large = text(1_000), text(10_000)
    assert len(large) < behavior.EVENT_SLICE
    assert _python_calls_to_load(small) == _python_calls_to_load(large)


# ---------------------------------------------------------------------------
# Event loader against the row-list oracle
# ---------------------------------------------------------------------------

def _padded(draw, text):
    # A quote opens a quoted cell only as a cell's first character.
    pad = st.sampled_from(["", "", " ", "  ", "\t"])
    return ("" if text.startswith('"') else draw(pad)) + text + draw(pad)


@st.composite
def event_csv_texts(draw):
    """Event CSV text with padding, blank and sparse rows, NUL and quoted
    cells (some spanning lines), bad rows, and cells the CSV reader refuses.
    A plain text holds no quote and no carriage return, so every fault but
    the bare carriage return meets the split reader as well."""
    ordered, faults, plain = (draw(st.booleans()) for _ in range(3))
    kinds = ["event"] * 8 + ["sparse"] + (["short", "long", "timestamp"]
                                          if faults else [])
    if faults and not plain:
        kinds.append("return")
    rooms = ROOMS + ["kit\0chen"]
    activities = ACTIVITIES + ["  "]
    extras = ["extra", ""]
    if not plain:
        rooms += ['" living room "', '"hall,east"', '"living\nroom"']
        activities += ['"tv, news"', '""', '"tv\r\nnews\n"']
        extras.append('"a,b"')
    clock = {}
    lines = [_padded(draw, "timestamp") + "," + _padded(draw, "user") +
             ",location," + _padded(draw, "activity")]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(kinds))
        if kind == "sparse":
            lines.append(draw(st.sampled_from(["", ",,,", "   ", " , , , ",
                                               ",,", ",,,,", ",,,cooking",
                                               "5,,,"])))
            continue
        user = draw(st.sampled_from(USERS[:3]))
        if ordered:
            clock[user] = clock.get(user, 0) + draw(st.integers(0, 30))
            raw_ts = str(clock[user])
        else:
            raw_ts = str(draw(st.integers(0, 60)))
        if kind == "timestamp":
            raw_ts = draw(st.sampled_from(["1.5", "x", "", "1e3", "0x10"]))
        cells = [raw_ts, user, draw(st.sampled_from(rooms)),
                 draw(st.sampled_from(activities))]
        if kind == "return":  # a bare carriage return in an unquoted cell
            cells[draw(st.integers(1, 3))] = draw(st.sampled_from(
                ["kit\rchen", "\rhall", "u1\r"]))
        elif kind == "short":
            del cells[draw(st.integers(0, 3))]
        elif kind == "long":
            cells.append(draw(st.sampled_from(extras)))
        lines.append(",".join(_padded(draw, cell) for cell in cells))
    newline = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(load, text):
    try:
        return load(text), None
    except EventFormatError as err:
        return None, (type(err), str(err), err.line)


@settings(max_examples=300, deadline=None)
@given(event_csv_texts(), st.integers(0, 40) | st.just(behavior.EVENT_SLICE))
def test_loader_matches_the_row_list_oracle(text, size):
    # Small slices cut inside quoted cells that span lines, between the two
    # characters of "\r\n" and before an unterminated last line.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(behavior, "EVENT_SLICE", size)
        got, got_error = _outcome(load_events, text)
    want, want_error = _outcome(reference_load_events, text)
    assert got_error == want_error
    if want is not None:
        rows, streams = want
        assert len(got) == len(rows) and users_in(got) == list(streams)
        for user in streams:
            assert extract_features(got, user) == extract_features(
                [SensorEvent(*row) for row in streams[user]], user)


@settings(max_examples=200, deadline=None)
@given(event_csv_texts(), st.integers(1, 40),
       st.integers(0, 40) | st.just(behavior.EVENT_SLICE))
def test_a_cell_over_the_field_size_limit_is_refused_as_the_oracle_does(
        text, limit, size):
    # Most texts have a line over a limit this low.  The CSV reader refuses
    # a text where a cell of it is over too, and loads one where none is.
    old = csv.field_size_limit(limit)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(behavior, "EVENT_SLICE", size)
            got, got_error = _outcome(load_events, text)
        want, want_error = _outcome(reference_load_events, text)
    finally:
        csv.field_size_limit(old)
    assert got_error == want_error
    if want is not None:
        assert len(got) == len(want[0]) and users_in(got) == list(want[1])


@pytest.mark.parametrize("text, readers, line", [
    (HEADER + "100,u1,kitchen,none\n\n110,u2,hall,tv", 0, None),
    (HEADER + '100,"u1",kitchen,none\n', 1, None),
    (HEADER.replace("\n", "\r\n") + "100,u1,kitchen,none\r\n", 1, None),
    (HEADER + "100,u1,kitchen,none\n110,u1,hall\n", 1, 3),
    (HEADER + "100,u1,kitchen,none\n\nx1,u1,hall,none\n", 1, 4),
    (HEADER + "100,u1,kitchen,none\n50,u2,hall,none\n90,u1,hall,none\n", 1,
     4),
    ("timestamp,user,place,activity\n100,u1,kitchen,none\n", 1, 1),
], ids=["plain", "quote", "crlf", "short-row", "bad-timestamp", "backwards",
        "bad-header"])
def test_the_csv_reader_reads_only_quoted_text_and_refused_rows(
        text, readers, line):
    # A refused row is read again by the CSV reader, which reports it.
    made, reader = [0], csv.reader

    def counting(*args):
        made[0] += 1
        return reader(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csv, "reader", counting)
        got, got_error = _outcome(load_events, text)
    assert made[0] == readers
    want, want_error = _outcome(reference_load_events, text)
    assert got_error == want_error
    if line is None:
        assert want_error is None and len(got) == len(want[0])
    else:
        assert want_error[2] == line


# ---------------------------------------------------------------------------
# Per-user streams grouped at load against the scan oracle
# ---------------------------------------------------------------------------

USERS = ["u1", "u2", "u3", "u4"]
ROOMS = ["kitchen", "bedroom", "bath"]
ACTIVITIES = ["none", "cooking", "sleeping"]


@st.composite
def interleaved_logs(draw):
    """Several users' events interleaved; each user's timestamps ascend."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(USERS), st.integers(0, 50), st.sampled_from(ROOMS),
        st.sampled_from(ACTIVITIES)), max_size=60))
    clock = {}
    events = []
    for user, step, room, activity in rows:
        clock[user] = clock.get(user, 0) + step
        events.append(ev(user, clock[user], room, activity))
    return events


def _csv(events):
    return HEADER + "".join(f"{e.timestamp},{e.user},{e.location},{e.activity}\n"
                            for e in events)


@settings(max_examples=200, deadline=None)
@given(interleaved_logs())
def test_grouped_streams_match_the_scan_oracle(events):
    loaded = load_events(_csv(events))
    assert len(loaded) == len(events)
    for log in (loaded, events):
        assert users_in(log) == scan_users(events)
        for user in USERS:
            own = scan_user_stream(events, user)
            assert_folded(extract_features(log, user),
                          *reference_durations(own))
            assert extract_features(log, user) == extract_features(own, user)


@settings(max_examples=300, deadline=None)
@given(st.one_of(interleaved_logs().map(_csv), event_csv_texts()))
def test_folded_features_equal_the_reference_durations(text):
    want, error = _outcome(reference_load_events, text)
    assume(error is None)
    rows, streams = want
    loaded = load_events(text)
    # The loader's fold and the in-process fold of the same events.
    for log in (loaded, [SensorEvent(*row) for row in rows]):
        assert users_in(log) == list(streams)
        for user in list(streams) + ["nobody"]:
            moves, holds = reference_durations(streams.get(user, []))
            assert_folded(extract_features(log, user), moves, holds)


def test_extraction_leaves_the_folded_state_unchanged():
    # u1's open run is of an activity with closed runs before it, so it keeps
    # that key's place; u2's open run is its activity's first, so it closes
    # as the last key.
    rows = ["0,{u},kitchen,cooking", "60,{u},kitchen,cooking", "90,{u},hall,none",
            "100,{u},kitchen,cooking", "110,{u},kitchen,sleeping",
            "120,{u},kitchen,cooking"]
    text = HEADER + "".join(row.format(u=user) + "\n"
                            for row in rows for user in ("u1", "u2"))
    text += "130,u1,hall,cooking\n130,u2,hall,tv\n"
    log = load_events(text)
    state = copy.deepcopy(log._folds)
    _, streams = reference_load_events(text)
    for user, keys in (("u1", ["cooking", "sleeping"]),
                       ("u2", ["cooking", "sleeping", "tv"])):
        first = extract_features(log, user)
        assert extract_features(log, user) == first
        assert log._folds == state
        moves, holds = reference_durations(streams[user])
        assert list(holds) == keys
        assert_folded(first, moves, holds)
    fv = extract_features(log, "u1")  # runs of 60, 0 and the open 10
    assert fv.entries["hold:cooking"] == 70 / 3


def test_load_and_extraction_build_no_sensor_event(monkeypatch):
    built = [0]

    class CountingEvent(SensorEvent):
        def __new__(cls, *args, **kwargs):
            built[0] += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(behavior, "SensorEvent", CountingEvent)
    log = load_events((FIXTURES / "streams" / "events_u1.csv").read_text())
    for user in users_in(log):
        extract_features(log, user)
    assert built[0] == 0


def test_loading_copies_no_whole_text_and_keeps_nothing_per_row():
    # One resident who never changes room or activity: the fold gains no
    # duration, so whatever the log retains is kept per row.
    text = HEADER + "".join(f"{1_000_000 + t},u1,kitchen,cooking\n"
                            for t in range(40_000))
    assert len(text) > 1_000_000
    tracemalloc.start()
    try:
        log = load_events(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 40_000
    assert extract_features(log, "u1") == FeatureVector(
        {"hold:cooking": 39_999.0})
    assert peak < len(text) // 2
    assert retained < 64 * 1024


def _retained_by_load(text):
    tracemalloc.start()
    try:
        log = load_events(text)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return log, retained


def test_folded_state_does_not_grow_with_the_events_per_resident():
    # The same keys at both sizes, each seen more than 256 times, so the
    # counts are int objects of one size at both; only kept durations grow.
    def text(per_resident):
        return HEADER + "".join(
            f"{t * 10},r{i},{ROOMS[(t + i) % 3]},{ACTIVITIES[t // 2 % 3]}\n"
            for t in range(per_resident) for i in range(2))

    small_text, large_text = text(2_000), text(20_000)
    _retained_by_load(small_text)  # the first load's one-time allocations
    small, small_retained = _retained_by_load(small_text)
    large, large_retained = _retained_by_load(large_text)
    assert len(large) == 10 * len(small)
    for user in users_in(small):
        assert list(extract_features(large, user).entries) == list(
            extract_features(small, user).entries)
    assert large_retained <= small_retained + 1024


@pytest.mark.parametrize("residents", [10, 40])
def test_extraction_reads_each_event_a_bounded_number_of_times(
        monkeypatch, residents):
    # A scan of the whole log per resident reads every event once per
    # resident; reading each user's own stream keeps the count per event
    # independent of the number of residents.
    reads = [0]

    class CountingEvent(SensorEvent):
        def __getattribute__(self, name):
            reads[0] += 1
            return super().__getattribute__(name)

        def __iter__(self):  # unpacking reads every field
            reads[0] += len(self)
            return super().__iter__()

    monkeypatch.setattr(behavior, "SensorEvent", CountingEvent)
    rows = [f"{t * 10},r{i},{ROOMS[(t + i) % 3]},{ACTIVITIES[t // 2 % 3]}\n"
            for t in range(20) for i in range(residents)]
    log = load_events(HEADER + "".join(rows))
    reads[0] = 0
    for user in users_in(log):
        extract_features(log, user)
    assert reads[0] <= 12 * len(log)


def test_model_checkpoint_roundtrip():
    text = (FIXTURES / "model_seed.txt").read_text()
    model = load_model(text)
    assert [c.id for c in model.classes] == ["class1", "class2", "class3"]
    assert save_model(model) == text
    again = load_model(save_model(model))
    assert save_model(again) == text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_model_rejects_non_finite_numbers(value):
    # A NaN centroid value used to capture every user, with trust NaN.
    text = f"class class1 n=1\n  hold:cooking={value}\nclass class2 n=1\n"
    with pytest.raises(ModelFormatError):
        load_model(text)
    with pytest.raises(ValueError):
        BehaviorModel(classes=[], distance_floor=float(value))


def test_model_rejects_duplicate_class_ids():
    with pytest.raises(ValueError):
        BehaviorModel(classes=[BehaviorClass("c", FeatureVector()),
                               BehaviorClass("c", FeatureVector())])
    # A checkpoint names the line of the repeated class.
    with pytest.raises(ModelFormatError,
                       match=r"\Aline 4: duplicate class id 'c'\Z"):
        load_model("class c n=1\n  k = 1\n\nclass c n=2\n")


@pytest.mark.parametrize("text", ["", "# no classes\n\n"])
def test_a_model_checkpoint_with_no_class_is_refused(text):
    with pytest.raises(ModelFormatError,
                       match=r"\Aline 1: model has no classes\Z"):
        load_model(text)
