"""Tests of the benchmark itself: generators, oracle and span arithmetic."""

import json
import os
import random

import pytest

from perfbench import gen, oracle
from perfbench.layers import LayerStats
from perfbench.spans import self_times

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def _messages(requests):
    return [json.dumps(r.msg, sort_keys=True) for r in requests]


def test_generators_are_deterministic_per_seed():
    a, b, c = gen.home_day(5), gen.home_day(5), gen.home_day(6)
    assert (a.facts_text, a.credentials_text) == (b.facts_text, b.credentials_text)
    assert _messages(a.prime + a.stream) == _messages(b.prime + b.stream)
    assert _messages(a.stream) != _messages(c.stream)

    x, y = gen.care_dashboard(5), gen.care_dashboard(5)
    z = gen.care_dashboard(6)
    assert x.facts_text == y.facts_text
    assert _messages(x.stream) == _messages(y.stream)
    assert _messages(x.stream) != _messages(z.stream)

    assert gen.sensor_batch(5).events_text == gen.sensor_batch(5).events_text
    assert gen.sensor_batch(5).events_text != gen.sensor_batch(6).events_text


def test_batch_routines_sit_nearest_their_class_centroid():
    from aalguard import behavior
    centroids = {c: behavior.FeatureVector(dict(v))
                 for c, v in gen.CENTROIDS.items()}
    rng = random.Random(0)
    for behavior_class in gen.CENTROIDS:
        rows = gen._routine(rng, behavior_class, 0, 200)
        assert [t for t, _, _ in rows] == sorted(t for t, _, _ in rows)
        events = [behavior.SensorEvent("u", t, room, activity)
                  for t, room, activity in rows]
        fv = behavior.extract_features(events, "u")
        d = {c: behavior.distance(fv, centroid)
             for c, centroid in centroids.items()}
        # Within one 30 s distance floor of its own centroid (trust > 0.5),
        # and hundreds of seconds from any other.
        assert d[behavior_class] < 30
        assert min(v for c, v in d.items() if c != behavior_class) > 500


def _primed_oracle():
    inputs = gen.home_day(1)
    check = oracle.ServeOracle(inputs.residents, inputs.obligations,
                               inputs.history)
    for request in inputs.prime:
        check.expect(request)
    hearing = next(r for r in inputs.residents if r.profile == "hearing")
    return check, hearing


def test_oracle_accepts_the_right_decision_and_rejects_changes():
    check, hearing = _primed_oracle()
    request = gen.Request({"op": "authorize", "user": hearing.name,
                           "service": "ReadAlert", "device": "VisualAid",
                           "context": {"time": "10.00"}}, ("authorize",))
    expected = check.expect(request)
    right = {"ok": True, "effect": "permit", "obligations": [],
             "recommendations": ["visual-alert"], "priority": 2,
             "rationale": ["anything"]}
    assert oracle.check(expected, right) is None
    assert oracle.check(expected, dict(right, effect="deny")) is not None
    assert oracle.check(expected, dict(right, recommendations=[])) is not None


def test_oracle_recommends_even_when_denied():
    check, hearing = _primed_oracle()
    expected = check.expect(gen.Request(
        {"op": "authorize", "user": hearing.name, "service": "ReadAlert",
         "device": "Phone", "context": {"time": "10.00"}}, ("authorize",)))
    assert expected["effect"] == "deny"
    assert expected["recommendations"] == ["visual-alert"]


def test_oracle_rejects_an_extra_query_row():
    check, _ = _primed_oracle()
    expected = check.expect(gen._query("authenticated"))
    rows = expected["rows"]
    assert len(rows) == 4
    assert oracle.check(expected, {"ok": True, "rows": list(reversed(rows))}) is None
    extra = {"ok": True, "rows": rows + [{"u": "intruder"}]}
    assert oracle.check(expected, extra) is not None
    assert oracle.check(expected, {"ok": True, "rows": rows[1:]}) is not None


def test_batch_oracle_rejects_a_wrong_class():
    inputs = gen.sensor_batch(1)
    expected = oracle.expected_batch(inputs.residents)
    result = {"classes": dict(expected["classes"]),
              "groups": dict(expected["groups"]), "conflicts": 0}
    assert oracle.check_batch(expected, result) == []
    user = next(iter(result["classes"]))
    result["classes"][user] = "class3" if result["classes"][user] != "class3" \
        else "class1"
    assert len(oracle.check_batch(expected, result)) == 1


def _span(name, start, end, parent, root):
    return [name, start, end, parent, root, {}, {}]


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        _span("root", 0.0, 10.0, -1, 0),
        _span("a", 1.0, 4.0, 0, 0),
        _span("a.child", 2.0, 3.0, 1, 0),
        _span("b", 3.0, 6.0, 0, 0),      # overlaps a: [1, 6] counted once
        _span("c", 8.0, 12.0, 0, 0),     # runs past its parent: clipped to 10
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    layer_names = set(LayerStats().metrics()) | {"trace.overhead_share"}
    assert layer_names == {m["name"] for m in declared["per_layer"]}
    units = dict(LayerStats().metrics())
    for metric in declared["per_layer"]:
        if metric["name"] in units:
            assert units[metric["name"]][1] == metric["unit"]
