import hashlib
import io
import json
import math
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from aalguard import cli, engine, pdp, scenarios
from aalguard.config import ENV_VAR, Config
from aalguard.facts import (Fact, FactStore, coerce_constant, load_facts,
                            save_facts)
from perfbench import gen, oracle

from conftest import DATA_DIR
from oracles import hash_password, request_facts

SCENARIO_REQUESTS = [
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "device": "VisualAid", "context": {"time": "10.00"}},
    {"op": "authorize", "user": "u2", "service": "ReadAlert",
     "device": "AudioAid", "context": {"time": "10.00"}},
    {"op": "authorize", "user": "u3", "service": "OpenDoor",
     "context": {"time": "00.00"}},
]

EXPECTED_EFFECTS = ["permit", "permit", "deny"]


def serve_stdin(lines):
    input_text = "\n".join(lines) + "\n"
    result = subprocess.run(
        [sys.executable, "-m", "aalguard", "serve", "--listen", "-",
         "--prime-scenarios"],
        capture_output=True, text=True, input=input_text, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_scenario_requests_plus_garbage_line():
    lines = [json.dumps(m) for m in SCENARIO_REQUESTS] + ["this is not a message"]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert len(responses) == 4
    for response, effect in zip(responses, EXPECTED_EFFECTS):
        assert response["ok"] is True
        assert response["effect"] == effect
    assert responses[3]["ok"] is False
    assert "error" in responses[3]


def test_garbage_midstream_keeps_connection_serving():
    lines = ["{broken", json.dumps({"op": "ping"}),
             json.dumps({"op": "nonsense"}), json.dumps({"op": "ping"})]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert [r["ok"] for r in responses] == [False, True, False, True]


def test_authn_and_query_over_the_wire():
    lines = [
        json.dumps({"op": "authn", "user": "u3", "tag": "tag-u3-0042",
                    "features": {"hold:cooking": 1200, "hold:watching_tv": 1800,
                                 "move:kitchen->livingroom": 60,
                                 "move:livingroom->kitchen": 60}}),
        json.dumps({"op": "query",
                    "q": "SELECT ?u WHERE { BehaviorCapability(?u, Group3) }"}),
    ]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert responses[0]["ok"] is True
    assert responses[0]["authenticated"] == "yes"
    assert responses[0]["mean"] == "tag-mean"
    assert responses[1]["rows"] == [{"u": "u3"}]


def test_alzheimer_deny_carries_emergency_obligation():
    lines = [json.dumps(SCENARIO_REQUESTS[2])]
    response = json.loads(serve_stdin(lines)[0])
    assert response["effect"] == "deny"
    assert response["obligations"] == ["signal-emergency"]
    assert response["priority"] == 3


BAD_INPUT_MESSAGES = [
    {"op": "authn", "user": "u1", "password": "door-chime-7",
     "features": {"k": "nan"}},
    {"op": "authn", "user": "u1", "password": "door-chime-7",
     "features": {"a": None}},
    {"op": "authorize", "user": "u1", "service": "ReadAlert", "context": [1]},
    {"op": "authn", "user": "u1", "password": "door-chime-7",
     "features": {"k": 10 ** 400}},
    # A request field that is not a JSON string is refused, not stored as
    # its Python text.
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "device": {"a": [1, 2]}},
    {"op": "authorize", "user": "u1", "service": "ReadAlert", "device": True},
    {"op": "authorize", "user": "u1", "service": ["ReadAlert"]},
    {"op": "authorize", "user": 1, "service": "ReadAlert"},
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": {"location": ["hall"]}},
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": {"time": 10.0}},
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": "10.00"},
    # A time past 23.59 is refused, not stored.
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": {"time": "99.99"}},
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": {"time": "24.00"}},
    {"op": "authn", "user": "u1", "password": 7},
    {"op": "authn", "user": "u3", "tag": ["tag-u3-0042"]},
    {"op": "authn", "user": None, "password": "door-chime-7"},
    {"op": "authn", "user": "u1", "password": "door-chime-7", "features": []},
    {"op": "query", "q": None},
    {"op": "query", "q": ["SELECT ?u WHERE { Authenticated(?u, yes) }"]},
    # An unknown context component is refused before the authentication
    # gate, for the authenticated u1 as for u9, who never authenticated.
    {"op": "authorize", "user": "u1", "service": "ReadAlert",
     "context": {"mood": "x"}},
    {"op": "authorize", "user": "u9", "service": "ReadAlert",
     "context": {"mood": "x"}},
]


@pytest.mark.parametrize("message", BAD_INPUT_MESSAGES)
def test_bad_input_fails_closed_and_keeps_serving(message):
    stats = json.dumps({"op": "stats"})
    lines = [stats, json.dumps(message), stats, json.dumps({"op": "ping"})]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert len(responses) == 4
    for response in responses:
        json.dumps(response, allow_nan=False)
    assert responses[1]["ok"] is False and "error" in responses[1]
    # Nothing was asserted or audited.
    before, after = responses[0], responses[2]
    assert (after["facts"], after["audit_seq"]) \
        == (before["facts"], before["audit_seq"])
    assert responses[3] == {"ok": True}


@pytest.mark.parametrize("fields", [
    {"device": True}, {"context": "10.00"},
    {"context": {"location": ["hall"]}}, {"user": 1}])
def test_a_bad_authorize_field_is_answered_as_the_record_refuses_it(fields):
    request = {"user": "u1", "service": "ReadAlert", **fields}
    with pytest.raises(pdp.PdpError) as refused:
        pdp.AuthzRequest(**request)
    reply = cli.handle_message(primed_state(),
                               json.dumps({"op": "authorize", **request}))
    assert reply == {"ok": False, "error": str(refused.value)}


def test_a_query_that_is_not_a_string_is_refused_by_name():
    state = primed_state()
    for q in (None, ["SELECT ?u WHERE { Authenticated(?u, yes) }"], 7):
        assert cli.handle_message(state, json.dumps({"op": "query", "q": q})) \
            == {"ok": False, "error": "q must be a string"}


def test_over_long_line_is_refused_and_serving_continues():
    lines = [json.dumps({"op": "ping", "padding": "x" * (2 << 20)}),
             json.dumps({"op": "ping"})]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert len(responses) == 2
    assert responses[0]["ok"] is False
    assert "error" in responses[0]
    assert responses[1] == {"ok": True}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_unencodable_reply_becomes_an_error_and_serving_continues(monkeypatch):
    handle = cli.handle_message

    def nan_reply(state, line):
        if json.loads(line)["op"] == "authn":
            return {"ok": True, "trust": float("nan")}
        return handle(state, line)

    monkeypatch.setattr(cli, "handle_message", nan_reply)
    wfile = io.BytesIO()
    cli._serve_lines(None, io.BytesIO(b'{"op": "authn"}\n{"op": "ping"}\n'),
                     wfile)
    replies = [json.loads(line, parse_constant=_reject_constant)
               for line in wfile.getvalue().splitlines()]
    assert len(replies) == 2
    assert replies[0]["ok"] is False and "error" in replies[0]
    assert replies[1] == {"ok": True}


def test_a_vector_at_a_distance_beyond_float_range_fails_closed():
    state = primed_state()
    message = {"op": "authn", "user": "u1", "password": "door-chime-7",
               "features": {"hold:cooking": 1e200}}
    wfile = io.BytesIO()
    cli._serve_lines(state, io.BytesIO(json.dumps(message).encode() + b"\n"),
                     wfile)
    reply = json.loads(wfile.getvalue(), parse_constant=_reject_constant)
    assert reply["ok"] is True
    assert (reply["authenticated"], reply["class"], reply["trust"]) \
        == ("no", None, None)
    assert [e.kind for e in state.audit_log.entries()] == ["authn"]


def primed_state() -> pdp.DecisionPoint:
    config = Config()
    point = pdp.DecisionPoint(
        FactStore(), scenarios.load_fixture_rules(),
        scenarios.load_fixture_model(config.distance_floor),
        scenarios.load_fixture_credentials(), config)
    scenarios.prime_store(point)
    point.audit_log = pdp.AuditLog()
    return point


def home_day_state(seed: int):
    """The benchmark's home-day workload in process: its inputs, and a
    serving state that loaded its facts as serve does."""
    inputs = gen.home_day(seed)
    config = Config()
    store = load_facts(inputs.facts_text)
    state = pdp.DecisionPoint(
        store, scenarios.load_fixture_rules(),
        scenarios.load_fixture_model(config.distance_floor),
        pdp.load_credentials(inputs.credentials_text), config, pdp.AuditLog())
    for subject in dict.fromkeys(fact.args[0] for fact in store):
        pdp.rederive(state, subject)  # as serve does at start
    return inputs, state


@pytest.mark.parametrize("seed", [1, 1801])
def test_a_generated_home_day_answers_as_the_benchmark_oracle_expects(seed):
    # The prime and all of the day's requests, each answer checked as the
    # benchmark checks it.
    inputs, state = home_day_state(seed)
    check = oracle.ServeOracle(inputs.residents, inputs.obligations,
                               inputs.history)
    requests = inputs.prime + inputs.stream
    problems = []
    for index, request in enumerate(requests):
        expected = check.expect(request)
        response = cli.handle_message(state, json.dumps(request.msg))
        problem = oracle.check(expected, response)
        if problem is not None:
            problems.append((index, problem))
    assert len(requests) == 2004
    assert problems == []


@pytest.mark.parametrize("seed", [1, 1801])
def test_a_home_day_runs_a_fixpoint_only_when_what_it_reads_changed(
        seed, monkeypatch):
    # Counts the fixpoints each request runs.  An authn that keeps the
    # user's class derives nothing again, an authenticated authorize runs
    # a fixpoint at most once per user and set of request facts some rule
    # reads, and after every authn each resident's facts less history and
    # Authenticated derive nothing the store does not hold.
    inputs, state = home_day_state(seed)
    calls = {"infer_fixpoint": 0}
    infer, authorize = pdp.infer_fixpoint, pdp.authorize
    requests = []

    def counting(*args):
        calls["infer_fixpoint"] += 1
        return infer(*args)

    def recording(request, *args, **kwargs):
        requests.append(request)
        return authorize(request, *args, **kwargs)

    monkeypatch.setattr(pdp, "infer_fixpoint", counting)
    monkeypatch.setattr(pdp, "authorize", recording)
    residents = [coerce_constant(r.name) for r in inputs.residents]
    same_class, authorized, pairs = [], [], set()
    for request in inputs.prime + inputs.stream:
        msg = request.msg
        if msg["op"] == "authn":
            held = [f.args[1].text() for f in state.store.probe(
                "hasrecognizedbehavior",
                ((0, coerce_constant(msg["user"]).key()),))]
        before = calls["infer_fixpoint"]
        reply = cli.handle_message(state, json.dumps(msg))
        ran = calls["infer_fixpoint"] - before
        if msg["op"] == "authn":
            if held == [reply["class"]]:
                same_class.append(ran)
            for resident in residents:
                part = state.store.partition(resident,
                                             pdp._UNDERIVED_PREDICATES)
                assert [f.render() for f in
                        engine.infer_fixpoint(part, state.policy).derived
                        if f.key()[0] != "authentication"] == []
        elif msg["op"] == "authorize" \
                and reply["rationale"] != ["not-authenticated"]:
            authorized.append(ran)
            pairs.add((requests[-1].user, frozenset(
                fact.key() for fact in request_facts(requests[-1])
                if state.policy.reads(fact.key()) is not None)))
    assert len(same_class) > 300 and set(same_class) == {0}
    assert len(authorized) > 1000
    assert sum(1 for ran in authorized if ran) <= len(pairs)


def home_day_digest(seed: int) -> dict:
    """What a whole home-day day leaves, in process: the SHA-256 of every
    reply (JSON with sorted keys, one per line), of the saved store's
    lines sorted, and the memo counts."""
    inputs, state = home_day_state(seed)
    replies = hashlib.sha256()
    for request in inputs.prime + inputs.stream:
        reply = cli.handle_message(state, json.dumps(request.msg))
        replies.update(json.dumps(reply, sort_keys=True).encode() + b"\n")
    lines = sorted(save_facts(state.store).splitlines())
    return {"replies": replies.hexdigest(),
            "store": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "memo_counts": state.counts()}


HOME_DAY_GOLDEN = json.loads(
    (DATA_DIR / "home_day_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 7, 1801, 2701])
def test_a_home_day_replies_and_leaves_the_store_as_recorded(seed):
    assert home_day_digest(seed) == HOME_DAY_GOLDEN[str(seed)]


def test_serve_looks_up_pdp_entry_points_at_call_time(monkeypatch):
    # The benchmark's per-layer trace wraps these module attributes.
    state = primed_state()
    calls = {"authenticate": 0, "authorize": 0}

    def counting(name):
        wrapped = getattr(pdp, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return wrapped(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pdp, name, counting(name))
    authn = cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "u1", "password": "door-chime-7"}))
    authz = cli.handle_message(state, json.dumps(SCENARIO_REQUESTS[0]))
    assert authn["ok"] is True and authz["ok"] is True
    assert calls == {"authenticate": 1, "authorize": 1}


CLASS1_CENTROID = {"hold:cooking": 600, "hold:watching_tv": 1800,
                   "move:kitchen->livingroom": 20,
                   "move:livingroom->kitchen": 20}
CLASS2_CENTROID = {"hold:cooking": 1200, "hold:watching_tv": 1800,
                   "move:kitchen->livingroom": 60,
                   "move:livingroom->kitchen": 60}


def test_reclassification_drops_the_groups_of_the_old_class():
    state = primed_state()
    group_query = json.dumps(
        {"op": "query", "q": "SELECT ?g WHERE { BehaviorCapability(u1, ?g) }"})
    assert cli.handle_message(state, group_query)["rows"] == [{"g": "Group1"}]
    authn = cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "u1", "password": "door-chime-7",
         "features": CLASS2_CENTROID}))
    assert authn["authenticated"] == "yes" and authn["class"] == "class2"
    decision = cli.handle_message(state, json.dumps(SCENARIO_REQUESTS[0]))
    assert decision["effect"] == "deny"
    assert decision["rationale"] == ["default-deny"]
    assert cli.handle_message(state, group_query)["rows"] == []
    # Other residents keep what was derived for them.
    assert pdp.groups_of(state.store, "u2")[0].text() == "Group2"


def test_reclassification_back_derives_the_groups_query_and_authorize_see():
    state = primed_state()
    for features, group_rows, effect in (
            (CLASS2_CENTROID, [], "deny"),
            (CLASS1_CENTROID, [{"g": "Group1"}], "permit")):
        authn = cli.handle_message(state, json.dumps(
            {"op": "authn", "user": "u1", "password": "door-chime-7",
             "features": features}))
        assert authn["authenticated"] == "yes"
        rows = cli.handle_message(state, json.dumps(
            {"op": "query",
             "q": "SELECT ?g WHERE { BehaviorCapability(u1, ?g) }"}))["rows"]
        decision = cli.handle_message(state, json.dumps(SCENARIO_REQUESTS[0]))
        assert (rows, decision["effect"]) == (group_rows, effect)
    assert decision["rationale"] == ["deaf-permit", "deaf-visual-alert"]


def test_reauthentication_in_the_same_class_keeps_the_groups():
    state = primed_state()
    cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "u2", "password": "braille-lane-9",
         "features": CLASS2_CENTROID}))
    assert [g.text() for g in pdp.groups_of(state.store, "u2")] == ["Group2"]


@pytest.mark.parametrize("tag", ["\u00e9", "\ud800"])
def test_a_wrong_non_ascii_tag_is_audited_and_ends_the_session(tag):
    state = primed_state()
    good = {"op": "authn", "user": "u3", "tag": "tag-u3-0042",
            "features": CLASS2_CENTROID}
    assert cli.handle_message(state, json.dumps(good))["authenticated"] \
        == "yes"
    seq = state.audit_log.seq
    reply = cli.handle_message(state, json.dumps({**good, "tag": tag}))
    assert (reply["ok"], reply["authenticated"], reply["reason"]) \
        == (True, "no", "tag mismatch")
    assert state.audit_log.seq == seq + 1
    entry = state.audit_log.entries()[-1]
    assert (entry.kind, entry.subject, entry.outcome) == ("authn", "u3", "no")
    assert state.store.holds("Authenticated", "u3", "no")
    assert not state.store.holds("Authenticated", "u3", "yes")


@pytest.mark.parametrize("message, error", [
    ({"op": "authn", "user": "u\ud800", "password": "x"},
     "user must be valid Unicode text"),
    ({"op": "authorize", "user": "u1", "service": "Read\ud800"},
     "service must be valid Unicode text"),
    ({"op": "authorize", "user": "u1", "service": "ReadAlert",
      "device": "V\ud800"}, "device must be valid Unicode text"),
], ids=["authn-user", "authorize-service", "authorize-device"])
def test_a_lone_surrogate_is_refused_before_the_store_changes(
        tmp_path, message, error):
    # A JSON \ud800 escape reads as a lone surrogate, which no UTF-8 file
    # can hold: the request is refused as its record refuses it, with no
    # audit entry and no fact written.
    state = primed_state()
    state.audit_log = pdp.AuditLog(tmp_path / "audit.log")
    facts = len(state.store)
    assert cli.handle_message(state, json.dumps(message)) \
        == {"ok": False, "error": error}
    assert state.audit_log.seq == 0
    assert len(state.store) == facts
    valid = {name: value.replace("\ud800", "\u00e9")
             for name, value in message.items()}
    assert cli.handle_message(state, json.dumps(valid))["ok"]
    state.audit_log.close()


def test_a_user_whose_name_is_not_a_symbol_is_served():
    state = primed_state()
    state.credentials = {**state.credentials,
                         "Anne Marie": ("password",
                                        hash_password("pw", salt="ab"))}
    authn = cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "Anne Marie", "password": "pw",
         "features": CLASS2_CENTROID}))
    assert authn["ok"] is True and authn["authenticated"] == "yes"
    decision = cli.handle_message(state, json.dumps(
        {"op": "authorize", "user": "Anne Marie", "service": "ReadAlert",
         "context": {"time": "10.00"}}))
    assert decision["ok"] is True and decision["effect"] in ("permit", "deny")
    rows = cli.handle_message(state, json.dumps(
        {"op": "query",
         "q": 'SELECT ?a WHERE { Authenticated("Anne Marie", ?a) }'}))
    assert rows == {"ok": True, "rows": [{"a": "yes"}]}


def _transcript():
    """A fixed serve day: every resident authenticates, then asks, queries
    and authenticates again as the request history grows."""
    users = {"u1": ("ReadAlert", "VisualAid",
                    {"password": "door-chime-7", "features": CLASS1_CENTROID}),
             "u2": ("ReadAlert", "AudioAid",
                    {"password": "braille-lane-9",
                     "features": CLASS2_CENTROID}),
             "u3": ("OpenDoor", None,
                    {"tag": "tag-u3-0042", "features": CLASS2_CENTROID})}
    messages = [{"op": "authn", "user": user, **secret}
                for user, (_, _, secret) in users.items()]
    for minute in range(30):
        user = ["u1", "u2", "u3"][minute % 3]
        service, device, secret = users[user]
        messages.append({"op": "authorize", "user": user, "service": service,
                         "device": device,
                         "context": {"time": f"{minute // 4:02d}.{minute:02d}",
                                     "location": ["hall", "kitchen"][minute % 2]}})
        if minute % 5 == 4:
            messages.append({"op": "query",
                             "q": "SELECT ?u ?s WHERE { AskedService(?u, ?s) }"})
            messages.append({"op": "authn", "user": user, **secret})
    return [json.dumps(m) for m in messages]


def test_serve_builds_few_facts_per_request_and_queries_the_live_store(
        monkeypatch):
    state = primed_state()
    counts = {"facts": 0, "snapshots": 0}
    init, snapshot = Fact.__init__, FactStore.snapshot
    trusted = Fact._trusted.__func__

    # A fact is built checked, through __init__, or unchecked, through
    # Fact._trusted; both count.
    def counting_init(self, *args, **kwargs):
        counts["facts"] += 1
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        counts["facts"] += 1
        return trusted(cls, *args)

    def counting_snapshot(self):
        counts["snapshots"] += 1
        return snapshot(self)

    monkeypatch.setattr(Fact, "__init__", counting_init)
    monkeypatch.setattr(Fact, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(FactStore, "snapshot", counting_snapshot)
    per_op = {}
    for line in _transcript():
        before = dict(counts)
        reply = cli.handle_message(state, line)
        assert reply["ok"] is True and reply.get("authenticated") != "no"
        per_op.setdefault(json.loads(line)["op"], []).append(
            {name: counts[name] - before[name] for name in counts})
    assert len(per_op["authorize"]) == 30 and len(per_op["query"]) == 6
    assert max(c["facts"] for c in per_op["authorize"]) <= 8
    # Every authn keeps the class and outcome the store holds, so it builds
    # neither.  Priming ran under the serving point, so u1's and u2's facts
    # are derived already; u3's changed since (priming's anomaly check
    # asserted an obligation), so its first authn derives them again and
    # builds one per fact that fixpoint derives: its group and the mean
    # tag-mean.  A later authn derives nothing.
    assert [c["facts"] for c in per_op["authn"]] == [0, 0, 2] + [0] * 6
    assert [c["snapshots"] for c in per_op["query"]] == [0] * 6
    assert [c["snapshots"] for c in per_op["authorize"]] == [0] * 30


def test_stats_reports_the_servers_own_memory_and_sizes():
    state = primed_state()
    cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "u1", "password": "door-chime-7"}))
    stats = cli.handle_message(state, '{"op": "stats"}')
    assert stats["ok"] is True
    for key in ("vm_hwm_kb", "vm_rss_kb", "facts", "audit_seq"):
        assert type(stats[key]) is int and stats[key] > 0, key
    assert stats["vm_hwm_kb"] >= stats["vm_rss_kb"]
    assert stats["facts"] == len(state.store)
    assert stats["audit_seq"] == state.audit_log.seq == 1
    assert cli.handle_message(state, '{"op": "ping"}') == {"ok": True}


def test_a_point_built_with_no_audit_log_keeps_one_in_memory():
    config = Config()
    point = pdp.DecisionPoint(
        FactStore(), scenarios.load_fixture_rules(),
        scenarios.load_fixture_model(config.distance_floor),
        scenarios.load_fixture_credentials(), config)
    cli.handle_message(point, json.dumps(
        {"op": "authn", "user": "u1", "password": "door-chime-7"}))
    cli.handle_message(point, json.dumps(SCENARIO_REQUESTS[0]))
    stats = cli.handle_message(point, '{"op": "stats"}')
    assert stats["ok"] is True and stats["audit_seq"] == 2
    assert point.audit_log.path is None
    assert [(e.seq, e.kind, e.subject)
            for e in point.audit_log.entries()] == [(1, "authn", "u1"),
                                                    (2, "authz", "u1")]


def test_stats_counts_the_decisions_and_derivations_reused():
    state = primed_state()
    authz = json.dumps(SCENARIO_REQUESTS[0])

    def counts():
        stats = cli.handle_message(state, '{"op": "stats"}')
        return [stats[name] for name in ("authorize_memo_hits",
                                         "authorize_memo_misses",
                                         "rederive_skips")]

    def authn(features):
        reply = cli.handle_message(state, json.dumps(
            {"op": "authn", "user": "u1", "password": "door-chime-7",
             "features": features}))
        assert reply["authenticated"] == "yes"

    assert counts() == [0, 0, 0]
    first = cli.handle_message(state, authz)
    assert counts() == [0, 1, 0]
    assert cli.handle_message(state, authz) == first  # read from the memo
    assert counts() == [1, 1, 0]
    # A new class derives u1's facts again and resets u1's slot, so the
    # same request is decided again, and then reused.
    authn(CLASS2_CENTROID)
    assert counts() == [1, 1, 0]
    second = cli.handle_message(state, authz)
    assert (first["effect"], second["effect"]) == ("permit", "deny")
    assert counts() == [1, 2, 0]
    assert cli.handle_message(state, authz) == second
    assert counts() == [2, 2, 0]
    # An authn that keeps the class derives nothing and keeps the slot.
    authn(CLASS2_CENTROID)
    assert cli.handle_message(state, authz) == second
    assert counts() == [3, 2, 1]


def test_stats_answers_null_memory_without_proc(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(cli, "open", no_proc, raising=False)
    stats = cli.handle_message(primed_state(), '{"op": "stats"}')
    assert stats["vm_hwm_kb"] is None and stats["vm_rss_kb"] is None
    assert stats["facts"] > 0 and stats["audit_seq"] == 0


def test_serve_closes_the_audit_log_on_exit(tmp_path, monkeypatch):
    closed = []
    close = pdp.AuditLog.close

    def recording_close(self):
        closed.append(self.path)
        close(self)

    monkeypatch.setattr(pdp.AuditLog, "close", recording_close)
    path = str(tmp_path / "audit.log")
    request = json.dumps({"op": "authn", "user": "u1",
                          "password": "door-chime-7"}) + "\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(request.encode("utf-8"))))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
    assert cli.main(["serve", "--listen", "-", "--prime-scenarios",
                     "--audit", path]) == cli.EXIT_OK
    assert closed == [path]
    assert [e.kind for e in pdp.AuditLog.load(path)] == ["authn"]


def test_serve_refuses_a_policy_whose_mean_is_not_a_lookup(tmp_path):
    # The mean must be a constant the rule names, not one that varies with
    # the subject.
    rules = tmp_path / "per-user.swl"
    rules.write_text("@id: per-user\nHasCapability(?u, no) -> "
                     "Authentication(?u)\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "aalguard", "serve", "--listen", "-",
         "--rules", str(rules)],
        capture_output=True, text=True, input="", timeout=120)
    assert result.returncode == cli.EXIT_VALIDATION
    assert "rule per-user:" in result.stderr


def test_serve_refuses_a_rule_not_guarded_by_its_subject(tmp_path, capsys):
    rules = tmp_path / "unguarded.swl"
    rules.write_text("@id: any-group3\nBehaviorCapability(?g, Group3) ^ "
                     "AskedService(?u, OpenDoor) -> hasAccess(?u, Deny)\n",
                     encoding="utf-8")
    assert cli.main(["serve", "--listen", "-", "--rules", str(rules)]) \
        == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: rule any-group3: ")


def test_priming_lets_no_derived_authenticated_past_the_gate(tmp_path,
                                                             monkeypatch):
    # u9 never authenticates, but the fixture rule password-check derives
    # Authenticated(u9, yes) from these facts.
    facts = tmp_path / "u9.kb"
    facts.write_text('Username(u9, kkkk).\nPassword(u9, hhhh).\n'
                     'HasCapability(u9, "hearing").\n'
                     'HasRecognizedBehavior(u9, class1).\n', encoding="utf-8")
    requests = [{"op": "authorize", "user": "u9", "service": "ReadAlert",
                 "device": "VisualAid"},
                {"op": "query", "q": "SELECT ?a WHERE { Authenticated(u9, ?a) }"}]
    decision, authenticated = serve_main(
        monkeypatch, ["--prime-scenarios", "--facts", str(facts)], requests)
    assert (decision["effect"], decision["rationale"]) == (
        "deny", ["not-authenticated"])
    assert authenticated["rows"] == []


def serve_main(monkeypatch, args, requests, options=()) -> list:
    """The replies of ``serve --listen -`` with ``args`` to ``requests``;
    ``options`` go before the command."""
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(
        "".join(json.dumps(r) + "\n" for r in requests).encode("utf-8"))))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out))
    assert cli.main([*options, "serve", "--listen", "-", *args]) \
        == cli.EXIT_OK
    return [json.loads(line) for line in out.getvalue().splitlines()]


HELD_FACTS = 'HasCapability(u1, "hearing").\nHasRecognizedBehavior(u1, class1).\n'


@pytest.mark.parametrize("options, args, groups", [
    ([], ["--rules", "{empty}"], []),
    (["--set", "rules={empty}"], [], []),
    (["--config", "{config}"], [], []),
    ([], ["--rules", ""], [{"g": "Group1"}]),
    ([], [], [{"g": "Group1"}])],
    ids=["flag", "set", "config", "flag-naming-no-file", "no-rules"])
def test_a_named_rule_file_is_served_however_it_is_named(
        tmp_path, monkeypatch, options, args, groups):
    # A rule file with no rules serves no rules whether the flag, --set or
    # the config file names it; the fixture policy stands in only when no
    # rule file is named.
    deaf = Path(cli.__file__).parent / "fixtures" / "scenarios" / "deaf"
    facts = tmp_path / "f.kb"
    facts.write_text((deaf / "facts.kb").read_text(encoding="utf-8")
                     + "HasRecognizedBehavior(u1, class1).\n", encoding="utf-8")
    empty = tmp_path / "empty.swl"
    empty.write_text("# no rules\n", encoding="utf-8")
    config = tmp_path / "guard.conf"
    config.write_text(f"rules={empty}\n", encoding="utf-8")
    options, args = ([a.format(empty=empty, config=config) for a in argv]
                     for argv in (options, args))
    monkeypatch.delenv(ENV_VAR, raising=False)
    query = {"op": "query", "q": "SELECT ?g WHERE { BehaviorCapability(u1, ?g) }"}
    assert serve_main(monkeypatch, ["--facts", str(facts), *args], [query],
                      options=options) == [{"ok": True, "rows": groups}]


@pytest.mark.parametrize("facts, authn", [
    (HELD_FACTS + "Authenticated(u1, yes).\n", []),
    (HELD_FACTS, [{"op": "authn", "user": "u1", "password": "door-chime-7",
                   "features": CLASS1_CENTROID}]),
], ids=["loaded", "kept-by-authn"])
def test_a_class_held_in_the_facts_file_is_derived_from(tmp_path, monkeypatch,
                                                        facts, authn):
    # Loading the file, and an authn that keeps its class, both derive u1's
    # group, so query and authorize agree.
    path = tmp_path / "held.kb"
    path.write_text(facts, encoding="utf-8")
    requests = authn + [
        {"op": "query", "q": "SELECT ?g WHERE { BehaviorCapability(u1, ?g) }"},
        SCENARIO_REQUESTS[0]]
    *replies, rows, decision = serve_main(monkeypatch, ["--facts", str(path)],
                                          requests)
    assert [reply["authenticated"] for reply in replies] == ["yes"] * len(authn)
    assert rows["rows"] == [{"g": "Group1"}]
    assert (decision["effect"], decision["rationale"]) == (
        "permit", ["deaf-permit", "deaf-visual-alert"])


def _read_line(conn) -> dict:
    raw = b""
    while not raw.endswith(b"\n"):
        chunk = conn.recv(4096)
        if not chunk:
            break
        raw += chunk
    return json.loads(raw) if raw else None


def test_connections_past_the_cap_are_refused_and_held_ones_served(
        monkeypatch):
    monkeypatch.setattr(cli, "MAX_CONNECTIONS", 2)
    server = cli.make_server(primed_state(), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = server.server_address[:2]
    ping = (json.dumps({"op": "ping"}) + "\n").encode("utf-8")
    held = []
    try:
        for _ in range(2):
            conn = socket.create_connection(address, timeout=10)
            held.append(conn)
            conn.sendall(ping)
            assert _read_line(conn) == {"ok": True}
        with socket.create_connection(address, timeout=10) as extra:
            refusal = _read_line(extra)
            assert refusal["ok"] is False
            assert "too many connections" in refusal["error"]
            assert extra.recv(4096) == b""  # closed after the one line
        for conn in held:
            conn.sendall(ping)
            assert _read_line(conn) == {"ok": True}
        held.pop().close()
        # The freed slot is released once its handler sees the close.
        deadline = time.monotonic() + 10
        while True:
            try:
                with socket.create_connection(address, timeout=10) as conn:
                    conn.sendall(ping)
                    if _read_line(conn) == {"ok": True}:
                        break
            except ConnectionResetError:  # refused before the ping was read
                pass
            assert time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        for conn in held:
            conn.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Fuzzed messages against a primed serving state
# ---------------------------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=8)
                | st.integers() | st.integers(10 ** 399, 10 ** 400)
                | st.floats(allow_nan=True, allow_infinity=True))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
FEATURE_KEYS = ["hold:cooking", "hold:watching_tv", "move:kitchen->livingroom"]
FIELD_VALUES = {
    "op": st.sampled_from(["ping", "authn", "authorize", "query", "stats",
                           "PING", ""]),
    "user": st.sampled_from(["u1", "u2", "u3", "nobody", "u1|x\nseq"]),
    "password": st.sampled_from(["door-chime-7", "wrong", ""]),
    "tag": st.sampled_from(["tag-u3-0042", "tag-u1"]),
    "features": st.dictionaries(
        st.sampled_from(FEATURE_KEYS),
        st.floats(allow_nan=True, allow_infinity=True)
        | st.integers(-10 ** 400, 10 ** 400),
        max_size=3),
    "service": st.sampled_from(["OpenDoor", "ReadAlert", "Read\rAlert|x\\n"]),
    "device": st.sampled_from(["VisualAid", "AudioAid"]),
    "context": st.dictionaries(
        st.sampled_from(["time", "location", "activity", "weather"]),
        st.sampled_from(["00.00", "10.00", "25.99", "corridor", "noon"]),
        max_size=2),
    "q": st.sampled_from(["SELECT ?u WHERE { BehaviorCapability(?u, Group3) }",
                          "SELECT ?u WHERE {", "SELECT ?x WHERE { P(?u) }"]),
}


@st.composite
def fuzz_lines(draw):
    """A message line: known fields with fitting or arbitrary JSON values."""
    message = {}
    names = draw(st.lists(st.sampled_from([*FIELD_VALUES, "extra"]),
                          unique=True, max_size=7))
    for name in ["op", "user", *names]:
        fitting = FIELD_VALUES.get(name)
        arbitrary = fitting is None or draw(st.integers(0, 3)) == 0
        message[name] = draw(JSON_VALUES if arbitrary else fitting)
    shape = draw(st.sampled_from(["object", "object", "object", "value"]))
    return json.dumps(message if shape == "object" else draw(JSON_VALUES))


@pytest.fixture(scope="module")
def fuzz_state():
    state = primed_state()
    yield state
    state.audit_log.close()  # the log the last example opened


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=fuzz_lines())
@example(line="[" * 100000)
@example(line='{"op": "authn", "user": "u1", "password": "door-chime-7", '
              '"features": {"hold:cooking": NaN}}')
@example(line='{"op": "authn", "user": "u3", "tag": "tag-u3-0042", '
              '"features": {"hold:cooking": Infinity, "hold:x": -Infinity}}')
@example(line='{"op": "authorize", "user": "u1", "service": "OpenDoor", '
              '"context": {"time": {"deep": [1, [2, [3]]]}}}')
def test_fuzzed_messages_get_a_reply_and_never_authenticate_on_bad_trust(
        fuzz_state, tmp_path, line):
    audit_path = tmp_path / "audit.log"
    fuzz_state.audit_log.close()
    fuzz_state.audit_log = pdp.AuditLog(audit_path, truncate=True)
    reply = cli.handle_message(fuzz_state, line)
    assert isinstance(reply, dict)
    assert type(reply["ok"]) is bool
    if reply.get("authenticated") == "yes":
        assert math.isfinite(reply["trust"])
    assert cli.handle_message(fuzz_state, '{"op": "ping"}') == {"ok": True}
    # Request text never breaks an audit line.
    assert pdp.AuditLog.load(audit_path) == list(fuzz_state.audit_log.entries())


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_a_tcp_server_stops_on_a_signal_with_sigint_inherited_ignored(
        tmp_path, sig):
    # A background job of a non-interactive shell inherits SIGINT ignored.
    audit = tmp_path / "audit.log"
    proc = subprocess.Popen(
        [sys.executable, "-m", "aalguard", "serve", "--listen", "127.0.0.1:0",
         "--prime-scenarios", "--audit", str(audit)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=_ignore_sigint)
    try:
        banner = proc.stdout.readline().strip()
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall("".join(json.dumps(m) + "\n"
                                 for m in SCENARIO_REQUESTS).encode("utf-8"))
            replies = conn.makefile("r", encoding="utf-8")
            effects = [json.loads(replies.readline())["effect"]
                       for _ in SCENARIO_REQUESTS]
            replies.close()
        assert effects == EXPECTED_EFFECTS
        proc.send_signal(sig)
        assert proc.wait(timeout=5) == cli.EXIT_OK
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    entries = pdp.AuditLog.load(audit)
    assert [(e.seq, e.kind, e.subject, e.outcome) for e in entries] == [
        (1, "authz", "u1", "permit"), (2, "authz", "u2", "permit"),
        (3, "authz", "u3", "deny")]


def test_tcp_socket_mode(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "aalguard", "serve",
         "--listen", "127.0.0.1:0", "--prime-scenarios"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            payload = "".join(json.dumps(m) + "\n" for m in SCENARIO_REQUESTS)
            payload += "garbage\n"
            conn.sendall(payload.encode("utf-8"))
            conn.shutdown(socket.SHUT_WR)
            raw = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                raw += chunk
        responses = [json.loads(line) for line in raw.decode().splitlines()]
        assert [r.get("effect") for r in responses[:3]] == EXPECTED_EFFECTS
        assert responses[3]["ok"] is False
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
