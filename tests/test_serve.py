import io
import json
import math
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from aalguard import cli, pdp, scenarios
from aalguard.config import Config
from aalguard.facts import Fact, FactStore

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
]


@pytest.mark.parametrize("message", BAD_INPUT_MESSAGES)
def test_bad_input_fails_closed_and_keeps_serving(message):
    lines = [json.dumps(message), json.dumps({"op": "ping"})]
    responses = [json.loads(line) for line in serve_stdin(lines)]
    assert len(responses) == 2
    assert responses[0].get("authenticated") != "yes"
    for response in responses:
        json.dumps(response, allow_nan=False)
    assert responses[1] == {"ok": True}


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


def primed_state() -> cli.ServeState:
    config = Config()
    rules = scenarios.load_fixture_rules()
    model = scenarios.load_fixture_model(config.distance_floor)
    credentials = scenarios.load_fixture_credentials()
    store = FactStore()
    scenarios.prime_store(store, rules, model, credentials, config=config)
    return cli.ServeState(store, rules, model, credentials, config,
                          pdp.AuditLog())


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


def test_reauthentication_in_the_same_class_keeps_the_groups():
    state = primed_state()
    cli.handle_message(state, json.dumps(
        {"op": "authn", "user": "u2", "password": "braille-lane-9",
         "features": CLASS2_CENTROID}))
    assert [g.text() for g in pdp.groups_of(state.store, "u2")] == ["Group2"]


def test_a_user_whose_name_is_not_a_symbol_is_served():
    state = primed_state()
    state.credentials = {**state.credentials,
                         "Anne Marie": ("password",
                                        pdp.hash_password("pw", salt="ab"))}
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
    post_init, snapshot = Fact.__post_init__, FactStore.snapshot

    def counting_post_init(self):
        counts["facts"] += 1
        post_init(self)

    def counting_snapshot(self):
        counts["snapshots"] += 1
        return snapshot(self)

    monkeypatch.setattr(Fact, "__post_init__", counting_post_init)
    monkeypatch.setattr(FactStore, "snapshot", counting_snapshot)
    per_op = {}
    for line in _transcript():
        before = dict(counts)
        reply = cli.handle_message(state, line)
        assert reply["ok"] is True and reply.get("authenticated") != "no"
        per_op.setdefault(json.loads(line)["op"], []).append(
            {name: counts[name] - before[name] for name in counts})
    assert len(per_op["authorize"]) == 30 and len(per_op["query"]) == 6
    assert max(c["facts"] for c in per_op["authorize"]) <= 15
    assert max(c["facts"] for c in per_op["authn"]) <= 2
    assert [c["snapshots"] for c in per_op["query"]] == [0] * 6


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
    rules = tmp_path / "chained.swl"
    rules.write_text("HasCapability(?u, no) -> Flag(?u, on)\n\n"
                     "@id: chained\nFlag(?u, on) -> HasCapability(?u, visual)\n",
                     encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "aalguard", "serve", "--listen", "-",
         "--rules", str(rules)],
        capture_output=True, text=True, input="", timeout=120)
    assert result.returncode == cli.EXIT_VALIDATION
    assert "rule chained:" in result.stderr


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
    return primed_state()


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
