import io
import json
import socket
import subprocess
import sys
import time

import pytest

from aalguard import cli, pdp, scenarios
from aalguard.config import Config
from aalguard.facts import FactStore

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


def test_serve_looks_up_pdp_entry_points_at_call_time(monkeypatch):
    # The benchmark's per-layer trace wraps these module attributes.
    config = Config()
    rules = scenarios.load_fixture_rules()
    model = scenarios.load_fixture_model(config.distance_floor)
    credentials = scenarios.load_fixture_credentials()
    store = FactStore()
    scenarios.prime_store(store, rules, model, credentials, config=config)
    state = cli.ServeState(store, rules, model, credentials, config,
                           pdp.AuditLog())
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
