"""Command-line entry point: ``aal-guard <command> [flags]``.

Commands cover the three architectural layers: ``load`` and ``classify``
ingest files (acquisition), ``infer``, ``explain`` and ``query`` drive the
knowledge base (management), and ``scenario`` plus ``serve`` exercise the
decision point (security).  Exit codes: 0 success, 1 validation or policy
error, 2 I/O error.

Serve mode reads one JSON request per line from standard input
(``--listen -``) or a TCP socket (``--listen host:port``) and answers one
JSON response per line, in order; a malformed message or a line over
``MAX_LINE_BYTES`` yields an error response and the loop continues.  A TCP
connection past ``MAX_CONNECTIONS`` gets one error line and is closed.
"""

from __future__ import annotations

import argparse
import json
import math
import socketserver
import sys
import threading
from typing import List, Optional

from . import behavior, engine, pdp, query, scenarios
from .config import Config, ConfigError, apply_key, load_config
from .facts import (
    FactError,
    FactStore,
    load_facts_file,
    parse_fact,
    save_facts_file,
)
from .rules import RuleSyntaxError, load_ruleset_file

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

MAX_LINE_BYTES = 1 << 20  # longest serve request line, newline excluded
MAX_CONNECTIONS = 64      # TCP connections served at once


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aal-guard",
        description="Context-aware access control for assisted living")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key (e.g. priority.visual=2)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *names):
        if "facts" in names:
            p.add_argument("--facts", help="fact file (.kb)")
        if "rules" in names:
            p.add_argument("--rules", action="append", default=None,
                           help="rule file (.swl); repeatable")
        if "events" in names:
            p.add_argument("--events", help="sensor event CSV")
        if "model" in names:
            p.add_argument("--model", help="behavior model checkpoint")
        if "audit" in names:
            p.add_argument("--audit", help="audit log path")

    p = sub.add_parser("load", help="parse inputs and report counts")
    add_common(p, "facts", "rules", "events")

    p = sub.add_parser("infer", help="run forward chaining to fixpoint")
    add_common(p, "facts", "rules")
    p.add_argument("--save", help="write the materialized store here")

    p = sub.add_parser("explain", help="show the derivation of a fact")
    add_common(p, "facts", "rules")
    p.add_argument("fact", help="fact to explain, e.g. 'Authenticated(u1, yes)'")

    p = sub.add_parser("query", help="evaluate a conjunctive query")
    add_common(p, "facts", "rules")
    p.add_argument("query", help="SELECT ?v WHERE { ... } [LIMIT n]")

    p = sub.add_parser("classify", help="classify users from an event stream")
    add_common(p, "events", "model")

    p = sub.add_parser("scenario", help="run a built-in scenario fixture")
    p.add_argument("name", choices=sorted(scenarios.SCENARIO_NAMES) + ["all"])
    p.add_argument("--audit", help="audit log path (fresh per run)")

    p = sub.add_parser("serve", help="serve line-delimited JSON requests")
    add_common(p, "facts", "rules", "model", "audit")
    p.add_argument("--credentials", help="credentials file")
    p.add_argument("--listen", default="-",
                   help="'-' for stdin/stdout or host:port")
    p.add_argument("--prime-scenarios", action="store_true",
                   help="preload and authenticate the fixture residents")
    return parser


def _load_rules(args, config: Config) -> list:
    paths: List[str] = []
    if getattr(args, "rules", None):
        for chunk in args.rules:
            paths.extend(part.strip() for part in chunk.split(",") if part.strip())
    else:
        paths = list(config.rules)
    rules = []
    for path in paths:
        rules.extend(load_ruleset_file(path))
    return rules


def _load_store(args, config: Config) -> FactStore:
    path = getattr(args, "facts", None) or config.facts
    if path:
        return load_facts_file(path)
    return FactStore()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_load(args, config: Config) -> int:
    reported = False
    if args.facts or config.facts:
        store = _load_store(args, config)
        print(f"facts: {len(store)}")
        reported = True
    rules = _load_rules(args, config)
    if rules:
        print(f"rules: {len(rules)}")
        reported = True
    events_path = args.events or config.events
    if events_path:
        events = behavior.load_events_file(events_path)
        print(f"events: {len(events)} ({len(behavior.users_in(events))} users)")
        reported = True
    if not reported:
        print("nothing to load; pass --facts, --rules or --events",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_infer(args, config: Config) -> int:
    store = _load_store(args, config)
    rules = _load_rules(args, config)
    report = engine.infer_fixpoint(store, rules)
    for fact in report.derived:
        print(f"+ {fact.render()}  [{fact.rule_id}]")
    print(f"derived {len(report.derived)} fact(s) in "
          f"{report.iterations} iteration(s)")
    fired = {rid: n for rid, n in report.rule_firings.items() if n}
    if fired:
        print("firings: " + ", ".join(f"{rid}={n}" for rid, n in fired.items()))
    conflicts = engine.check_consistency(store)
    for conflict in conflicts:
        a, b = conflict.facts
        print(f"conflict ({conflict.kind}): {a.render()} vs {b.render()}")
    if args.save:
        save_facts_file(store, args.save)
    return EXIT_OK


def cmd_explain(args, config: Config) -> int:
    store = _load_store(args, config)
    rules = _load_rules(args, config)
    if rules:
        engine.infer_fixpoint(store, rules)
    target = parse_fact(args.fact, require_period=False)
    derivation = engine.explain(store, target)
    print(engine.render_derivation(derivation))
    return EXIT_OK


def cmd_query(args, config: Config) -> int:
    store = _load_store(args, config)
    rules = _load_rules(args, config)
    if rules:
        engine.infer_fixpoint(store, rules)
    parsed = query.parse_query(args.query)
    rows = query.eval_query(store, parsed)
    for row in rows:
        print("  ".join(f"?{name}={row[name].text()}" for name in parsed.select))
    print(f"{len(rows)} row(s)")
    return EXIT_OK


def cmd_classify(args, config: Config) -> int:
    events_path = args.events or config.events
    model_path = args.model or config.model
    events = behavior.load_events_file(events_path)
    if model_path:
        model = behavior.load_model_file(model_path,
                                         distance_floor=config.distance_floor)
    else:
        model = scenarios.load_fixture_model(config.distance_floor)
    for user in behavior.users_in(events):
        features = behavior.extract_features(events, user)
        class_id, dist = behavior.classify(model, features)
        trust = behavior.trust_score(model, class_id, features)
        print(f"{user}: class={class_id} distance={dist:.2f} trust={trust:.2f}")
    return EXIT_OK


def cmd_scenario(args, config: Config) -> int:
    names = scenarios.SCENARIO_NAMES if args.name == "all" else (args.name,)
    all_passed = True
    for name in names:
        audit_path = args.audit
        if audit_path and len(names) > 1:
            audit_path = f"{audit_path}.{name}"  # one fresh log per run
        run = scenarios.run_scenario(name, audit_path=audit_path, config=config)
        for line in run.lines:
            print(line)
        all_passed = all_passed and run.passed
    return EXIT_OK if all_passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Serve mode
# ---------------------------------------------------------------------------

class ServeState:
    """Shared serving state; decision evaluation is single-writer.

    The rules are compiled once here, into the policy ``authorize`` runs
    and the authentication-mean table ``authenticate`` reads.
    """

    def __init__(self, store, rules, model, credentials, config, audit_log):
        self.store = store
        self.means = pdp.AuthMeans(rules)
        self.policy = self.means.policy
        self.model = model
        self.credentials = credentials
        self.config = config
        self.audit_log = audit_log
        self.lock = threading.Lock()


def _features_from_message(msg: dict) -> behavior.FeatureVector:
    features = msg.get("features") or {}
    if not isinstance(features, dict):
        raise ValueError("features must be a JSON object")
    fv = behavior.FeatureVector()
    for key, value in features.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"feature {key!r} is not a number")
        number = float(value)  # an int beyond float range: OverflowError
        if not math.isfinite(number):
            raise ValueError(f"feature {key!r} is not finite")
        fv.entries[str(key)] = number
        fv.support[str(key)] = 1
    return fv


_STATUS_FIELDS = {"VmHWM": "vm_hwm_kb", "VmRSS": "vm_rss_kb"}


def _memory_kb() -> dict:
    """This process's peak and current resident set size in kB.

    Read from ``/proc/self/status`` (``VmHWM``, ``VmRSS``); each is None
    where that file does not exist.  ``ru_maxrss`` is not used: a process
    started by vfork and exec inherits its parent's peak in it.
    """
    out = dict.fromkeys(_STATUS_FIELDS.values())
    try:
        with open("/proc/self/status", encoding="ascii",
                  errors="replace") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name in _STATUS_FIELDS:
                    out[_STATUS_FIELDS[name]] = int(value.split()[0])
    except OSError:
        pass
    return out


def handle_message(state: ServeState, line: str) -> dict:
    try:
        msg = json.loads(line)
        if not isinstance(msg, dict):
            raise ValueError("message must be a JSON object")
    except (ValueError, RecursionError) as err:  # RecursionError: deep nesting
        return {"ok": False, "error": f"bad message: {err}"}
    op = msg.get("op")
    try:
        if op == "ping":
            return {"ok": True}
        if op == "authn":
            credential = None
            if msg.get("password") is not None:
                credential = pdp.Credential("password", msg["password"])
            elif msg.get("tag") is not None:
                credential = pdp.Credential("tag", msg["tag"])
            request = pdp.AuthnRequest(user=str(msg["user"]),
                                       credential=credential,
                                       features=_features_from_message(msg))
            with state.lock:
                result = pdp.authenticate(
                    request, state.store, state.means, state.model,
                    state.credentials,
                    trust_threshold=state.config.trust_threshold,
                    default_mean=state.config.default_auth_mean,
                    audit_log=state.audit_log)
            return {"ok": True, "authenticated": result.authenticated,
                    "mean": result.mean_used, "trust": round(result.trust, 6),
                    "class": result.behavior_class,
                    **({"reason": result.reason} if result.reason else {})}
        if op == "authorize":
            request = pdp.AuthzRequest(
                user=str(msg["user"]), service=str(msg["service"]),
                device=msg.get("device"),
                context=dict(msg.get("context") or {}))
            with state.lock:
                decision = pdp.authorize(
                    request, state.store, state.policy,
                    priority_table=state.config.priority_table,
                    audit_log=state.audit_log)
            return {"ok": True, "effect": decision.effect,
                    "obligations": decision.obligations,
                    "recommendations": decision.recommendations,
                    "priority": decision.priority,
                    "rationale": decision.rationale}
        if op == "query":
            parsed = query.parse_query(str(msg["q"]))
            with state.lock:
                rows = query.eval_query(state.store, parsed)
            return {"ok": True,
                    "rows": [{name: row[name].text() for name in parsed.select}
                             for row in rows]}
        if op == "stats":
            with state.lock:
                facts, audit_seq = len(state.store), state.audit_log.seq
            return {"ok": True, **_memory_kb(), "facts": facts,
                    "audit_seq": audit_seq}
        return {"ok": False, "error": f"unknown op: {op!r}"}
    except KeyError as err:
        return {"ok": False, "error": f"missing field: {err.args[0]!r}"}
    except (FactError, RuleSyntaxError, query.QueryError, pdp.PdpError,
            ValueError, TypeError, OverflowError) as err:
        return {"ok": False, "error": str(err)}


def _serve_lines(state: ServeState, rfile, wfile) -> None:
    """Answer each request line of the binary stream ``rfile`` on ``wfile``.

    A line longer than ``MAX_LINE_BYTES`` is skipped in bounded reads and
    answered with an error, so one endless line cannot exhaust memory.
    Replies are strict JSON; one that is not encodable becomes an error.
    """
    while True:
        raw = rfile.readline(MAX_LINE_BYTES + 1)
        if not raw:
            return
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            while raw and not raw.endswith(b"\n"):
                raw = rfile.readline(MAX_LINE_BYTES)
            response = {"ok": False,
                        "error": f"line longer than {MAX_LINE_BYTES} bytes"}
        else:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            response = handle_message(state, line)
        try:
            reply = json.dumps(response, allow_nan=False)
        except ValueError as err:  # NaN or infinity has no JSON form
            reply = json.dumps({"ok": False, "error": f"bad reply: {err}"})
        wfile.write((reply + "\n").encode("utf-8"))
        wfile.flush()


def make_server(state: ServeState, host: str,
                port: int) -> socketserver.ThreadingTCPServer:
    """A TCP server that answers each connection with ``_serve_lines``.

    At most ``MAX_CONNECTIONS`` connections are served at once.  One past
    the cap gets a single error line and is closed, without a thread; the
    connections already held keep being served.
    """
    slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
    refusal = (json.dumps({"ok": False, "error": "too many connections "
                           f"(limit {MAX_CONNECTIONS})"}) + "\n").encode("utf-8")

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            _serve_lines(state, self.rfile, self.wfile)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def process_request(self, request, client_address):
            if not slots.acquire(blocking=False):
                try:
                    request.sendall(refusal)
                except OSError:
                    pass
                self.shutdown_request(request)
                return
            super().process_request(request, client_address)

        def process_request_thread(self, request, client_address):
            try:
                super().process_request_thread(request, client_address)
            finally:
                slots.release()

    return Server((host, port), Handler)


def cmd_serve(args, config: Config) -> int:
    store = _load_store(args, config)
    rules = _load_rules(args, config)
    if not rules and (args.prime_scenarios or not args.rules):
        rules = scenarios.load_fixture_rules()
    model_path = args.model or config.model
    if model_path:
        model = behavior.load_model_file(model_path,
                                         distance_floor=config.distance_floor)
    else:
        model = scenarios.load_fixture_model(config.distance_floor)
    credentials_path = args.credentials or config.credentials
    if credentials_path:
        credentials = pdp.load_credentials_file(credentials_path)
    else:
        credentials = scenarios.load_fixture_credentials()
    audit_path = args.audit or config.audit
    audit_log = pdp.AuditLog(audit_path) if audit_path else pdp.AuditLog()
    state = ServeState(store, rules, model, credentials, config, audit_log)

    if args.prime_scenarios:
        scenarios.prime_store(state.store, state.means, state.model,
                              state.credentials, audit_log=None, config=config)

    try:
        return _listen(state, args.listen)
    finally:
        audit_log.close()


def _listen(state: ServeState, listen: str) -> int:
    if listen == "-":
        _serve_lines(state, sys.stdin.buffer, sys.stdout.buffer)
        return EXIT_OK

    host, _, port = listen.rpartition(":")
    if not host or not port.isdigit():
        print(f"bad --listen address: {listen!r}", file=sys.stderr)
        return EXIT_VALIDATION

    with make_server(state, host, int(port)) as server:
        actual_host, actual_port = server.server_address[:2]
        print(f"listening on {actual_host}:{actual_port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return EXIT_OK


COMMANDS = {
    "load": cmd_load,
    "infer": cmd_infer,
    "explain": cmd_explain,
    "query": cmd_query,
    "classify": cmd_classify,
    "scenario": cmd_scenario,
    "serve": cmd_serve,
}


def _apply_overrides(config: Config, args) -> Config:
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            apply_key(config, key.strip(), value.strip())
        except ValueError as err:
            raise ConfigError(str(err)) from None
    return config.validate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        return COMMANDS[args.command](args, config)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (FactError, RuleSyntaxError, ConfigError, engine.EngineError,
            behavior.EventFormatError, behavior.ModelFormatError,
            behavior.OrderingError, query.QueryError, pdp.PdpError,
            pdp.AuditError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
