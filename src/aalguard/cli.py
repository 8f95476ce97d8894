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
SIGINT and SIGTERM stop serve with exit code 0, after the audit log is
closed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import socketserver
import sys
import threading
from typing import List, Optional

from . import behavior, engine, pdp, query, rules, scenarios
from .config import ENV_VAR, Config, ConfigError, apply_key, parse_config
from .facts import FactStore, load_facts, parse_fact, save_facts

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


class InputFileError(ValueError):
    """An input file is not UTF-8 text, or repeats a rule id of another."""


def _read_text(option: str, path) -> str:
    """The text of the input file ``path`` given by ``option``, less a
    leading byte-order mark; a file that does not decode as UTF-8 is an
    :class:`InputFileError` naming both."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise InputFileError(f"{option} {path}: {err}") from None


def _load_rules(config: Config) -> list:
    """The rules of each ``--rules`` file in turn.  A rule id an earlier
    file holds is refused, as a file's own repeated id is: a rationale
    names a rule by its id."""
    loaded, files = [], {}
    for path in config.rules:
        for rule in rules.parse_ruleset(_read_text("--rules", path)):
            if rule.id in files:
                raise InputFileError(f"--rules {path}: rule id {rule.id!r} "
                                     f"is also in {files[rule.id]}")
            files[rule.id] = path
            loaded.append(rule)
    return loaded


def _load_store(config: Config) -> FactStore:
    if config.facts:
        return load_facts(_read_text("--facts", config.facts))
    return FactStore()


def _load_model(config: Config) -> behavior.BehaviorModel:
    if config.model:
        return behavior.load_model(_read_text("--model", config.model),
                                   distance_floor=config.distance_floor)
    return scenarios.load_fixture_model(config.distance_floor)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_load(args, config: Config) -> int:
    reported = False
    if config.facts:
        store = _load_store(config)
        print(f"facts: {len(store)}")
        reported = True
    rules = _load_rules(config)
    if rules:
        print(f"rules: {len(rules)}")
        reported = True
    if config.events:
        events = behavior.load_events(_read_text("--events", config.events))
        print(f"events: {len(events)} ({len(behavior.users_in(events))} users)")
        reported = True
    if not reported:
        print("nothing to load; pass --facts, --rules or --events",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_infer(args, config: Config) -> int:
    store = _load_store(config)
    rules = _load_rules(config)
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
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(save_facts(store))
    return EXIT_OK


def _materialized_store(config: Config) -> FactStore:
    store = _load_store(config)
    engine.infer_fixpoint(store, _load_rules(config))
    return store


def cmd_explain(args, config: Config) -> int:
    store = _materialized_store(config)
    target = parse_fact(args.fact, require_period=False)
    print(engine.render_derivation(engine.explain(store, target)))
    return EXIT_OK


def cmd_query(args, config: Config) -> int:
    store = _materialized_store(config)
    parsed = query.parse_query(args.query)
    rows = query.eval_query(store, parsed)
    for row in rows:
        print("  ".join(f"?{name}={row[name].text()}" for name in parsed.select))
    print(f"{len(rows)} row(s)")
    return EXIT_OK


def cmd_classify(args, config: Config) -> int:
    if not config.events:
        print("error: nothing to classify; pass --events or set events= "
              "in the config", file=sys.stderr)
        return EXIT_VALIDATION
    events = behavior.load_events(_read_text("--events", config.events))
    model = _load_model(config)
    for user in behavior.users_in(events):
        features = behavior.extract_features(events, user)
        class_id, dist = behavior.classify(model, features)
        trust = behavior.trust_at(model, dist)
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

def _features_from_message(msg: dict) -> behavior.FeatureVector:
    features = msg.get("features")
    if features is None:
        return behavior.FeatureVector()
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


def handle_message(point: pdp.DecisionPoint, line: str) -> dict:
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
            # Both kinds are checked when given; a password is presented
            # before a tag.
            credentials = [pdp.Credential(kind, msg[kind])
                           for kind in ("password", "tag")
                           if msg.get(kind) is not None]
            request = pdp.AuthnRequest(
                user=msg["user"],
                credential=credentials[0] if credentials else None,
                features=_features_from_message(msg))
            with point.lock:
                result = pdp.authenticate(request, point)
            trust = result.trust  # NaN when the vector has no class
            return {"ok": True, "authenticated": result.authenticated,
                    "mean": result.mean_used,
                    "trust": round(trust, 6) if math.isfinite(trust) else None,
                    "class": result.behavior_class,
                    **({"reason": result.reason} if result.reason else {})}
        if op == "authorize":
            request = pdp.AuthzRequest(
                user=msg["user"], service=msg["service"],
                device=msg.get("device"), context=msg.get("context"))
            with point.lock:
                decision = pdp.authorize(request, point)
            return {"ok": True, "effect": decision.effect,
                    "obligations": decision.obligations,
                    "recommendations": decision.recommendations,
                    "priority": decision.priority,
                    "rationale": decision.rationale}
        if op == "query":
            text = msg["q"]
            if not isinstance(text, str):
                raise ValueError("q must be a string")
            parsed = query.parse_query(text)
            with point.lock:
                rows = query.eval_query(point.store, parsed)
            return {"ok": True,
                    "rows": [{name: row[name].text() for name in parsed.select}
                             for row in rows]}
        if op == "stats":
            with point.lock:
                facts, audit_seq = len(point.store), point.audit_log.seq
                memo = point.counts()
            return {"ok": True, **_memory_kb(), "facts": facts,
                    "audit_seq": audit_seq, **memo}
        return {"ok": False, "error": f"unknown op: {op!r}"}
    except KeyError as err:
        return {"ok": False, "error": f"missing field: {err.args[0]!r}"}
    except (ValueError, TypeError, OverflowError) as err:
        # FactError, RuleSyntaxError, QueryError and PdpError are ValueErrors.
        return {"ok": False, "error": str(err)}


def _serve_lines(point: pdp.DecisionPoint, rfile, wfile) -> None:
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
            response = handle_message(point, line)
        try:
            reply = json.dumps(response, allow_nan=False)
        except ValueError as err:  # NaN or infinity has no JSON form
            reply = json.dumps({"ok": False, "error": f"bad reply: {err}"})
        wfile.write((reply + "\n").encode("utf-8"))
        wfile.flush()


def make_server(point: pdp.DecisionPoint, host: str,
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
            _serve_lines(point, self.rfile, self.wfile)

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
    store = _load_store(config)
    rules = _load_rules(config)
    if not rules and (args.prime_scenarios or not config.rules):
        rules = scenarios.load_fixture_rules()
    model = _load_model(config)
    if config.credentials:
        credentials = pdp.load_credentials(
            _read_text("--credentials", config.credentials))
    else:
        credentials = scenarios.load_fixture_credentials()
    audit_log = pdp.AuditLog(config.audit)
    point = pdp.DecisionPoint(store, rules, model, credentials, config)
    # Derive what the --facts residents' own facts imply, as authn would.
    for subject in dict.fromkeys(fact.args[0] for fact in store):
        pdp.rederive(point, subject)
    if args.prime_scenarios:
        scenarios.prime_store(point)
    point.audit_log = audit_log  # so neither of those writes to it

    try:
        with _stop_signals():
            return _listen(point, args.listen)
    except KeyboardInterrupt:  # SIGINT or SIGTERM
        return EXIT_OK
    finally:
        with point.lock:  # an entry being appended is written whole first
            audit_log.close()


@contextlib.contextmanager
def _stop_signals():
    """While serving, SIGTERM stops serve as SIGINT does, by raising
    ``KeyboardInterrupt`` in the main thread, and a SIGINT inherited as
    ignored (as a background job of a non-interactive shell inherits it)
    gets Python's default handler back.  The earlier handlers are restored
    afterwards; off the main thread nothing changes."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGINT, signal.SIGTERM)}
    if saved[signal.SIGINT] == signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        for sig, handler in saved.items():
            if handler is not None:  # None: set outside Python
                signal.signal(sig, handler)


def _listen(point: pdp.DecisionPoint, listen: str) -> int:
    if listen == "-":
        _serve_lines(point, sys.stdin.buffer, sys.stdout.buffer)
        return EXIT_OK

    host, _, port = listen.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and len(port) <= 5
            and int(port) <= 65535):
        print(f"bad --listen address: {listen!r}", file=sys.stderr)
        return EXIT_VALIDATION

    with make_server(point, host, int(port)) as server:
        actual_host, actual_port = server.server_address[:2]
        print(f"listening on {actual_host}:{actual_port}", flush=True)
        server.serve_forever()
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


_INPUT_KEYS = ("facts", "rules", "events", "model", "credentials", "audit")


def _settings(args) -> Config:
    """The run's config: the config file (``--config``, else the
    ``AALGUARD_CONFIG`` environment variable), then each ``--set KEY=VALUE``,
    then each input flag given, applied as the key of its name."""
    option, path = (("--config", args.config) if args.config is not None
                    else (ENV_VAR, os.environ.get(ENV_VAR)))
    config = Config() if path is None else parse_config(
        _read_text(option, path))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            apply_key(config, key.strip(), value.strip())
        except ValueError as err:
            raise ConfigError(str(err)) from None
    for key in _INPUT_KEYS:
        value = getattr(args, key, None)
        if key == "rules" and value:  # each --rules value is one whole path
            config.rules = [path for path in value if path] or config.rules
        elif value:
            apply_key(config, key, value)
    return config.validate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, _settings(args))
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, pdp.AuditError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
