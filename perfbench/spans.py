"""In-memory spans and counters around calls into the program's layers.

``install`` replaces module attributes where the caller looks the name up
(``pdp.infer_fixpoint`` for the decision point, ``engine.infer_fixpoint`` for
a batch), so no file under ``src/`` changes.  Hot calls (``facts_for``,
``assert_fact``, ``retract_fact``, ``unify_against_fact``) only bump counters
on the innermost open span; everything else records a span with a name,
start, end and parent.  Spans of one request share the root's index.  The
tracer keeps everything in memory and writes one JSON file on ``dump``.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

# Span record layout; the dumped file leaves out INDEX.
NAME, START, END, PARENT, ROOT, ATTRS, COUNTS, INDEX = range(8)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[dict] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None,
                parent[INDEX] if parent else -1,
                parent[ROOT] if parent else index,
                attrs or {}, {}, index]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def enclosing(self, *names: str) -> Optional[list]:
        """The innermost open span with one of ``names``, if any."""
        for span in reversed(self._stack()):
            if span[NAME] in names:
                return span
        return None

    def count(self, key: str, n: int = 1) -> None:
        """Add to a counter of the innermost open span (none open: dropped)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            counts = stack[-1][COUNTS]
            counts[key] = counts.get(key, 0) + n

    def timed(self, name: str, fn, attrs_of=None, after=None):
        """Wrap ``fn`` in a span; ``attrs_of(args)`` and ``after(span, result)``
        add attributes before and after the call."""
        def wrapper(*args, **kwargs):
            span = self.open(name, attrs_of(args) if attrs_of else None)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                self.close(span)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [span[:INDEX] for span in self.spans]}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points so calls land in ``tracer``."""
    from aalguard import behavior, cli, engine, facts, pdp, query, rules, scenarios

    def handle_attrs(args):
        return {"store_size": len(args[0].store)}

    def handle_after(span, response):
        if not response.get("ok"):
            span[ATTRS]["error"] = 1

    cli.handle_message = tracer.timed("cli.handle_message", cli.handle_message,
                                      handle_attrs, handle_after)

    def authorize_after(span, decision):
        span[ATTRS]["effect"] = decision.effect

    pdp.authorize = tracer.timed("pdp.authorize", pdp.authorize,
                                 lambda args: {"user": args[0].user},
                                 authorize_after)
    pdp.authenticate = tracer.timed("pdp.authenticate", pdp.authenticate)
    pdp.verify_password = tracer.timed("pdp.verify_password",
                                       pdp.verify_password)
    pdp.classify = behavior.classify = tracer.timed("behavior.classify",
                                                    behavior.classify)
    pdp.trust_score = behavior.trust_score = tracer.timed(
        "behavior.trust_score", behavior.trust_score)
    behavior.load_events = tracer.timed("behavior.load_events",
                                        behavior.load_events)
    behavior.extract_features = tracer.timed("behavior.extract_features",
                                             behavior.extract_features)
    query.parse_query = tracer.timed("query.parse_query", query.parse_query)
    query.eval_query = tracer.timed(
        "query.eval_query", query.eval_query,
        after=lambda span, rows: span[ATTRS].update(rows=len(rows)))
    rules.parse_ruleset = scenarios.parse_ruleset = tracer.timed(
        "rules.parse_ruleset", rules.parse_ruleset)

    def fixpoint_after(span, report):
        caller = tracer.enclosing("pdp.authorize", "pdp.authenticate")
        attrs = span[ATTRS]
        attrs["caller"] = caller[NAME][4:] if caller else "batch"
        attrs["iterations"] = report.iterations
        attrs["derived"] = len(report.derived)
        if caller is not None and caller[NAME] == "pdp.authorize":
            user = caller[ATTRS]["user"]
            names = {user} | {f.args[1].text() for f in report.derived
                              if f.predicate.lower() == "behaviorcapability"
                              and f.args[0].text() == user}
            attrs["requester"] = sum(
                1 for f in report.derived
                if any(a.text() in names for a in f.args))

    fixpoint = tracer.timed("engine.infer_fixpoint", engine.infer_fixpoint,
                            after=fixpoint_after)
    pdp.infer_fixpoint = engine.infer_fixpoint = fixpoint
    engine.check_consistency = tracer.timed("engine.check_consistency",
                                            engine.check_consistency)

    unify = engine.unify_against_fact

    def counted_unify(predicate, terms, fact, binding):
        result = unify(predicate, terms, fact, binding)
        tracer.count("unify")
        if result is not None:
            tracer.count("unify_hit")
        return result
    engine.unify_against_fact = counted_unify

    store = facts.FactStore
    facts_for, assert_fact, retract_fact = (
        store.facts_for, store.assert_fact, store.retract_fact)

    def counted_facts_for(self, predicate):
        result = facts_for(self, predicate)
        tracer.count("examined", len(result))
        return result

    def counted_assert(self, fact):
        tracer.count("assert")
        return assert_fact(self, fact)

    def counted_retract(self, predicate, args):
        tracer.count("retract")
        return retract_fact(self, predicate, args)

    store.facts_for = counted_facts_for
    store.assert_fact = counted_assert
    store.retract_fact = counted_retract
    store.snapshot = tracer.timed("facts.snapshot", store.snapshot)
    pdp.AuditLog.append = tracer.timed("pdp.audit_append", pdp.AuditLog.append)


# ---------------------------------------------------------------------------
# Reading a dumped trace
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out

