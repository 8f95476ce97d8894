"""Per-layer metrics from dumped traces.

A *unit* is one request (serve) or one resident (batch).  Shares are parts of
the busy time, the summed duration of the measured root spans: measured
requests for serve, whole batches for the batch.  A layer a workload never
calls reads 0 in its shares and counts.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from .spans import ATTRS, COUNTS, END, NAME, PARENT, ROOT, START, self_times

FIXPOINT_CALLERS = ("authorize", "authenticate", "batch")
STORE_POINTS = 11  # store size at the start of each tenth, and at the end


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


class LayerStats:
    """Sums over the measured part of one or more traces."""

    def __init__(self):
        self.busy = 0.0
        self.units = 0
        self.sums: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.store_sizes: List[int] = []

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def add_file(self, path: str, skip_roots: int = 0) -> None:
        """Add one trace; the first ``skip_roots`` roots (priming) are left out."""
        with open(path, encoding="utf-8") as fh:
            self.add(json.load(fh)["spans"], skip_roots)

    def add(self, spans: List[list], skip_roots: int = 0) -> None:
        roots = [i for i, s in enumerate(spans)
                 if s[PARENT] < 0 and s[NAME] in ("cli.handle_message",
                                                  "batch.run")]
        measured = set(roots[skip_roots:])
        own = self_times(spans)
        sizes = []
        for i in sorted(measured):
            root = spans[i]
            self.busy += root[END] - root[START]
            if root[NAME] == "batch.run":
                self.units += root[ATTRS]["residents"]
                self._add("events", root[ATTRS]["events"])
                if not self.store_sizes:
                    self.store_sizes = list(root[ATTRS]["store_sizes"])
            else:
                self.units += 1
                sizes.append(root[ATTRS]["store_size"])
                self._add("errors", root[ATTRS].get("error", 0))
                self._add("cli.self", own[i])
        if sizes and not self.store_sizes:
            step = (len(sizes) - 1) / (STORE_POINTS - 1)
            self.store_sizes = [sizes[round(k * step)]
                                for k in range(STORE_POINTS)]

        for i, span in enumerate(spans):
            name, attrs, counts = span[NAME], span[ATTRS], span[COUNTS]
            duration = span[END] - span[START]
            if name == "rules.parse_ruleset":   # set-up: outside any request
                self.durations.setdefault(name, []).append(duration)
            if span[ROOT] not in measured:
                continue
            for key in ("examined", "assert", "retract", "unify", "unify_hit"):
                self._add(key, counts.get(key, 0))
            self.durations.setdefault(name, []).append(duration)
            if name == "query.eval_query":
                self._add("eval.rows", attrs["rows"])
                self._add("eval.examined", counts.get("examined", 0))
            elif name == "engine.infer_fixpoint":
                self._add(f"fixpoint.{attrs['caller']}", duration)
                self._add(f"fixpoint_calls.{attrs['caller']}", 1)
                self._add("iterations", attrs["iterations"])
                self._add("derived", attrs["derived"])
                if "requester" in attrs:
                    self._add("authorize.derived", attrs["derived"])
                    self._add("authorize.requester", attrs["requester"])
            elif name in ("pdp.authorize", "pdp.authenticate"):
                self._add(f"{name}.self", own[i])
                if "effect" in attrs:
                    self._add(f"effect.{attrs['effect']}", 1)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def metrics(self) -> Dict[str, tuple]:
        """``name -> (value, unit)`` for every per-layer metric."""
        s, busy, units = self.sums.get, self.busy, self.units
        out = {
            "cli.self_share": (_ratio(s("cli.self", 0), busy), "share"),
            "cli.error_responses": (s("errors", 0), "count"),
            "query.parse_us": (_mean(self.durations.get("query.parse_query"))
                               * 1e6, "us"),
            "query.eval_ms": (_mean(self.durations.get("query.eval_query"))
                              * 1e3, "ms"),
            "query.examined_per_row": (_ratio(s("eval.examined", 0),
                                              s("eval.rows", 0)), "ratio"),
            "facts.snapshot_share": (_ratio(self.total("facts.snapshot"), busy),
                                     "share"),
            "facts.snapshots_per_request": (
                _ratio(self.calls("facts.snapshot"), units), "count"),
        }
        sizes = self.store_sizes or [0] * STORE_POINTS
        for k, size in enumerate(sizes):
            out[f"facts.store_size.{k}"] = (size, "count")
        out.update({
            "facts.examined_per_request": (_ratio(s("examined", 0), units),
                                           "count"),
            "facts.asserts_per_request": (_ratio(s("assert", 0), units), "count"),
            "facts.retracts_per_request": (_ratio(s("retract", 0), units),
                                           "count"),
            "engine.fixpoint_ms": (_mean(self.durations.get(
                "engine.infer_fixpoint")) * 1e3, "ms"),
        })
        fixpoints = self.calls("engine.infer_fixpoint")
        for caller in FIXPOINT_CALLERS:
            out[f"engine.fixpoint_share.{caller}"] = (
                _ratio(s(f"fixpoint.{caller}", 0), busy), "share")
        out.update({
            "engine.iterations": (_ratio(s("iterations", 0), fixpoints), "count"),
            "engine.derived": (_ratio(s("derived", 0), fixpoints), "count"),
            "engine.unify_attempts": (_ratio(s("unify", 0), units), "count"),
            "engine.unify_hit_ratio": (_ratio(s("unify_hit", 0), s("unify", 0)),
                                       "ratio"),
            "engine.requester_share": (_ratio(s("authorize.requester", 0),
                                              s("authorize.derived", 0)),
                                       "share"),
            "pdp.authorize_self_share": (_ratio(s("pdp.authorize.self", 0),
                                                busy), "share"),
            "pdp.authenticate_self_share": (
                _ratio(s("pdp.authenticate.self", 0), busy), "share"),
            "pdp.verify_password_share": (
                _ratio(self.total("pdp.verify_password"), busy), "share"),
            "pdp.audit_append_share": (
                _ratio(self.total("pdp.audit_append"), busy), "share"),
            "pdp.permits": (s("effect.permit", 0), "count"),
            "pdp.denies": (s("effect.deny", 0), "count"),
            "behavior.load_share": (
                _ratio(self.total("behavior.load_events"), busy), "share"),
            "behavior.extract_share": (
                _ratio(self.total("behavior.extract_features"), busy), "share"),
            "behavior.classify_us": (_mean(self.durations.get(
                "behavior.classify")) * 1e6, "us"),
            "rules.parse_ms": (_mean(self.durations.get(
                "rules.parse_ruleset")) * 1e3, "ms"),
        })
        return out

    def per_call(self) -> Dict[str, tuple]:
        """Per-call times for the spans a workload does call (report only)."""
        s = self.sums.get
        rows = [
            ("cli.self_us", self.calls("cli.handle_message"), s("cli.self", 0),
             1e6, "us"),
            ("facts.snapshot_ms", self.calls("facts.snapshot"),
             self.total("facts.snapshot"), 1e3, "ms"),
        ]
        rows += [(f"engine.fixpoint_ms.{caller}", s(f"fixpoint_calls.{caller}", 0),
                  s(f"fixpoint.{caller}", 0), 1e3, "ms")
                 for caller in FIXPOINT_CALLERS]
        rows += [
            ("pdp.authorize_self_ms", self.calls("pdp.authorize"),
             s("pdp.authorize.self", 0), 1e3, "ms"),
            ("pdp.authenticate_self_ms", self.calls("pdp.authenticate"),
             s("pdp.authenticate.self", 0), 1e3, "ms"),
            ("pdp.verify_password_us", self.calls("pdp.verify_password"),
             self.total("pdp.verify_password"), 1e6, "us"),
            ("pdp.audit_append_us", self.calls("pdp.audit_append"),
             self.total("pdp.audit_append"), 1e6, "us"),
            ("behavior.extract_ms", self.calls("behavior.extract_features"),
             self.total("behavior.extract_features"), 1e3, "ms"),
        ]
        out = {name: (total * scale / n, unit, int(n))
               for name, n, total, scale, unit in rows if n}
        load = self.total("behavior.load_events")
        if load:
            out["behavior.parse_events_per_s"] = (
                s("events", 0) / load, "1/s", self.calls("behavior.load_events"))
        return out
