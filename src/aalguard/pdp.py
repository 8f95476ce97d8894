"""Security layer: authentication, authorization decisions and accounting.

Authentication runs a pipeline: classify the requester's recent features
against the behavior model, score trust, look up the authentication mean
the policy rules prescribe for that capability/class combination (the mean
rules are compiled to a table once per policy), then verify the presented
credential under that mean.  Authorization asserts the request
context into a working snapshot of the store, runs the rule engine, and
combines every ``hasAccess`` / ``Obligation`` / ``Recommendation`` fact that
names the user or one of their groups.

Decision combining is conservative: any deny wins over any permit, and a
request nothing rules on is denied (closed world).  Every authentication and
authorization, and every flagged anomaly, appends one entry to an append-only
audit log.
"""

from __future__ import annotations

import hashlib
import hmac
import math
import os
import re
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Deque, Dict, List, Optional, Tuple, Union

from .behavior import (BehaviorModel, FeatureVector, NonFiniteError, classify,
                       trust_score)
from .engine import InvalidRuleError, Policy, infer_fixpoint
from .facts import (INFERRED, Constant, Fact, FactStore, Variable,
                    coerce_constant, ground)
from .rules import Rule

PASSWORD_MEAN = "username/password"
TAG_MEAN = "tag-mean"

DEFAULT_TRUST_THRESHOLD = 0.5
DEFAULT_ANOMALY_THRESHOLD = 0.5
DEFAULT_AUTH_MEAN = PASSWORD_MEAN

# Capability severity -> assistance priority.  Configurable; these defaults
# rank cognitive impairment highest.
DEFAULT_PRIORITY_TABLE = {
    "cognitive": 3,
    "visual": 2,
    "hearing": 2,
    "physical": 1,
    "no": 0,
    "none": 0,
}

COGNITIVE_GROUP = "Group3"
EMERGENCY_OBLIGATION = "signal-emergency"

PERMIT = "permit"
DENY = "deny"

_TIME_RE = re.compile(r"\d\d\.\d\d\Z")

# What a request asserts about its user, by the part of the request it
# comes from; each context component is asserted under its own predicate and
# again as HasContext.  The newest request replaces all of these for the
# user in the evaluation snapshot (history stays in the live store).
_REQUEST_PREDICATES = {"service": "AskedService", "device": "UsedDevice",
                       "context": "HasContext", "time": "HasTime",
                       "location": "HasLocation", "activity": "HasActivity",
                       "environment": "HasEnvironment"}
_CONTEXT_COMPONENTS = frozenset(_REQUEST_PREDICATES) - {"service", "device",
                                                        "context"}


class PdpError(ValueError):
    pass


class AuditError(RuntimeError):
    """Appending to the audit log failed; decisions are not rolled back."""


@dataclass(frozen=True)
class Credential:
    kind: str    # password | tag
    secret: str

    def __post_init__(self) -> None:
        if self.kind not in ("password", "tag"):
            raise PdpError(f"unknown credential kind: {self.kind!r}")
        if self.kind == "password" and not self.secret:
            raise PdpError("password credential must have a non-empty secret")


@dataclass
class AuthnRequest:
    user: str
    credential: Optional[Credential]
    features: FeatureVector = field(default_factory=FeatureVector)


@dataclass
class AuthnResult:
    authenticated: str       # yes | no
    mean_used: str
    trust: float
    behavior_class: Optional[str]  # None for a non-finite vector
    reason: Optional[str] = None


@dataclass
class AuthzRequest:
    user: str
    service: str
    device: Optional[str] = None
    context: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        time_value = self.context.get("time")
        if time_value is not None and not _TIME_RE.fullmatch(time_value):
            raise PdpError(f"context time must look like HH.MM, got {time_value!r}")


@dataclass
class Decision:
    effect: str                 # permit | deny
    obligations: List[str] = field(default_factory=list)
    recommendations: List[str] = field(default_factory=list)
    priority: int = 0
    rationale: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Audit log: `seq|iso-time|kind|subject|outcome|detail`, one entry per line.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditEntry:
    seq: int
    time: str
    kind: str        # authn | authz | anomaly
    subject: str
    detail: str
    outcome: str


def _escape(text: str) -> str:
    """Escape request text for one field: no separator, no line break."""
    return (text.replace("\\", "\\\\").replace("|", "\\|")
            .replace("\n", "\\n").replace("\r", "\\r"))


_UNESCAPED = {"n": "\n", "r": "\r"}


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append(_UNESCAPED.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


# seq|time|kind|subject|outcome|detail; subject and detail are escaped.
_ENTRY_RE = re.compile(
    r"(\d+)\|([^|]*)\|([^|]*)\|((?:[^|\\]|\\.)*)\|([^|]*)\|(.*)", re.DOTALL)


def serialize_entry(entry: AuditEntry) -> str:
    return "|".join([str(entry.seq), entry.time, entry.kind,
                     _escape(entry.subject), entry.outcome,
                     _escape(entry.detail)])


def parse_entry(line: str) -> AuditEntry:
    match = _ENTRY_RE.fullmatch(line)
    if match is None:
        raise AuditError(f"malformed audit line: {line!r}")
    seq, time, kind, subject, outcome, detail = match.groups()
    return AuditEntry(seq=int(seq), time=time, kind=kind,
                      subject=_unescape(subject), detail=_unescape(detail),
                      outcome=outcome)


AUDIT_TAIL = 1024  # newest entries an AuditLog keeps in memory


def _last_line(path) -> str:
    """The last non-empty line of a file, read backwards from its end."""
    with open(path, "rb") as fh:
        pos = fh.seek(0, os.SEEK_END)
        tail = b""
        while pos > 0 and b"\n" not in tail.rstrip(b"\n"):
            step = min(pos, 4096)
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
    return tail.rstrip(b"\n").rpartition(b"\n")[2].decode("utf-8", "replace")


class AuditLog:
    """Append-only accounting log, optionally backed by a file.

    Sequence numbers increase gap-free from 1 within a log; a log opened on
    an existing file reads only its last line and continues that sequence.
    Memory holds a counter and the newest ``AUDIT_TAIL`` entries appended
    through this log; the file holds every entry (``AuditLog.load``).

    The file is opened for appending at the first entry and stays open
    until :meth:`close`; each entry is written as one line and flushed, so
    the file reads the same as if it were opened for every entry, also
    when several logs append to one path in turn.
    """

    def __init__(self, path=None, *, truncate: bool = False):
        self._path = path
        self._file = None
        self._seq = 0
        self._tail: Deque[AuditEntry] = deque(maxlen=AUDIT_TAIL)
        if path is not None:
            if truncate:
                open(path, "w", encoding="utf-8").close()
            elif os.path.exists(path):
                last = _last_line(path)
                if last:
                    self._seq = parse_entry(last).seq

    def append(self, kind: str, subject: str, outcome: str,
               detail: str = "") -> AuditEntry:
        entry = AuditEntry(
            seq=self._seq + 1,
            time=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            kind=kind,
            subject=subject,
            detail=detail,
            outcome=outcome,
        )
        if self._path is not None:
            try:
                if self._file is None:
                    self._file = open(self._path, "a", encoding="utf-8")
                self._file.write(serialize_entry(entry) + "\n")
                self._file.flush()
            except OSError as err:
                try:  # drop the buffer, so a failed line is not written later
                    self.close()
                except OSError:
                    pass
                raise AuditError(f"audit append failed: {err}") from err
        self._seq = entry.seq
        self._tail.append(entry)
        return entry

    def close(self) -> None:
        """Close the file; a later append opens it again."""
        file, self._file = self._file, None
        if file is not None:
            file.close()

    @property
    def seq(self) -> int:
        """The sequence number of the newest entry; 0 before the first."""
        return self._seq

    def entries(self) -> Tuple[AuditEntry, ...]:
        """The newest entries appended through this log, oldest first."""
        return tuple(self._tail)

    @property
    def path(self):
        return self._path

    @staticmethod
    def load(path) -> List[AuditEntry]:
        with open(path, "r", encoding="utf-8") as fh:
            return [parse_entry(line) for line in fh.read().split("\n") if line]


# ---------------------------------------------------------------------------
# Credentials: lines `user:kind:record`; passwords stored as salt$sha256.
# ---------------------------------------------------------------------------

def hash_password(secret: str, salt: Optional[str] = None) -> str:
    salt = salt if salt is not None else os.urandom(8).hex()
    digest = hashlib.sha256(f"{salt}:{secret}".encode("utf-8")).hexdigest()
    return f"{salt}${digest}"


def verify_password(secret: str, record: str) -> bool:
    salt, _, digest = record.partition("$")
    if not digest:
        return False
    probe = hashlib.sha256(f"{salt}:{secret}".encode("utf-8")).hexdigest()
    return hmac.compare_digest(probe, digest)


def load_credentials(text: str) -> Dict[str, Tuple[str, str]]:
    out: Dict[str, Tuple[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(":", 2)
        if len(parts) != 3:
            raise PdpError(f"credentials line {lineno}: expected user:kind:record")
        user, kind, record = parts
        out[user] = (kind, record)
    return out


def load_credentials_file(path) -> Dict[str, Tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_credentials(fh.read())


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------

_PROFILE_PREDICATES = frozenset({"hasrecognizedbehavior", "hascapability"})


class AuthMeans:
    """The authentication-mean rules of a policy, compiled to a lookup.

    A mean rule has the one head ``Authentication(<constant>)`` and a body
    of ``HasRecognizedBehavior(?u, <class>)`` and
    ``HasCapability(?u, <capability>)`` atoms.  For a class and a list of
    capabilities the mean is that of the first mean rule, in rule order,
    whose body holds, or the default when none does: the mean a fixpoint
    over just those profile facts derives (:func:`select_auth_mean`).

    A policy where that fixpoint could depend on more is refused with
    :class:`InvalidRuleError` naming the rule: a rule with another
    ``Authentication`` head, a mean rule of another shape, or a rule that
    could fire on profile facts and derive a class, a capability or a mean.
    """

    def __init__(self, rules):
        self.policy = Policy.of(rules)
        self._rows = []  # (class keys, capability keys, mean), rule order
        reachable = set(_PROFILE_PREDICATES)
        fires = set()  # rules that may fire on profile facts alone
        while True:
            before = len(fires)
            for i, predicates in enumerate(self.policy.body_predicates):
                if i not in fires and reachable.issuperset(predicates):
                    fires.add(i)
                    reachable.update(atom.predicate.lower()
                                     for atom in self.policy.rules[i].head)
            if len(fires) == before:
                break
        for i, (rule, rule_id) in enumerate(zip(self.policy.rules,
                                                self.policy.rule_ids)):
            heads = {atom.predicate.lower() for atom in rule.head}
            if "authentication" in heads:
                self._rows.append(_mean_row(rule, rule_id))
            elif i in fires and heads & _PROFILE_PREDICATES:
                raise InvalidRuleError(
                    f"rule {rule_id}: derives a behavior class or capability "
                    "from profile facts, so the authentication mean is not "
                    "a lookup")

    @classmethod
    def of(cls, rules) -> "AuthMeans":
        """``rules`` itself when already compiled, else its compilation."""
        return rules if isinstance(rules, cls) else cls(rules)

    def select(self, behavior_class: Optional[str],
               capabilities: List[Constant], default_mean: str) -> str:
        classes = _class_keys(behavior_class)
        held = {value.key() for value in capabilities}
        for class_keys, capability_keys, mean in self._rows:
            if class_keys <= classes and capability_keys <= held:
                return mean
        return default_mean


def _class_keys(behavior_class: Optional[str]) -> set:
    """The key of a recognized class as a set; empty for no class."""
    if behavior_class is None:
        return set()
    return {coerce_constant(behavior_class).key()}


def _mean_row(rule: Rule, rule_id: str) -> tuple:
    """A mean rule as ``(class keys, capability keys, mean)``."""
    head = rule.head[0]
    if len(rule.head) != 1 or len(head.terms) != 1 \
            or not isinstance(head.terms[0], Constant):
        raise InvalidRuleError(
            f"rule {rule_id}: an Authentication head must be the rule's only "
            "head and name one constant mean")
    required = {predicate: set() for predicate in _PROFILE_PREDICATES}
    for atom in rule.body:
        keys = required.get(atom.predicate.lower())
        if keys is None or len(atom.terms) != 2 \
                or not isinstance(atom.terms[0], Variable) \
                or not isinstance(atom.terms[1], Constant):
            raise InvalidRuleError(
                f"rule {rule_id}: a mean rule's body atoms must be "
                "HasRecognizedBehavior(?u, <class>) or "
                "HasCapability(?u, <capability>)")
        keys.add(atom.terms[1].key())
    return (frozenset(required["hasrecognizedbehavior"]),
            frozenset(required["hascapability"]), head.terms[0].text())


def select_auth_mean(capabilities, behavior_class: Optional[str], rules,
                     default_mean: str = DEFAULT_AUTH_MEAN) -> str:
    """Authentication mean the rules prescribe for capabilities and a class.

    ``capabilities`` is one capability or a list of them; a ``None`` class
    stands for a vector that has none.  The rules run to fixpoint over these
    profile facts alone: when several means derive, the first by rule order
    wins, and when none does, the configured default applies.  This is the
    reference :class:`AuthMeans` answers from a table.
    """
    if isinstance(capabilities, str):
        capabilities = [capabilities]
    subject = "candidate"
    scratch = FactStore()
    if behavior_class is not None:
        scratch.assert_fact(
            ground("HasRecognizedBehavior", subject, behavior_class))
    for value in capabilities:
        scratch.assert_fact(ground("HasCapability", subject, value))
    for fact in infer_fixpoint(scratch, rules).derived:
        if fact.predicate.lower() == "authentication" and len(fact.args) == 1:
            return fact.args[0].text()
    return default_mean


_VALUE = Variable("value")


def _facts_about(store: FactStore, predicate: str, user: str) -> tuple:
    """The ``predicate`` facts whose first argument is ``user``, in store
    order, read from the index bucket of that argument."""
    return store.candidates(predicate, (coerce_constant(user), _VALUE), {})


def _capabilities_of(store: FactStore, user: str) -> List[Constant]:
    return [fact.args[1] for fact in _facts_about(store, "HasCapability", user)
            if len(fact.args) == 2]


def _verify_credential(mean: str, credential: Optional[Credential],
                       entry: Optional[Tuple[str, str]]):
    if entry is None:
        return False, "unknown user in credentials database"
    if credential is None:
        return False, "no credential presented"
    stored_kind, record = entry
    wanted_kind = {PASSWORD_MEAN: "password", TAG_MEAN: "tag"}.get(mean,
                                                                   stored_kind)
    if credential.kind != wanted_kind or stored_kind != wanted_kind:
        return False, f"mean {mean} requires a {wanted_kind} credential"
    if wanted_kind == "password":
        if verify_password(credential.secret, record):
            return True, None
        return False, "password mismatch"
    if hmac.compare_digest(credential.secret, record):
        return True, None
    return False, "tag mismatch"


def _replace_user_facts(store: FactStore, predicate: str, user: str) -> None:
    for fact in _facts_about(store, predicate, user):
        store.retract_fact(fact.predicate, fact.args)


def _retract_inferred_about(store: FactStore, user: str) -> None:
    for fact in store.facts_naming(coerce_constant(user)):
        if fact.origin == INFERRED:
            store.retract_fact(fact.predicate, fact.args)


def authenticate(req: AuthnRequest, store: FactStore,
                 means: Union[AuthMeans, Policy, List[Rule]],
                 model: BehaviorModel, credentials: Dict[str, Tuple[str, str]],
                 *, trust_threshold: float = DEFAULT_TRUST_THRESHOLD,
                 default_mean: str = DEFAULT_AUTH_MEAN,
                 audit_log: Optional[AuditLog] = None) -> AuthnResult:
    """Authenticate a user from behavior plus credential.

    Yes requires both gates: trust at or above the threshold and a verified
    credential under the selected mean.  The outcome is asserted into the
    store as ``Authenticated(user, yes|no)`` along with the recognized
    behavior class; earlier outcomes for the same user are replaced.  When
    that changes or removes the user's class, every inferred fact naming
    the user is retracted too, since it may rest on the old class.  A
    vector at a non-finite distance has no class and fails the trust gate.
    ``means`` is the policy's :class:`AuthMeans`, or its rules, which are
    compiled on the call.
    """
    means = AuthMeans.of(means)
    try:
        behavior_class, _ = classify(model, req.features)
        trust = trust_score(model, behavior_class, req.features)
    except NonFiniteError:  # no class and no trust
        behavior_class, trust = None, math.nan

    mean = means.select(behavior_class, _capabilities_of(store, req.user),
                        default_mean)

    verified, reason = _verify_credential(mean, req.credential,
                                          credentials.get(req.user))
    if verified and not trust >= trust_threshold:  # NaN fails closed
        verified = False
        reason = f"trust {trust:.3f} below threshold {trust_threshold}"
    answer = "yes" if verified else "no"

    held = {fact.args[1].key() for fact in
            _facts_about(store, "HasRecognizedBehavior", req.user)
            if len(fact.args) == 2}
    if held and held != _class_keys(behavior_class):
        _retract_inferred_about(store, req.user)
    _replace_user_facts(store, "Authenticated", req.user)
    _replace_user_facts(store, "HasRecognizedBehavior", req.user)
    store.assert_fact(ground("Authenticated", req.user, answer))
    if behavior_class is not None:
        store.assert_fact(
            ground("HasRecognizedBehavior", req.user, behavior_class))

    if audit_log is not None:
        detail = f"mean={mean} class={behavior_class} trust={trust:.3f}"
        if reason:
            detail += f" reason={reason}"
        audit_log.append("authn", req.user, answer, detail)
    return AuthnResult(authenticated=answer, mean_used=mean, trust=trust,
                       behavior_class=behavior_class, reason=reason)


# ---------------------------------------------------------------------------
# Group assignment and authorization
# ---------------------------------------------------------------------------

def assign_group(store: FactStore,
                 rules: Union[Policy, List[Rule]]) -> List[Fact]:
    """Materialize the store and return the newly derived group memberships."""
    report = infer_fixpoint(store, rules)
    return [f for f in report.derived
            if f.predicate.lower() == "behaviorcapability"]


def groups_of(store: FactStore, user: str) -> List[Constant]:
    return [fact.args[1]
            for fact in _facts_about(store, "BehaviorCapability", user)
            if len(fact.args) == 2]


def _request_facts(req: AuthzRequest) -> List[Fact]:
    facts = [ground(_REQUEST_PREDICATES["service"], req.user, req.service)]
    if req.device:
        facts.append(ground(_REQUEST_PREDICATES["device"], req.user,
                            req.device))
    for component, value in req.context.items():
        if component not in _CONTEXT_COMPONENTS:
            raise PdpError(f"unknown context component: {component!r}")
        facts.append(ground(_REQUEST_PREDICATES[component], req.user, value))
        facts.append(ground(_REQUEST_PREDICATES["context"], req.user, value))
    return facts


def _priority_for(store: FactStore, user: str, table: Dict[str, int]) -> int:
    priorities = [table.get(value.text().lower(), 0)
                  for value in _capabilities_of(store, user)]
    return max(priorities, default=0)


def _collect(working: FactStore, subjects: set):
    permits, denies = [], []
    obligations: List[str] = []
    recommendations: List[str] = []
    rationale: List[str] = []

    def note_rationale(fact: Fact) -> None:
        label = fact.rule_id if fact.rule_id else "asserted"
        if label not in rationale:
            rationale.append(label)

    for fact in working.facts_for("hasAccess"):
        if len(fact.args) < 2 or fact.args[0].key() not in subjects:
            continue
        effect = fact.args[-1].text().lower()
        if effect == PERMIT:
            permits.append(fact)
            note_rationale(fact)
        elif effect == DENY:
            denies.append(fact)
            note_rationale(fact)
    for predicate, sink in (("Obligation", obligations),
                            ("Recommendation", recommendations)):
        for fact in working.facts_for(predicate):
            if len(fact.args) == 2 and fact.args[0].key() in subjects:
                action = fact.args[1].text()
                if action not in sink:
                    sink.append(action)
                note_rationale(fact)
    return permits, denies, obligations, recommendations, rationale


def authorize(req: AuthzRequest, store: FactStore,
              rules: Union[Policy, List[Rule]],
              *, priority_table: Optional[Dict[str, int]] = None,
              audit_log: Optional[AuditLog] = None) -> Decision:
    """Evaluate an access request against the policy rules.

    The request context is asserted into a working snapshot (replacing any
    earlier context facts for the user, so the newest request is what rules
    see), inference runs, and the decision facts naming the user or one of
    the user's groups are combined deny-overrides with a deny default.  The
    live store keeps the request facts as history; derived decision facts
    stay in the snapshot.
    """
    table = priority_table if priority_table is not None else DEFAULT_PRIORITY_TABLE
    if not store.holds("Authenticated", req.user, "yes"):
        decision = Decision(effect=DENY, priority=_priority_for(store, req.user, table),
                            rationale=["not-authenticated"])
        if audit_log is not None:
            audit_log.append("authz", req.user, DENY,
                             f"service={req.service} reason=not-authenticated")
        return decision

    request_facts = _request_facts(req)
    working = store.snapshot()
    for predicate in _REQUEST_PREDICATES.values():
        _replace_user_facts(working, predicate, req.user)
    for fact in request_facts:
        working.assert_fact(fact)
    infer_fixpoint(working, rules)

    subjects = {coerce_constant(req.user).key()}
    subjects.update(g.key() for g in groups_of(working, req.user))
    permits, denies, obligations, recommendations, rationale = _collect(
        working, subjects)

    if denies:
        effect = DENY
    elif permits:
        effect = PERMIT
    else:
        effect = DENY
        rationale = ["default-deny"]

    decision = Decision(effect=effect, obligations=obligations,
                        recommendations=recommendations,
                        priority=_priority_for(store, req.user, table),
                        rationale=rationale)

    for fact in request_facts:  # history for behavioral rules
        store.assert_fact(fact)
    if audit_log is not None:
        audit_log.append("authz", req.user, effect,
                         f"service={req.service} rationale={','.join(rationale)}")
    return decision


# ---------------------------------------------------------------------------
# Anomaly detection
# ---------------------------------------------------------------------------

def detect_anomaly(model: BehaviorModel, class_id: str, recent: FeatureVector,
                   threshold: float = DEFAULT_ANOMALY_THRESHOLD) -> bool:
    """Flag when recent behavior no longer matches the recognized class."""
    return trust_score(model, class_id, recent) < threshold


def flag_anomaly(store: FactStore, model: BehaviorModel, user: str,
                 class_id: str, recent: FeatureVector,
                 threshold: float = DEFAULT_ANOMALY_THRESHOLD,
                 audit_log: Optional[AuditLog] = None) -> bool:
    """Run anomaly detection and record the consequences.

    A flagged event appends one ``anomaly`` audit entry; for users in the
    cognitive-impairment group it additionally asserts an
    ``Obligation(user, signal-emergency)`` fact so the next authorization
    carries the emergency obligation.
    """
    flagged = detect_anomaly(model, class_id, recent, threshold)
    if not flagged:
        return False
    trust = trust_score(model, class_id, recent)
    if audit_log is not None:
        audit_log.append("anomaly", user, "flagged",
                         f"class={class_id} trust={trust:.3f}")
    cognitive = any(g.text() == COGNITIVE_GROUP for g in groups_of(store, user))
    if cognitive:
        store.assert_fact(ground("Obligation", user, EMERGENCY_OBLIGATION))
    return True
