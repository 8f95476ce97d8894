"""Security layer: authentication, authorization decisions and accounting.

Authentication runs a pipeline: classify the requester's recent features
against the behavior model, score trust, derive the requester's facts again
under the recognized class, take the authentication mean that fixpoint
derives, then verify the presented credential under that mean.
Authorization infers over one working store of the requester's facts, with
the new request in place of their request history, and then of their
groups' facts too, and combines the ``hasAccess`` / ``Obligation`` /
``Recommendation`` facts there that name the user or one of their groups.

Under the policy's subject guard (:func:`compile_policy`) a rule joins and
derives only facts about one subject, so a subject's part of the fixpoint
is the fixpoint of a small store of its own facts, its partition.
:func:`rederive` and :func:`authorize` infer over partitions only, so no
fixpoint reads the facts of a subject it does not decide for: the
restriction magic sets give a query bound to one subject (Bancilhon,
Maier, Sagiv and Ullman, PODS 1986), with no help from the engine.  Facts
about different subjects never join, so one store of several subjects'
partitions derives what their separate fixpoints do.

One :class:`DecisionPoint` owns what the decisions read and remember: its
store, the policy compiled once behind the guard, the model, credentials,
config and audit log, and the memos.  A decision is re-made only when
something it read changed.  The store stamps each change to a subject's
facts (:meth:`FactStore.version`).  :func:`rederive` skips its fixpoint
while the user's version, less request history and ``Authenticated``, is
the one the point recorded after its last run, and an authentication that
recognizes the class and outcome the store holds writes nothing.
:func:`authorize` keeps one memo slot per user in the point: it stays
while that same version stays, and holds one decision per set of the
user's ``Authenticated`` facts and request facts some rule can read, valid
while each group it read keeps its version.  A request's facts are keyed
from its text; the request history gains only the facts the store does not
hold asserted, before the decision, so a hit reads keys and a miss reads
the request facts from the store by key: neither builds one.

Decision combining is conservative: any deny wins over any permit, and a
request nothing rules on is denied (closed world).  Obligations,
recommendations and rationale come in policy order: asserted facts first,
then by the rule that derived them.  Every authentication and
authorization, and every flagged anomaly, appends one entry to the point's
append-only audit log, a memory-only one unless the point is given another.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple, Union

from .behavior import (BehaviorModel, FeatureVector, NonFiniteError, classify,
                       trust_at, trust_score)
from .config import Config
from .engine import (DENY, PERMIT, InvalidRuleError, Policy, effect_of,
                     infer_fixpoint)
from .facts import (ASSERTED, INFERRED, Constant, Fact, FactStore, Immutable,
                    Variable, _set, coerce_constant, fact_key, ground,
                    text_key)
from .rules import Rule

PASSWORD_MEAN = "username/password"
TAG_MEAN = "tag-mean"

COGNITIVE_GROUP = "Group3"
EMERGENCY_OBLIGATION = "signal-emergency"

_TIME_RE = re.compile(r"([01][0-9]|2[0-3])\.[0-5][0-9]\Z")

# What a request asserts about its user, by the part of the request it
# comes from; each context component is asserted under its own predicate and
# again as HasContext.  The live store keeps them as history; an authorize
# leaves the user's earlier ones out of its partition, so the newest request
# is what rules see.
_REQUEST_PREDICATES = {"service": "AskedService", "device": "UsedDevice",
                       "context": "HasContext", "time": "HasTime",
                       "location": "HasLocation", "activity": "HasActivity",
                       "environment": "HasEnvironment"}
# The predicate of each part of a request, with its lower-cased key.
_REQUEST_FACT_PREDICATES = {part: (name, name.lower())
                            for part, name in _REQUEST_PREDICATES.items()}
_HISTORY_PREDICATES = frozenset(name.lower()
                                for name in _REQUEST_PREDICATES.values())
# Left out of the facts rederive reads and of those it asserts, and of the
# version both memos key a user by: request history and the session outcome.
_UNDERIVED_PREDICATES = _HISTORY_PREDICATES | {"authenticated"}
_CONTEXT_COMPONENTS = frozenset(_REQUEST_PREDICATES) - {"service", "device",
                                                        "context"}
_YES, _NO = Constant.symbol("yes"), Constant.symbol("no")
# The gate reads Authenticated(<user>, yes) by its key.
_YES_KEY = _YES.key()


class PdpError(ValueError):
    pass


class AuditError(RuntimeError):
    """Appending to the audit log failed; decisions are not rolled back."""


class Credential(Immutable):
    """A presented secret; credentials compare and hash by kind and
    secret."""

    def __init__(self, kind: str, secret: str):  # kind: password | tag
        _set(self, "kind", kind)
        _set(self, "secret", secret)
        if kind not in ("password", "tag"):
            raise PdpError(f"unknown credential kind: {kind!r}")
        if not isinstance(secret, str):
            raise PdpError(f"{kind} must be a string")
        if kind == "password" and not secret:
            raise PdpError("password credential must have a non-empty secret")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Credential:
            return NotImplemented
        return (self.kind, self.secret) == (other.kind, other.secret)

    def __hash__(self) -> int:
        return hash((self.kind, self.secret))


def _check_text(name: str, value, expected: str = "a string") -> None:
    """Refuse ``value`` unless it is a ``str`` that encodes as UTF-8: one
    holding a lone surrogate, as a JSON ``\\ud800`` escape gives, could
    not be written to a UTF-8 file, the audit log or a saved store."""
    if not isinstance(value, str):
        raise PdpError(f"{name} must be {expected}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise PdpError(f"{name} must be valid Unicode text") from None


class AuthnRequest:
    def __init__(self, user: str, credential: Optional[Credential],
                 features: Optional[FeatureVector] = None):
        self.user = user
        self.credential = credential
        self.features = FeatureVector() if features is None else features
        _check_text("user", user)


class AuthnResult(NamedTuple):
    authenticated: str  # yes | no
    mean_used: str
    trust: float
    behavior_class: Optional[str]  # None for a non-finite vector
    reason: Optional[str] = None


class AuthzRequest:
    """An access request; its parts are text, since a request fact's key is
    computed from its text."""

    def __init__(self, user: str, service: str, device: Optional[str] = None,
                 context: Optional[Dict[str, str]] = None):
        if context is None:
            context = {}
        self.user = user
        self.service = service
        self.device = device
        self.context = context
        _check_text("user", user)
        _check_text("service", service)
        if device is not None:
            _check_text("device", device, "a string or None")
        if not isinstance(context, dict):
            raise PdpError("context must be a dict")
        for component, value in context.items():
            if component not in _CONTEXT_COMPONENTS:
                raise PdpError(f"unknown context component: {component!r}")
            _check_text(f"context {component}", value)
        time_value = context.get("time")
        if time_value is not None and not _TIME_RE.fullmatch(time_value):
            raise PdpError("context time must be HH.MM from 00.00 to 23.59, "
                           f"got {time_value!r}")


class Decision:
    def __init__(self, effect: str, obligations: Optional[List[str]] = None,
                 recommendations: Optional[List[str]] = None,
                 priority: int = 0, rationale: Optional[List[str]] = None):
        self.effect = effect  # permit | deny
        self.obligations = [] if obligations is None else obligations
        self.recommendations = ([] if recommendations is None
                                else recommendations)
        self.priority = priority
        self.rationale = [] if rationale is None else rationale

    def _astuple(self) -> tuple:
        return (self.effect, self.obligations, self.recommendations,
                self.priority, self.rationale)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Decision:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return "Decision(effect={!r}, obligations={!r}, recommendations={!r}, " \
            "priority={!r}, rationale={!r})".format(*self._astuple())


# ---------------------------------------------------------------------------
# Audit log: `seq|iso-time|kind|subject|outcome|detail`, one entry per line.
# ---------------------------------------------------------------------------

class AuditEntry(NamedTuple):
    seq: int
    time: str
    kind: str        # authn | authz | anomaly
    subject: str
    detail: str
    outcome: str


def _escape(text: str) -> str:
    """Escape request text for one field: no separator, no line break."""
    if "\\" not in text and "|" not in text and "\n" not in text \
            and "\r" not in text:
        return text
    return (text.replace("\\", "\\\\").replace("|", "\\|")
            .replace("\n", "\\n").replace("\r", "\\r"))


_UNESCAPED = {"n": "\n", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED.get(m[1], m[1]), text)


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
    when several logs append to one path in turn.  An entry's time is the
    UTC clock to the second, formatted once per second it changes to.
    """

    def __init__(self, path=None, *, truncate: bool = False):
        self._path = path
        self._file = None
        self._seq = 0
        self._second, self._time = None, ""  # last second seen, its text
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
        second = int(time.time())
        if second != self._second:
            self._second, self._time = second, time.strftime(
                "%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(second))
        entry = AuditEntry(
            seq=self._seq + 1,
            time=self._time,
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
            except (OSError, UnicodeEncodeError) as err:
                # A lone surrogate fails to encode before a byte is written.
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

def verify_password(secret: str, record: str) -> bool:
    import hashlib
    import hmac
    salt, _, digest = record.partition("$")
    if not digest:
        return False
    # Bytes, so non-ASCII text compares too; a lone surrogate a JSON
    # escape can give encodes as it is.
    probe = hashlib.sha256(
        f"{salt}:{secret}".encode("utf-8", "surrogatepass")).hexdigest()
    return hmac.compare_digest(probe.encode(), digest.encode("utf-8"))


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
        if not record:
            raise PdpError(f"credentials line {lineno}: empty record")
        if user in out:
            raise PdpError(f"credentials line {lineno}: duplicate user {user!r}")
        out[user] = (kind, record)
    return out


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------

def compile_policy(rules: Union[Policy, List[Rule]]) -> Policy:
    """Compile ``rules`` behind the subject guard; ``rules`` itself when
    already compiled.

    Every atom of a rule must take one subject variable first, so the
    fixpoint splits into one part per subject
    (:meth:`FactStore.partition`).  A mean rule has the one head
    ``Authentication(<constant>)``; the mean names no subject, so the body
    atoms of its rule need only take a variable first, and no rule may
    read it.  A refusal is an :class:`InvalidRuleError` naming the rule.
    """
    policy = Policy.of(rules)
    for rule, rule_id in zip(policy.rules, policy.rule_ids):
        if any(atom.predicate.lower() == "authentication"
               for atom in rule.body):
            raise InvalidRuleError(f"rule {rule_id}: reads Authentication, "
                                   "which names no subject")
        heads = [atom.predicate.lower() for atom in rule.head]
        subjects = {atom.terms[0] for atom in rule.body}
        if "authentication" in heads:
            terms = rule.head[0].terms
            if len(heads) != 1 or len(terms) != 1 \
                    or not isinstance(terms[0], Constant):
                raise InvalidRuleError(
                    f"rule {rule_id}: an Authentication head must be the "
                    "rule's only head and name one constant mean")
        else:
            subjects.update(atom.terms[0] for atom in rule.head)
        if (len(subjects) != 1 and "authentication" not in heads) \
                or not all(isinstance(term, Variable) for term in subjects):
            raise InvalidRuleError(f"rule {rule_id}: every atom must "
                                   "take the rule's subject variable first")
    return policy


def _facts_about(store: FactStore, predicate: str,
                 user: Union[str, Constant]) -> tuple:
    """The ``predicate`` facts whose first argument is ``user``, in store
    order, read from the index bucket of that argument."""
    return store.probe(predicate.lower(),
                       ((0, coerce_constant(user).key()),))


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
    import hmac
    if hmac.compare_digest(credential.secret.encode("utf-8", "surrogatepass"),
                           record.encode("utf-8")):
        return True, None
    return False, "tag mismatch"


class DecisionPoint:
    """One decision point: a store, the policy its rules compile to once
    (:func:`compile_policy`), the behavior model, the credentials, a
    :class:`Config` and an audit log (a memory-only :class:`AuditLog`
    when none is given), which :func:`authenticate`,
    :func:`authorize`, :func:`rederive` and :func:`flag_anomaly` read; and
    what those remember about the store, by subject key.

    Both memos key a subject by its version less request history and
    ``Authenticated``.  ``derived`` holds the ``(version, mean)`` of the
    subject's last rederive, the version read after it.  ``decisions``
    holds one slot per subject, ``(version, entries)``: the version its
    entries were decided under, and by the set of the subject's
    ``Authenticated`` fact keys and readable request-fact keys, the
    ``(group versions, decision)`` of each request decided since.
    ``lock`` is held by serve around each request that reads the store."""

    def __init__(self, store: FactStore, rules: Union[Policy, List[Rule]],
                 model: BehaviorModel,
                 credentials: Dict[str, Tuple[str, str]],
                 config: Optional[Config] = None,
                 audit_log: Optional[AuditLog] = None):
        self.store = store
        self.policy = compile_policy(rules)
        self.model = model
        self.credentials = credentials
        self.config = Config() if config is None else config
        self.audit_log = AuditLog() if audit_log is None else audit_log
        self.derived: dict = {}
        self.decisions: dict = {}
        self.hits = self.misses = self.skips = 0
        self.lock = threading.Lock()

    def counts(self) -> Dict[str, int]:
        """How many decisions :func:`authorize` reused from the memo and
        computed, and how many fixpoints :func:`rederive` skipped."""
        return {"authorize_memo_hits": self.hits,
                "authorize_memo_misses": self.misses,
                "rederive_skips": self.skips}


def _keep_only(store: FactStore, predicate: str, user: Constant,
               value: Optional[Constant]) -> None:
    """Make the asserted ``predicate(user, value)`` the one ``predicate``
    fact about ``user``, or with ``value`` None leave none.  A store that
    holds just that is not touched, so no change stamp moves."""
    held = _facts_about(store, predicate, user)
    if value is not None:
        key = fact_key(predicate, (user, value))
        if len(held) == 1 and held[0].key() == key \
                and held[0].origin == ASSERTED:
            return
    for fact in held:
        store.drop(fact.key())
    if value is not None:
        store.assert_fact(Fact._trusted(predicate, (user, value), key))


def rederive(point: DecisionPoint, user: Union[str, Constant]) -> Optional[str]:
    """Replace the facts inferred about ``user`` in the point's store with
    what the fixpoint derives from the user's asserted facts less request
    history and ``Authenticated`` (never read): the whole-store fixpoint
    restricted to the user, run over the user's partition less its
    inferred facts.  Returns the mean of the first ``Authentication`` fact
    derived, or None; that fact and derived facts of the unread predicates
    stay out of the store.  The facts asserted carry their premises from
    that fixpoint.

    When the user's version less those predicates
    (:meth:`FactStore.version`) is the one read after the point's last
    rederive of the user, nothing it read has changed: the store holds
    what it derived, and the mean it found is returned with no fixpoint."""
    store = point.store
    subject = coerce_constant(user)
    record = point.derived.get(subject.key())
    if record is not None \
            and record[0] == store.version(subject, _UNDERIVED_PREDICATES):
        point.skips += 1
        return record[1]
    own = store.partition(subject, _UNDERIVED_PREDICATES)
    for key in [fact.key() for fact in own if fact.origin == INFERRED]:
        own.drop(key)
        store.drop(key)
    mean = None
    for fact in infer_fixpoint(own, point.policy).derived:
        predicate = fact.key()[0]
        if predicate == "authentication":
            if mean is None:
                mean = fact.args[0].text()
        elif fact.args[0] == subject \
                and predicate not in _UNDERIVED_PREDICATES:
            store.assert_fact(fact)
    point.derived[subject.key()] = (
        store.version(subject, _UNDERIVED_PREDICATES), mean)
    return mean


def authenticate(req: AuthnRequest, point: DecisionPoint) -> AuthnResult:
    """Authenticate a user from behavior plus credential.

    The user's earlier ``HasRecognizedBehavior`` facts give way to the
    class recognized now, and the facts inferred about the user are
    derived again (:func:`rederive`, which skips the fixpoint when nothing
    it reads changed); the mean is the one that fixpoint derives, or the
    config's ``default_auth_mean``.  Yes requires both gates: a verified
    credential under that mean and trust at or above the config's
    ``trust_threshold``.  The outcome is asserted as
    ``Authenticated(user, yes|no)``, in place of the earlier ones.  A
    class or an outcome the store already holds, asserted and alone, is
    left as it is.  A vector at a non-finite distance has no class and
    fails the trust gate.
    """
    try:
        behavior_class, d = classify(point.model, req.features)
        trust = trust_at(point.model, d)
    except NonFiniteError:  # no class and no trust
        behavior_class, trust = None, math.nan

    store, config = point.store, point.config
    subject = coerce_constant(req.user)
    _keep_only(store, "HasRecognizedBehavior", subject,
               None if behavior_class is None
               else coerce_constant(behavior_class))
    mean = rederive(point, subject)
    if mean is None:
        mean = config.default_auth_mean

    verified, reason = _verify_credential(mean, req.credential,
                                          point.credentials.get(req.user))
    threshold = config.trust_threshold
    if verified and not trust >= threshold:  # NaN fails closed
        verified = False
        reason = f"trust {trust:.3f} below threshold {threshold}"
    answer = "yes" if verified else "no"
    _keep_only(store, "Authenticated", subject, _YES if verified else _NO)

    detail = f"mean={mean} class={behavior_class} trust={trust:.3f}"
    if reason:
        detail += f" reason={reason}"
    point.audit_log.append("authn", req.user, answer, detail)
    return AuthnResult(authenticated=answer, mean_used=mean, trust=trust,
                       behavior_class=behavior_class, reason=reason)


# ---------------------------------------------------------------------------
# Authorization
# ---------------------------------------------------------------------------

def groups_of(store: FactStore,
              user: Union[str, Constant]) -> List[Constant]:
    return [fact.args[1]
            for fact in _facts_about(store, "BehaviorCapability", user)
            if len(fact.args) == 2]


def _request_keys(req: AuthzRequest, user_key: tuple) -> List[tuple]:
    """``(predicate, value, key)`` of each fact ``req`` asserts about the
    user of ``user_key``, in request order: the service, the device, then
    each context component under its own predicate and again as
    ``HasContext``.  Each key is computed from the value's text, which
    :class:`AuthzRequest` has checked is a ``str``; no fact is built."""
    parts = [("service", req.service)]
    if req.device:
        parts.append(("device", req.device))
    for component, value in req.context.items():
        parts += ((component, value), ("context", value))
    keys = []
    for part, value in parts:
        predicate, lowered = _REQUEST_FACT_PREDICATES[part]
        keys.append((predicate, value, (lowered, (user_key, text_key(value)))))
    return keys


def _request_fact(subject: Constant, entry: tuple, constants: dict) -> Fact:
    """The request fact of ``entry``, one of :func:`_request_keys`: a
    fixed predicate over two constants, so nothing is checked.
    ``constants`` keeps the constant each value is coerced to, so the facts
    built with one dict share a value's constant, and each fact's key
    shares the constant's key, as a fact built from its constant does."""
    predicate, value, (lowered, (user_key, _)) = entry
    constant = constants.get(value)
    if constant is None:
        constant = constants[value] = coerce_constant(value)
    return Fact._trusted(predicate, (subject, constant),
                         (lowered, (user_key, constant.key())))


def _priority_for(store: FactStore, user: Union[str, Constant],
                  table: Dict[str, int]) -> int:
    """The highest priority ``table`` gives one of the user's two-place
    ``HasCapability`` values, lower-cased; 0 when it gives none."""
    return max([table.get(fact.args[1].text().lower(), 0)
                for fact in _facts_about(store, "HasCapability", user)
                if len(fact.args) == 2], default=0)


_DECISION_PREDICATES = ("hasaccess", "obligation", "recommendation")


def _collect(store: FactStore, subjects: set, policy: Policy) -> tuple:
    """``(effect, obligations, recommendations, rationale)`` from the
    decision facts naming one of ``subjects``, the keys of the user and
    their groups: each subject's ``hasAccess``, ``Obligation`` and
    ``Recommendation`` buckets of ``store``.  Any deny wins over any permit
    (:func:`effect_of`), and with neither the request is denied under
    ``default-deny``.  Actions and rule labels are read in policy order:
    asserted facts first, then inferred ones by the index of their rule in
    ``policy`` (a rule it does not hold last), ties broken by fact key, so
    the order does not depend on the store's history."""
    found: Dict[str, List[Fact]] = {p: [] for p in _DECISION_PREDICATES}
    for subject in subjects:
        for predicate, facts in found.items():
            facts.extend(store.probe(predicate, ((0, subject),)))
    rank, unranked = policy.rule_index, len(policy.rule_ids)

    def policy_order(fact: Fact):
        if fact.origin == ASSERTED:
            return -1, fact.key()
        return rank.get(fact.rule_id, unranked), fact.key()

    effects = set()
    obligations: List[str] = []
    recommendations: List[str] = []
    rationale: List[str] = []

    def note_rationale(fact: Fact) -> None:
        label = fact.rule_id if fact.rule_id else "asserted"
        if label not in rationale:
            rationale.append(label)

    for fact in sorted(found["hasaccess"], key=policy_order):
        effect = effect_of(fact)
        if effect is not None:
            effects.add(effect)
            note_rationale(fact)
    for predicate, sink in (("obligation", obligations),
                            ("recommendation", recommendations)):
        for fact in sorted(found[predicate], key=policy_order):
            if len(fact.args) == 2:
                action = fact.args[1].text()
                if action not in sink:
                    sink.append(action)
                note_rationale(fact)
    if not effects:
        rationale = ["default-deny"]
    return (PERMIT if effects == {PERMIT} else DENY, tuple(obligations),
            tuple(recommendations), tuple(rationale))


def _decide(point: DecisionPoint, subject: Constant,
            request: List[tuple]) -> tuple:
    """``(effect, obligations, recommendations, rationale)`` for the
    request of ``request``, its :func:`_request_keys`, by ``subject``, from
    the point's memo when nothing the decision read has changed.  The
    request's facts are in the store already, as history (:func:`authorize`
    files them first), so the decision reads them by key and builds none.

    Inference runs over one working store: the subject's partition less
    request history, plus the request facts some body atom can match
    (:meth:`Policy.reads`; no rule reads the others, and none is a decision
    or group fact); then again, when that adds facts, after each of the
    subject's groups is copied in.  Under :func:`compile_policy`'s guard
    that derives what a fixpoint over the whole store, with the subject's
    history replaced by the request, derives; :func:`_collect` combines its
    decision facts.  So the decision is a function of the point's policy,
    the subject's facts less history, the readable request facts and the
    groups' facts, and the memo keys it by those: the subject's slot is
    kept while the subject's version less history and ``Authenticated``
    (:meth:`FactStore.version`, the one :func:`rederive` records) stays,
    and its entry for the set of the subject's ``Authenticated`` fact keys
    and readable request-fact keys holds while each group's version does.
    Filing history moves none of those versions.  A request that some atom
    reads through a variable is not memoized, so a slot holds at most one
    entry per set of the policy's constants and ``Authenticated`` facts."""
    store, policy = point.store, point.policy
    version = store.version(subject, _UNDERIVED_PREDICATES)
    slot = point.decisions.get(subject.key())
    if slot is None or slot[0] != version:
        slot = point.decisions[subject.key()] = (version, {})
    readable, memoized = [], True
    for _, _, key in request:
        read = policy.reads(key)
        if read is not None:
            readable.append(key)
            memoized = memoized and not read
    if memoized:
        entry_key = frozenset(readable + [
            fact.key() for fact in
            store.probe("authenticated", ((0, subject.key()),))])
        entry = slot[1].get(entry_key)
        if entry is not None and all(store.version(group) == stamp
                                     for group, stamp in entry[0]):
            point.hits += 1
            return entry[1]
    point.misses += 1

    work = store.partition(subject, _HISTORY_PREDICATES)
    for key in readable:
        work.assert_fact(store.by_key(key))
    infer_fixpoint(work, policy)
    groups = groups_of(work, subject)
    size = len(work)
    others = [group for group in groups if group != subject]
    for group in others:  # the user's own part is derived already
        store.partition(group, into=work)
    if len(work) > size:  # a group with no facts derives nothing
        infer_fixpoint(work, policy)

    decided = _collect(work, {subject.key()} | {g.key() for g in groups},
                       policy)
    if memoized:
        slot[1][entry_key] = (
            tuple([(group, store.version(group)) for group in others]),
            decided)
    return decided


def authorize(req: AuthzRequest, point: DecisionPoint) -> Decision:
    """Evaluate an access request against the point's policy.

    One path to one exit: the gate, then the history, then the decision,
    then one audit entry.  Only an asserted ``Authenticated(user, yes)``
    passes the gate; a user it stops is denied as ``not-authenticated``,
    and the store is left as it is.  Past it, the live store gains the
    request facts as history, each one it does not hold asserted, and the
    decision is :func:`_decide`'s, which reads them there.  The priority
    comes from the config's ``priority_table`` on every request.
    """
    store = point.store
    subject = coerce_constant(req.user)
    gate = store.by_key(("authenticated", (subject.key(), _YES_KEY)))
    if gate is None or gate.origin != ASSERTED:
        effect, obligations, recommendations = DENY, (), ()
        rationale = ("not-authenticated",)
        detail = "reason=not-authenticated"
    else:
        request = _request_keys(req, subject.key())
        constants = {}  # this request's coerced values
        for entry in request:  # history, asserted when new
            held = store.by_key(entry[2])
            if held is None or held.origin != ASSERTED:
                store.assert_fact(_request_fact(subject, entry, constants))
        effect, obligations, recommendations, rationale = _decide(
            point, subject, request)
        detail = f"rationale={','.join(rationale)}"
    point.audit_log.append("authz", req.user, effect,
                           f"service={req.service} {detail}")
    return Decision(effect=effect, obligations=list(obligations),
                    recommendations=list(recommendations),
                    priority=_priority_for(store, subject,
                                           point.config.priority_table),
                    rationale=list(rationale))


# ---------------------------------------------------------------------------
# Anomaly detection
# ---------------------------------------------------------------------------

def flag_anomaly(point: DecisionPoint, user: str, class_id: str,
                 recent: FeatureVector) -> bool:
    """Run anomaly detection and record the consequences.

    ``recent`` is flagged when its trust in ``class_id`` is below the
    config's ``anomaly_threshold``.  A flagged event appends one
    ``anomaly`` audit entry; for users in the cognitive-impairment group it
    additionally asserts an ``Obligation(user, signal-emergency)`` fact so
    the next authorization carries the emergency obligation.
    """
    trust = trust_score(point.model, class_id, recent)
    if trust >= point.config.anomaly_threshold:
        return False
    point.audit_log.append("anomaly", user, "flagged",
                           f"class={class_id} trust={trust:.3f}")
    if any(g.text() == COGNITIVE_GROUP for g in groups_of(point.store, user)):
        point.store.assert_fact(
            ground("Obligation", user, EMERGENCY_OBLIGATION))
    return True
