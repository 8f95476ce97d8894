"""Independent reference implementations used to check the real ones.

Everything here is deliberately naive and self-contained: its own
unification, its own distance computation, its own mean.  None of it calls
into the code paths under test, so agreement is meaningful.  The
exceptions say so: ``match`` reads a store through its candidate lookup,
``select_auth_mean`` runs the engine's fixpoint over profile facts alone,
``whole_snapshot_decision`` runs it over a whole snapshot, and the text
writers at the end render numbers, atoms and credential records as the
program reads them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random
import re

from aalguard.behavior import (IDLE_ACTIVITY, EventFormatError, NonFiniteError,
                               OrderingError)
from aalguard.config import DEFAULT_AUTH_MEAN
from aalguard.engine import Policy, infer_fixpoint
from aalguard.facts import (ASSERTED, MAX_ARITY, ArityError, Constant, Fact,
                            FactError, FactStore, Variable, coerce_constant,
                            format_number, ground, unify_against_fact)
from aalguard.rules import Atom, Rule


def naive_unify(atom: Atom, fact_tuple, binding: dict):
    """Unify an atom against a (predicate, args) tuple, own implementation."""
    predicate, args = fact_tuple
    if atom.predicate.lower() != predicate.lower():
        return None
    if len(atom.terms) != len(args):
        return None
    out = dict(binding)
    for term, value in zip(atom.terms, args):
        if isinstance(term, Variable):
            if term.name in out:
                if out[term.name] != value:
                    return None
            else:
                out[term.name] = value
        else:
            if term.key() != value.key():
                return None
    return out


def naive_fixpoint(fact_tuples, rules):
    """Apply every rule against the full set until nothing changes.

    Facts are (predicate_lower, args) tuples; returns the closed set of
    fact keys ((predicate_lower, arg keys)).
    """
    known = {(_pred(p), tuple(a.key() for a in args)): (p, args)
             for p, args in fact_tuples}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for binding in _all_bindings(rule.body, list(known.values())):
                for head in rule.head:
                    args = tuple(binding[t.name] if isinstance(t, Variable) else t
                                 for t in head.terms)
                    key = (_pred(head.predicate),
                           tuple(a.key() for a in args))
                    if key not in known:
                        known[key] = (head.predicate, args)
                        changed = True
    return set(known.keys())


def _pred(name: str) -> str:
    return name.lower()


def _all_bindings(body, facts):
    bindings = [{}]
    for atom in body:
        extended = []
        for binding in bindings:
            for predicate, args in facts:
                result = naive_unify(atom, (predicate, args), binding)
                if result is not None:
                    extended.append(result)
        bindings = extended
        if not bindings:
            return []
    return bindings


def store_keys(store) -> set:
    return {fact.key() for fact in store}


# (kind, lower-cased predicate, the two clashing values, whether an arity
# can clash) of each consistency check, in the order they are reported.
_CLASHES = (
    ("permit-deny", "hasaccess", ("permit", "deny"), lambda n: n >= 2),
    ("authenticated-contradiction", "authenticated", ("yes", "no"),
     lambda n: n == 2),
)


def naive_conflicts(store) -> list:
    """``(kind, facts, subject)`` of each consistency conflict in
    ``store``, by a scan of every fact it holds.  ``hasAccess`` facts of two
    or more arguments clash on ``permit`` and ``deny`` in their last
    argument, scoped by the arguments before it; two-place
    ``Authenticated`` facts clash on ``yes`` and ``no``, scoped by their
    subject; values compare case-insensitively.  A scope with both values
    gives one conflict: the first fact with each value, in that order, and
    the first one's subject.  Scopes come in the order a fact with either
    value first names them.  The reference for
    ``engine.check_consistency``."""
    out = []
    for kind, predicate, values, clashes in _CLASHES:
        seen = []  # (scope, value, fact) in store order
        for fact in store.facts():
            if fact.predicate.lower() != predicate \
                    or not clashes(len(fact.args)):
                continue
            value = fact.args[len(fact.args) - 1].text().lower()
            if value in values:
                seen.append((tuple(a.key() for a in fact.args[:-1]), value,
                             fact))
        scopes = []
        for scope, _, _ in seen:
            if scope not in scopes:
                scopes.append(scope)
        for scope in scopes:
            firsts = [next((fact for where, value, fact in seen
                            if where == scope and value == wanted), None)
                      for wanted in values]
            if None not in firsts:
                out.append((kind, tuple(firsts), firsts[0].args[0]))
    return out


# ---------------------------------------------------------------------------
# Fact lookups by a probe Fact
# ---------------------------------------------------------------------------

_PREDICATE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_/.\-]*")


def _probe_key(predicate, args):
    """The key of a probe fact built from raw values; raises what it does.

    The predicate name is checked here too, against its grammar, so the
    reference does not rest only on the check it is compared with.
    """
    probe = Fact(predicate, tuple(coerce_constant(a) for a in args))
    if not _PREDICATE_NAME.fullmatch(predicate):
        raise FactError(f"invalid predicate name: {predicate!r}")
    return probe.key()


def reference_get(facts, predicate, args):
    """``FactStore.get`` over ``facts``, a dict from key to stored fact."""
    return facts.get(_probe_key(predicate, args))


def reference_holds(facts, predicate, *values):
    return reference_get(facts, predicate, values) is not None


def reference_retract(facts, predicate, args):
    """``FactStore.retract_fact`` on ``facts``: a probe of the wrong arity
    is absent, any other invalid probe raises."""
    try:
        key = _probe_key(predicate, args)
    except ArityError:
        return False
    return facts.pop(key, None) is not None


# ---------------------------------------------------------------------------
# Single-atom matches and authentication means
# ---------------------------------------------------------------------------

def match(store, pattern) -> list:
    """All bindings that turn ``pattern`` into a stored fact.

    ``pattern`` is anything with ``predicate`` and ``terms`` attributes
    where each term is a :class:`Constant` or :class:`Variable` (rule atoms
    qualify).  A variable-free pattern that is present yields one empty
    binding.  Reads ``store.probe`` with the pattern's constants, so the
    tests that use it check that lookup.
    """
    terms = tuple(pattern.terms)
    if not 1 <= len(terms) <= MAX_ARITY:
        raise ArityError(f"pattern arity {len(terms)} outside 1..{MAX_ARITY}")
    bound = tuple((position, term.key()) for position, term in enumerate(terms)
                  if isinstance(term, Constant))
    results = []
    for fact in store.probe(pattern.predicate.lower(), bound):
        binding = unify_against_fact(pattern.predicate, terms, fact, {})
        if binding is not None:
            results.append(binding)
    return results


def scan_join(store, atoms) -> list:
    """Bindings of ``atoms`` joined left to right, each atom matched by
    :func:`unify_against_fact` against a scan of ``store.facts_for``; the
    reference for the engine's indexed join, with no index read."""
    bindings = [{}]
    for atom in atoms:
        bindings = [extended for binding in bindings
                    for fact in store.facts_for(atom.predicate)
                    for extended in [unify_against_fact(
                        atom.predicate, atom.terms, fact, binding)]
                    if extended is not None]
    return bindings


def select_auth_mean(capabilities, behavior_class, rules,
                     default_mean: str = DEFAULT_AUTH_MEAN) -> str:
    """Authentication mean the rules prescribe for capabilities and a class.

    ``capabilities`` is one capability or a list of them; a ``None`` class
    stands for a vector that has none.  The rules run to fixpoint over these
    profile facts alone: when several means derive, the first derived
    wins, and when none does, the configured default applies.  This is the
    reference for the mean ``pdp.authenticate`` takes from the fixpoint
    over the user's own facts in the store.
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


# ---------------------------------------------------------------------------
# Random instance generation for the engine checks
# ---------------------------------------------------------------------------

PREDICATE_POOL = ["linksTo", "holds", "near", "sees", "marks"]


def random_instance(rng: random.Random, *, max_facts=30, max_rules=6,
                    max_constants=8):
    constants = [Constant.symbol(f"c{i}") for i in range(1, rng.randint(2, max_constants) + 1)]
    predicates = rng.sample(PREDICATE_POOL, rng.randint(2, len(PREDICATE_POOL)))

    facts = []
    seen = set()
    for _ in range(rng.randint(1, max_facts)):
        predicate = rng.choice(predicates)
        arity = rng.randint(1, 2)
        args = tuple(rng.choice(constants) for _ in range(arity))
        key = (predicate.lower(), tuple(a.key() for a in args))
        if key in seen:
            continue
        seen.add(key)
        facts.append(Fact(predicate, args))

    variables = [Variable(name) for name in ("x", "y", "z")]
    rules = []
    for index in range(rng.randint(1, max_rules)):
        body = []
        for _ in range(rng.randint(1, 3)):
            predicate = rng.choice(predicates)
            arity = rng.randint(1, 2)
            terms = tuple(
                rng.choice(variables) if rng.random() < 0.7 else rng.choice(constants)
                for _ in range(arity))
            body.append(Atom(predicate, terms))
        body_vars = set()
        for atom in body:
            body_vars |= atom.variables()
        head_terms = []
        for _ in range(rng.randint(1, 2)):
            if body_vars and rng.random() < 0.8:
                head_terms.append(Variable(rng.choice(sorted(body_vars))))
            else:
                head_terms.append(rng.choice(constants))
        head = [Atom(rng.choice(predicates), tuple(head_terms))]
        rules.append(Rule(body=body, head=head, id=f"g{index + 1}"))
    return facts, rules


# Request-history predicates: rule bodies may read them, no rule derives them.
HISTORY_POOL = ["AskedService", "HasTime", "HasContext"]


def random_guarded_instance(rng: random.Random, *, max_facts=20, max_rules=6,
                            min_subjects=1):
    """Candidate base facts and rules guarded by their subject.

    Every atom of every rule takes the rule's subject ``?s`` as its first
    argument, and every base fact names one of the subjects ``s1`` to
    ``s3`` (at least ``min_subjects`` of them) first; some base facts are
    request history.  Each predicate keeps one arity, so rules often fire.
    Returns ``(facts, rules)``.
    """
    subjects = [Constant.symbol(f"s{i}")
                for i in range(1, rng.randint(min_subjects, 3) + 1)]
    values = [Constant.symbol(f"v{i}") for i in range(1, 3)] + subjects[:1]
    predicates = rng.sample(PREDICATE_POOL, rng.randint(2, len(PREDICATE_POOL)))
    arity = {name: rng.randint(1, 2) for name in predicates + HISTORY_POOL}

    def any_predicate():
        return rng.choice(HISTORY_POOL if rng.random() < 0.2 else predicates)

    def random_atom(predicate, variables):
        rest = tuple(rng.choice(variables)
                     if variables and rng.random() < 0.7 else rng.choice(values)
                     for _ in range(arity[predicate] - 1))
        return Atom(predicate, (Variable("s"),) + rest)

    rules = []
    for index in range(rng.randint(1, max_rules)):
        body = [random_atom(any_predicate(), [Variable("x"), Variable("y")])
                for _ in range(rng.randint(1, 2))]
        bound = sorted(set().union(*(atom.variables() for atom in body)))
        head = [random_atom(rng.choice(predicates),
                            [Variable(name) for name in bound])
                for _ in range(rng.randint(1, 2))]
        rules.append(Rule(body=body, head=head, id=f"g{index + 1}"))
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        predicate = any_predicate()
        facts.append(Fact(predicate, (rng.choice(subjects),) + tuple(
            rng.choice(values) for _ in range(arity[predicate] - 1))))
    return facts, rules


def assert_built_alike(built, checked) -> None:
    """``built``, a fact or constant built without checks, equals
    ``checked``, the same parts built through the checking constructor, in
    every part a reader sees: key, hash, equality, rendering and fields."""
    assert type(built) is type(checked)
    assert built.key() == checked.key()
    assert hash(built) == hash(checked)
    assert built == checked
    assert built.render() == checked.render()
    assert repr(built) == repr(checked)
    assert vars(built) == vars(checked)
    if isinstance(checked, Fact):
        assert (built.origin, built.rule_id, built.premises) \
            == (checked.origin, checked.rule_id, checked.premises)
        for arg, checked_arg in zip(built.args, checked.args):
            assert vars(arg) == vars(checked_arg)


def facts_about(store, subject, without=()) -> tuple:
    """The facts of ``store`` whose first argument is ``subject``, read
    from its position-0 index: one bucket per predicate, in the order the
    store first held each predicate, each in insertion order.  The buckets
    of the lower-cased predicates in ``without`` are skipped whole.  The
    reference for ``FactStore.partition``."""
    key = subject.key()
    return tuple(fact for predicate in store.predicates()
                 if predicate not in without for fact in
                 store.probe(predicate, ((0, key),)))


# Each context component's own predicate; a component is asserted again as
# HasContext.
CONTEXT_PREDICATES = {"time": "HasTime", "location": "HasLocation",
                      "activity": "HasActivity",
                      "environment": "HasEnvironment"}
REQUEST_PREDICATES = {"askedservice", "useddevice", "hascontext"} \
    | {name.lower() for name in CONTEXT_PREDICATES.values()}


def request_facts(req) -> list:
    """The facts the authorization request ``req`` asserts about its user,
    in request order, each built checked by ``ground``: the service, the
    device when there is one, then each context component under its own
    predicate and again as ``HasContext``."""
    facts = [ground("AskedService", req.user, req.service)]
    if req.device:
        facts.append(ground("UsedDevice", req.user, req.device))
    for component, value in req.context.items():
        facts.append(ground(CONTEXT_PREDICATES[component], req.user, value))
        facts.append(ground("HasContext", req.user, value))
    return facts


def whole_snapshot_decision(req, store, rules):
    """``(effect, obligations, recommendations, rationale)`` for ``req`` as
    ``pdp.authorize`` decided it while it inferred over the whole snapshot:
    the request context replaces the user's in a snapshot of ``store``, the
    fixpoint runs with every fact as its first delta, and the decision
    facts about the user and the user's ``BehaviorCapability`` groups are
    combined, each predicate's facts in the order of ``rules``: asserted
    first, then by the first index of their rule id (an unknown id last),
    ties by key.  Any deny wins, nothing at all is a ``default-deny``.
    Skips the authentication gate and leaves ``store`` unchanged."""
    working = store.snapshot()
    user = coerce_constant(req.user)
    for fact in facts_about(working, user):
        if fact.key()[0] in REQUEST_PREDICATES:
            working.retract_fact(fact.predicate, fact.args)
    for fact in request_facts(req):
        working.assert_fact(fact)
    infer_fixpoint(working, rules)
    subjects = {user.key(): user}
    for fact in facts_about(working, user):
        if fact.predicate.lower() == "behaviorcapability" \
                and len(fact.args) == 2:
            subjects.setdefault(fact.args[1].key(), fact.args[1])
    rule_ids = list(Policy.of(rules).rule_ids)

    def rank(fact):
        if fact.origin == ASSERTED:
            return -1, fact.key()
        if fact.rule_id in rule_ids:
            return rule_ids.index(fact.rule_id), fact.key()
        return len(rule_ids), fact.key()

    effects, rationale = set(), []
    actions = {"obligation": [], "recommendation": []}
    for predicate in ("hasaccess", "obligation", "recommendation"):
        decisive = sorted((fact for subject in subjects.values()
                           for fact in facts_about(working, subject)
                           if fact.predicate.lower() == predicate), key=rank)
        for fact in decisive:
            value = fact.args[-1].text()
            if predicate == "hasaccess":
                if len(fact.args) < 2 \
                        or value.lower() not in ("permit", "deny"):
                    continue
                effects.add(value.lower())
            elif len(fact.args) != 2:
                continue
            elif value not in actions[predicate]:
                actions[predicate].append(value)
            label = fact.rule_id or "asserted"
            if label not in rationale:
                rationale.append(label)
    if not effects:
        rationale = ["default-deny"]
    effect = "deny" if "deny" in effects or not effects else "permit"
    return (effect, actions["obligation"], actions["recommendation"],
            rationale)


# ---------------------------------------------------------------------------
# Classifier oracles
# ---------------------------------------------------------------------------

def brute_force_nearest(model, fv):
    """Distance scan over all classes, own distance implementation."""
    best_id = None
    best_d = None
    for cls in model.classes:
        keys = set(fv.entries) | set(cls.centroid.entries)
        d = math.sqrt(sum(
            (fv.entries.get(k, 0.0) - cls.centroid.entries.get(k, 0.0)) ** 2
            for k in keys))
        if best_d is None or d < best_d:
            best_id, best_d = cls.id, d
    return best_id, best_d


def reference_distance(a, b):
    """Euclidean distance over the sorted union of keys, summed by a
    generator over two key sets; raises ``NonFiniteError`` as
    ``behavior.distance`` promises."""
    keys = sorted(set(a.entries) | set(b.entries))
    try:
        d = math.sqrt(sum(
            (a.entries.get(k, 0.0) - b.entries.get(k, 0.0)) ** 2 for k in keys))
    except OverflowError:
        d = math.inf
    if not math.isfinite(d):
        raise NonFiniteError(f"distance is not finite ({d})")
    return d


def reference_classify(model, fv):
    """Nearest class by ``reference_distance``; ties go to the earlier."""
    scored = [(reference_distance(fv, cls.centroid), index, cls.id)
              for index, cls in enumerate(model.classes)]
    d, _, class_id = min(scored)
    return class_id, d


def reference_trust(model, class_id, fv):
    centroid = next(c.centroid for c in model.classes if c.id == class_id)
    return 1.0 / (1.0 + reference_distance(fv, centroid) / model.distance_floor)


def batch_mean(vectors):
    """Per-key arithmetic mean over vectors sharing a key set."""
    keys = set()
    for fv in vectors:
        keys |= set(fv.entries)
    return {k: sum(fv.entries[k] for fv in vectors) / len(vectors) for k in keys}


# ---------------------------------------------------------------------------
# Event stream oracles
# ---------------------------------------------------------------------------

def scan_user_stream(events, user):
    """One user's events by a scan of the whole log, checked for order."""
    stream = [e for e in events if e.user == user]
    previous = None
    for event in stream:
        if previous is not None and event.timestamp < previous.timestamp:
            raise OrderingError(
                f"{user}: timestamp {event.timestamp} after {previous.timestamp}")
        previous = event
    return stream


def scan_users(events):
    """Users in the order they first appear in the log."""
    users = []
    for event in events:
        if event.user not in users:
            users.append(event.user)
    return users


def reference_load_events(text):
    """The row-list event CSV loader: field tuples in file order and streams.

    Reads every row into a list of stripped cells, skips rows whose cells
    are all blank, and raises ``EventFormatError`` with the message and line
    the real loader promises: the last physical line of the row, which a
    quoted cell may span.  Text the CSV reader refuses, such as a bare
    carriage return in an unquoted cell, raises it with the reader's line,
    after every row read before it.  Returns ``(rows, streams)``: the
    ``(user, timestamp, location, activity)`` tuples, and a dict from each
    user, in first-seen order, to that user's tuples.
    """
    reader = csv.reader(io.StringIO(text))
    rows, refused = [], None  # (last physical line, cells) per row
    try:
        for row in reader:
            rows.append((reader.line_num, row))
    except csv.Error as err:
        refused = EventFormatError(str(err), reader.line_num)
    if not rows:
        raise refused or EventFormatError("missing header", 1)
    header = [cell.strip() for cell in rows[0][1]]
    expected = ["timestamp", "user", "location", "activity"]
    if header != expected:
        raise EventFormatError(
            f"expected header {','.join(expected)}, got {','.join(header)}", 1)
    out, streams = [], {}
    for lineno, row in rows[1:]:
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) != 4:
            raise EventFormatError(f"expected 4 fields, got {len(cells)}", lineno)
        raw_ts, user, location, activity = cells
        try:
            timestamp = int(raw_ts)
        except ValueError:
            raise EventFormatError(f"bad timestamp {raw_ts!r}", lineno) from None
        stream = streams.setdefault(user, [])
        if stream and timestamp < stream[-1][1]:
            raise EventFormatError(
                f"events for {user} not sorted (timestamp {timestamp})", lineno)
        row_tuple = (user, timestamp, location, activity)
        stream.append(row_tuple)
        out.append(row_tuple)
    if refused is not None:
        raise refused
    return out, streams


def reference_durations(stream):
    """Moving and holding durations of one user's stream, in one pass.

    ``stream`` holds ``(user, timestamp, location, activity)`` tuples in
    order.  A room change adds ``timestamp - last`` under ``(from, to)``; each
    maximal run of one non-idle activity adds its length, a single-event run
    zero, under the activity.  Lists keep stream order; keys keep the order
    they first get a duration.
    """
    moves, holds = {}, {}
    if not stream:
        return moves, holds
    _, start, room, current = stream[0]
    last = start
    for _, timestamp, location, activity in stream:
        if location != room:
            moves.setdefault((room, location), []).append(float(timestamp - last))
            room = location
        if activity != current:
            if current != IDLE_ACTIVITY:
                holds.setdefault(current, []).append(float(last - start))
            current = activity
            start = timestamp
        last = timestamp
    if current != IDLE_ACTIVITY:
        holds.setdefault(current, []).append(float(last - start))
    return moves, holds


def reference_means(moves, holds):
    """Feature entries of reference durations, as a key list.

    Each mean adds its durations left to right in a plain loop, not with
    ``sum``, whose float summation is compensated from Python 3.12 on.
    """
    keyed = [(f"move:{src}->{dst}", durations)
             for (src, dst), durations in moves.items()]
    keyed += [(f"hold:{activity}", durations)
              for activity, durations in holds.items()]
    entries = []
    for key, durations in keyed:
        total = 0.0
        for duration in durations:
            total += duration
        entries.append((key, total / len(durations)))
    return entries


# ---------------------------------------------------------------------------
# Text writers: model checkpoints, queries and credential records
# ---------------------------------------------------------------------------

def save_model(model) -> str:
    """A model checkpoint in the text ``behavior.load_model`` reads."""
    lines = []
    for cls in model.classes:
        lines.append(f"class {cls.id} n={cls.n}")
        for key in sorted(cls.centroid.entries):
            lines.append(f"  {key} = {format_number(cls.centroid.entries[key])}")
    return "\n".join(lines) + ("\n" if lines else "")


def format_query(q) -> str:
    """A query in the text ``query.parse_query`` reads."""
    head = " ".join(f"?{name}" for name in q.select)
    body = " ^ ".join(atom.render() for atom in q.where)
    text = f"SELECT {head} WHERE {{ {body} }}"
    if q.limit is not None:
        text += f" LIMIT {q.limit}"
    return text


def hash_password(secret: str, salt=None) -> str:
    """A ``salt$sha256`` password record as ``pdp.verify_password`` reads
    it; a random salt when none is given."""
    salt = salt if salt is not None else os.urandom(8).hex()
    digest = hashlib.sha256(f"{salt}:{secret}".encode("utf-8")).hexdigest()
    return f"{salt}${digest}"
