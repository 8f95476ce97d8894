"""Forward-chaining inference to fixpoint over positive Horn rules.

Rules are compiled once into a :class:`Policy`: each body atom becomes a
plan of its lower-cased predicate, arity, constant argument keys and
variable names by position, which the join matches candidate facts against
by key.  The first round is naive (Bancilhon and Ramakrishnan, SIGMOD 1986):
each rule is joined once, whole.  Every later round is semi-naive: it only
considers rule-body matches that touch at least one fact derived in the
round before, and joins a rule through a body atom only when that delta
holds a fact of the atom's predicate, so the engine scales with the volume
of new facts rather than re-deriving everything.  The result set is exactly
the least fixpoint a naive iterate-until-stable evaluation would reach; only
the iteration count differs.

The engine also hosts the built-in consistency checks (permit/deny clashes
and contradictory authentication outcomes) and derivation explanations read
from the premises each derived fact carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Union

from .facts import (
    ASSERTED,
    Constant,
    Fact,
    FactError,
    FactStore,
    INFERRED,
    Variable,
    unify_against_fact,  # not called here; perfbench/spans.py wraps it
)
from .rules import Rule, format_rule, validate_rule


class EngineError(ValueError):
    """Base class for inference errors."""


class InvalidRuleError(EngineError):
    """A rule failed validation (unsafe variable, bad arity)."""


class UnsupportedBuiltinError(EngineError):
    """A rule references a reserved built-in predicate."""


class FactNotFoundError(EngineError, KeyError):
    """Asked to explain a fact the store does not contain."""


@dataclass
class InferenceReport:
    """Outcome of one fixpoint run."""

    derived: List[Fact]
    iterations: int
    rule_firings: dict


@dataclass(frozen=True)
class Conflict:
    """Two facts that cannot both hold."""

    kind: str       # permit-deny | authenticated-contradiction
    facts: tuple
    subject: Constant


@dataclass
class Derivation:
    """Proof tree for a fact: inner nodes are rule firings, leaves asserted
    facts or facts read from a file as inferred (``origin``)."""

    fact: Fact
    rule_id: Optional[str] = None
    premises: list = field(default_factory=list)
    origin: str = ASSERTED

    def is_leaf(self) -> bool:
        return not self.premises


class AtomPlan(NamedTuple):
    """A body atom compiled for the join: its lower-cased predicate, its
    arity, and by position the key of each constant argument and the name
    of each variable (None where the other is)."""

    predicate: str
    arity: int
    keys: tuple
    names: tuple


def compile_atom(atom) -> AtomPlan:
    """The plan of ``atom``, anything with ``predicate`` and ``terms``."""
    keys, names = [], []
    for term in atom.terms:
        if isinstance(term, Variable):
            keys.append(None)
            names.append(term.name)
        elif isinstance(term, Constant):
            keys.append(term.key())
            names.append(None)
        else:
            raise FactError(
                f"pattern term is neither Variable nor Constant: {term!r}")
    return AtomPlan(atom.predicate.lower(), len(keys), tuple(keys),
                    tuple(names))


class Policy:
    """A rule list compiled once for repeated evaluation.

    Each rule is validated here, so a fixpoint over a policy pays no
    validation.  The policy keeps each rule's id (``rule<n>`` when it has
    none) and the plan of each body atom (:func:`compile_atom`), whose
    lower-cased predicates let a semi-naive pass skip the pivots no delta
    fact can match.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules = tuple(rules)
        for rule in self.rules:
            for violation in validate_rule(rule):
                if violation.kind == "unsupported-builtin":
                    raise UnsupportedBuiltinError(violation.message)
                raise InvalidRuleError(
                    f"rule {rule.id or format_rule(rule)}: {violation.message}")
        self.rule_ids = tuple(rule.id or f"rule{i + 1}"
                              for i, rule in enumerate(self.rules))
        self.plans = tuple(tuple(compile_atom(atom) for atom in rule.body)
                           for rule in self.rules)
        self.body_predicates = tuple(tuple(atom.predicate for atom in plan)
                                     for plan in self.plans)

    @classmethod
    def of(cls, rules) -> "Policy":
        """``rules`` itself when already compiled, else its compilation."""
        return rules if isinstance(rules, cls) else cls(rules)


def _instantiate(atom, binding: dict, rule_id: str, premises: tuple) -> Fact:
    args = []
    for term in atom.terms:
        if isinstance(term, Variable):
            value = binding.get(term.name)
            if value is None:
                raise InvalidRuleError(
                    f"unbound head variable ?{term.name} in rule {rule_id}")
            args.append(value)
        else:
            args.append(term)
    return Fact(atom.predicate, tuple(args), origin=INFERRED, rule_id=rule_id,
                premises=premises)


def join(store: FactStore, plan: tuple, pivot: int, delta_keys: set,
         start: dict):
    """Bindings extending ``start`` for the atom plans ``plan`` where atom
    ``pivot`` matches a delta fact, each with the facts it matched.

    Atoms before the pivot match pre-delta facts only and atoms after it
    match everything; across all pivots this covers each new combination
    exactly once.  A pivot past the last atom with an empty delta joins the
    whole body over every fact, as a query and a fixpoint's first round
    do.  Each atom reads one :meth:`FactStore.probe` with the argument
    keys its constants and already bound variables give, so a variable
    bound in ``start`` narrows every atom that takes it.  A candidate
    matches when its arity and those keys agree and repeated new variables
    meet equal arguments; the binding is copied only when the atom binds a
    new variable, and never changed in place.
    """
    probe = store.probe
    results = [(start, ())]
    for j, (predicate, arity, keys, names) in enumerate(plan):
        next_results = []
        for binding, premises in results:
            bound, fresh, repeats = [], [], []
            for position, name in enumerate(names):
                if name is None:
                    bound.append((position, keys[position]))
                    continue
                value = binding.get(name)
                if value is not None:
                    bound.append((position, value.key()))
                    continue
                for first, seen in fresh:
                    if seen == name:
                        repeats.append((position, first))
                        break
                else:
                    fresh.append((position, name))
            for fact in probe(predicate, bound):
                key = fact.key()
                if j < pivot and key in delta_keys:
                    continue
                if j == pivot and key not in delta_keys:
                    continue
                arg_keys = key[1]
                if len(arg_keys) != arity:
                    continue
                for position, arg_key in bound:
                    if arg_keys[position] != arg_key:
                        break
                else:
                    for position, first in repeats:
                        if arg_keys[position] != arg_keys[first]:
                            break
                    else:
                        extended = binding
                        if fresh:
                            extended = dict(binding)
                            for position, name in fresh:
                                extended[name] = fact.args[position]
                        next_results.append((extended, premises + (fact,)))
        results = next_results
        if not results:
            break
    return results


def infer_fixpoint(store: FactStore,
                   rules: Union[Policy, Iterable[Rule]]) -> InferenceReport:
    """Materialize the least fixpoint of ``rules`` over ``store`` in place.

    ``rules`` is a :class:`Policy` or a rule list, which is compiled on the
    call.  The engine takes the writer role for the duration of the call.
    Rules must be safe; rules naming reserved built-ins are rejected before
    any firing.  Each derived fact carries the id of the rule that first
    produced it and the facts that rule's body matched, for explanation.

    The first round is naive: each rule whose first body atom has stored
    facts is joined once, whole, with no delta.  Every later round is
    semi-naive over the facts the round before derived.
    """
    policy = Policy.of(rules)
    firings = {rid: 0 for rid in policy.rule_ids}
    derived: List[Fact] = []

    # Round one has no delta: it joins whole each rule whose first atom
    # has facts.
    delta_keys: set = set()
    delta_predicates = store.predicates()
    iterations = 0
    while True:
        iterations += 1
        pending: dict = {}  # key -> fact
        for rule, rule_id, plan, predicates in zip(
                policy.rules, policy.rule_ids, policy.plans,
                policy.body_predicates):
            if not delta_keys:
                pivots = (len(plan),) if predicates[0] in delta_predicates \
                    else ()
            else:  # a pivot no delta fact can match joins nothing
                pivots = [pivot for pivot, predicate in enumerate(predicates)
                          if predicate in delta_predicates]
            for pivot in pivots:
                for binding, premises in join(store, plan, pivot,
                                              delta_keys, {}):
                    for head_atom in rule.head:
                        new_fact = _instantiate(head_atom, binding, rule_id,
                                                premises)
                        key = new_fact.key()
                        if key in pending or new_fact in store:
                            continue
                        pending[key] = new_fact
                        firings[rule_id] += 1
        if not pending:
            break
        for new_fact in pending.values():
            store.assert_fact(new_fact)
            derived.append(store.by_key(new_fact.key()))
        delta_keys = set(pending)
        delta_predicates = {predicate for predicate, _ in delta_keys}
    return InferenceReport(derived=derived, iterations=iterations,
                           rule_firings=firings)


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------

def _effect_of(fact: Fact) -> Optional[str]:
    value = fact.args[-1].text().lower()
    if value in ("permit", "deny"):
        return value
    return None


def check_permit_deny(store: FactStore) -> list:
    """Subjects granted and denied the same thing at once.

    Handles both ``hasAccess(subject, effect)`` and the three-place
    ``hasAccess(subject, service, effect)`` shape; effect values compare
    case-insensitively (the corpus writes both ``permit`` and ``"Deny"``).
    """
    buckets: dict = {}
    for fact in store.facts_for("hasAccess"):
        effect = _effect_of(fact)
        if effect is None or len(fact.args) < 2:
            continue
        scope = tuple(a.key() for a in fact.args[:-1])
        buckets.setdefault(scope, {}).setdefault(effect, fact)
    conflicts = []
    for scope, by_effect in buckets.items():
        if "permit" in by_effect and "deny" in by_effect:
            permit, deny = by_effect["permit"], by_effect["deny"]
            conflicts.append(Conflict("permit-deny", (permit, deny),
                                      permit.args[0]))
    return conflicts


def check_authenticated(store: FactStore) -> list:
    """Users simultaneously authenticated and not."""
    by_subject: dict = {}
    for fact in store.facts_for("Authenticated"):
        if len(fact.args) != 2:
            continue
        answer = fact.args[1].text().lower()
        if answer in ("yes", "no"):
            by_subject.setdefault(fact.args[0].key(), {}).setdefault(answer, fact)
    conflicts = []
    for answers in by_subject.values():
        if "yes" in answers and "no" in answers:
            yes, no = answers["yes"], answers["no"]
            conflicts.append(Conflict("authenticated-contradiction",
                                      (yes, no), yes.args[0]))
    return conflicts


def check_consistency(store: FactStore) -> list:
    """Run the built-in consistency checks over a materialized store."""
    return check_permit_deny(store) + check_authenticated(store)


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def explain(store: FactStore, fact: Fact) -> Derivation:
    """Derivation tree for ``fact``; asserted facts explain as leaves."""
    stored = store.get(fact.predicate, fact.args)
    if stored is None:
        raise FactNotFoundError(f"fact not in store: {fact.render()}")
    return _explain(stored)


def _explain(fact: Fact) -> Derivation:
    """The node for ``fact``: its rule id, and the premises it carries
    explained in turn.  Premises are built before the fact that holds them,
    so the walk has no cycle; a fact read from a file as inferred has no
    premises."""
    if fact.origin != INFERRED:
        return Derivation(fact=fact)
    return Derivation(fact=fact, rule_id=fact.rule_id, origin=INFERRED,
                      premises=[_explain(p) for p in fact.premises])


def render_derivation(derivation: Derivation, indent: int = 0) -> str:
    label = derivation.origin if derivation.rule_id is None \
        else f"rule {derivation.rule_id}"
    lines = [f"{'  ' * indent}{derivation.fact.render()}  [{label}]"]
    for premise in derivation.premises:
        lines.append(render_derivation(premise, indent + 1))
    return "\n".join(lines)
