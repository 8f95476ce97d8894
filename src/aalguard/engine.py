"""Forward-chaining inference to fixpoint over positive Horn rules.

Evaluation is semi-naive: each pass only considers rule-body matches that
touch at least one fact derived in the previous pass, so the engine scales
with the volume of new facts rather than re-deriving everything.  The result
set is exactly the least fixpoint a naive iterate-until-stable evaluation
would reach; only the iteration count differs.  Rules are compiled once
into a :class:`Policy`, and a pass joins a rule through a body atom only
when the delta holds a fact of that atom's predicate.

The engine also hosts the built-in consistency checks (permit/deny clashes
and contradictory authentication outcomes) and derivation explanations built
from the justifications recorded while inferring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Union

from .facts import (
    Constant,
    Fact,
    FactStore,
    INFERRED,
    Variable,
    unify_against_fact,
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

    kind: str       # permit-deny | authenticated-contradiction | custom
    facts: tuple
    subject: Constant


@dataclass
class Derivation:
    """Proof tree for a fact: leaves are asserted, inner nodes rule firings."""

    fact: Fact
    rule_id: Optional[str] = None
    premises: list = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.premises


class Policy:
    """A rule list compiled once for repeated evaluation.

    Each rule is validated here, so a fixpoint over a policy pays no
    validation.  The policy keeps each rule's id (``rule<n>`` when it has
    none) and the lower-cased predicate of each body atom, which lets a
    semi-naive pass skip the pivots that no delta fact can match.
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
        self.body_predicates = tuple(
            tuple(atom.predicate.lower() for atom in rule.body)
            for rule in self.rules)

    @classmethod
    def of(cls, rules) -> "Policy":
        """``rules`` itself when already compiled, else its compilation."""
        return rules if isinstance(rules, cls) else cls(rules)


def _instantiate(atom, binding: dict, rule_id: str) -> Fact:
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
    return Fact(atom.predicate, tuple(args), origin=INFERRED, rule_id=rule_id)


def join(store: FactStore, body, pivot: int, delta_keys: set):
    """Bindings for ``body`` where atom ``pivot`` matches a delta fact.

    Atoms before the pivot match pre-delta facts only and atoms after it
    match everything; across all pivots this covers each new combination
    exactly once.  A pivot past the last atom with an empty delta joins the
    whole body over every fact, as a query does.  Each atom reads only the
    store's index bucket for its most selective bound argument.
    """
    results = [({}, ())]
    for j, atom in enumerate(body):
        next_results = []
        for binding, premises in results:
            for fact in store.candidates(atom.predicate, atom.terms, binding):
                key = fact.key()
                if j < pivot and key in delta_keys:
                    continue
                if j == pivot and key not in delta_keys:
                    continue
                extended = unify_against_fact(atom.predicate, atom.terms,
                                              fact, binding)
                if extended is not None:
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
    any firing.  Derived facts are recorded with the id of the rule that
    first produced them, together with the premise facts, for later
    explanation.
    """
    policy = Policy.of(rules)
    firings = {rid: 0 for rid in policy.rule_ids}
    derived: List[Fact] = []

    delta_keys = {fact.key() for fact in store}
    iterations = 0
    while True:
        iterations += 1
        delta_predicates = {predicate for predicate, _ in delta_keys}
        pending: dict = {}  # key -> (fact, premises)
        for rule, rule_id, predicates in zip(policy.rules, policy.rule_ids,
                                             policy.body_predicates):
            for pivot, predicate in enumerate(predicates):
                if predicate not in delta_predicates:
                    continue  # no delta fact can match the pivot atom
                for binding, premises in join(store, rule.body, pivot,
                                              delta_keys):
                    for head_atom in rule.head:
                        new_fact = _instantiate(head_atom, binding, rule_id)
                        key = new_fact.key()
                        if key in pending or new_fact in store:
                            continue
                        pending[key] = (new_fact, premises)
                        firings[rule_id] += 1
        if not pending:
            break
        delta_keys = set()
        for key, (new_fact, premises) in pending.items():
            store.assert_fact(new_fact)
            stored = store.get(new_fact.predicate, new_fact.args)
            store.record_justification(stored, new_fact.rule_id, premises)
            derived.append(stored)
            delta_keys.add(key)
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


DEFAULT_CHECKS = (check_permit_deny, check_authenticated)


def check_consistency(store: FactStore,
                      checks: Iterable[Callable] = DEFAULT_CHECKS) -> list:
    """Run the consistency checks over a materialized store."""
    conflicts = []
    for check in checks:
        conflicts.extend(check(store))
    return conflicts


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def explain(store: FactStore, fact: Fact) -> Derivation:
    """Derivation tree for ``fact``; asserted facts explain as leaves."""
    stored = store.get(fact.predicate, fact.args)
    if stored is None:
        raise FactNotFoundError(f"fact not in store: {fact.render()}")
    return _explain(store, stored, frozenset())


def _explain(store: FactStore, fact: Fact, seen: frozenset) -> Derivation:
    justification = store.justification(fact)
    if fact.origin != INFERRED or justification is None:
        return Derivation(fact=fact)
    if fact.key() in seen:  # defensive; first-derivation records are acyclic
        return Derivation(fact=fact, rule_id=justification.rule_id)
    seen = seen | {fact.key()}
    premises = [_explain(store, p, seen) for p in justification.premises]
    return Derivation(fact=fact, rule_id=justification.rule_id,
                      premises=premises)


def render_derivation(derivation: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    if derivation.is_leaf() and derivation.rule_id is None:
        head = f"{pad}{derivation.fact.render()}  [asserted]"
    else:
        head = f"{pad}{derivation.fact.render()}  [rule {derivation.rule_id}]"
    lines = [head]
    for premise in derivation.premises:
        lines.append(render_derivation(premise, indent + 1))
    return "\n".join(lines)
