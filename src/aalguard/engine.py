"""Forward-chaining inference to fixpoint over positive Horn rules.

Evaluation is semi-naive: each pass only considers rule-body matches that
touch at least one fact derived in the previous pass, so the engine scales
with the volume of new facts rather than re-deriving everything.  The result
set is exactly the least fixpoint a naive iterate-until-stable evaluation
would reach; only the iteration count differs.  Rules are compiled once
into a :class:`Policy`, and a pass joins a rule through a body atom only
when the delta holds a fact of that atom's predicate.  Given a subject, a
fixpoint over rules guarded by their subject (``pdp.compile_policy``)
derives only that subject's part: its first delta is the subject's facts
and every join starts with the rule's subject variable bound, in the
spirit of magic sets (Bancilhon, Maier, Sagiv and Ullman, PODS 1986).

The engine also hosts the built-in consistency checks (permit/deny clashes
and contradictory authentication outcomes) and derivation explanations read
from the premises each derived fact carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

from .facts import (
    ASSERTED,
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


class Policy:
    """A rule list compiled once for repeated evaluation.

    Each rule is validated here, so a fixpoint over a policy pays no
    validation.  The policy keeps each rule's id (``rule<n>`` when it has
    none), the lower-cased predicate of each body atom, which lets a
    semi-naive pass skip the pivots that no delta fact can match, and the
    names of the variables its body atoms take first, which a fixpoint
    over one subject binds to that subject.
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
        self.subject_variables = tuple(
            frozenset(atom.terms[0].name for atom in rule.body
                      if isinstance(atom.terms[0], Variable))
            for rule in self.rules)

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


def join(store: FactStore, body, pivot: int, delta_keys: set, start: dict):
    """Bindings extending ``start`` for ``body`` where atom ``pivot``
    matches a delta fact.

    Atoms before the pivot match pre-delta facts only and atoms after it
    match everything; across all pivots this covers each new combination
    exactly once.  A pivot past the last atom with an empty delta joins the
    whole body over every fact, as a query does.  Each atom reads only the
    store's index bucket for its most selective bound argument, so a
    variable bound in ``start`` narrows every atom that takes it.
    """
    results = [(start, ())]
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


def infer_fixpoint(store: FactStore, rules: Union[Policy, Iterable[Rule]],
                   subject: Optional[Constant] = None) -> InferenceReport:
    """Materialize the least fixpoint of ``rules`` over ``store`` in place.

    ``rules`` is a :class:`Policy` or a rule list, which is compiled on the
    call.  The engine takes the writer role for the duration of the call.
    Rules must be safe; rules naming reserved built-ins are rejected before
    any firing.  Each derived fact carries the id of the rule that first
    produced it and the facts that rule's body matched, for explanation.

    Without ``subject`` the first delta is every stored fact.  With one, it
    is ``store.facts_about(subject)``, and every join starts with the
    variables the rule's body atoms take first bound to ``subject``: only
    body matches whose atoms all name the subject first fire.  For rules
    guarded by one subject variable (``pdp.compile_policy``) this derives
    exactly the whole fixpoint's facts about the subject, reading only the
    subject's index buckets.
    """
    policy = Policy.of(rules)
    firings = {rid: 0 for rid in policy.rule_ids}
    derived: List[Fact] = []

    if subject is None:
        delta_keys = {fact.key() for fact in store}
        starts = ({},) * len(policy.rules)
    else:
        delta_keys = {fact.key() for fact in store.facts_about(subject)}
        starts = tuple({name: subject for name in names}
                       for names in policy.subject_variables)
    iterations = 0
    while True:
        iterations += 1
        delta_predicates = {predicate for predicate, _ in delta_keys}
        pending: dict = {}  # key -> fact
        for rule, rule_id, predicates, start in zip(
                policy.rules, policy.rule_ids, policy.body_predicates, starts):
            for pivot, predicate in enumerate(predicates):
                if predicate not in delta_predicates:
                    continue  # no delta fact can match the pivot atom
                for binding, premises in join(store, rule.body, pivot,
                                              delta_keys, start):
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
        delta_keys = set()
        for key, new_fact in pending.items():
            store.assert_fact(new_fact)
            derived.append(store.get(new_fact.predicate, new_fact.args))
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
