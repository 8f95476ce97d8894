"""Forward-chaining inference to fixpoint over positive Horn rules.

Rules are compiled once into a :class:`Policy`.  Each rule body becomes a
join plan, one step per body atom in order: the atom's lower-cased
predicate and arity, its constant argument keys, the positions of the
variables earlier atoms bind, the variables it binds first and its repeated
variables, so a join matches candidate facts by key and analyses no atom
per binding.  Each head atom becomes a plan that gives a derived fact's key
before any fact is built.  The policy checks each rule (:func:`check_rule`),
its id and its head predicates, so the fixpoint builds a derived fact
unchecked, once, and only when no stored or pending fact has its key.

The fixpoint is semi-naive at rule granularity (Bancilhon and
Ramakrishnan, SIGMOD 1986): every round joins, whole, over the store the
rounds before it built, each rule whose body predicates all have facts
and one of which gained a fact in the round before (every predicate is new
to the first round); a round that derives nothing ends it.  A rule whose
body gained nothing would match only what it matched the round before, so
the rounds derive what naive rounds, joining every rule, derive.

The engine also reads what a ``hasAccess`` fact decides (:func:`effect_of`)
and hosts the built-in consistency check (permit/deny clashes and
contradictory authentication outcomes) and derivation explanations: a
derived fact carries its rule id and premises, so it is the root of its own
derivation tree, and :func:`render_derivation` walks it.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Union

from .facts import (
    ASSERTED,
    MAX_ARITY,
    Constant,
    Fact,
    FactError,
    FactStore,
    INFERRED,
    SYMBOL_RE,
    Variable,
    unify_against_fact,  # not called here; perfbench/spans.py wraps it
)
from .rules import Rule, format_rule

# The comparison built-ins of SWRL (Horrocks et al., 2004), reserved: the
# corpus never uses them and the engine has no semantics for them yet.
RESERVED_BUILTINS = frozenset({"lessthan", "lessthanorequal", "greaterthan",
                               "greaterthanorequal", "equal", "notequal"})


class EngineError(ValueError):
    """Base class for inference errors."""


class InvalidRuleError(EngineError):
    """A rule cannot run (unsafe variable, bad arity, repeated id)."""


class UnsupportedBuiltinError(EngineError):
    """A rule references a reserved built-in predicate."""


class FactNotFoundError(EngineError):
    """Asked to explain a fact the store does not contain."""


class InferenceReport(NamedTuple):
    """Outcome of one fixpoint run."""

    derived: List[Fact]
    iterations: int
    rule_firings: dict


class Conflict(NamedTuple):
    """Two facts that cannot both hold."""

    kind: str       # permit-deny | authenticated-contradiction
    facts: tuple
    subject: Constant


class AtomPlan(NamedTuple):
    """A body atom compiled for the join, given the variables the atoms
    before it bind: its lower-cased predicate and arity, the ``(position,
    key)`` of each constant argument, the ``(position, name)`` of each
    variable an earlier atom binds, the ``(position, name)`` where each
    variable it binds first occurs first, and the ``(position, first
    position)`` of each repeat of such a variable."""

    predicate: str
    arity: int
    keys: tuple
    bound: tuple
    fresh: tuple
    repeats: tuple


class HeadPlan(NamedTuple):
    """A head atom compiled for instantiation: its predicate as written
    and lower-cased, and by position a constant and None, or None and the
    name of a variable the body binds."""

    predicate: str
    lowered: str
    terms: tuple


def _term_error(term) -> FactError:
    return FactError(f"pattern term is neither Variable nor Constant: {term!r}")


def compile_body(atoms) -> tuple:
    """The :class:`AtomPlan` of each of ``atoms`` (anything with
    ``predicate`` and ``terms``), joined left to right from no binding."""
    plans, seen = [], set()
    for atom in atoms:
        keys, bound, fresh, repeats = [], [], [], []
        first: dict = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                name = term.name
                if name in seen:
                    bound.append((position, name))
                elif name in first:
                    repeats.append((position, first[name]))
                else:
                    first[name] = position
                    fresh.append((position, name))
            elif isinstance(term, Constant):
                keys.append((position, term.key()))
            else:
                raise _term_error(term)
        seen.update(first)
        plans.append(AtomPlan(atom.predicate.lower(), len(atom.terms),
                              tuple(keys), tuple(bound), tuple(fresh),
                              tuple(repeats)))
    return tuple(plans)


def check_rule(rule: Rule) -> None:
    """Refuse ``rule`` on its first problem, in this order: a head variable
    the body does not bind, then for each body and head atom in turn no
    arguments, more than ``MAX_ARITY`` or a reserved built-in predicate
    (an :class:`UnsupportedBuiltinError`), then an empty body or head.
    Every other refusal is an :class:`InvalidRuleError` naming the rule by
    its id, else by its text."""
    def invalid(message: str) -> InvalidRuleError:
        return InvalidRuleError(f"rule {rule.id or format_rule(rule)}: {message}")
    body_vars = set().union(*[atom.variables() for atom in rule.body])
    for atom in rule.head:
        for name in sorted(atom.variables() - body_vars):
            raise invalid(f"head variable ?{name} does not occur in the body")
    for atom in list(rule.body) + list(rule.head):
        if len(atom.terms) == 0:
            raise invalid(f"{atom.predicate}: atom has no arguments")
        if len(atom.terms) > MAX_ARITY:
            raise invalid(f"{atom.predicate}: arity {len(atom.terms)} "
                          f"exceeds {MAX_ARITY}")
        if atom.predicate.lower() in RESERVED_BUILTINS:
            raise UnsupportedBuiltinError(
                f"unsupported built-in: {atom.predicate}")
    if not rule.body:
        raise invalid("rule has an empty body")
    if not rule.head:
        raise invalid("rule has an empty head")


def _compile_head(atom, rule_id: str) -> HeadPlan:
    if not SYMBOL_RE.fullmatch(atom.predicate):
        raise InvalidRuleError(
            f"rule {rule_id}: invalid head predicate name: {atom.predicate!r}")
    terms = []
    for term in atom.terms:
        if isinstance(term, Variable):
            terms.append((None, term.name))
        elif isinstance(term, Constant):
            terms.append((term, None))
        else:
            raise _term_error(term)
    return HeadPlan(atom.predicate, atom.predicate.lower(), tuple(terms))


class Policy:
    """A rule list compiled once for repeated evaluation.

    Each rule is checked here (:func:`check_rule`), so a fixpoint over a
    policy pays no validation and builds its facts unchecked: every head
    predicate scans as a symbol, every head term is a constant or a
    variable the body binds, and every arity is in range.  The policy keeps
    each rule's id (``rule<n>`` when it has none), which no two rules
    share, and by id its index (``rule_index``); the join plan of each rule
    body (:func:`compile_body`) and the set of its lower-cased predicates
    (``body_predicates``); the plan of each head atom; and, by predicate
    and arity, what the body atoms fix of a fact they read (:meth:`reads`).
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules = tuple(rules)
        for rule in self.rules:
            check_rule(rule)
        self.rule_ids = tuple(rule.id or f"rule{i + 1}"
                              for i, rule in enumerate(self.rules))
        self.rule_index = {rule_id: index
                           for index, rule_id in enumerate(self.rule_ids)}
        for index, rule_id in enumerate(self.rule_ids):
            if self.rule_index[rule_id] != index:
                raise InvalidRuleError(f"rule {rule_id}: the id of two rules")
        self.plans = tuple(compile_body(rule.body) for rule in self.rules)
        self.body_predicates = tuple(
            frozenset(atom.predicate for atom in plan) for plan in self.plans)
        self.heads = tuple(
            tuple(_compile_head(atom, rule_id) for atom in rule.head)
            for rule, rule_id in zip(self.rules, self.rule_ids))
        # (lower-cased predicate, arity) -> (a set holding, for each atom
        # whose first argument alone is a variable, its argument keys past
        # the first; and for every other atom, its constant keys and
        # whether a variable past its first argument reads the fact)
        self._readers: dict = {}
        for plan in self.plans:
            for atom in plan:
                fixed, others = self._readers.setdefault(
                    (atom.predicate, atom.arity), (set(), []))
                positions = [position for position, _ in atom.keys]
                if positions == list(range(1, atom.arity)):
                    fixed.add(tuple(key for _, key in atom.keys))
                else:
                    others.append((atom.keys, any(
                        position not in positions
                        for position in range(1, atom.arity))))

    def reads(self, key: tuple) -> Optional[bool]:
        """Whether a body atom can match the fact of ``key``, a
        :meth:`Fact.key`: one of the same predicate and arity whose
        constant argument keys the fact's agree with.  None when no atom
        can, so no join ever reads the fact; else True when such an atom
        reads it through a variable past its first argument, and False
        when each fixes every argument past the first."""
        predicate, arg_keys = key
        readers = self._readers.get((predicate, len(arg_keys)))
        if readers is None:
            return None
        fixed, others = readers
        read = False if arg_keys[1:] in fixed else None
        for keys, varied in others:
            for position, arg_key in keys:
                if arg_keys[position] != arg_key:
                    break
            else:
                if varied:
                    return True
                read = False
        return read

    @classmethod
    def of(cls, rules) -> "Policy":
        """``rules`` itself when already compiled, else its compilation."""
        return rules if isinstance(rules, cls) else cls(rules)


def join(store: FactStore, plan: tuple):
    """Bindings of the atom plans ``plan`` (:func:`compile_body`) over every
    fact of ``store``, each with the facts it matched.

    Each atom reads one :meth:`FactStore.probe` with the argument keys its
    constants and the variables earlier atoms bound give.  A candidate
    matches when its arity and those keys agree and repeated new variables
    meet equal arguments; the binding is copied only when the atom binds a
    new variable, and never changed in place.
    """
    probe = store.probe
    results = [({}, ())]
    for predicate, arity, keys, bound, fresh, repeats in plan:
        next_results = []
        for binding, premises in results:
            known = keys + tuple([(position, binding[name].key())
                                  for position, name in bound]) \
                if bound else keys
            for fact in probe(predicate, known):
                arg_keys = fact.key()[1]
                if len(arg_keys) != arity:
                    continue
                for position, arg_key in known:
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

    Every round joins, in rule order, each rule whose body predicates all
    have stored facts and one of which gained a fact in the round before,
    whole; the first round counts every stored predicate as gained.  The
    facts a round derives are stored when it ends, and a round that derives
    nothing ends the fixpoint.  A head is instantiated as its key first,
    and a fact is built, unchecked, only when no stored or pending fact has
    that key.
    """
    policy = Policy.of(rules)
    firings = {rid: 0 for rid in policy.rule_ids}
    derived: List[Fact] = []
    by_key = store.by_key
    held = store.predicates()
    gained = set(held)
    iterations = 0
    while True:
        iterations += 1
        pending: dict = {}  # key -> fact
        for index, body in enumerate(policy.body_predicates):
            if gained.isdisjoint(body) or not held >= body:
                continue
            rule_id = policy.rule_ids[index]
            for binding, premises in join(store, policy.plans[index]):
                for predicate, lowered, terms in policy.heads[index]:
                    args = tuple([binding[name] if name else constant
                                  for constant, name in terms])
                    key = (lowered, tuple([arg.key() for arg in args]))
                    if key in pending or by_key(key) is not None:
                        continue
                    pending[key] = Fact._trusted(predicate, args, key,
                                                 INFERRED, rule_id, premises)
                    firings[rule_id] += 1
        if not pending:
            break
        gained = {key[0] for key in pending}
        for key, new_fact in pending.items():
            store.assert_fact(new_fact)
            derived.append(by_key(key))
    return InferenceReport(derived=derived, iterations=iterations,
                           rule_firings=firings)


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------

PERMIT = "permit"
DENY = "deny"


def effect_of(fact: Fact) -> Optional[str]:
    """What the ``hasAccess`` fact ``fact`` decides: ``permit`` or
    ``deny`` when it has two or more arguments and its last one reads so in
    any case (the corpus writes both ``permit`` and ``"Deny"``), else None.
    The one reader of an access effect, for decisions and clashes alike."""
    if len(fact.args) < 2:
        return None
    value = fact.args[-1].text().lower()
    return value if value in (PERMIT, DENY) else None


def check_consistency(store: FactStore) -> list:
    """The facts of a materialized store that cannot both hold, by one
    clash scan run twice: ``hasAccess`` permit and deny (:func:`effect_of`)
    scoped by every argument but the last, then two-place
    ``Authenticated`` yes and no scoped by the subject.  Each scope holding
    both values gives one :class:`Conflict`: the first fact with each, in
    that order, about the first one's subject; scopes come in the order a
    fact with either value first names them."""
    conflicts = []
    for kind, predicate, (pro, con), value_of in (
            ("permit-deny", "hasAccess", (PERMIT, DENY), effect_of),
            ("authenticated-contradiction", "Authenticated", ("yes", "no"),
             lambda fact: fact.args[1].text().lower()
             if len(fact.args) == 2 else None)):
        scopes: dict = {}
        for fact in store.facts_for(predicate):
            value = value_of(fact)
            if value == pro or value == con:
                scope = tuple([arg.key() for arg in fact.args[:-1]])
                scopes.setdefault(scope, {}).setdefault(value, fact)
        conflicts += [Conflict(kind, (first[pro], first[con]),
                               first[pro].args[0])
                      for first in scopes.values() if len(first) == 2]
    return conflicts


# ---------------------------------------------------------------------------
# Explanation
# ---------------------------------------------------------------------------

def explain(store: FactStore, fact: Fact) -> Fact:
    """The stored fact equal to ``fact``, the root of its derivation tree:
    an inferred fact carries its rule id and premises."""
    stored = store.get(fact.predicate, fact.args)
    if stored is None:
        raise FactNotFoundError(f"fact not in store: {fact.render()}")
    return stored


def render_derivation(fact: Fact, indent: int = 0) -> str:
    """The derivation tree of ``fact``, each premise indented under the
    fact derived from it.  An asserted fact is a leaf; an inferred one is
    labelled by its rule (``inferred`` if none) and followed by its
    premises, built before it, so the walk has no cycle."""
    if fact.origin != INFERRED:
        return f"{'  ' * indent}{fact.render()}  [{ASSERTED}]"
    label = INFERRED if fact.rule_id is None else f"rule {fact.rule_id}"
    lines = [f"{'  ' * indent}{fact.render()}  [{label}]"]
    for premise in fact.premises:
        lines.append(render_derivation(premise, indent + 1))
    return "\n".join(lines)
