import random

import pytest

from aalguard import engine
from aalguard.engine import (
    FactNotFoundError,
    InvalidRuleError,
    UnsupportedBuiltinError,
    check_consistency,
    explain,
    infer_fixpoint,
    render_derivation,
)
from aalguard.facts import Constant, Fact, FactStore, ground
from aalguard.rules import Atom, Rule, parse_rule, parse_ruleset
from aalguard.scenarios import load_fixture_rules

from oracles import naive_fixpoint, random_instance, store_keys


BEHAVIORAL_RULE = parse_rule(
    "@id: behavior-class1\n"
    "HasActivity(?u, cooking) ^ HasLocation(?u, kitchen) ^ HasTime(?u, t08) "
    "-> HasRecognizedBehavior(?u, class1)")


def behavioral_store():
    store = FactStore()
    store.assert_fact(ground("HasActivity", "u1", "cooking"))
    store.assert_fact(ground("HasLocation", "u1", "kitchen"))
    store.assert_fact(ground("HasTime", "u1", "t08"))
    return store


def test_behavioral_rule_derives_recognized_class():
    store = behavioral_store()
    report = infer_fixpoint(store, [BEHAVIORAL_RULE])
    assert [f.render() for f in report.derived] == [
        "HasRecognizedBehavior(u1, class1)"]
    derived = report.derived[0]
    assert derived.origin == "inferred"
    assert derived.rule_id == "behavior-class1"
    assert report.rule_firings["behavior-class1"] == 1


def test_empty_ruleset_changes_nothing():
    store = behavioral_store()
    before = store_keys(store)
    report = infer_fixpoint(store, [])
    assert report.derived == []
    assert store_keys(store) == before


def test_iterations_grow_with_dependency_chains():
    store = FactStore()
    store.assert_fact(ground("step0", "a"))
    rules = parse_ruleset(
        "step0(?x) -> step1(?x)\n\n"
        "step1(?x) -> step2(?x)\n\n"
        "step2(?x) -> step3(?x)\n")
    report = infer_fixpoint(store, rules)
    assert len(report.derived) == 3
    # one pass per chain stage plus the final empty pass
    assert report.iterations == 4


def test_unsafe_rule_rejected_before_firing():
    store = behavioral_store()
    rule = parse_rule('UsedDevice(?d, AssistedDevice) -> HasCapability(?u, "yes")')
    before = store_keys(store)
    with pytest.raises(InvalidRuleError):
        infer_fixpoint(store, [rule])
    assert store_keys(store) == before


def test_builtin_rule_rejected_before_firing():
    store = behavioral_store()
    rule = parse_rule("lessThan(?x, ?y) -> HasTime(?x, ?y)")
    before = store_keys(store)
    with pytest.raises(UnsupportedBuiltinError):
        infer_fixpoint(store, [rule])
    assert store_keys(store) == before


# ---------------------------------------------------------------------------
# Oracle equivalence and algebraic properties on random instances
# ---------------------------------------------------------------------------

def _fact_tuples(facts):
    return [(f.predicate, f.args) for f in facts]


def test_fixpoint_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(60):
        facts, rules = random_instance(rng)
        store = FactStore()
        for fact in facts:
            store.assert_fact(fact)
        infer_fixpoint(store, rules)
        assert store_keys(store) == naive_fixpoint(_fact_tuples(facts), rules)


def _twin(term, rng):
    """A term the store must treat as equal: quoted-string twin of a symbol."""
    if isinstance(term, Constant) and term.kind == "symbol" and rng.random() < 0.4:
        return Constant.string(term.value)
    return term


def _recase(predicate, rng):
    return rng.choice([predicate, predicate.upper(), predicate.lower(),
                       predicate.swapcase()])


def test_fixpoint_matches_naive_oracle_under_twins_and_recasing():
    rng = random.Random(105)
    for _ in range(60):
        facts, rules = random_instance(rng)
        store = FactStore(vocabulary=())
        for fact in facts:
            store.assert_fact(Fact(_recase(fact.predicate, rng),
                                   tuple(_twin(a, rng) for a in fact.args)))
        variant = [
            Rule(body=[Atom(_recase(a.predicate, rng),
                            tuple(_twin(t, rng) for t in a.terms))
                       for a in rule.body],
                 head=[Atom(_recase(a.predicate, rng), a.terms)
                       for a in rule.head],
                 id=rule.id)
            for rule in rules]
        infer_fixpoint(store, variant)
        assert store_keys(store) == naive_fixpoint(_fact_tuples(facts), rules)


def _run(facts, rules):
    """Derived facts, iterations, firings and justifications of one run."""
    store = FactStore()
    for fact in facts:
        store.assert_fact(fact)
    report = infer_fixpoint(store, rules)
    derived = [(f.render(), f.rule_id, f.origin) for f in report.derived]
    justifications = [
        (f.render(), store.justification(f).rule_id,
         [p.render() for p in store.justification(f).premises])
        for f in report.derived]
    return (derived, report.iterations, report.rule_firings,
            justifications), store


def test_policy_and_rule_list_paths_agree_with_the_naive_oracle():
    rng = random.Random(108)
    for _ in range(200):
        facts, rules = random_instance(rng)
        compiled, compiled_store = _run(facts, engine.Policy(rules))
        listed, listed_store = _run(facts, list(rules))
        assert compiled == listed
        assert store_keys(compiled_store) == store_keys(listed_store) \
            == naive_fixpoint(_fact_tuples(facts), rules)


def test_policy_keeps_rule_ids_and_lower_cased_body_predicates():
    rules = parse_ruleset("A(?x) ^ hasB(?x) -> C(?x)\n\n"
                          "@id: named\nC(?x) -> D(?x)")
    policy = engine.Policy(rules)
    assert policy.rule_ids == ("rule1", "named")
    assert policy.body_predicates == (("a", "hasb"), ("c",))
    assert engine.Policy.of(policy) is policy


def test_pass_joins_only_the_pivots_the_delta_touches(monkeypatch):
    rules = parse_ruleset("A(?x) -> B(?x)\n\nB(?x) ^ C(?x) -> D(?x)")
    store = FactStore(vocabulary=())
    store.assert_fact(ground("A", "c1"))
    store.assert_fact(ground("C", "c1"))
    joined = []
    join = engine.join

    def recording(store, body, pivot, delta_keys):
        joined.append((body[pivot].predicate, pivot))
        return join(store, body, pivot, delta_keys)
    monkeypatch.setattr(engine, "join", recording)
    report = infer_fixpoint(store, rules)
    assert [f.render() for f in report.derived] == ["B(c1)", "D(c1)"]
    # Pass 1 has A and C facts in its delta, pass 2 only B, pass 3 only D.
    assert joined == [("A", 0), ("C", 1), ("B", 0)]


def test_compiled_policy_is_validated_once(monkeypatch):
    calls = []
    validate = engine.validate_rule

    def counting(rule):
        calls.append(rule)
        return validate(rule)
    monkeypatch.setattr(engine, "validate_rule", counting)
    rules = load_fixture_rules()
    policy = engine.Policy(rules)
    assert len(calls) == len(rules)
    infer_fixpoint(behavioral_store(), policy)
    infer_fixpoint(behavioral_store(), policy)
    assert len(calls) == len(rules)


def test_fixture_fixpoint_reads_few_facts_per_resident(monkeypatch):
    residents = 400
    capabilities = ("hearing", "visual", "cognitive", "physical", "no")
    store = FactStore()
    for i in range(residents):
        user = f"r{i:04d}"
        store.assert_fact(ground("HasCapability", user,
                                 Constant.string(capabilities[i % 5])))
        store.assert_fact(ground("HasRecognizedBehavior", user,
                                 ("class1", "class2")[i % 2]))
    calls = []
    unify = engine.unify_against_fact

    def counted(*args):
        calls.append(1)
        return unify(*args)

    monkeypatch.setattr(engine, "unify_against_fact", counted)
    report = infer_fixpoint(store, load_fixture_rules())
    # Every tenth resident lands in each of the three groups, plus the two
    # shared authentication means.
    assert len(report.derived) == 3 * residents // 10 + 2
    assert len(calls) < 20 * residents


def test_fixture_fixpoint_reads_flat_per_resident_with_requests(monkeypatch):
    # With one OpenDoor request and one device per resident, a decision
    # rule whose atoms do not all name the requester joins every request
    # once per Group3 resident, so the reads per resident grow with U.
    capabilities = ("hearing", "visual", "cognitive", "physical", "no")
    calls = []
    unify = engine.unify_against_fact

    def counted(*args):
        calls.append(1)
        return unify(*args)

    monkeypatch.setattr(engine, "unify_against_fact", counted)
    per_resident = []
    for residents in (100, 400):
        store = FactStore()
        for i in range(residents):
            user = f"r{i:04d}"
            store.assert_fact(ground("HasCapability", user,
                                     Constant.string(capabilities[i % 5])))
            store.assert_fact(ground("HasRecognizedBehavior", user,
                                     ("class1", "class2")[i % 2]))
            store.assert_fact(ground("AskedService", user, "OpenDoor"))
            store.assert_fact(ground("UsedDevice", user, "VisualAid"))
        calls.clear()
        infer_fixpoint(store, load_fixture_rules())
        per_resident.append(len(calls) / residents)
    # About 8 at both sizes; 18 and 48 with the draft's alzheimer-deny.
    assert per_resident[1] <= per_resident[0] * 1.1
    assert per_resident[1] < 20


def test_fixpoint_idempotent():
    rng = random.Random(102)
    for _ in range(40):
        facts, rules = random_instance(rng)
        store = FactStore()
        for fact in facts:
            store.assert_fact(fact)
        infer_fixpoint(store, rules)
        second = infer_fixpoint(store, rules)
        assert second.derived == []


def test_fixpoint_rule_order_independent():
    rng = random.Random(103)
    for _ in range(40):
        facts, rules = random_instance(rng)
        store_a, store_b = FactStore(), FactStore()
        for fact in facts:
            store_a.assert_fact(fact)
            store_b.assert_fact(fact)
        shuffled = list(rules)
        rng.shuffle(shuffled)
        infer_fixpoint(store_a, rules)
        infer_fixpoint(store_b, shuffled)
        assert store_keys(store_a) == store_keys(store_b)


def test_fixpoint_monotone_under_new_facts():
    rng = random.Random(104)
    for _ in range(40):
        facts, rules = random_instance(rng)
        store_small = FactStore()
        for fact in facts:
            store_small.assert_fact(fact)
        infer_fixpoint(store_small, rules)
        extra = ground("holds", f"c{rng.randint(1, 4)}")
        store_big = FactStore()
        for fact in facts:
            store_big.assert_fact(fact)
        store_big.assert_fact(extra)
        infer_fixpoint(store_big, rules)
        assert store_keys(store_small) <= store_keys(store_big) | {extra.key()}


# ---------------------------------------------------------------------------
# Consistency checking
# ---------------------------------------------------------------------------

def test_single_deny_is_consistent():
    store = FactStore()
    store.assert_fact(ground("hasAccess", "Group3", Constant.string("Deny")))
    assert check_consistency(store) == []


def test_permit_deny_conflict_detected():
    store = FactStore()
    store.assert_fact(ground("hasAccess", "u1", "OpenDoor", "permit"))
    store.assert_fact(ground("hasAccess", "u1", "OpenDoor", Constant.string("Deny")))
    conflicts = check_consistency(store)
    assert len(conflicts) == 1
    assert conflicts[0].kind == "permit-deny"
    assert conflicts[0].subject == Constant.symbol("u1")


def test_two_arg_permit_deny_conflict_detected():
    store = FactStore()
    store.assert_fact(ground("hasAccess", "u1", "permit"))
    store.assert_fact(ground("hasAccess", "u1", Constant.string("Deny")))
    assert [c.kind for c in check_consistency(store)] == ["permit-deny"]


def test_authenticated_contradiction_detected():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    store.assert_fact(ground("Authenticated", "u1", "no"))
    conflicts = check_consistency(store)
    assert [c.kind for c in conflicts] == ["authenticated-contradiction"]


def test_empty_store_is_consistent():
    assert check_consistency(FactStore()) == []


def test_custom_checks_are_pluggable():
    def always(store):
        from aalguard.engine import Conflict

        fact = ground("P", "a")
        return [Conflict("custom", (fact, fact), fact.args[0])]

    store = FactStore()
    conflicts = check_consistency(store, checks=[always])
    assert [c.kind for c in conflicts] == ["custom"]


# ---------------------------------------------------------------------------
# Explanations
# ---------------------------------------------------------------------------

def test_explain_derived_fact_shows_rule_and_premises():
    store = behavioral_store()
    infer_fixpoint(store, [BEHAVIORAL_RULE])
    derivation = explain(store, ground("HasRecognizedBehavior", "u1", "class1"))
    assert derivation.rule_id == "behavior-class1"
    assert len(derivation.premises) == 3
    assert all(p.is_leaf() for p in derivation.premises)
    text = render_derivation(derivation)
    assert "[rule behavior-class1]" in text
    assert text.count("[asserted]") == 3


def test_explain_asserted_fact_is_leaf():
    store = behavioral_store()
    derivation = explain(store, ground("HasActivity", "u1", "cooking"))
    assert derivation.is_leaf()
    assert derivation.rule_id is None


def test_explain_missing_fact_raises():
    store = behavioral_store()
    with pytest.raises(FactNotFoundError):
        explain(store, ground("HasActivity", "u2", "cooking"))


def test_explain_keeps_first_derivation():
    store = FactStore()
    store.assert_fact(ground("A", "x"))
    store.assert_fact(ground("B", "x"))
    rules = parse_ruleset("@id: via-a\nA(?v) -> C(?v)\n\n@id: via-b\nB(?v) -> C(?v)\n")
    infer_fixpoint(store, rules)
    derivation = explain(store, ground("C", "x"))
    assert derivation.rule_id == "via-a"
