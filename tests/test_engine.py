import random

import pytest
from hypothesis import given, settings, strategies as st

from aalguard import engine, pdp
from aalguard.engine import (
    FactNotFoundError,
    InvalidRuleError,
    UnsupportedBuiltinError,
    check_consistency,
    explain,
    infer_fixpoint,
    render_derivation,
)
from aalguard.facts import (Constant, Fact, FactError, FactStore, Variable,
                            coerce_constant, ground, load_facts,
                            unify_against_fact)
from aalguard.rules import Atom, Rule, parse_rule, parse_ruleset
from aalguard.scenarios import (SCENARIO_NAMES, fixture_text,
                                load_fixture_rules, run_scenario)

from conftest import DATA_DIR
from oracles import (facts_about, naive_conflicts, naive_fixpoint,
                     naive_unify, random_guarded_instance, random_instance,
                     store_keys)


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
    # One round per chain stage plus the final empty round: a stage chain
    # of 3 rules, and a recursive reach over a chain of 6 edges, whose
    # round k derives the paths of k edges.
    edges = [ground("Edge", f"n{i}", f"n{i + 1}") for i in range(6)]
    cases = [
        ([ground("step0", "a")],
         "step0(?x) -> step1(?x)\n\n"
         "step1(?x) -> step2(?x)\n\n"
         "step2(?x) -> step3(?x)\n", 3, 4),
        (edges,
         "Edge(?x, ?y) -> Reach(?x, ?y)\n\n"
         "Reach(?x, ?y) ^ Edge(?y, ?z) -> Reach(?x, ?z)\n", 21, 7),
    ]
    for facts, text, derived, iterations in cases:
        store = FactStore()
        for fact in facts:
            store.assert_fact(fact)
        rules = parse_ruleset(text)
        report = infer_fixpoint(store, rules)
        assert len(report.derived) == derived
        assert report.iterations == iterations
        assert store_keys(store) == naive_fixpoint(_fact_tuples(facts), rules)


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


X, Y, Z = Variable("x"), Variable("y"), Variable("z")
U1 = Constant.symbol("u1")


@pytest.mark.parametrize("rule, error, message", [
    (parse_rule("P(?x) -> Q(?x, ?y)"), InvalidRuleError,
     "rule P(?x) -> Q(?x, ?y): head variable ?y does not occur in the body"),
    (Rule([Atom("P", (X,)), Atom("Flag", ())], [Atom("Q", (X,))], id="r"),
     InvalidRuleError, "rule r: Flag: atom has no arguments"),
    (Rule([Atom("P", (X, Y, Z, U1))], [Atom("Q", (X,))], id="r"),
     InvalidRuleError, "rule r: P: arity 4 exceeds 3"),
    (parse_rule("@id: r\nP(?x, ?y) ^ greaterThan(?x, ?y) -> Q(?x)"),
     UnsupportedBuiltinError, "unsupported built-in: greaterThan"),
    (Rule([], [Atom("Q", (U1,))], id="r"),
     InvalidRuleError, "rule r: rule has an empty body"),
    (Rule([Atom("P", (X,))], [], id="r"),
     InvalidRuleError, "rule r: rule has an empty head"),
    # The first problem wins: an unsafe head variable before a built-in,
    # an atom's arity before its reserved name, atoms in order.
    (parse_rule("lessThan(?x, ?y) -> Q(?z)"), InvalidRuleError,
     "rule lessThan(?x, ?y) -> Q(?z): head variable ?z does not occur in "
     "the body"),
    (Rule([Atom("equal", (X, Y, Z, U1))], [Atom("Q", (X,))], id="r"),
     InvalidRuleError, "rule r: equal: arity 4 exceeds 3"),
    (Rule([Atom("equal", (X, Y)), Atom("P", ())], [Atom("Q", (X,))]),
     UnsupportedBuiltinError, "unsupported built-in: equal"),
    (Rule([Atom("P", (X,))], [Atom("Q", (X,)), Atom("R", ())]),
     InvalidRuleError, "rule P(?x) -> Q(?x) ^ R(): R: atom has no arguments"),
], ids=["unsafe", "no-arguments", "over-arity", "builtin", "empty-body",
        "empty-head", "unsafe-before-builtin", "arity-before-builtin",
        "atoms-in-order", "head-atom"])
def test_each_rule_refusal_has_its_class_and_text(rule, error, message):
    with pytest.raises(error) as raised:
        engine.Policy([parse_rule("P(?x) -> Q(?x)"), rule])
    assert type(raised.value) is error and str(raised.value) == message


def test_a_rule_id_two_rules_share_is_refused():
    # Two files' unlabeled rules are each rule1: their derived facts would
    # carry one label, and rule_index would order them as one rule.
    rules = (parse_ruleset("Seen0(?u, ?v) -> Seen(?u, ?v)\n")
             + parse_ruleset("Seen0(?u, ?v) -> Noted(?u, ?v)\n"))
    with pytest.raises(InvalidRuleError,
                       match="^rule rule1: the id of two rules$"):
        infer_fixpoint(behavioral_store(), rules)
    named = parse_ruleset("@id: a\nP(?x) -> Q(?x)\n\n@id: b\nP(?x) -> R(?x)\n")
    with pytest.raises(InvalidRuleError, match="^rule b: the id of two rules$"):
        engine.Policy(named + named[1:])
    # A bad rule is reported before a repeated id.
    with pytest.raises(InvalidRuleError, match="head variable"):
        engine.Policy(named + named[1:] + [parse_rule("P(?x) -> Q(?y)")])
    assert engine.Policy(named).rule_index == {"a": 0, "b": 1}


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
        store = FactStore()
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
    """Derived facts, iterations, firings and premises of one run."""
    store = FactStore()
    for fact in facts:
        store.assert_fact(fact)
    report = infer_fixpoint(store, rules)
    derived = [(f.render(), f.rule_id, f.origin) for f in report.derived]
    premises = [[p.render() for p in f.premises] for f in report.derived]
    return (derived, report.iterations, report.rule_firings, premises), store


def test_policy_and_rule_list_paths_agree_with_the_naive_oracle():
    rng = random.Random(108)
    for _ in range(200):
        facts, rules = random_instance(rng)
        compiled, compiled_store = _run(facts, engine.Policy(rules))
        listed, listed_store = _run(facts, list(rules))
        assert compiled == listed
        assert store_keys(compiled_store) == store_keys(listed_store) \
            == naive_fixpoint(_fact_tuples(facts), rules)


def test_policy_keeps_rule_ids_and_is_its_own_compilation():
    rules = parse_ruleset("A(?x) ^ hasB(?x) -> C(?x)\n\n"
                          "@id: named\nC(?x) -> D(?x)")
    policy = engine.Policy(rules)
    assert policy.rule_ids == ("rule1", "named")
    assert engine.Policy.of(policy) is policy


def test_a_policy_refuses_a_head_a_fact_would_reject():
    # Heads are built unchecked, so a rule built in code whose head Fact
    # would refuse is refused when the policy is compiled.
    body = [Atom("A", (Variable("x"),))]
    with pytest.raises(FactError):
        Fact("has Access", (Constant.symbol("u1"),))
    with pytest.raises(InvalidRuleError, match="bad-name"):
        engine.Policy([Rule(body=body, head=[Atom("has Access",
                                                  (Variable("x"),))],
                            id="bad-name")])
    with pytest.raises(FactError):
        engine.Policy([Rule(body=body, head=[Atom("B", (Variable("x"), "u1"))])])


def test_compiled_policy_is_validated_once(monkeypatch):
    calls = []
    check = engine.check_rule

    def counting(rule):
        calls.append(rule)
        return check(rule)
    monkeypatch.setattr(engine, "check_rule", counting)
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
    probe = FactStore.probe

    def counted(self, *args):
        result = probe(self, *args)
        calls.extend(result)
        return result

    monkeypatch.setattr(FactStore, "probe", counted)
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
    probe = FactStore.probe

    def counted(self, *args):
        result = probe(self, *args)
        calls.extend(result)
        return result

    monkeypatch.setattr(FactStore, "probe", counted)
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
    # About 11 facts probed per resident at both sizes; 20.5 and 50.5 with
    # the draft's alzheimer-deny.
    assert per_resident[1] <= per_resident[0] * 1.1
    assert per_resident[1] < 20


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_subject_fixpoint_derives_the_whole_fixpoints_facts_about_it(seed):
    # A subject's fixpoint is the fixpoint of its partition, a store of its
    # own facts alone, as pdp builds it.
    rng = random.Random(seed)
    facts, rules = random_guarded_instance(rng, min_subjects=2)
    subject = rng.choice(facts).args[0]
    whole = FactStore()
    for fact in facts:
        whole.assert_fact(fact)
    part = whole.partition(subject)
    infer_fixpoint(whole, rules)
    report = infer_fixpoint(part, rules)

    def about(store):
        return {f.key(): (f.rule_id, [p.key() for p in f.premises])
                for f in facts_about(store, subject)}
    assert about(part) == about(whole)
    # Nothing is derived about another subject, and the subject's facts
    # come in the order the whole fixpoint derives them.
    assert all(f.args[0] == subject for f in report.derived)
    assert [f.key() for f in report.derived] == [
        f.key() for f in whole if f.origin == "inferred"
        and f.args[0] == subject and f not in facts]


MATCH_CONSTANTS = [Constant.symbol("k0"), Constant.symbol("k1"),
                   Constant.string("k1"), Constant.string("k 2"),
                   Constant.number(3)]
MATCH_VARIABLES = [Variable(name) for name in "xyz"]


@settings(max_examples=300, deadline=None)
@given(predicates=st.tuples(*[st.sampled_from(["Q", "q", "R"])] * 2),
       terms=st.lists(st.sampled_from(MATCH_CONSTANTS + MATCH_VARIABLES * 2),
                      min_size=1, max_size=3),
       args=st.lists(st.sampled_from(MATCH_CONSTANTS), min_size=1,
                     max_size=3),
       binding=st.dictionaries(st.sampled_from("xyzw"),
                               st.sampled_from(MATCH_CONSTANTS), max_size=3))
def test_a_compiled_atom_binds_as_unify_against_fact(predicates, terms, args,
                                                      binding):
    # Quoted and bare twins, re-cased predicates, repeated variables and
    # wrong arities; a one-fact store makes each join one match.  The
    # partial binding comes from a preceding atom, Bind(?x, ...), that
    # matches one fact and binds exactly it.
    atom_predicate, fact_predicate = predicates
    atom = Atom(atom_predicate, tuple(terms))
    fact = Fact(fact_predicate, tuple(args))
    store = FactStore()
    store.assert_fact(fact)
    stored = store.by_key(fact.key())
    prefix, before = [], ()
    if binding:
        names = sorted(binding)
        bind_fact = Fact("Bind", tuple(binding[n] for n in names))
        store.assert_fact(bind_fact)
        before = (store.by_key(bind_fact.key()),)
        prefix = [Atom("Bind", tuple(Variable(n) for n in names))]
        assert engine.join(store, engine.compile_body(prefix)) \
            == [(binding, before)]
    got = engine.join(store, engine.compile_body(prefix + [atom]))
    want = unify_against_fact(atom.predicate, atom.terms, fact, binding)
    if want is None:
        assert got == []
        return
    assert got == [(want, before + (stored,))]
    assert {n: c.render() for n, c in got[0][0].items()} == {
        n: c.render() for n, c in want.items()}


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


_CLASH_PREDICATES = ["hasAccess", "HasAccess", "Authenticated",
                     "authenticated", "Other"]
_CLASH_TERMS = [Constant.symbol("u1"), Constant.string("u1"),
                Constant.symbol("u2"), Constant.symbol("Group3"),
                Constant.string("Read")]
_CLASH_VALUES = [Constant.symbol("permit"), Constant.string("Deny"),
                 Constant.symbol("PERMIT"), Constant.symbol("deny"),
                 Constant.symbol("YES"), Constant.string("yes"),
                 Constant.symbol("no"), Constant.string("No"),
                 Constant.symbol("maybe"), Constant.number(1)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_consistency_equals_a_naive_scan(seed):
    """Over random stores of one- to three-place ``hasAccess`` and
    ``Authenticated`` facts about several subjects and scopes, with symbol,
    string and number values in any case, some dropped and asserted again,
    the conflicts are the naive scan's: kinds, fact pairs, subjects and
    their order."""
    rng = random.Random(seed)
    store = FactStore()
    for _ in range(rng.randint(0, 60)):
        head = [rng.choice(_CLASH_TERMS[:rng.randint(1, 5)])
                for _ in range(rng.randint(0, 2))]
        fact = Fact(rng.choice(_CLASH_PREDICATES),
                    tuple(head) + (rng.choice(_CLASH_VALUES),))
        if fact in store and rng.random() < 0.3:
            store.drop(fact.key())
        else:
            store.assert_fact(fact)
    got = [(c.kind, tuple(f.key() for f in c.facts), c.subject.key())
           for c in check_consistency(store)]
    assert got == [(kind, tuple(f.key() for f in facts), subject.key())
                   for kind, facts, subject in naive_conflicts(store)]


# ---------------------------------------------------------------------------
# Explanations
# ---------------------------------------------------------------------------

@given(seed=st.integers(0, 2 ** 32 - 1))
def test_each_derived_fact_carries_premises_its_rule_body_matches(seed):
    facts, rules = random_instance(random.Random(seed))
    store = FactStore()
    for fact in facts:
        store.assert_fact(fact)
    by_id = dict(zip(engine.Policy(rules).rule_ids, rules))
    for fact in infer_fixpoint(store, rules).derived:
        rule = by_id[fact.rule_id]
        assert len(fact.premises) == len(rule.body)
        binding = {}
        for atom, premise in zip(rule.body, fact.premises):
            assert premise in store
            binding = unify_against_fact(atom.predicate, atom.terms, premise,
                                         binding)
            assert binding is not None
        assert any(unify_against_fact(atom.predicate, atom.terms, fact,
                                      binding) == binding
                   for atom in rule.head)


def test_explain_derived_fact_shows_rule_and_premises():
    store = behavioral_store()
    infer_fixpoint(store, [BEHAVIORAL_RULE])
    derivation = explain(store, ground("HasRecognizedBehavior", "u1", "class1"))
    assert derivation.rule_id == "behavior-class1"
    assert len(derivation.premises) == 3
    assert all(not p.premises for p in derivation.premises)
    text = render_derivation(derivation)
    assert "[rule behavior-class1]" in text
    assert text.count("[asserted]") == 3


def test_explain_asserted_fact_is_leaf():
    store = behavioral_store()
    derivation = explain(store, ground("HasActivity", "u1", "cooking"))
    assert not derivation.premises
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


def test_explain_walks_the_premises_a_fact_carries():
    # An inferred premise retracted after inference is still explained by
    # the rule that derived it, not as asserted.
    store = FactStore()
    store.assert_fact(ground("A", "x"))
    infer_fixpoint(store, parse_ruleset(
        "@id: ab\nA(?v) -> B(?v)\n\n@id: bc\nB(?v) -> C(?v)\n"))
    assert store.retract_fact("B", ("x",))
    assert render_derivation(explain(store, ground("C", "x"))) == (
        "C(x)  [rule bc]\n  B(x)  [rule ab]\n    A(x)  [asserted]")


def _explain_all() -> str:
    """``render_derivation(explain(...))`` of every fact of the stores the
    CLI explains: ``behavioral.kb`` under ``behavioral.swl``, each
    scenario's ``facts.kb`` under the fixture rules, and the store each
    scenario run leaves under the fixture rules (its derived facts carry
    the premises of the partitions they were derived in), each
    materialized."""
    stores = [("behavioral.kb under behavioral.swl",
               load_facts((DATA_DIR / "behavioral.kb").read_text("utf-8")),
               parse_ruleset((DATA_DIR / "behavioral.swl").read_text("utf-8")))]
    for name in SCENARIO_NAMES:
        stores.append((f"scenarios/{name}/facts.kb under the fixture rules",
                       load_facts(fixture_text("scenarios", name, "facts.kb")),
                       load_fixture_rules()))
    for name in SCENARIO_NAMES:
        stores.append((f"run_scenario({name!r}).store under the fixture rules",
                       run_scenario(name).store, load_fixture_rules()))
    lines = []
    for label, store, rules in stores:
        infer_fixpoint(store, rules)
        lines.append(f"# {label}")
        lines.extend(render_derivation(explain(store, fact)) for fact in store)
    return "\n".join(lines) + "\n"


def test_explain_renders_every_fact_of_the_cli_stores_as_recorded():
    recorded = (DATA_DIR / "explain_all.txt").read_text(encoding="utf-8")
    assert _explain_all() == recorded


def _key(predicate, *values):
    return (predicate.lower(), tuple(coerce_constant(v).key() for v in values))


def test_reads_tells_which_facts_a_body_atom_can_match():
    policy = engine.Policy(parse_ruleset(
        "@id: a\nAskedService(?u, ReadAlert) ^ HasTime(?u, ?t) -> Q(?u, ?t)\n\n"
        "@id: b\nUsedDevice(?u, VisualAid, ?x) -> Q(?u, ?x)\n\n"
        "@id: c\nP(k, ?u) ^ P(k, ?u, \"k\") -> Q(?u, k)\n"))
    assert policy.reads(_key("AskedService", "u1", "ReadAlert")) is False
    assert policy.reads(_key("AskedService", "u1", "OpenDoor")) is None
    assert policy.reads(_key("AskedService", "u1")) is None  # other arity
    assert policy.reads(_key("HasTime", "u1", "10.00")) is True
    assert policy.reads(_key("UsedDevice", "u1", "VisualAid", "z")) is True
    assert policy.reads(_key("UsedDevice", "u1", "AudioAid", "z")) is None
    assert policy.reads(_key("P", "k", "u1")) is True
    assert policy.reads(_key("P", "j", "u1")) is None
    assert policy.reads(_key("P", "k", "u1", Constant.string("k"))) is True
    assert policy.reads(_key("HasLocation", "u1", "hall")) is None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_reads_answers_none_only_for_facts_no_body_atom_unifies_with(seed):
    rng = random.Random(seed)
    facts, rules = random_instance(rng)
    policy = engine.Policy(rules)
    atoms = [atom for rule in rules for atom in rule.body]
    for fact in facts:
        read = policy.reads(fact.key())
        unifying = [atom for atom in atoms if naive_unify(
            atom, (fact.predicate, fact.args), {}) is not None]
        if unifying:
            assert read is not None
        if read is False:
            assert all(isinstance(term, Constant)
                       for atom in unifying for term in atom.terms[1:])
