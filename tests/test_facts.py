import random

import pytest
from hypothesis import given, settings, strategies as st

from aalguard.facts import (
    ArityError,
    Constant,
    Fact,
    FactParseError,
    FactStore,
    Variable,
    ground,
    load_facts,
    save_facts,
    unify_against_fact,
)
from aalguard.rules import Atom

from oracles import reference_get, reference_holds, reference_retract


def sym(text):
    return Constant.symbol(text)


def test_assert_into_empty_store_returns_true():
    store = FactStore()
    assert store.assert_fact(ground("HasCapability", "u1", Constant.string("hearing")))
    assert len(store) == 1


def test_assert_twice_is_idempotent():
    store = FactStore()
    fact = ground("HasCapability", "u1", Constant.string("hearing"))
    assert store.assert_fact(fact)
    assert not store.assert_fact(fact)
    assert len(store) == 1


def test_four_ary_fact_rejected():
    with pytest.raises(ArityError):
        Fact("P", (sym("a"), sym("b"), sym("c"), sym("d")))


def test_zero_ary_fact_rejected():
    with pytest.raises(ArityError):
        Fact("P", ())


def test_asserting_over_inferred_upgrades_origin():
    store = FactStore()
    inferred = ground("Authenticated", "u1", "yes", origin="inferred", rule_id="r1")
    assert store.assert_fact(inferred)
    asserted = ground("Authenticated", "u1", "yes")
    assert not store.assert_fact(asserted)
    stored = store.get("Authenticated", (sym("u1"), sym("yes")))
    assert stored.origin == "asserted"
    assert stored.rule_id is None


def test_retract_existing_returns_true():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("hearing")))
    assert store.retract_fact("HasCapability", (sym("u1"), Constant.string("hearing")))
    assert len(store) == 0


def test_retract_from_empty_store_returns_false():
    store = FactStore()
    assert not store.retract_fact("HasCapability", (sym("u1"), sym("x")))


def test_assert_retract_match_roundtrip():
    store = FactStore()
    fact = ground("HasCapability", "u1", Constant.string("hearing"))
    store.assert_fact(fact)
    store.retract_fact(fact.predicate, fact.args)
    assert store.match(Atom("HasCapability", (Variable("u"), Variable("c")))) == []


def test_assert_then_retract_restores_prior_fact_set():
    store = FactStore()
    store.assert_fact(ground("P", "a"))
    before = {f.key() for f in store}
    extra = ground("Q", "a", "b")
    store.assert_fact(extra)
    store.retract_fact(extra.predicate, extra.args)
    assert {f.key() for f in store} == before


def test_match_constant_filter():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("hearing")))
    store.assert_fact(ground("HasCapability", "u2", Constant.string("visual")))
    got = store.match(Atom("HasCapability", (Variable("u"), Constant.string("visual"))))
    assert got == [{"u": sym("u2")}]


def test_match_ground_pattern_yields_one_empty_binding():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    got = store.match(Atom("Authenticated", (sym("u1"), sym("yes"))))
    assert got == [{}]


def test_match_repeated_variable_binds_consistently():
    store = FactStore()
    store.assert_fact(ground("P", "a", "b"))
    store.assert_fact(ground("P", "c", "c"))
    got = store.match(Atom("P", (Variable("x"), Variable("x"))))
    assert got == [{"x": sym("c")}]


def test_predicate_names_compare_case_insensitively():
    store = FactStore(vocabulary=())
    store.assert_fact(ground("HasRecognizedbehavior", "u1", "class1"))
    assert not store.assert_fact(ground("HasRecognizedBehavior", "u1", "class1"))
    # canonicalized to the first-seen spelling
    assert store.facts()[0].predicate == "HasRecognizedbehavior"


def test_string_and_symbol_constants_compare_equal():
    assert Constant.string("class2") == Constant.symbol("class2")
    store = FactStore()
    store.assert_fact(ground("HasRecognizedBehavior", "u1", Constant.string("class2")))
    got = store.match(Atom("HasRecognizedBehavior",
                           (Variable("u"), Constant.symbol("class2"))))
    assert got == [{"u": sym("u1")}]


def test_number_constants_stay_distinct_from_text():
    assert Constant.number(5) != Constant.string("5")
    assert Constant.number(5) == Constant.number(5.0)


# ---------------------------------------------------------------------------
# Soundness and completeness of match against brute-force substitution
# ---------------------------------------------------------------------------

def _brute_force_match(facts, atom):
    """All substitutions whose application turns atom into a stored fact."""
    results = []
    for fact in facts:
        binding = {}
        if fact.predicate.lower() != atom.predicate.lower():
            continue
        if len(fact.args) != len(atom.terms):
            continue
        ok = True
        for term, arg in zip(atom.terms, fact.args):
            if isinstance(term, Variable):
                if term.name in binding and binding[term.name] != arg:
                    ok = False
                    break
                binding[term.name] = arg
            elif term != arg:
                ok = False
                break
        if ok:
            results.append(binding)
    return results


def test_match_sound_and_complete_on_random_stores():
    rng = random.Random(20240811)
    constants = [sym(f"k{i}") for i in range(5)]
    predicates = ["P", "Q", "R"]
    for _ in range(100):
        store = FactStore()
        for _ in range(rng.randint(0, 40)):
            predicate = rng.choice(predicates)
            args = tuple(rng.choice(constants)
                         for _ in range(rng.randint(1, 3)))
            store.assert_fact(Fact(predicate, args))
        terms = tuple(
            Variable(rng.choice("xyz")) if rng.random() < 0.6 else rng.choice(constants)
            for _ in range(rng.randint(1, 3)))
        atom = Atom(rng.choice(predicates), terms)
        got = store.match(atom)
        expected = _brute_force_match(store.facts(), atom)
        as_sets = lambda rows: {tuple(sorted((k, v.key()) for k, v in r.items()))
                                for r in rows}
        assert as_sets(got) == as_sets(expected)
        # soundness: substituting each binding back yields a stored fact
        for binding in got:
            args = tuple(binding[t.name] if isinstance(t, Variable) else t
                         for t in atom.terms)
            assert Fact(atom.predicate, args) in store


# ---------------------------------------------------------------------------
# Argument index against a scan of the predicate bucket
# ---------------------------------------------------------------------------

def _lookup(facts, predicate, terms, binding):
    rows = []
    for fact in facts:
        extended = unify_against_fact(predicate, terms, fact, binding)
        if extended is not None:
            rows.append((fact.key(), fact.origin, extended))
    return rows


def test_index_agrees_with_scan_across_edits_and_snapshots():
    rng = random.Random(20261018)
    constants = [sym("k0"), sym("k1"), Constant.string("k1"),
                 Constant.string("k 2"), Constant.number(3)]
    predicates = ["P", "p", "Q", "R"]
    variables = [Variable(name) for name in "xyz"]

    def random_fact():
        return Fact(rng.choice(predicates),
                    tuple(rng.choice(constants) for _ in range(rng.randint(1, 3))),
                    origin=rng.choice(["asserted", "inferred"]))

    for _ in range(60):
        stores = [FactStore()]
        models = [{}]  # per store: key -> origin, in insertion order
        for _ in range(rng.randint(1, 40)):
            i = rng.randrange(len(stores))
            store, model = stores[i], models[i]
            op = rng.random()
            if op < 0.6:
                fact = random_fact()
                store.assert_fact(fact)
                if model.get(fact.key()) != "asserted":
                    model[fact.key()] = fact.origin
            elif op < 0.85:
                fact = random_fact()
                store.retract_fact(fact.predicate, fact.args)
                model.pop(fact.key(), None)
            else:
                stores.append(store.snapshot())
                models.append(dict(model))
        for store, model in zip(stores, models):
            assert [(f.key(), f.origin) for f in store] == list(model.items())
            for _ in range(5):
                predicate = rng.choice(predicates)
                terms = tuple(rng.choice(variables) if rng.random() < 0.5
                              else rng.choice(constants)
                              for _ in range(rng.randint(1, 3)))
                binding = {v.name: rng.choice(constants) for v in variables
                           if rng.random() < 0.3}
                assert (_lookup(store.candidates(predicate, terms, binding),
                                predicate, terms, binding)
                        == _lookup(store.facts_for(predicate),
                                   predicate, terms, binding))
                atom = Atom(predicate, terms)
                assert store.match(atom) == [
                    row[2] for row in _lookup(store.facts_for(predicate),
                                              predicate, terms, {})]


# ---------------------------------------------------------------------------
# Lookups by key against lookups by a probe Fact
# ---------------------------------------------------------------------------

KEYED_PREDICATES = ["P", "p", "Q", "k"]
KEYED_CONSTANTS = [sym("k1"), Constant.string("k1"), Constant.string("k 2"),
                   Constant.number(3), sym("yes")]
# Raw probe values: twins of the constants above, and values no fact holds.
PROBE_VALUES = KEYED_CONSTANTS + [
    "k1", "k 2", "yes", True, False, 3, 3.0, "3", -0.5, float("nan"),
    float("inf"), "", "u|1"]
# Invalid names too; the Kelvin sign lower-cases to the stored "k".
PROBE_PREDICATES = KEYED_PREDICATES + ["q", "K", "pP", "1P", "P Q", "\u212a"]


def _spellings(value):
    """Raw values and constants that name the same constant as ``value``."""
    if value.kind == "number":
        return [value, value.value, int(value.value)]
    return [value, value.value, Constant.string(value.value)]


def _outcome(call):
    try:
        result = call()
    except Exception as err:  # compared by type with the reference's
        return ("raises", type(err))
    if isinstance(result, Fact):
        return ("fact", result.key(), result.origin, result.rule_id)
    return ("value", result)


@st.composite
def keyed_probe(draw, stored):
    """``(op, predicate, raw args)``: a stored fact respelled or random."""
    op = draw(st.sampled_from(["get", "holds", "retract"]))
    if stored and draw(st.booleans()):
        fact = draw(st.sampled_from(stored))
        predicate = draw(st.sampled_from(
            [fact.predicate, fact.predicate.lower(), fact.predicate.upper()]))
        args = tuple(draw(st.sampled_from(_spellings(a))) for a in fact.args)
    else:
        predicate = draw(st.sampled_from(PROBE_PREDICATES))
        args = tuple(draw(st.lists(st.sampled_from(PROBE_VALUES),
                                   max_size=4)))
    return op, predicate, args


@settings(max_examples=150, deadline=None)
@given(stored=st.lists(st.builds(
    Fact, st.sampled_from(KEYED_PREDICATES),
    st.lists(st.sampled_from(KEYED_CONSTANTS), min_size=1,
             max_size=3).map(tuple),
    origin=st.sampled_from(["asserted", "inferred"])), max_size=30),
    data=st.data())
def test_key_lookups_match_the_probe_fact_reference(stored, data):
    store = FactStore(vocabulary=())
    for fact in stored:
        store.assert_fact(fact)
    reference = {fact.key(): fact for fact in store}
    for _ in range(data.draw(st.integers(0, 30))):
        op, predicate, args = data.draw(keyed_probe(stored))
        if op == "get":
            got = _outcome(lambda: store.get(predicate, args))
            want = _outcome(lambda: reference_get(reference, predicate, args))
        elif op == "holds":
            got = _outcome(lambda: store.holds(predicate, *args))
            want = _outcome(
                lambda: reference_holds(reference, predicate, *args))
        else:
            got = _outcome(lambda: store.retract_fact(predicate, args))
            want = _outcome(
                lambda: reference_retract(reference, predicate, args))
        assert got == want, (op, predicate, args)
    # The retracts left the table and both indexes in step with a scan.
    assert [(f.key(), f.origin) for f in store] == \
        [(f.key(), f.origin) for f in reference.values()]
    variables = (Variable("x"), Variable("y"), Variable("z"))
    for predicate in KEYED_PREDICATES:
        for arity in (1, 2, 3):
            for position in range(arity):
                for value in KEYED_CONSTANTS:
                    terms = variables[:position] + (value,) \
                        + variables[position + 1:arity]
                    assert (_lookup(store.candidates(predicate, terms, {}),
                                    predicate, terms, {})
                            == _lookup(store.facts_for(predicate),
                                       predicate, terms, {}))
    for value in KEYED_CONSTANTS:
        assert sorted(f.key() for f in store.facts_naming(value)) == sorted(
            f.key() for f in reference.values() if value in f.args)


# ---------------------------------------------------------------------------
# Fact file format
# ---------------------------------------------------------------------------

def test_load_single_line():
    store = load_facts('HasCapability(u1, "hearing").')
    assert len(store) == 1
    assert store.holds("HasCapability", "u1", Constant.string("hearing"))


def test_load_malformed_line_reports_line_number():
    with pytest.raises(FactParseError) as err:
        load_facts('HasCapability(u1, "x").\nHasCapability(u1\n')
    assert err.value.line == 2
    # Names are ASCII: a non-ASCII letter is a syntax error on its line.
    for text in ("P(a).\nP(é).", "P(a).\nPé(a).", "P(a).\nP(a, ?é)."):
        with pytest.raises(FactParseError) as err:
            load_facts(text)
        assert err.value.line == 2


def test_fact_lines_read_like_rule_atoms():
    store = load_facts('has Access (u1, permit).\nHasTime ( u1 , 10.5 ) .\n')
    assert store.holds("hasAccess", "u1", "permit")
    assert store.holds("HasTime", "u1", 10.5)
    for text in ("P(?x).", "P(a) -> Q(a).", "P(a)", "P(a) Q."):
        with pytest.raises(FactParseError) as err:
            load_facts(f"P(b).\n{text}")
        assert err.value.line == 2


def test_duplicate_lines_collapse_silently():
    store = load_facts('P(a).\nP(a).\n')
    assert len(store) == 1


def test_save_load_roundtrip_preserves_fact_set():
    text = (
        "# profile\n"
        'HasCapability(u1, "hearing").\n'
        "Authenticated(u1, yes).\n"
        "HasRecognizedBehavior(u1, class1).  # inferred rule=behavior-class1\n"
        "TrustValue(u1, 0.75).\n"
    )
    store = load_facts(text)
    saved = save_facts(store)
    reloaded = load_facts(saved)
    assert {f.key() for f in reloaded} == {f.key() for f in store}
    # origins and rule ids survive the trip
    inferred = reloaded.get("HasRecognizedBehavior", (sym("u1"), sym("class1")))
    assert inferred.origin == "inferred"
    assert inferred.rule_id == "behavior-class1"
    # canonical text is a fixpoint of save/load
    assert save_facts(load_facts(saved)) == saved


_ROUND_TRIP_PREDICATES = ["HasCapability", "hascapability", "HASCAPABILITY",
                          "Trust_Value", "trust_value", "p.q/r-s"]
_ROUND_TRIP_CONSTANTS = st.one_of(
    st.sampled_from(["u1", "class2", "a/b", "tag-mean", "x.y", "_k"]).map(sym),
    st.text(alphabet='ab \\"#,.()', max_size=8).map(Constant.string),
    st.integers(-10 ** 6, 10 ** 6).map(Constant.number),
    st.floats(allow_nan=False, allow_infinity=False).map(Constant.number),
    st.sampled_from([-2.5e-7, 3e21, -1e16, 6.02e23]).map(Constant.number))


@st.composite
def _round_trip_facts(draw):
    inferred = draw(st.booleans())
    return Fact(draw(st.sampled_from(_ROUND_TRIP_PREDICATES)),
                tuple(draw(st.lists(_ROUND_TRIP_CONSTANTS, min_size=1,
                                    max_size=3))),
                origin="inferred" if inferred else "asserted",
                rule_id=draw(st.sampled_from([None, "r1", "deaf-permit",
                                              "a.b/c"])) if inferred else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_round_trip_facts(), max_size=12))
def test_save_load_round_trip_keeps_keys_origins_and_rule_ids(stored):
    store = FactStore()
    for fact in stored:
        store.assert_fact(fact)
    saved = save_facts(store)
    reloaded = load_facts(saved)
    assert [f.key() for f in reloaded] == [f.key() for f in store]
    assert ([(f.origin, f.rule_id) for f in reloaded]
            == [(f.origin, f.rule_id) for f in store])
    assert save_facts(reloaded) == saved


def test_save_marks_inferred_facts():
    store = FactStore()
    store.assert_fact(ground("hasAccess", "u1", "permit",
                             origin="inferred", rule_id="blind-permit"))
    assert "# inferred rule=blind-permit" in save_facts(store)


def test_comment_and_blank_lines_ignored():
    store = load_facts("\n# nothing here\n   \nP(a).  # trailing\n")
    assert len(store) == 1


def test_string_escapes_roundtrip():
    store = FactStore()
    store.assert_fact(ground("Says", "u1", Constant.string('quote " and \\ slash')))
    reloaded = load_facts(save_facts(store))
    assert {f.key() for f in reloaded} == {f.key() for f in store}


def test_scenario_fixture_files_canonicalize_stably():
    from pathlib import Path

    import aalguard

    fixtures = Path(aalguard.__file__).parent / "fixtures" / "scenarios"
    for facts_file in sorted(fixtures.glob("*/facts.kb")):
        original = load_facts(facts_file.read_text(encoding="utf-8"))
        canonical = save_facts(original)
        reloaded = load_facts(canonical)
        assert {f.key() for f in reloaded} == {f.key() for f in original}
        assert save_facts(reloaded) == canonical


def test_unify_against_fact_rejects_wrong_arity():
    fact = ground("P", "a", "b")
    assert unify_against_fact("P", (Variable("x"),), fact, {}) is None


def test_functional_aliases_mirror_methods():
    store = FactStore()
    fact = ground("HasCapability", "u1", Constant.string("hearing"))
    assert store.assert_fact(fact)
    assert store.match(Atom("HasCapability", (Variable("u"), Variable("c")))) \
        == [{"u": sym("u1"), "c": Constant.string("hearing")}]
    assert store.retract_fact(fact.predicate, fact.args)
    assert len(store) == 0


def test_snapshot_is_independent():
    store = FactStore()
    store.assert_fact(ground("P", "a"))
    snap = store.snapshot()
    snap.assert_fact(ground("P", "b"))
    assert len(store) == 1
    assert len(snap) == 2
