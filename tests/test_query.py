import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from aalguard.behavior import BehaviorClass, BehaviorModel, FeatureVector
from aalguard.facts import Constant, FactStore, Variable, ground
from aalguard import pdp
from aalguard.pdp import hash_password
from aalguard.query import (
    ConjunctiveQuery,
    QueryError,
    eval_query,
    format_query,
    parse_query,
)
from aalguard.rules import Atom, RuleSyntaxError
from aalguard.scenarios import load_fixture_rules, run_scenario

from oracles import _all_bindings, random_instance


def test_parse_simple_query():
    q = parse_query('SELECT ?u WHERE { HasCapability(?u, "visual") }')
    assert q.select == ["u"]
    assert len(q.where) == 1
    assert q.limit is None


def test_parse_missing_where_is_syntax_error():
    with pytest.raises(RuleSyntaxError):
        parse_query("SELECT ?u { HasCapability(?u, x) }")


def test_parse_format_roundtrip_three_atoms():
    q = parse_query(
        "SELECT ?u ?g WHERE { Authenticated(?u, yes) ^ "
        'BehaviorCapability(?u, ?g) ^ HasCapability(?u, "visual") } LIMIT 5')
    text = format_query(q)
    again = parse_query(text)
    assert again.select == q.select
    assert again.where == q.where
    assert again.limit == q.limit


def test_group3_members_over_scenario_store():
    run = run_scenario("alzheimer")
    q = parse_query("SELECT ?u WHERE { BehaviorCapability(?u, Group3) }")
    rows = eval_query(run.store, q)
    assert [row["u"].text() for row in rows] == ["u3"]


def test_query_over_empty_store_is_empty():
    q = parse_query("SELECT ?u WHERE { P(?u) }")
    assert eval_query(FactStore(), q) == []


def test_join_equals_intersection_of_single_atom_scans():
    store = FactStore()
    for user, capability in [("u1", "hearing"), ("u2", "hearing"), ("u3", "visual")]:
        store.assert_fact(ground("HasCapability", user, Constant.string(capability)))
    for user in ("u2", "u3"):
        store.assert_fact(ground("Authenticated", user, "yes"))
    q = parse_query('SELECT ?u WHERE { HasCapability(?u, "hearing") '
                    "^ Authenticated(?u, yes) }")
    rows = {row["u"].text() for row in eval_query(store, q)}

    left = {b["u"].text() for b in store.match(
        Atom("HasCapability", (Variable("u"), Constant.string("hearing"))))}
    right = {b["u"].text() for b in store.match(
        Atom("Authenticated", (Variable("u"), Constant.symbol("yes"))))}
    assert rows == left & right == {"u2"}


def test_single_atom_query_equals_match_projection():
    store = FactStore()
    store.assert_fact(ground("P", "a", "b"))
    store.assert_fact(ground("P", "a", "c"))
    q = parse_query("SELECT ?x WHERE { P(a, ?x) }")
    rows = {row["x"].text() for row in eval_query(store, q)}
    matches = {b["x"].text() for b in store.match(
        Atom("P", (Constant.symbol("a"), Variable("x"))))}
    assert rows == matches == {"b", "c"}


def test_select_variable_must_occur_in_where():
    q = ConjunctiveQuery(select=["missing"],
                         where=[Atom("P", (Variable("x"),))])
    with pytest.raises(QueryError):
        eval_query(FactStore(), q)


def test_result_independent_of_atom_order():
    rng = random.Random(3)
    store = FactStore()
    for _ in range(30):
        store.assert_fact(ground(rng.choice(["P", "Q"]),
                                 f"a{rng.randint(0, 4)}", f"b{rng.randint(0, 4)}"))
    atoms = [Atom("P", (Variable("x"), Variable("y"))),
             Atom("Q", (Variable("y"), Variable("z")))]
    forward = eval_query(store, ConjunctiveQuery(["x", "z"], atoms))
    backward = eval_query(store, ConjunctiveQuery(["x", "z"], atoms[::-1]))
    assert forward == backward


def test_adding_facts_never_shrinks_results():
    rng = random.Random(4)
    store = FactStore()
    for _ in range(20):
        store.assert_fact(ground("P", f"a{rng.randint(0, 3)}"))
    q = parse_query("SELECT ?x WHERE { P(?x) }")
    before = {row["x"].text() for row in eval_query(store, q)}
    store.assert_fact(ground("P", "zz"))
    after = {row["x"].text() for row in eval_query(store, q)}
    assert before <= after


def test_rows_sorted_and_limit_deterministic():
    store = FactStore()
    for name in ("delta", "alpha", "charlie", "bravo"):
        store.assert_fact(ground("P", name))
    q = parse_query("SELECT ?x WHERE { P(?x) } LIMIT 2")
    rows = [row["x"].text() for row in eval_query(store, q)]
    assert rows == ["alpha", "bravo"]


def test_duplicate_rows_collapse():
    store = FactStore()
    store.assert_fact(ground("P", "a", "b"))
    store.assert_fact(ground("P", "a", "c"))
    q = parse_query("SELECT ?x WHERE { P(?x, ?y) }")
    rows = [row["x"].text() for row in eval_query(store, q)]
    assert rows == ["a"]


@st.composite
def _where_clauses(draw, facts):
    """Where-atoms drawn like rule bodies over the facts' vocabulary:
    repeated variables, constants as bare symbols or quoted twins, and
    re-cased predicates."""
    names = sorted({a.text() for f in facts for a in f.args}) + ["c99"]
    constant = st.sampled_from(names).flatmap(
        lambda text: st.sampled_from([Constant.symbol(text),
                                      Constant.string(text)]))
    term = st.one_of(st.sampled_from([Variable(n) for n in "xyz"]), constant)
    predicate = st.sampled_from(sorted({f.predicate for f in facts})).flatmap(
        lambda name: st.sampled_from([name, name.lower(), name.upper()]))
    atom = st.builds(lambda p, terms: Atom(p, tuple(terms)),
                     predicate, st.lists(term, min_size=1, max_size=2))
    return draw(st.lists(atom, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_eval_query_equals_the_naive_join_projection(seed, data):
    facts, _ = random_instance(random.Random(seed))
    store = FactStore()
    for fact in facts:
        store.assert_fact(fact)
    where = data.draw(_where_clauses(facts))
    variables = sorted(set().union(*(atom.variables() for atom in where)))
    assume(variables)
    select = data.draw(st.lists(st.sampled_from(variables), min_size=1,
                                unique=True))
    rows = eval_query(store, ConjunctiveQuery(select, where))

    got = [tuple(row[name].key() for name in select) for row in rows]
    expected = {tuple(binding[name].key() for name in select)
                for binding in _all_bindings(
                    where, [(f.predicate, f.args) for f in facts])}
    assert len(got) == len(set(got))
    assert set(got) == expected
    rendered = [tuple(row[name].render() for name in select) for row in rows]
    assert rendered == sorted(rendered)


# ---------------------------------------------------------------------------
#-- the wire's authn and authorize requests, as serve builds them for pdp
# ---------------------------------------------------------------------------

def _model():
    return BehaviorModel(classes=[
        BehaviorClass("class1", FeatureVector({"hold:cooking": 600.0}))])


def test_authn_query_delegates():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    credentials = {"u1": ("password", hash_password("pw", salt="ab"))}
    request = pdp.AuthnRequest(user="u1",
                               credential=pdp.Credential("password", "pw"),
                               features=FeatureVector({"hold:cooking": 600.0}))
    result = pdp.authenticate(request, store, load_fixture_rules(), _model(),
                              credentials)
    assert result.authenticated == "yes"
    assert store.holds("Authenticated", "u1", "yes")


def test_authz_query_delegates():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u3", "yes"))
    store.assert_fact(ground("BehaviorCapability", "u3", "Group3"))
    decision = pdp.authorize(
        pdp.AuthzRequest(user="u3", service="OpenDoor",
                         context={"time": "00.00"}),
        store, load_fixture_rules())
    assert decision.effect == "deny"
