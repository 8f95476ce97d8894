import gc
import random
import weakref
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aalguard.behavior import BehaviorClass, BehaviorModel, FeatureVector
from aalguard.engine import InvalidRuleError
from aalguard.facts import (Constant, Fact, FactStore, Variable,
                            coerce_constant, fact_key, ground, load_facts)
from aalguard.pdp import (
    AuditError,
    AuditLog,
    AuthnRequest,
    AuthzRequest,
    Credential,
    PdpError,
    authenticate,
    authorize,
    flag_anomaly,
    load_credentials,
    parse_entry,
    serialize_entry,
    verify_password,
)
from aalguard.rules import (Atom, Rule, _split_statements, parse_rules,
                            parse_ruleset)
from aalguard import engine, pdp, scenarios
from aalguard.config import Config
from aalguard.scenarios import load_fixture_rules

from conftest import DATA_DIR
from oracles import (HISTORY_POOL, assert_built_alike, facts_about,
                     hash_password, naive_fixpoint, random_guarded_instance,
                     request_facts, select_auth_mean,
                     whole_snapshot_decision)

RULES = load_fixture_rules()


def seed_model():
    return BehaviorModel(classes=[
        BehaviorClass("class1", FeatureVector({"hold:cooking": 600.0})),
        BehaviorClass("class2", FeatureVector({"hold:cooking": 1200.0})),
    ])


def at_centroid(class_id):
    value = {"class1": 600.0, "class2": 1200.0}[class_id]
    return FeatureVector({"hold:cooking": value})


def make_credentials():
    return {
        "u1": ("password", hash_password("open-sesame", salt="00aa11bb")),
        "u2": ("tag", "tag-0042"),
    }


def make_point(store, rules=RULES, model=None, credentials=None,
               audit_log=None, **settings) -> pdp.DecisionPoint:
    """A decision point over ``store`` under ``rules``: the seed model and
    credentials unless given, and a :class:`Config` of ``settings``."""
    return pdp.DecisionPoint(
        store, rules, seed_model() if model is None else model,
        make_credentials() if credentials is None else credentials,
        Config(**settings), audit_log)


# ---------------------------------------------------------------------------
# Authentication mean selection
# ---------------------------------------------------------------------------

def test_no_capability_class1_selects_password_mean():
    assert select_auth_mean("no", "class1", RULES) == "username/password"


def test_physical_class2_selects_tag_mean():
    assert select_auth_mean("physical", "class2", RULES) == "tag-mean"


def test_unmatched_combination_falls_back_to_default():
    assert select_auth_mean("hearing", "class1", RULES,
                            default_mean="username/password") == "username/password"
    assert select_auth_mean("hearing", "class1", RULES,
                            default_mean="badge") == "badge"


def test_select_auth_mean_is_deterministic():
    for _ in range(5):
        assert select_auth_mean("physical", "class2", RULES) == "tag-mean"


# Mean rules of many shapes: class only, capability only, two
# capabilities, a quoted twin of a bare constant, atoms with two subject
# variables, an unsatisfiable pair of classes, and a later rule shadowed by
# an earlier one.
MEAN_SHAPES = parse_ruleset("""
@id: two-caps
HasCapability(?u, visual) ^ HasCapability(?u, "physical") -> Authentication(badge)

@id: class-only
HasRecognizedBehavior(?u, class3) -> Authentication(face)

@id: other-subjects
HasRecognizedBehavior(?a, "class1") ^ HasCapability(?b, hearing) -> Authentication(voice)

@id: never
HasRecognizedBehavior(?u, class1) ^ HasRecognizedBehavior(?u, class2) -> Authentication(none)

@id: cap-only
HasCapability(?u, cognitive) -> Authentication(tag-mean)

@id: shadowed
HasCapability(?u, cognitive) ^ HasRecognizedBehavior(?u, class2) -> Authentication(pin)

@id: group
HasRecognizedBehavior(?u, class2) ^ HasCapability(?u, cognitive) -> BehaviorCapability(?u, Group3)
""")

# One centroid per class a test authenticates into.
CLASSES = ["class1", "class2", "class3", "class9"]
MEAN_MODEL = BehaviorModel(classes=[
    BehaviorClass(name, FeatureVector({"hold:cooking": 600.0 * (i + 1)}))
    for i, name in enumerate(CLASSES)])


def authn_mean(rules, behavior_class, capabilities, default_mean):
    """The mean ``authenticate`` uses for a user who holds these
    capabilities and is recognized in ``behavior_class`` (None: a vector
    with no class)."""
    store = FactStore()
    for value in capabilities:
        store.assert_fact(ground("HasCapability", "u1", value))
    if behavior_class is None:
        cooking = float("nan")
    else:
        cooking = 600.0 * (CLASSES.index(behavior_class) + 1)
    result = authenticate(
        AuthnRequest("u1", None, FeatureVector({"hold:cooking": cooking})),
        make_point(store, rules, MEAN_MODEL, default_auth_mean=default_mean))
    assert result.behavior_class == behavior_class
    return result.mean_used


def _profile_constants(rules, predicate):
    values = []
    for rule in rules:
        for atom in rule.body:
            if atom.predicate.lower() == predicate.lower() \
                    and isinstance(atom.terms[1], Constant):
                text = atom.terms[1].text()
                if text not in values:
                    values.append(text)
    return values


def assert_authn_picks_the_oracle_mean(rules):
    """Over every class and every list of up to two capabilities the rules
    name, ``authenticate`` takes the mean the fixpoint oracle selects."""
    policy = pdp.compile_policy(rules)
    capabilities = [*_profile_constants(rules, "HasCapability"), "unknown"]
    lists = [[]] + [[c] for c in capabilities] + [
        [a, b] for a in capabilities for b in capabilities if a != b]
    assert ["cognitive", "physical"] in lists  # u3's profile
    assert set(_profile_constants(rules, "HasRecognizedBehavior")) \
        <= set(CLASSES)
    for behavior_class in CLASSES + [None]:
        for held in lists:
            for default in ("username/password", "badge"):
                expected = select_auth_mean(held, behavior_class, rules,
                                            default_mean=default)
                assert authn_mean(policy, behavior_class, held, default) \
                    == expected, (behavior_class, held)


@pytest.mark.parametrize("rules", [RULES, MEAN_SHAPES],
                         ids=["fixture", "shapes"])
def test_mean_table_matches_the_fixpoint_oracle(rules):
    assert_authn_picks_the_oracle_mean(rules)


@settings(max_examples=100, deadline=None)
@given(rules=st.sampled_from([RULES, MEAN_SHAPES]),
       behavior_class=st.sampled_from(CLASSES + [None]),
       held=st.lists(st.sampled_from(["no", "physical", "visual", "hearing",
                                      "cognitive", "unknown"]), max_size=4),
       default=st.sampled_from(["username/password", "badge"]))
def test_authn_takes_the_mean_the_fixpoint_oracle_selects(
        rules, behavior_class, held, default):
    assert authn_mean(rules, behavior_class, held, default) == \
        select_auth_mean(held, behavior_class, rules, default_mean=default)


@pytest.mark.parametrize("text, rule_id", [
    ("@id: bound\nHasCapability(u1, no) -> Authentication(x)", "bound"),
    ("@id: per-user\nHasCapability(?u, no) -> Authentication(?u)", "per-user"),
    ("@id: two-heads\nHasCapability(?u, no) -> Authentication(x) ^ Seen(?u, x)",
     "two-heads"),
    ("@id: pair\nHasCapability(?u, no) -> Authentication(x, y)", "pair"),
])
def test_mean_table_refuses_a_policy_it_cannot_represent(text, rule_id):
    with pytest.raises(InvalidRuleError, match=f"rule {rule_id}:"):
        pdp.compile_policy(parse_ruleset(text))


@pytest.mark.parametrize("text", [
    "@id: open\nHasCapability(?u, ?c) -> Authentication(x)",
    "@id: grouped\nBehaviorCapability(?u, Group1) -> Authentication(x)",
    "@id: makes-class\nHasCapability(?u, no) -> HasRecognizedBehavior(?u, c1)",
    "HasCapability(?u, no) -> Flag(?u, on)\n\n"
    "@id: chained\nFlag(?u, on) -> HasCapability(?u, visual)",
], ids=["open", "grouped", "makes-class", "chained"])
def test_a_mean_from_any_body_or_a_derived_profile_compiles(text):
    # A table of class and capability keys could not hold these; the
    # user's own fixpoint can.
    rules = RULES + parse_ruleset(text)
    assert len(pdp.compile_policy(rules).rules) == len(rules)
    assert_authn_picks_the_oracle_mean(rules)


def test_a_rule_that_reads_the_mean_is_refused_naming_it():
    # Authentication has no subject and never enters the live store, so
    # query and authorize would see different results from such a rule.
    rules = RULES + parse_ruleset(
        "@id: mean-use\nAuthentication(?m) -> MeanInUse(?m, yes)")
    with pytest.raises(InvalidRuleError, match="^rule mean-use: "):
        pdp.compile_policy(rules)


def test_a_policy_built_directly_is_refused_naming_the_rule():
    # A compiled Policy meets the subject guard too, before any fact moves.
    policy = engine.Policy(RULES + parse_ruleset(
        "@id: mean-use\nAuthentication(?m) -> MeanInUse(?m, yes)"))
    store = load_facts('Authenticated(u1, yes).\nHasCapability(u1, "no").\n')
    before = sorted(f.render() for f in store)
    with pytest.raises(InvalidRuleError, match="^rule mean-use: "):
        make_point(store, policy)
    assert sorted(f.render() for f in store) == before


def test_mean_table_accepts_class_rules_that_profile_facts_cannot_fire():
    # behavior-class1 derives a class, but only from activity facts; so
    # does a rule that also reads a capability.
    assert any(rule.id == "behavior-class1" for rule in RULES)
    rules = RULES + parse_ruleset(
        "HasCapability(?u, no) ^ HasActivity(?u, cooking) "
        "-> HasRecognizedBehavior(?u, class2)")
    assert authn_mean(rules, "class1", ["no"], "badge") == "username/password"


def test_every_fixture_rule_passes_the_subject_guard():
    assert len(pdp.compile_policy(RULES).rules) == len(RULES) == 12


def test_the_draft_alzheimer_rule_is_refused_naming_it():
    corpus = (DATA_DIR / "verbatim_rules.txt").read_text(encoding="utf-8")
    [draft] = parse_rules(dict((line, text) for text, line
                               in _split_statements(corpus))[37])
    # The subject ?u of its group atom is not who it asks for or denies.
    assert [atom.terms[0].render() for atom in draft.body + draft.head] \
        == ["?u", "?Group3", "?time", "?Group3"]
    draft = Rule(body=draft.body, head=draft.head, id="alzheimer-deny")
    with pytest.raises(InvalidRuleError, match="^rule alzheimer-deny: every "
                       "atom must take the rule's subject variable first"):
        pdp.compile_policy([rule for rule in RULES[:-1]
                            if rule.id != draft.id] + [draft])


@pytest.mark.parametrize("text", [
    "HasCapability(?u, visual) ^ AskedService(?v, ReadAlert) -> Flag(?u, on)",
    "HasCapability(?u, visual) ^ Flag(?u, ?v) -> Notice(?v, ?u)",
    "Flag(?u) ^ Flag(u1) -> Notice(?u)",
])
def test_a_rule_not_guarded_by_one_subject_is_refused(text):
    with pytest.raises(InvalidRuleError,
                       match="^rule unguarded: .*subject variable first"):
        pdp.compile_policy(parse_ruleset(f"@id: unguarded\n{text}\n"))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rederived_store_equals_the_naive_fixpoint_of_its_base_facts(seed):
    rng = random.Random(seed)
    facts, rules = random_guarded_instance(rng)
    store = FactStore()
    point = make_point(store, rules)  # the rules pass the subject guard
    history = {name.lower() for name in HISTORY_POOL}
    for _ in range(rng.randint(1, 20)):
        asserted = [f for f in store if f.origin == "asserted"]
        if asserted and rng.random() < 0.3:
            changed = rng.choice(asserted)
            store.retract_fact(changed.predicate, changed.args)
        else:
            changed = rng.choice(facts)
            store.assert_fact(changed)
        pdp.rederive(point, changed.args[0].text())
        base = [(f.predicate, f.args) for f in store
                if f.origin == "asserted" and f.key()[0] not in history]
        want = naive_fixpoint(base, rules) - {
            (p.lower(), tuple(a.key() for a in args)) for p, args in base}
        inferred = [f for f in store if f.origin == "inferred"]
        assert {f.key() for f in inferred} == want
        for fact in inferred:
            assert engine.explain(store, fact).rule_id == fact.rule_id


def test_each_authn_runs_one_fixpoint_over_the_users_own_facts(monkeypatch):
    policy = pdp.compile_policy(RULES)
    calls = {"infer_fixpoint": 0, "check_rule": 0}
    fixpoint_inputs = []

    def counting(module, name):
        wrapped = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "infer_fixpoint":
                fixpoint_inputs.append(sorted(f.render() for f in args[0]))
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counting(pdp, "infer_fixpoint")
    counting(engine, "check_rule")
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    store.assert_fact(ground("HasCapability", "u2", Constant.string("no")))
    point = make_point(store, policy)
    own = ['HasCapability(u1, "no")', "HasRecognizedBehavior(u1, class1)"]
    authn = AuthnRequest("u1", Credential("password", "open-sesame"),
                         at_centroid("class1"))
    assert authenticate(authn, point).authenticated == "yes"
    assert calls == {"infer_fixpoint": 1, "check_rule": 0}
    authorize(AuthzRequest("u1", "ReadAlert"), point)
    assert calls == {"infer_fixpoint": 2, "check_rule": 0}
    assert store.holds("AskedService", "u1", "ReadAlert")
    # An authn that keeps the class and the user's facts derives nothing
    # again: neither the outcome of the last authn nor the request history
    # is read.
    authenticate(authn, point)
    assert calls == {"infer_fixpoint": 2, "check_rule": 0}
    reclassified = AuthnRequest("u1", authn.credential, at_centroid("class2"))
    authenticate(reclassified, point)
    assert calls == {"infer_fixpoint": 3, "check_rule": 0}
    # A changed asserted fact derives again, in the same class.
    store.assert_fact(ground("HasCapability", "u1", Constant.string("hearing")))
    authenticate(reclassified, point)
    assert calls == {"infer_fixpoint": 4, "check_rule": 0}
    assert fixpoint_inputs == [
        own, fixpoint_inputs[1],
        [own[0], "HasRecognizedBehavior(u1, class2)"],
        ['HasCapability(u1, "hearing")', own[0],
         "HasRecognizedBehavior(u1, class2)"]]
    authorize(AuthzRequest("u1", "ReadAlert"), make_point(store))
    assert calls == {"infer_fixpoint": 5, "check_rule": len(RULES)}


def _scan(store, predicate, user):
    """The second arguments of ``predicate(user, _)`` by a full scan."""
    return [fact.args[1] for fact in store.facts_for(predicate)
            if len(fact.args) == 2 and fact.args[0].key() == (
                Constant.symbol(user).key())]


def test_per_user_lookups_read_the_index_in_scan_order():
    rng = random.Random(7)
    store = FactStore()
    users = ["u1", "u2", "u3", "r10"]
    for _ in range(200):
        user = rng.choice(users)
        subject = rng.choice([Constant.symbol(user), Constant.string(user)])
        predicate = rng.choice(["HasCapability", "BehaviorCapability",
                                "HasTime"])
        value = Constant.string(rng.choice(["no", "visual", "Group1", "x"]))
        args = rng.choice([(subject, value), (subject,),
                           (subject, value, Constant.symbol("extra")),
                           (value, subject)])
        store.assert_fact(Fact(predicate, args))
        if rng.random() < 0.2:
            victim = rng.choice(store.facts())
            store.retract_fact(victim.predicate, victim.args)
    for user in users + ["nobody"]:
        assert [fact.args[1] for fact in pdp._facts_about(
            store, "HasCapability", user) if len(fact.args) == 2] == _scan(
            store, "HasCapability", user)
        assert pdp.groups_of(store, user) == _scan(
            store, "BehaviorCapability", user)


# ---------------------------------------------------------------------------
# Authentication pipeline
# ---------------------------------------------------------------------------

def test_password_user_at_centroid_authenticates():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    result = authenticate(
        AuthnRequest("u1", Credential("password", "open-sesame"),
                     at_centroid("class1")),
        make_point(store))
    assert result.authenticated == "yes"
    assert result.mean_used == "username/password"
    assert result.trust == 1.0
    assert result.behavior_class == "class1"
    assert store.holds("Authenticated", "u1", "yes")
    assert store.holds("HasRecognizedBehavior", "u1", "class1")


def test_low_trust_blocks_even_with_correct_password():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    far = FeatureVector({"hold:cooking": 2.0})
    result = authenticate(
        AuthnRequest("u1", Credential("password", "open-sesame"), far),
        make_point(store, trust_threshold=0.5))
    assert result.authenticated == "no"
    assert "trust" in result.reason
    assert store.holds("Authenticated", "u1", "no")


def test_nan_trust_fails_closed():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    nan = FeatureVector({"hold:cooking": float("nan")})
    result = authenticate(
        AuthnRequest("u1", Credential("password", "open-sesame"), nan),
        make_point(store))
    assert result.authenticated == "no"
    assert "trust" in result.reason


def test_tag_user_authenticates_via_tag_mean():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u2", Constant.string("physical")))
    result = authenticate(
        AuthnRequest("u2", Credential("tag", "tag-0042"), at_centroid("class2")),
        make_point(store))
    assert result.authenticated == "yes"
    assert result.mean_used == "tag-mean"


def test_wrong_password_fails():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    result = authenticate(
        AuthnRequest("u1", Credential("password", "wrong"), at_centroid("class1")),
        make_point(store))
    assert result.authenticated == "no"
    assert result.reason == "password mismatch"


def test_unknown_user_is_denied_not_an_exception():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "ghost", Constant.string("no")))
    result = authenticate(
        AuthnRequest("ghost", Credential("password", "x"), at_centroid("class1")),
        make_point(store))
    assert result.authenticated == "no"
    assert "unknown user" in result.reason


def test_reauthentication_replaces_outcome():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    authenticate(AuthnRequest("u1", Credential("password", "wrong"),
                              at_centroid("class1")),
                 make_point(store))
    authenticate(AuthnRequest("u1", Credential("password", "open-sesame"),
                              at_centroid("class1")),
                 make_point(store))
    assert store.holds("Authenticated", "u1", "yes")
    assert not store.holds("Authenticated", "u1", "no")


def test_reclassification_reads_only_the_facts_that_name_the_user():
    examined = []

    class CountingFact(Fact):
        def __getattribute__(self, name):
            if name == "origin":
                examined.append(vars(self).get("_key"))  # None while built
            return object.__getattribute__(self, name)

    def fact(predicate, *values, origin="asserted"):
        return CountingFact(predicate, tuple(coerce_constant(v) for v in values),
                            origin=origin)

    store = FactStore()
    for i in range(50):
        store.assert_fact(fact("HasCapability", f"r{i}", Constant.string("no")))
        store.assert_fact(fact("BehaviorCapability", f"r{i}", "Group1",
                               origin="inferred"))
    own = [fact("HasCapability", "u1", Constant.string("no")),
           fact("BehaviorCapability", "u1", "Group1", origin="inferred")]
    naming = fact("Obligation", "r3", "u1", origin="inferred")
    for f in own + [naming]:
        store.assert_fact(f)
    examined.clear()
    # The first classification of u1 (class1, which with "no" derives no
    # group) reads the facts whose first argument is u1, and no other.
    authenticate(AuthnRequest("u1", Credential("password", "open-sesame"),
                              at_centroid("class1")),
                 make_point(store))
    assert sorted(examined) == sorted(f.key() for f in own)
    assert [f.render() for f in facts_about(store, Constant.symbol("u1"))] \
        == ['HasCapability(u1, "no")', "HasRecognizedBehavior(u1, class1)",
            "Authenticated(u1, yes)"]
    assert store.get("Obligation", ("r3", "u1")).origin == "inferred"
    assert len(store) == 104


def test_password_credential_requires_secret():
    with pytest.raises(PdpError):
        Credential("password", "")


# ---------------------------------------------------------------------------
# Group assignment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("class_id,capability,group", [
    ("class1", "hearing", "Group1"),
    ("class2", "visual", "Group2"),
    ("class2", "cognitive", "Group3"),
])
def test_group_assignment(class_id, capability, group):
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u", Constant.string(capability)))
    authenticate(AuthnRequest("u", None, at_centroid(class_id)),
                 make_point(store))
    derived = [f for f in store if f.origin == "inferred"]
    assert [(f.render(), f.rule_id) for f in derived] == [
        (f"BehaviorCapability(u, {group})", f"{group.lower()}-assign")]
    assert [g.text() for g in pdp.groups_of(store, "u")] == [group]


# ---------------------------------------------------------------------------
# Authorization
# ---------------------------------------------------------------------------

def group3_member(user="u3") -> FactStore:
    store = FactStore()
    store.assert_fact(ground("Authenticated", user, "yes"))
    store.assert_fact(ground("HasCapability", user, Constant.string("cognitive")))
    store.assert_fact(ground("BehaviorCapability", user, "Group3"))
    return store


def test_group3_open_door_at_midnight_denied():
    store = group3_member()
    decision = authorize(
        AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
        make_point(store))
    assert decision.effect == "deny"
    assert "alzheimer-deny" in decision.rationale
    assert decision.priority == 3


def primed_point(rules=RULES) -> pdp.DecisionPoint:
    """A point whose store holds the fixture residents u1, u2 and u3,
    primed and authenticated under ``rules``, a rule list or a compiled
    policy."""
    point = make_point(FactStore(), rules,
                       scenarios.load_fixture_model(Config().distance_floor),
                       scenarios.load_fixture_credentials())
    scenarios.prime_store(point)
    return point


def test_midnight_deny_for_one_resident_does_not_leak_to_another():
    point = primed_point()
    u1_day = AuthzRequest("u1", "OpenDoor", context={"time": "10.00"})
    before = authorize(u1_day, point)
    u3_night = authorize(AuthzRequest("u3", "OpenDoor",
                                      context={"time": "00.00"}), point)
    after = authorize(u1_day, point)
    assert u3_night.effect == "deny"
    assert "alzheimer-deny" in u3_night.rationale
    assert before.rationale == after.rationale == ["default-deny"]


def test_group1_alert_permitted_with_visual_recommendation():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    store.assert_fact(ground("HasCapability", "u1", Constant.string("hearing")))
    store.assert_fact(ground("BehaviorCapability", "u1", "Group1"))
    decision = authorize(
        AuthzRequest("u1", "ReadAlert", device="VisualAid",
                     context={"time": "10.00"}),
        make_point(store))
    assert decision.effect == "permit"
    assert decision.recommendations == ["visual-alert"]
    assert decision.priority == 2


def test_group2_alert_permitted_with_audible_recommendation():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u2", "yes"))
    store.assert_fact(ground("HasCapability", "u2", Constant.string("visual")))
    store.assert_fact(ground("BehaviorCapability", "u2", "Group2"))
    decision = authorize(
        AuthzRequest("u2", "ReadAlert", device="AudioAid",
                     context={"time": "10.00"}),
        make_point(store))
    assert decision.effect == "permit"
    assert decision.recommendations == ["audible-alert"]


U9_FACTS = ('Username(u9, kkkk).\nPassword(u9, hhhh).\n'
            'HasCapability(u9, "hearing").\n')


def test_a_failed_authn_derives_no_authenticated_fact():
    # The fixture rule password-check derives Authenticated(u9, yes) from
    # the Username and Password facts; the re-derivation at u9's first
    # classification must not let that past the gate.
    point = make_point(load_facts(U9_FACTS))
    store = point.store
    result = authenticate(
        AuthnRequest("u9", Credential("password", "hhhh"), at_centroid("class1")),
        point)
    assert result.authenticated == "no" and result.behavior_class == "class1"
    assert [g.text() for g in pdp.groups_of(store, "u9")] == ["Group1"]
    assert [f.render() for f in store.facts_for("Authenticated")] == [
        "Authenticated(u9, no)"]
    decision = authorize(AuthzRequest("u9", "ReadAlert", device="VisualAid"),
                         point)
    assert decision.rationale == ["not-authenticated"]


def test_the_gate_passes_only_an_asserted_authenticated_fact():
    store = load_facts("Authenticated(u1, yes).  # inferred rule=password-check\n"
                       "BehaviorCapability(u1, Group1).\n")
    request = AuthzRequest("u1", "ReadAlert", device="VisualAid")
    point = make_point(store)
    assert authorize(request, point).rationale == ["not-authenticated"]
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    assert authorize(request, point).effect == "permit"


DECISION_HEADS = [("hasAccess", "permit"), ("hasAccess", "Deny"),
                  ("Obligation", "o1"), ("Obligation", "o2"),
                  ("Recommendation", "r1"), ("BehaviorCapability", "g1")]
GROUP = Constant.symbol("g1")
USERS = ["s1", "s2", "s3"]


def decision_instance(rng):
    """A random guarded instance of two or more subjects with rules that
    decide: each added rule reads one or two atoms of the instance's rules
    and derives a decision fact or membership of group ``g1``.  Some of the
    subjects' facts, request history aside, are copied to ``g1``."""
    facts, rules = random_guarded_instance(rng, min_subjects=2)
    atoms = [atom for rule in rules for atom in rule.body + rule.head]
    for index in range(rng.randint(1, 5)):
        predicate, value = rng.choice(DECISION_HEADS)
        body = rng.sample(atoms, min(len(atoms), rng.randint(1, 2)))
        head = Atom(predicate, (Variable("s"), coerce_constant(value)))
        rules.append(Rule(body=body, head=[head], id=f"d{index + 1}"))
    history = {name.lower() for name in HISTORY_POOL}
    facts += [Fact(f.predicate, (GROUP,) + f.args[1:])
              for f in rng.sample(facts, rng.randint(0, len(facts)))
              if f.key()[0] not in history]
    return facts, rules


def decision_point(rng, facts, rules, credentials=None) -> pdp.DecisionPoint:
    """A point over the facts, every user authenticated, ``g1`` and some
    users derived.

    ``g1`` is derived as ``serve`` derives each loaded resident: a group's
    facts derived only at authorize follow the user's in the decision lists,
    where the whole snapshot's fixpoint interleaves them pass by pass."""
    point = make_point(FactStore(), rules, credentials=credentials)
    for fact in facts:
        point.store.assert_fact(fact)
    for user in USERS:
        point.store.assert_fact(ground("Authenticated", user, "yes"))
    for subject in [GROUP] + [u for u in USERS if rng.random() < 0.5]:
        pdp.rederive(point, subject)
    return point


def random_request(rng, user) -> AuthzRequest:
    context = {"time": rng.choice(["00.00", "10.00"])} \
        if rng.random() < 0.5 else {}
    return AuthzRequest(user, rng.choice(["v1", "v2", "s1"]),
                        device=rng.choice([None, "v1", "v2"]), context=context)


def decided(decision):
    return (decision.effect, decision.obligations, decision.recommendations,
            decision.rationale)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_authorize_decides_as_the_whole_snapshot_fixpoint(seed):
    rng = random.Random(seed)
    facts, rules = decision_instance(rng)
    point = decision_point(rng, facts, rules)
    for _ in range(rng.randint(1, 6)):  # each request leaves history
        request = random_request(rng, rng.choice(USERS))
        want = whole_snapshot_decision(request, point.store, rules)
        assert decided(authorize(request, point)) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_a_decision_does_not_change_under_other_users_requests(seed):
    rng = random.Random(seed)
    facts, rules = decision_instance(rng)
    credentials = {user: ("password", hash_password("pw", salt="ab"))
                   for user in USERS}
    point = decision_point(rng, facts, rules, credentials)
    user, others = USERS[0], USERS[1:]
    request = random_request(rng, user)
    first = authorize(request, point)
    for _ in range(rng.randint(1, 8)):
        other = rng.choice(others)
        if rng.random() < 0.5:
            authenticate(AuthnRequest(other,
                                      Credential("password",
                                                 rng.choice(["pw", "no"])),
                                      at_centroid(rng.choice(["class1", "class2"]))),
                         point)
        else:
            authorize(random_request(rng, other), point)
        assert authorize(request, point) == first


def test_a_group_decision_is_derived_for_its_members():
    # The group's own facts are not derived in the live store; authorize
    # derives them in its snapshot, as the whole snapshot's fixpoint did.
    rules = parse_ruleset(
        '@id: member\nHasCapability(?u, "hearing") -> '
        "BehaviorCapability(?u, Group1)\n\n"
        "@id: group-open\nOpenHours(?g, day) -> hasAccess(?g, permit)\n")
    store = load_facts('Authenticated(u1, yes).\nHasCapability(u1, "hearing").\n'
                       "OpenHours(Group1, day).\n")
    decision = authorize(AuthzRequest("u1", "OpenDoor"),
                         make_point(store, rules))
    assert decided(decision) == ("permit", [], [], ["group-open"])
    assert not store.holds("hasAccess", "Group1", "permit")


def test_a_group_that_is_the_user_reads_none_of_the_users_history():
    # u1 is in group u1: its part is u1's own, with u1's history left out,
    # so the earlier OpenDoor request does not deny the ReadAlert one.
    rules = parse_ruleset(
        '@id: member\nHasCapability(?u, "hearing") -> '
        "BehaviorCapability(?u, u1)\n\n"
        '@id: old-ask\nAskedService(?u, OpenDoor) -> hasAccess(?u, Deny)\n\n'
        "@id: ask\nAskedService(?u, ReadAlert) -> hasAccess(?u, permit)\n")
    store = load_facts('Authenticated(u1, yes).\nHasCapability(u1, "hearing").\n')
    point = make_point(store, rules)
    assert authorize(AuthzRequest("u1", "OpenDoor"), point).effect == "deny"
    request = AuthzRequest("u1", "ReadAlert")
    want = whole_snapshot_decision(request, store, rules)
    assert decided(authorize(request, point)) == want \
        == ("permit", [], [], ["ask"])


def test_a_group_that_is_another_user_shows_that_users_history():
    # Only the requester's history is left out: u1's group u2 is read
    # whole, u2's earlier OpenDoor request included.
    rules = parse_ruleset(
        '@id: member\nHasCapability(?u, "hearing") -> '
        "BehaviorCapability(?u, u2)\n\n"
        "@id: asked-door\nAskedService(?u, OpenDoor) -> hasAccess(?u, Deny)\n")
    store = load_facts("Authenticated(u1, yes).\nAuthenticated(u2, yes).\n"
                       'HasCapability(u1, "hearing").\n')
    point = make_point(store, rules)
    authorize(AuthzRequest("u2", "OpenDoor"), point)
    request = AuthzRequest("u1", "ReadAlert")
    want = whole_snapshot_decision(request, store, rules)
    assert decided(authorize(request, point)) == want \
        == ("deny", [], [], ["asked-door"])


STREAM_RULES = parse_ruleset("""
@id: hearing-class1
HasRecognizedBehavior(?u, class1) ^ HasCapability(?u, "hearing") -> BehaviorCapability(?u, Group1)

@id: hearing-class2
HasRecognizedBehavior(?u, class2) ^ HasCapability(?u, "hearing") -> BehaviorCapability(?u, u2)

@id: cognitive
HasRecognizedBehavior(?u, class2) ^ HasCapability(?u, "cognitive") -> BehaviorCapability(?u, Group3)

@id: alert
BehaviorCapability(?u, Group1) ^ AskedService(?u, ReadAlert) -> hasAccess(?u, permit)

@id: night
AskedService(?u, OpenDoor) ^ HasContext(?u, "00.00") -> hasAccess(?u, "Deny")

@id: visual
UsedDevice(?u, VisualAid) -> Recommendation(?u, visual-alert)

@id: open
OpenHours(?g, day) -> hasAccess(?g, permit)

@id: heat
AskedService(?u, Heat) -> Obligation(?u, heat-check)

@id: located
HasLocation(?u, ?l) ^ HasCapability(?u, "visual") -> Recommendation(?u, located)

@id: trusted
Authenticated(?u, yes) ^ HasCapability(?u, "visual") -> Recommendation(?u, trusted)

@id: morning
HasRecognizedBehavior(?u, class1) ^ HasCapability(?u, "cognitive") -> HasTime(?u, "08.00")

@id: nap
HasTime(?u, "08.00") ^ AskedService(?u, Nap) -> hasAccess(?u, permit)

@id: doubted
Authenticated(?u, no) ^ AskedService(?u, Heat) -> hasAccess(?u, "Deny")
""")
STREAM_USERS = ["u1", "u2", "u3"]
STREAM_SUBJECTS = STREAM_USERS + ["Group1", "Group3"]
STREAM_FACTS = [("HasCapability", Constant.string(value))
                for value in ("hearing", "visual", "cognitive")] + [
    ("OpenHours", Constant.symbol("day")),
    ("Obligation", Constant.symbol("o1")),
    ("Authenticated", Constant.symbol("yes")),
    ("Authenticated", Constant.symbol("no"))]
VECTORS = {"class1": at_centroid("class1"), "class2": at_centroid("class2"),
           "far": FeatureVector({"hold:cooking": 5000.0}),
           "none": FeatureVector({"hold:cooking": float("nan")})}
STREAM_STEPS = st.one_of(
    st.tuples(st.just("authn"), st.sampled_from(STREAM_USERS),
              st.sampled_from(sorted(VECTORS)), st.sampled_from(["pw", "no"])),
    st.tuples(st.just("authorize"), st.sampled_from(STREAM_USERS),
              st.sampled_from(["ReadAlert", "OpenDoor", "Heat", "Nap"]),
              st.sampled_from([None, "VisualAid", "Phone"]),
              st.sampled_from([None, "00.00", "10.00"]),
              st.sampled_from([None, "hall", "kitchen"])),
    st.tuples(st.just("flag"), st.sampled_from(STREAM_USERS)),
    st.tuples(st.just("assert"), st.sampled_from(STREAM_SUBJECTS),
              st.sampled_from(range(len(STREAM_FACTS)))),
    st.tuples(st.just("drop"), st.sampled_from(STREAM_SUBJECTS),
              st.integers(0, 9)))


def expected_decision(request, store, rules):
    """What ``authorize`` must answer: the whole snapshot's decision when
    an asserted ``Authenticated(user, yes)`` passes the gate."""
    gate = store.get("Authenticated", (request.user, "yes"))
    if gate is None or gate.origin != "asserted":
        return ("deny", [], [], ["not-authenticated"])
    return whole_snapshot_decision(request, store, rules)


@settings(max_examples=200, deadline=None)
@given(derived=st.lists(st.sampled_from(STREAM_USERS), unique=True),
       steps=st.lists(STREAM_STEPS, min_size=10, max_size=40))
def test_a_long_lived_store_decides_as_the_whole_snapshot_fixpoint(derived,
                                                                  steps):
    # One store through authns that change the class or fail, authorizes
    # with values rules read and values none reads, flagged anomalies, and
    # direct writes to the requester's and a group's facts, u2 being a
    # group of the hearing class2 users.  Each decision, memoized or not,
    # is the whole snapshot's, and after an authn the user's facts less
    # history and Authenticated derive nothing the store lacks but facts of
    # those predicates.  After every step each user sends three fixed
    # requests, so most of them are read from the memo.
    credentials = {user: ("password", hash_password("pw", salt="ab"))
                   for user in STREAM_USERS}
    point = make_point(load_facts('HasCapability(u1, "hearing").\n'
                                  'HasCapability(u2, "hearing").\n'
                                  'HasCapability(u3, "cognitive").\n'),
                       STREAM_RULES, credentials=credentials)
    store, policy = point.store, point.policy
    for user in derived:
        pdp.rederive(point, user)
    for step in steps:
        kind, subject = step[:2]
        if kind == "authn":
            vector, secret = step[2:]
            authenticate(AuthnRequest(subject, Credential("password", secret),
                                      VECTORS[vector]), point)
            part = store.partition(Constant.symbol(subject),
                                   pdp._UNDERIVED_PREDICATES)
            assert [f.render() for f in engine.infer_fixpoint(
                part, policy).derived if f.key()[0] not in
                pdp._UNDERIVED_PREDICATES | {"authentication"}] == []
        elif kind == "authorize":
            service, device, time, location = step[2:]
            context = {name: value for name, value in
                       (("time", time), ("location", location)) if value}
            request = AuthzRequest(subject, service, device=device,
                                   context=context)
            for _ in range(2):  # the second is read from the memo if it can
                want = expected_decision(request, store, policy)
                assert decided(authorize(request, point)) == want
        elif kind == "flag":
            flag_anomaly(point, subject, "class1", VECTORS["far"])
        elif kind == "assert":
            predicate, value = STREAM_FACTS[step[2]]
            store.assert_fact(Fact(predicate, (coerce_constant(subject),
                                               value)))
        else:
            held = facts_about(store, coerce_constant(subject))
            if held:
                store.drop(held[step[2] % len(held)].key())
        for user in STREAM_USERS:
            for request in (AuthzRequest(user, "ReadAlert", device="VisualAid"),
                            AuthzRequest(user, "Heat"),
                            AuthzRequest(user, "Nap")):
                want = expected_decision(request, store, policy)
                assert decided(authorize(request, point)) == want


def test_a_policy_that_reads_any_service_memoizes_no_decision():
    # AskedService(?u, ?s) reads every service through a variable, so no
    # request of this user is memoized, however many services it names.
    point = primed_point(RULES + parse_ruleset(
        "@id: any-service\nAskedService(?u, ?s) ^ "
        "BehaviorCapability(?u, Group3) -> Recommendation(?u, escort)\n"))
    for i in range(1000):
        decision = authorize(AuthzRequest("u3", f"service{i}"), point)
        assert decision.recommendations == ["escort"]
    assert [len(entries) for _, entries in point.decisions.values()] == [0]
    assert (point.hits, point.misses) == (0, 1000)


def test_a_stream_of_fresh_values_holds_a_constant_memo():
    # The hostile stream: every authorize names a fresh service, device,
    # location and time.  None of the fixture rules reads them, but for
    # the time 00.00, so the memo holds one entry per set of the readable
    # ones (none, and HasContext(u1, "00.00")) while the store grows.
    point = primed_point()
    store = point.store
    sizes = []
    for i in range(20000):
        authorize(AuthzRequest("u1", f"service{i}", device=f"device{i}",
                               context={"time": f"{i // 60 % 24:02d}."
                                                f"{i % 60:02d}",
                                        "location": f"room{i}"}),
                  point)
        if i % 1000 == 999:
            sizes.append(sum(len(entries) for _, entries
                             in point.decisions.values()))
    assert len(store) > 80000
    assert sizes == [2] * 20
    assert point.misses == 2


def test_a_failed_authn_and_the_next_good_one_keep_the_users_decisions():
    # The wrong secret writes Authenticated(u1, no) and the good one writes
    # yes back, so u1 holds what the decision was made from again.
    point = primed_point()
    held = pdp._facts_about(point.store, "HasRecognizedBehavior",
                            "u1")[0].args[1]
    features = next(c.centroid for c in point.model.classes
                    if c.id == held.text())
    request = AuthzRequest("u1", "ReadAlert", device="VisualAid")
    first = decided(authorize(request, point))
    assert decided(authorize(request, point)) == first
    assert point.counts()["authorize_memo_misses"] == 1
    for secret, answer in (("wrong-secret", "no"), ("door-chime-7", "yes")):
        result = authenticate(AuthnRequest("u1", Credential("password", secret),
                                           features), point)
        assert result.authenticated == answer
    assert decided(authorize(request, point)) == first
    assert point.counts() == {"authorize_memo_hits": 2,
                              "authorize_memo_misses": 1,
                              "rederive_skips": 2}


def test_a_new_rule_list_per_authorize_keeps_one_memo_slot_per_user():
    # A fresh point per call over one store: each decides as the first
    # did, and holds one slot, for the user it decided for.
    store = primed_point().store
    first = {}
    for i in range(50):
        for user in ("u1", "u2", "u3"):
            point = make_point(store, load_fixture_rules())
            decision = authorize(
                AuthzRequest(user, "ReadAlert", device="VisualAid"), point)
            assert decision == first.setdefault(user, decision)
            assert list(point.decisions) == [coerce_constant(user).key()]
            assert point.hits == 0


def test_two_points_over_one_store_decide_alike_and_count_apart():
    # A point's memo and counters are its own, and nothing outside it
    # keeps it alive once it is dropped.
    store = primed_point().store
    first, second = make_point(store), make_point(store)
    requests = [AuthzRequest(user, "ReadAlert", device="VisualAid")
                for user in ("u1", "u2", "u3")] \
        + [AuthzRequest("u3", "OpenDoor", context={"time": "00.00"})]
    for request in requests * 2:
        assert authorize(request, first) == authorize(request, second)
    for request in requests:
        authorize(request, first)
    assert first.counts() == {"authorize_memo_hits": 8,
                              "authorize_memo_misses": 4,
                              "rederive_skips": 0}
    assert second.counts() == {"authorize_memo_hits": 4,
                               "authorize_memo_misses": 4,
                               "rederive_skips": 0}
    dropped = weakref.ref(first)
    del first
    gc.collect()
    assert dropped() is None


def test_an_authorize_reads_as_much_at_400_residents_as_at_4(monkeypatch):
    # The first four residents already fall in Group1, Group2 and Group3, so
    # no join reads an index bucket at 400 residents that is missing at 4.
    capabilities = ("hearing", "visual", "physical", "cognitive", "no")
    policy = pdp.compile_policy(RULES)
    calls = []
    probe = FactStore.probe

    def counted(self, *args):
        result = probe(self, *args)
        calls.extend(result)
        return result

    monkeypatch.setattr(FactStore, "probe", counted)
    reads = []
    for residents in (4, 400):
        point = make_point(FactStore(), policy)
        store = point.store
        for i in range(residents):
            user = f"r{i:04d}"
            store.assert_fact(ground("Authenticated", user, "yes"))
            store.assert_fact(ground("HasCapability", user,
                                     Constant.string(capabilities[i % 5])))
            store.assert_fact(ground("HasRecognizedBehavior", user,
                                     ("class1", "class2")[i % 2]))
            for service, device, time in (("ReadAlert", "AudioAid", "08.00"),
                                          ("OpenDoor", "VisualAid", "00.00"),
                                          ("Heat", "AudioAid", "20.30")):
                for predicate, value in (("AskedService", service),
                                         ("UsedDevice", device),
                                         ("HasTime", time),
                                         ("HasContext", time)):
                    store.assert_fact(ground(predicate, user, value))
            pdp.rederive(point, user)
        calls.clear()
        decision = authorize(AuthzRequest("r0001", "ReadAlert",
                                          device="AudioAid",
                                          context={"time": "10.00"}),
                             point)
        assert decision.effect == "permit"  # r0001 is visual, class2: Group2
        reads.append(len(calls))
    assert 0 < reads[1] <= reads[0]


DECISION_PREDICATES = ("hasaccess", "obligation", "recommendation")


def test_an_authorize_reads_as_many_decision_facts_at_400_residents_as_at_4():
    # Every resident holds an asserted obligation and recommendation; an
    # authorize reads the requester's and their group's decision facts
    # only, by subject, whatever the live store's size.
    capabilities = ("hearing", "visual", "physical", "cognitive", "no")
    policy = pdp.compile_policy(RULES)
    reads, decisions = [], []
    for residents in (4, 400):
        point = make_point(FactStore(), policy)
        store = point.store
        for i in range(residents):
            user = f"r{i:04d}"
            store.assert_fact(ground("Authenticated", user, "yes"))
            store.assert_fact(ground("HasCapability", user,
                                     Constant.string(capabilities[i % 5])))
            store.assert_fact(ground("HasRecognizedBehavior", user,
                                     ("class1", "class2")[i % 2]))
            store.assert_fact(ground("Obligation", user, "check-in"))
            store.assert_fact(ground("Recommendation", user, "hydrate"))
            pdp.rederive(point, user)
        counts = []
        for name in ("probe", "facts_for", "partition", "snapshot"):
            read = getattr(store, name, None)
            if read is None:
                continue

            def counted(*args, _read=read, **kwargs):
                result = _read(*args, **kwargs)
                counts.append(sum(1 for fact in result or ()
                                  if fact.key()[0] in DECISION_PREDICATES))
                return result
            setattr(store, name, counted)
        decisions.append(decided(authorize(
            AuthzRequest("r0001", "ReadAlert", device="AudioAid"),
            point)))
        reads.append(sum(counts))
    # r0001 is visual, class2: Group2.
    assert decisions[0] == ("permit", ["check-in"],
                            ["hydrate", "audible-alert"],
                            ["blind-permit", "asserted",
                             "blind-audible-alert"])
    assert decisions[1] == decisions[0]
    assert 0 < reads[1] == reads[0]


def test_an_authorize_whose_group_holds_no_facts_infers_over_one_partition(
        monkeypatch):
    # u1's group, Group1, is a constant the live store holds no fact
    # about: copying it adds nothing, so no second fixpoint runs.
    point = primed_point()
    store = point.store
    assert pdp.groups_of(store, "u1") == [Constant.symbol("Group1")]
    assert not facts_about(store, Constant.symbol("Group1"))
    calls = {"stores": 0, "infer_fixpoint": 0}
    init, infer = FactStore.__init__, pdp.infer_fixpoint

    def counting_init(self, *args):
        calls["stores"] += 1
        init(self, *args)

    def counting_infer(*args):
        calls["infer_fixpoint"] += 1
        return infer(*args)

    monkeypatch.setattr(FactStore, "__init__", counting_init)
    monkeypatch.setattr(pdp, "infer_fixpoint", counting_infer)
    decision = authorize(AuthzRequest("u1", "ReadAlert", device="VisualAid"),
                         point)
    assert decided(decision) == ("permit", [], ["visual-alert"],
                                 ["deaf-permit", "deaf-visual-alert"])
    assert calls == {"stores": 1, "infer_fixpoint": 1}


def test_an_authorize_whose_group_holds_facts_infers_over_one_store(
        monkeypatch):
    # Group1's facts are copied into the store the user's fixpoint ran
    # over, and one more fixpoint there derives the group's part: one
    # FactStore and two fixpoints, and the group's asserted and derived
    # decision facts reach the decision.
    store = primed_point().store
    store.assert_fact(ground("hasAccess", "Group1", "permit"))
    point = make_point(store, RULES + parse_ruleset(
        "@id: group-note\n"
        "hasAccess(?g, permit) -> Recommendation(?g, group-note)\n"))
    calls = {"stores": 0, "infer_fixpoint": 0}
    init, infer = FactStore.__init__, pdp.infer_fixpoint

    def counting_init(self, *args):
        calls["stores"] += 1
        init(self, *args)

    def counting_infer(*args):
        calls["infer_fixpoint"] += 1
        return infer(*args)

    monkeypatch.setattr(FactStore, "__init__", counting_init)
    monkeypatch.setattr(pdp, "infer_fixpoint", counting_infer)
    request = AuthzRequest("u1", "ReadAlert", device="VisualAid")
    decision = authorize(request, point)
    assert decided(decision) == (
        "permit", [], ["visual-alert", "group-note"],
        ["asserted", "deaf-permit", "deaf-visual-alert", "group-note"])
    assert calls == {"stores": 1, "infer_fixpoint": 2}
    monkeypatch.undo()
    assert decided(decision)[:3] == whole_snapshot_decision(
        request, store, point.policy)[:3]


REQUEST_TEXT = st.text(st.sampled_from('ab1 "\\.-_#'), min_size=1,
                       max_size=6)


@settings(max_examples=150, deadline=None)
@given(user=REQUEST_TEXT, service=REQUEST_TEXT,
       device=st.one_of(st.none(), REQUEST_TEXT),
       context=st.dictionaries(st.sampled_from(["location", "activity",
                                                "environment"]),
                               REQUEST_TEXT, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_request_facts_and_derived_heads_build_as_checked_facts(
        user, service, device, context, seed):
    # Request facts and instantiated rule heads skip Fact's checks.  Each
    # key the request path computes from the request's text must be the key
    # of the fact a checked build gives, and each fact built from that key
    # must equal that fact.
    request = AuthzRequest(user, service, device=device, context=context)
    subject = coerce_constant(user)
    keys = pdp._request_keys(request, subject.key())
    checked = request_facts(request)
    assert [key for _, _, key in keys] \
        == [fact_key(fact.predicate, fact.args) for fact in checked]
    constants = {}
    built = [pdp._request_fact(subject, entry, constants) for entry in keys]
    assert [f.predicate for f in built[:1]] == ["AskedService"]
    for fact, checked_fact in zip(built, checked):
        assert_built_alike(fact, checked_fact)
        for arg in fact.args:
            assert_built_alike(arg, Constant(arg.kind, arg.value))
        # One constant per value, whose key the fact's key shares.
        assert fact.args[1] is constants[fact.args[1].value]
        assert fact.key()[1][1] is fact.args[1].key()
    facts, rules = random_guarded_instance(random.Random(seed))
    store = FactStore()
    for fact in facts + built:
        store.assert_fact(fact)
    for fact in engine.infer_fixpoint(store, rules).derived:
        assert_built_alike(fact, Fact(fact.predicate, fact.args,
                                      origin="inferred",
                                      rule_id=fact.rule_id,
                                      premises=fact.premises))


HISTORY_REQUESTS = [("ReadAlert", "VisualAid"), ("OpenDoor", None),
                    ("Heat", "AudioAid")]


def test_an_authorize_reads_as_much_after_1000_requests_as_after_10():
    # Counts every fact an authorize gets back from the live store, a whole
    # copy or a partition included; u3's history of distinct times is never
    # read, also by a rule that leaves the time unbound.
    policy = pdp.compile_policy(RULES + parse_ruleset(
        "@id: any-time\nHasTime(?u, ?t) -> Recommendation(?u, timed)\n"))
    reads, decisions = [], []
    for served in (10, 1000):
        point = make_point(primed_point().store, policy)
        store = point.store
        for i in range(served):
            service, device = HISTORY_REQUESTS[i % 3]
            authorize(AuthzRequest("u3", service, device=device, context={
                "time": f"{i // 60:02d}.{i % 60:02d}", "location": "hall"}),
                point)
        counts = []
        for name in ("probe", "facts_for", "snapshot", "partition"):
            def counted(*args, _read=getattr(store, name), **kwargs):
                result = _read(*args, **kwargs)
                counts.append(len(result or ()))
                return result
            setattr(store, name, counted)
        decisions.append(decided(authorize(
            AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
            point)))
        reads.append(sum(counts))
    assert len(store) > 2000
    assert 0 < reads[1] == reads[0]
    assert decisions[1] == decisions[0]
    assert decisions[0][2:] == (["timed"],
                                ["alzheimer-deny", "asserted", "any-time"])


def test_an_authn_reads_as_much_after_1000_requests_as_after_10():
    # Counts every fact an authn gets back from the live store, a
    # partition included; u3's history of distinct times is never read.
    policy = pdp.compile_policy(RULES)
    model = scenarios.load_fixture_model(Config().distance_floor)
    [centroid] = [c.centroid for c in model.classes if c.id == "class2"]
    reads, results = [], []
    for served in (10, 1000):
        point = make_point(primed_point().store, policy, model,
                           scenarios.load_fixture_credentials())
        store = point.store
        for i in range(served):
            service, device = HISTORY_REQUESTS[i % 3]
            authorize(AuthzRequest("u3", service, device=device, context={
                "time": f"{i // 60:02d}.{i % 60:02d}", "location": "hall"}),
                point)
        counts = []
        for name in ("probe", "facts_for", "snapshot", "partition"):
            def counted(*args, _read=getattr(store, name)):
                result = _read(*args)
                counts.append(len(result or ()))
                return result
            setattr(store, name, counted)
        results.append(authenticate(
            AuthnRequest("u3", scenarios.FIXTURE_SECRETS["u3"], centroid),
            point))
        reads.append(sum(counts))
    assert len(store) > 2000
    assert 0 < reads[1] == reads[0]
    assert results[1] == results[0]
    assert results[0].authenticated == "yes"


def test_an_authorize_adds_only_its_new_request_facts_to_the_live_store():
    point = primed_point()
    store = point.store
    authorize(AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
              point)
    before = [(fact, fact.origin, fact.rule_id) for fact in store]
    request = AuthzRequest("u3", "OpenDoor", device="VisualAid",
                           context={"time": "00.00", "location": "hall"})
    decision = authorize(request, point)
    assert decision.effect == "deny" and "alzheimer-deny" in decision.rationale
    after = [(fact, fact.origin, fact.rule_id) for fact in store]
    held = {fact for fact, _, _ in before}
    new = [fact for fact in request_facts(request) if fact not in held]
    assert [f.render() for f in new] == [
        "UsedDevice(u3, VisualAid)", "HasLocation(u3, hall)",
        "HasContext(u3, hall)"]
    assert after == before + [(fact, "asserted", None) for fact in new]
    for predicate in ("hasAccess", "Obligation", "Recommendation"):
        assert all(fact.origin == "asserted"
                   for fact in store.facts_for(predicate))


def counting_builds(monkeypatch) -> list:
    """A one-item list counting each fact built from here on, checked
    (``Fact.__init__``) or not (``Fact._trusted``)."""
    built = [0]
    init, trusted = Fact.__init__, Fact._trusted.__func__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counting_trusted(cls, *args):
        built[0] += 1
        return trusted(cls, *args)

    monkeypatch.setattr(Fact, "__init__", counting_init)
    monkeypatch.setattr(Fact, "_trusted", classmethod(counting_trusted))
    return built


def test_an_authorize_builds_only_the_request_facts_it_needs(monkeypatch):
    # A memo hit reads keys and builds only the request history the store
    # lacks; a miss builds its readable request facts, the new history it
    # has not built, and what its fixpoints derive: no fact twice.
    point = primed_point()
    store, policy = point.store, point.policy
    built, derived = counting_builds(monkeypatch), [0]
    infer = pdp.infer_fixpoint

    def counting_infer(*args):
        report = infer(*args)
        derived[0] += len(report.derived)
        return report

    monkeypatch.setattr(pdp, "infer_fixpoint", counting_infer)
    seen = []
    for request in [
            AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
            AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
            AuthzRequest("u3", "OpenDoor",
                         context={"time": "00.00", "location": "hall"}),
            AuthzRequest("u3", "Heat", device="AudioAid",
                         context={"time": "10.00"})]:
        held = {fact.key() for fact in store if fact.origin == "asserted"}
        facts = request_facts(request)
        new = {fact.key() for fact in facts} - held
        readable = {fact.key() for fact in facts
                    if policy.reads(fact.key()) is not None}
        hits = point.hits
        before = built[0], derived[0]
        authorize(request, point)
        hit = point.hits > hits
        builds, fixpoint = built[0] - before[0], derived[0] - before[1]
        assert builds == (len(new) if hit else len(new | readable) + fixpoint)
        assert {fact.key() for fact in store
                if fact.origin == "asserted"} == held | new
        seen.append((hit, len(new), builds - fixpoint))
    assert seen == [(False, 3, 3), (True, 0, 0), (True, 2, 2), (False, 4, 4)]


def test_rederive_reads_neither_the_session_outcome_nor_history():
    store = load_facts('Authenticated(u1, yes).\nHasCapability(u1, "no").\n'
                       "AskedService(u1, ReadAlert).\n")
    point = make_point(store, parse_ruleset(
        "@id: trusted\nAuthenticated(?u, yes) -> Trusted(?u, yes)\n\n"
        "@id: asked\nAskedService(?u, ?s) -> Asked(?u, ?s)\n\n"
        '@id: plain\nHasCapability(?u, "no") -> Plain(?u, yes)\n\n'
        # Derived request facts stay out of the live store, as a derived
        # Authenticated does: rederive skips their buckets, so it would
        # never drop them again.
        '@id: derived-time\nHasCapability(?u, "no") -> HasTime(?u, "08.00")\n'))
    pdp.rederive(point, "u1")
    assert [f.render() for f in store if f.origin == "inferred"] \
        == ["Plain(u1, yes)"]


def test_unauthenticated_user_denied_with_reason():
    store = FactStore()
    store.assert_fact(ground("BehaviorCapability", "u9", "Group1"))
    decision = authorize(AuthzRequest("u9", "ReadAlert"), make_point(store))
    assert decision.effect == "deny"
    assert decision.rationale == ["not-authenticated"]


def test_default_deny_with_empty_ruleset():
    rng = random.Random(9)
    for index in range(50):
        user = f"user{index}"
        store = FactStore()
        store.assert_fact(ground("Authenticated", user, "yes"))
        decision = authorize(
            AuthzRequest(user, rng.choice(["OpenDoor", "ReadAlert", "Heat"])),
            make_point(store, []))
        assert decision.effect == "deny"
        assert decision.rationale == ["default-deny"]


def test_deny_overrides_permit():
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    store.assert_fact(ground("hasAccess", "u1", "permit"))
    store.assert_fact(ground("hasAccess", "u1", Constant.string("Deny")))
    decision = authorize(AuthzRequest("u1", "OpenDoor"), make_point(store, []))
    assert decision.effect == "deny"


def test_deny_overrides_when_both_rules_fire():
    rules = parse_ruleset(
        "@id: give\nAskedService(?u, OpenDoor) -> hasAccess(?u, permit)\n\n"
        "@id: take\nAskedService(?u, OpenDoor) -> hasAccess(?u, \"Deny\")\n")
    store = FactStore()
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    decision = authorize(AuthzRequest("u1", "OpenDoor"),
                         make_point(store, rules))
    assert decision.effect == "deny"
    assert set(decision.rationale) == {"give", "take"}


def test_authentication_gate_never_permits():
    permissive = parse_ruleset(
        "@id: anything\nAskedService(?u, ?s) -> hasAccess(?u, permit)\n")
    rng = random.Random(11)
    for index in range(50):
        user = f"user{index}"
        store = FactStore()
        if rng.random() < 0.5:
            store.assert_fact(ground("Authenticated", user, "no"))
        decision = authorize(
            AuthzRequest(user, rng.choice(["OpenDoor", "ReadAlert"])),
            make_point(store, permissive))
        assert decision.effect == "deny"
        assert decision.rationale == ["not-authenticated"]


def test_latest_context_wins_for_request_evaluation():
    point = make_point(group3_member())
    deny = authorize(AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
                     point)
    assert deny.effect == "deny"
    # same store, new daytime request: the midnight context must not linger
    later = authorize(AuthzRequest("u3", "OpenDoor", context={"time": "10.00"}),
                      point)
    assert later.effect == "deny"  # closed world: nothing permits OpenDoor
    assert later.rationale == ["default-deny"]


def test_request_facts_kept_as_history():
    store = group3_member()
    authorize(AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
              make_point(store))
    assert store.holds("AskedService", "u3", "OpenDoor")
    assert store.holds("HasContext", "u3", Constant.string("00.00"))


def test_request_history_held_as_inferred_is_asserted_again():
    # A request fact the store holds only as inferred is history like a
    # new one: the authorize asserts it, which upgrades the held fact.
    store = group3_member()
    store.assert_fact(Fact("HasContext", (Constant.symbol("u3"),
                                          Constant.string("00.00")),
                           origin="inferred", rule_id="clock"))
    authorize(AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
              make_point(store))
    held = store.get("HasContext", ("u3", Constant.string("00.00")))
    assert (held.origin, held.rule_id, held.premises) == ("asserted", None, ())


def test_bad_time_format_rejected():
    with pytest.raises(PdpError):
        AuthzRequest("u1", "OpenDoor", context={"time": "0.0"})


@pytest.mark.parametrize("time", ["24.00", "99.99", "23.60"])
def test_a_time_off_the_clock_is_rejected(time):
    with pytest.raises(PdpError, match="from 00.00 to 23.59"):
        AuthzRequest("u1", "OpenDoor", context={"time": time})


def test_every_time_on_the_clock_is_accepted():
    for minute in range(24 * 60):
        time = f"{minute // 60:02d}.{minute % 60:02d}"
        assert AuthzRequest("u1", "OpenDoor",
                            context={"time": time}).context["time"] == time


NOT_TEXT = [7, 7.5, True, ["u1"]]


@pytest.mark.parametrize("value", NOT_TEXT)
@pytest.mark.parametrize("field", ["user", "service", "device", "context"])
def test_a_request_value_that_is_not_text_is_refused_before_the_gate(
        field, value):
    # Coerced, such a value would be a number or a symbol (True reads as
    # yes), not the text the request facts' keys are computed from.
    store, log = group3_member(), AuditLog()
    parts = {"user": "u3", "service": "OpenDoor", "device": None,
             "context": {}}
    if field == "context":
        parts["context"] = {"location": value}
    else:
        parts[field] = value
    before = [(fact, fact.origin) for fact in store]
    with pytest.raises(PdpError, match=field):
        authorize(AuthzRequest(**parts), make_point(store, audit_log=log))
    assert log.seq == 0
    assert [(fact, fact.origin) for fact in store] == before


@pytest.mark.parametrize("context", [["time"], "10.00"])
def test_a_context_that_is_not_a_dict_is_refused(context):
    with pytest.raises(PdpError, match="context must be a dict"):
        AuthzRequest("u3", "OpenDoor", context=context)


# ---------------------------------------------------------------------------
# Audit log
# ---------------------------------------------------------------------------

def test_first_entry_gets_seq_one(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    assert log.append("authn", "u1", "yes").seq == 1
    log.close()


def test_three_appends_sequence(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    seqs = [log.append("authn", "u1", "yes").seq,
            log.append("authz", "u1", "permit").seq,
            log.append("anomaly", "u1", "flagged").seq]
    log.close()
    assert seqs == [1, 2, 3]


def test_log_reload_roundtrips_byte_identically(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    log.append("authn", "u1", "yes", "mean=username/password")
    log.append("authz", "u1", "permit", "detail with | pipe and \\ slash")
    log.close()
    on_disk = path.read_text(encoding="utf-8")
    reloaded = AuditLog.load(path)
    assert "\n".join(serialize_entry(e) for e in reloaded) + "\n" == on_disk
    assert reloaded[-1].detail == "detail with | pipe and \\ slash"


def test_log_continues_sequence_across_reopen(tmp_path):
    path = tmp_path / "audit.log"
    first = AuditLog(path)
    first.append("authn", "u1", "yes")
    first.close()
    log = AuditLog(path)
    assert log.append("authz", "u1", "permit").seq == 2
    log.close()


def test_memory_keeps_a_bounded_tail_and_the_file_every_entry(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    total = pdp.AUDIT_TAIL + 10
    for i in range(total):
        log.append("authz", f"u{i}", "deny")
    log.close()
    tail = log.entries()
    assert len(tail) == pdp.AUDIT_TAIL
    assert [e.seq for e in tail] == list(range(11, total + 1))
    assert [e.seq for e in AuditLog.load(path)] == list(range(1, total + 1))


def test_reopen_parses_only_the_last_line(tmp_path, monkeypatch):
    path = tmp_path / "audit.log"
    first = AuditLog(path)
    for outcome in ("yes", "permit", "deny"):
        first.append("authz", "u1", outcome, "x" * 5000)
    first.close()
    parsed = []
    parse = pdp.parse_entry
    monkeypatch.setattr(pdp, "parse_entry",
                        lambda line: parsed.append(line) or parse(line))
    log = AuditLog(path)
    assert len(parsed) == 1
    assert log.append("authn", "u1", "yes").seq == 4
    log.close()


@pytest.mark.parametrize("last", ["garbage", "x|t|authz|u1|deny|", "7|t|authz"])
def test_reopen_on_a_malformed_last_line_raises(tmp_path, last):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    log.append("authn", "u1", "yes")
    log.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(last + "\n")
    with pytest.raises(AuditError):
        AuditLog(path)


def test_request_text_in_subject_and_detail_stays_on_one_line(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    odd = "a|b\\c\nd\re\u2028f"
    written = [log.append("authz", odd, "deny", f"service={odd}"),
               log.append("authn", "u1", "yes", odd)]
    log.close()
    assert len(path.read_text(encoding="utf-8").split("\n")) == 3
    assert AuditLog.load(path) == written
    reopened = AuditLog(path)
    assert reopened.append("authn", "u1", "no").seq == 3
    reopened.close()


def _append_reopening(path, entries):
    """Write entries as the log did before it kept its file open."""
    for entry in entries:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(serialize_entry(entry) + "\n")


def test_open_file_reads_as_one_opened_per_append(tmp_path):
    path, reference = tmp_path / "audit.log", tmp_path / "reference.log"
    first = AuditLog(path)
    written = [first.append("authn", "u1", "yes", "mean=username/password"),
               first.append("authz", "a|b\\c\nd\re\u00e9", "deny", "x" * 9000)]
    second = AuditLog(path)  # a second log on the same path, in turn
    for log, outcome in ((second, "permit"), (first, "deny"),
                         (second, "flagged"), (first, "no")):
        written.append(log.append("authz", "u2", outcome, f"detail {outcome}"))
    _append_reopening(reference, written)
    assert path.read_bytes() == reference.read_bytes()  # flushed per line
    first.close()
    second.close()
    assert path.read_bytes() == reference.read_bytes()
    assert [e.seq for e in written] == [1, 2, 3, 3, 4, 4]


def test_reopening_continues_the_sequence_after_close(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    log.append("authn", "u1", "yes")
    log.close()
    log.close()  # closing twice is harmless
    reopened = AuditLog(path)
    assert reopened.append("authz", "u1", "permit").seq == 2
    reopened.close()
    assert log.append("authz", "u1", "deny").seq == 2  # reopens on append
    log.close()
    assert [e.outcome for e in AuditLog.load(path)] == ["yes", "permit", "deny"]
    assert AuditLog(path).seq == 2


def test_text_that_is_not_utf8_is_an_audit_error_and_writes_nothing(
        tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    for subject, detail in (("\ud800", ""), ("u1", "class=\udfff")):
        with pytest.raises(AuditError, match="audit append failed"):
            log.append("anomaly", subject, "flagged", detail)
        assert log.seq == 0 and log.entries() == ()
        assert not path.exists() or path.read_bytes() == b""
    assert log.append("anomaly", "u1", "flagged").seq == 1
    log.close()
    assert [e.seq for e in AuditLog.load(path)] == [1]


def test_entry_roundtrip_with_newline_in_detail():
    log = AuditLog()
    entry = log.append("anomaly", "u1", "flagged", "line1\nline2")
    assert parse_entry(serialize_entry(entry)) == entry
    # A lone trailing backslash, which no written entry ends with, reads
    # as it is.
    assert parse_entry("1|t|authz|u1|deny|a\\").detail == "a\\"


AUDIT_TEXT = st.text(st.sampled_from("\\|\n\rabZ\u00e9"), max_size=8)


@settings(max_examples=200, deadline=None)
@given(seq=st.integers(1, 10 ** 6), subject=AUDIT_TEXT, detail=AUDIT_TEXT,
       kind=st.sampled_from(["authn", "authz", "anomaly"]))
def test_an_entry_reads_back_as_written(seq, subject, detail, kind):
    entry = pdp.AuditEntry(seq=seq, time="2026-01-01T00:00:00+00:00",
                           kind=kind, subject=subject, detail=detail,
                           outcome="deny")
    line = serialize_entry(entry)
    assert "\n" not in line and "\r" not in line
    assert parse_entry(line) == entry
    if not set(subject + detail) & set("\\|\n\r"):  # nothing to escape
        assert line.endswith(f"|{subject}|deny|{detail}")


# The function-scoped monkeypatch sets the clock anew in every example.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(second=st.integers(0, 253402300799))
def test_an_entry_time_follows_the_clock_across_seconds(monkeypatch, second):
    # Up to 9999-12-31T23:59:59, an entry's time reads as datetime's ISO
    # form of its UTC second.
    log = AuditLog()
    shown = []
    for now in (1699999999.2, 1699999999.9, 1700000000.0, 1700000000.999,
                1700000061.5, 1699999999.5, second + 0.5, second):
        monkeypatch.setattr(pdp.time, "time", lambda now=now: now)
        shown.append(log.append("authz", "u1", "deny").time)
    assert shown[:6] == ["2023-11-14T22:13:19+00:00"] * 2 \
        + ["2023-11-14T22:13:20+00:00"] * 2 \
        + ["2023-11-14T22:14:21+00:00", "2023-11-14T22:13:19+00:00"]
    assert shown[6:] == [datetime.fromtimestamp(
        second, timezone.utc).isoformat(timespec="seconds")] * 2


def test_authenticate_and_authorize_append_exactly_one_entry_each():
    store = FactStore()
    store.assert_fact(ground("HasCapability", "u1", Constant.string("no")))
    log = AuditLog()
    point = make_point(store, audit_log=log)
    authenticate(AuthnRequest("u1", Credential("password", "open-sesame"),
                              at_centroid("class1")), point)
    assert [e.kind for e in log.entries()] == ["authn"]
    authorize(AuthzRequest("u1", "ReadAlert"), point)
    assert [e.kind for e in log.entries()] == ["authn", "authz"]
    assert [e.seq for e in log.entries()] == [1, 2]


def test_each_decision_appends_one_entry_with_its_detail():
    # Priming authenticates u1, u2 and u3 and flags u3's wandering; then u1
    # is permitted, fails a password check, and is stopped at the gate.
    point = make_point(FactStore(), RULES,
                       scenarios.load_fixture_model(Config().distance_floor),
                       scenarios.load_fixture_credentials(),
                       audit_log=AuditLog())
    scenarios.prime_store(point)
    request = AuthzRequest("u1", "ReadAlert", "VisualAid", {"time": "10.00"})
    authorize(request, point)
    authenticate(AuthnRequest("u1", Credential("password", "guess")), point)
    authorize(request, point)
    assert [(e.seq, e.kind, e.subject, e.outcome, e.detail)
            for e in point.audit_log.entries()] == [
        (1, "authn", "u1", "yes",
         "mean=username/password class=class1 trust=1.000"),
        (2, "authn", "u2", "yes",
         "mean=username/password class=class2 trust=1.000"),
        (3, "authn", "u3", "yes", "mean=tag-mean class=class2 trust=1.000"),
        (4, "anomaly", "u3", "flagged", "class=class2 trust=0.013"),
        (5, "authz", "u1", "permit",
         "service=ReadAlert rationale=deaf-permit,deaf-visual-alert"),
        (6, "authn", "u1", "no", "mean=username/password class=class3 "
         "trust=0.075 reason=password mismatch"),
        (7, "authz", "u1", "deny", "service=ReadAlert reason=not-authenticated"),
    ]


# ---------------------------------------------------------------------------
# Anomaly detection
# ---------------------------------------------------------------------------

def test_recent_at_centroid_not_flagged():
    assert not flag_anomaly(make_point(FactStore(), anomaly_threshold=0.5),
                            "u1", "class1", at_centroid("class1"))


def test_wandering_recent_vector_flagged():
    far = FeatureVector({"move:bedroom->kitchen": 300.0})
    assert flag_anomaly(make_point(FactStore(), anomaly_threshold=0.5),
                        "u1", "class2", far)


def test_threshold_zero_never_flags():
    far = FeatureVector({"move:bedroom->kitchen": 1e6})
    assert not flag_anomaly(make_point(FactStore(), anomaly_threshold=0.0),
                            "u1", "class2", far)


def test_nan_recent_vector_is_not_passed_as_normal():
    # A NaN trust is never below the threshold, so it must raise instead.
    store = group3_member()
    log = AuditLog()
    recent = FeatureVector({"move:bedroom->kitchen": float("nan")})
    with pytest.raises(ValueError):
        flag_anomaly(make_point(store, audit_log=log), "u3", "class2", recent)
    assert log.entries() == ()


def test_flagged_cognitive_user_gets_emergency_obligation():
    store = group3_member()
    log = AuditLog()
    far = FeatureVector({"move:bedroom->kitchen": 300.0})
    point = make_point(store, audit_log=log)
    flagged = flag_anomaly(point, "u3", "class2", far)
    assert flagged
    assert store.holds("Obligation", "u3", "signal-emergency")
    assert [e.kind for e in log.entries()] == ["anomaly"]
    decision = authorize(AuthzRequest("u3", "OpenDoor", context={"time": "00.00"}),
                         point)
    assert decision.effect == "deny"
    assert decision.obligations == ["signal-emergency"]


def test_unflagged_check_writes_no_audit_entry():
    store = group3_member()
    log = AuditLog()
    flagged = flag_anomaly(make_point(store, audit_log=log), "u3", "class2",
                           at_centroid("class2"))
    assert not flagged
    assert log.entries() == ()


def test_non_cognitive_user_gets_no_obligation():
    store = FactStore()
    store.assert_fact(ground("BehaviorCapability", "u1", "Group1"))
    far = FeatureVector({"move:bedroom->kitchen": 300.0})
    assert flag_anomaly(make_point(store), "u1", "class1", far)
    assert not store.holds("Obligation", "u1", "signal-emergency")


# ---------------------------------------------------------------------------
# Credentials helpers
# ---------------------------------------------------------------------------

def test_password_hash_verify_roundtrip():
    record = hash_password("secret-9")
    assert verify_password("secret-9", record)
    assert not verify_password("secret-8", record)


def test_non_ascii_password_text_is_compared_not_an_error():
    # A record's digest with non-ASCII text matches no password.
    assert not verify_password("secret-9", "salt$\u00e9")
    record = hash_password("s\u00e9same")
    assert verify_password("s\u00e9same", record)
    assert not verify_password("\ud800", record)  # a lone surrogate


def test_load_credentials_parses_lines():
    creds = load_credentials("# c\nu1:password:salt$abc\nu2:tag:tok\n")
    assert creds == {"u1": ("password", "salt$abc"), "u2": ("tag", "tok")}


def test_load_credentials_rejects_bad_line():
    with pytest.raises(PdpError):
        load_credentials("u1=password\n")


def test_load_credentials_refuses_an_empty_record():
    # An empty tag record would accept an empty presented tag.
    with pytest.raises(PdpError) as caught:
        load_credentials("u1:password:salt$abc\nu3:tag:\n")
    assert str(caught.value) == "credentials line 2: empty record"


def test_load_credentials_refuses_a_user_listed_twice():
    # A line appended later must not silently replace a credential.
    with pytest.raises(PdpError) as caught:
        load_credentials("u1:password:9f2c1a77$6e87\nu1:tag:t-1\n")
    assert str(caught.value) == "credentials line 2: duplicate user 'u1'"
