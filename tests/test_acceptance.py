"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPT <n> <name>: PASS`` line on success (visible
with ``pytest -s`` or ``-rA``); a failure simply fails the test.  Criteria:

 1. scenario goldens (deaf/blind/alzheimer outcomes, exact match)
 2. verbatim rule corpus parses and round-trips (100%)
 3. fixpoint equals the naive oracle on >= 200 random instances
 4. engine monotonicity, idempotence, rule-order independence (200 each)
 5. classifier vs brute-force scan (100 models); incremental vs batch mean
    within 1e-9 (100 sequences)
 6. decision-point invariants: default-deny, deny-overrides, authn gate
 7. audit integrity: gap-free sequence, byte-identical reload
 8. feature extraction equals the committed hand-computed table (1e-9)
 9. serve-mode conformance: three decisions plus one error, in order
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import aalguard
from aalguard.behavior import (
    BehaviorClass,
    BehaviorModel,
    FeatureVector,
    extract_features,
    load_events,
    update_class,
)
from aalguard.engine import infer_fixpoint
from aalguard.facts import Constant, FactStore, ground
from aalguard.pdp import (AuditLog, AuthzRequest, DecisionPoint, authorize,
                          serialize_entry)
from aalguard.rules import _split_statements, format_rule, parse_rules, parse_ruleset
from aalguard.scenarios import SCENARIO_NAMES, run_scenario

from conftest import DATA_DIR
from oracles import (
    batch_mean,
    brute_force_nearest,
    naive_fixpoint,
    random_instance,
    store_keys,
)

FIXTURES = Path(aalguard.__file__).parent / "fixtures"


def report(criterion: str) -> None:
    print(f"ACCEPT {criterion}: PASS")


def test_criterion_1_scenario_goldens():
    expected = {
        "deaf": ("permit", ["visual-alert"], []),
        "blind": ("permit", ["audible-alert"], []),
        "alzheimer": ("deny", [], ["signal-emergency"]),
    }
    for name in SCENARIO_NAMES:
        run = run_scenario(name)
        effect, recommendations, obligations = expected[name]
        assert run.passed, run.lines
        assert run.decision.effect == effect
        assert run.decision.recommendations == recommendations
        assert run.decision.obligations == obligations
    report("1 scenario-goldens")


def test_criterion_2_verbatim_rule_corpus():
    corpus = (DATA_DIR / "verbatim_rules.txt").read_text(encoding="utf-8")
    statements = _split_statements(corpus)
    assert len(statements) == 10
    parsed_total = 0
    for statement, line in statements:
        rules = parse_rules(statement)   # must not raise
        parsed_total += len(rules)
        for rule in rules:
            assert parse_rules(format_rule(rule)) == [rule]
    assert parsed_total == 11  # the group-assignment chain splits in two
    report("2 verbatim-corpus")


def test_criterion_3_fixpoint_oracle_equivalence():
    rng = random.Random(31337)
    mismatches = 0
    for _ in range(200):
        facts, rules = random_instance(rng, max_facts=30, max_rules=6,
                                       max_constants=8)
        store = FactStore()
        for fact in facts:
            store.assert_fact(fact)
        infer_fixpoint(store, rules)
        expected = naive_fixpoint([(f.predicate, f.args) for f in facts], rules)
        if store_keys(store) != expected:
            mismatches += 1
    assert mismatches == 0
    report("3 fixpoint-oracle")


def test_criterion_4_engine_properties():
    rng = random.Random(4242)
    for _ in range(200):  # monotonicity
        facts, rules = random_instance(rng)
        small, big = FactStore(), FactStore()
        for fact in facts:
            small.assert_fact(fact)
            big.assert_fact(fact)
        extra = ground(rng.choice(["linksTo", "holds", "near"]),
                       f"c{rng.randint(1, 8)}")
        big.assert_fact(extra)
        infer_fixpoint(small, rules)
        infer_fixpoint(big, rules)
        assert store_keys(small) <= store_keys(big) | {extra.key()}
    for _ in range(200):  # idempotence
        facts, rules = random_instance(rng)
        store = FactStore()
        for fact in facts:
            store.assert_fact(fact)
        infer_fixpoint(store, rules)
        assert infer_fixpoint(store, rules).derived == []
    for _ in range(200):  # rule-order independence
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
    report("4 engine-properties")


def test_criterion_5_classifier_oracles():
    from aalguard.behavior import classify

    rng = random.Random(555)
    for _ in range(100):
        keys = [f"k{i}" for i in range(rng.randint(1, 6))]
        classes = []
        for index in range(rng.randint(1, 5)):
            chosen = rng.sample(keys, rng.randint(0, len(keys)))
            classes.append(BehaviorClass(
                f"c{index}",
                FeatureVector({k: rng.uniform(0, 300) for k in chosen})))
        model = BehaviorModel(classes=classes)
        probe_keys = rng.sample(keys, rng.randint(0, len(keys)))
        fv = FeatureVector({k: rng.uniform(0, 300) for k in probe_keys})
        got_id, got_d = classify(model, fv)
        want_id, want_d = brute_force_nearest(model, fv)
        assert got_id == want_id
        assert got_d == pytest.approx(want_d, abs=1e-9)
    for _ in range(100):
        keys = [f"k{i}" for i in range(rng.randint(1, 5))]
        vectors = [FeatureVector({k: rng.uniform(0, 1000) for k in keys})
                   for _ in range(rng.randint(1, 15))]
        model = BehaviorModel(classes=[BehaviorClass("c", FeatureVector(), n=0)])
        for fv in vectors:
            update_class(model, "c", fv)
        expected = batch_mean(vectors)
        got = model.get("c").centroid.entries
        for key, value in expected.items():
            assert abs(got[key] - value) <= 1e-9
    report("5 classifier-oracles")


def test_criterion_6_pdp_invariants():
    rng = random.Random(66)
    for index in range(50):  # default deny
        user = f"user{index}"
        store = FactStore()
        store.assert_fact(ground("Authenticated", user, "yes"))
        decision = authorize(
            AuthzRequest(user, rng.choice(["OpenDoor", "ReadAlert", "Heat"])),
            DecisionPoint(store, [], None, {}))
        assert decision.effect == "deny"

    store = FactStore()  # deny overrides permit
    store.assert_fact(ground("Authenticated", "u1", "yes"))
    store.assert_fact(ground("hasAccess", "u1", "permit"))
    store.assert_fact(ground("hasAccess", "u1", Constant.string("Deny")))
    assert authorize(AuthzRequest("u1", "OpenDoor"),
                     DecisionPoint(store, [], None, {})).effect == "deny"

    permissive = parse_ruleset(
        "@id: anything\nAskedService(?u, ?s) -> hasAccess(?u, permit)\n")
    for index in range(50):  # authentication gate
        user = f"user{index}"
        store = FactStore()
        if rng.random() < 0.5:
            store.assert_fact(ground("Authenticated", user, "no"))
        decision = authorize(
            AuthzRequest(user, rng.choice(["OpenDoor", "ReadAlert"])),
            DecisionPoint(store, permissive, None, {}))
        assert decision.effect == "deny"
        assert decision.rationale == ["not-authenticated"]
    report("6 pdp-invariants")


def test_criterion_7_audit_integrity(tmp_path):
    for name in SCENARIO_NAMES:
        path = tmp_path / f"{name}.log"
        run = run_scenario(name, audit_path=path)
        seqs = [e.seq for e in run.audit_log.entries()]
        assert seqs == list(range(1, len(seqs) + 1))
        on_disk = path.read_text(encoding="utf-8")
        reloaded = AuditLog.load(path)
        assert "\n".join(serialize_entry(e) for e in reloaded) + "\n" == on_disk
    report("7 audit-integrity")


def test_criterion_8_feature_extraction_oracle():
    events = load_events(
        (FIXTURES / "streams" / "events_u1.csv").read_text(encoding="utf-8"))
    table = {}
    text = (FIXTURES / "streams" / "events_u1_expected.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        user, key, mean, support = line.split()
        table.setdefault(user, {})[key] = (float(mean), int(support))
    for user, expected in table.items():
        fv = extract_features(events, user)
        assert set(fv.entries) == set(expected)
        for key, (mean, _) in expected.items():
            assert abs(fv.entries[key] - mean) <= 1e-9
    report("8 feature-oracle")


def test_criterion_9_serve_conformance():
    requests = [
        {"op": "authorize", "user": "u1", "service": "ReadAlert",
         "device": "VisualAid", "context": {"time": "10.00"}},
        {"op": "authorize", "user": "u2", "service": "ReadAlert",
         "device": "AudioAid", "context": {"time": "10.00"}},
        {"op": "authorize", "user": "u3", "service": "OpenDoor",
         "context": {"time": "00.00"}},
    ]
    lines = [json.dumps(m) for m in requests] + ["not a json message"]
    result = subprocess.run(
        [sys.executable, "-m", "aalguard", "serve", "--listen", "-",
         "--prime-scenarios"],
        capture_output=True, text=True,
        input="\n".join(lines) + "\n", timeout=120)
    assert result.returncode == 0, result.stderr
    responses = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(responses) == 4  # connection survived the malformed line
    assert [r.get("effect") for r in responses[:3]] == ["permit", "permit", "deny"]
    assert all(r["ok"] for r in responses[:3])
    assert responses[3]["ok"] is False and responses[3]["error"]
    report("9 serve-conformance")
