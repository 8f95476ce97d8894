import json
import subprocess
import sys
from pathlib import Path

from aalguard import behavior, pdp, scenarios
from aalguard.config import Config
from aalguard.facts import FactStore, save_facts
from aalguard.pdp import AuditLog, serialize_entry
from aalguard.scenarios import SCENARIO_NAMES, run_scenario


def test_deaf_scenario_passes():
    run = run_scenario("deaf")
    assert run.passed
    assert run.decision.effect == "permit"
    assert run.decision.recommendations == ["visual-alert"]
    assert run.authn.mean_used == "username/password"
    assert run.authn.trust == 1.0


TRACED_DEAF = """\
import json
from perfbench.spans import NAME, Tracer, install
tracer = Tracer()
install(tracer)
from aalguard import scenarios
assert scenarios.run_scenario("deaf").passed
print(json.dumps(sorted({span[NAME] for span in tracer.spans})))
"""


def test_the_benchmark_tracer_wraps_a_scenario_run():
    # The tracer patches module attributes, so it runs in its own process.
    result = subprocess.run([sys.executable, "-c", TRACED_DEAF],
                            cwd=Path(__file__).parents[1], capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    names = set(json.loads(result.stdout))
    assert {"engine.infer_fixpoint", "pdp.authorize"} <= names
    # authorize reads the live store through an overlay and copies nothing.
    assert "facts.snapshot" not in names


def test_blind_scenario_passes():
    run = run_scenario("blind")
    assert run.passed
    assert run.decision.effect == "permit"
    assert run.decision.recommendations == ["audible-alert"]


def test_alzheimer_scenario_passes():
    run = run_scenario("alzheimer")
    assert run.passed
    assert run.decision.effect == "deny"
    assert run.decision.obligations == ["signal-emergency"]
    assert run.authn.mean_used == "tag-mean"
    assert run.anomaly_flagged


def test_scenario_reports_are_deterministic():
    for name in SCENARIO_NAMES:
        first = run_scenario(name)
        second = run_scenario(name)
        assert first.lines == second.lines


def test_alzheimer_audit_has_one_entry_per_kind(tmp_path):
    run = run_scenario("alzheimer", audit_path=tmp_path / "audit.log")
    kinds = [e.kind for e in run.audit_log.entries()]
    assert kinds.count("authn") == 1
    assert kinds.count("authz") == 1
    assert kinds.count("anomaly") == 1
    assert len(kinds) == 3


def test_scenario_audit_sequence_gap_free_and_reloadable(tmp_path):
    path = tmp_path / "audit.log"
    run = run_scenario("deaf", audit_path=path)
    seqs = [e.seq for e in run.audit_log.entries()]
    assert seqs == list(range(1, len(seqs) + 1))
    on_disk = path.read_text(encoding="utf-8")
    reloaded = AuditLog.load(path)
    assert "\n".join(serialize_entry(e) for e in reloaded) + "\n" == on_disk
    assert list(reloaded) == list(run.audit_log.entries())


PRIMED_FACTS = sorted([
    'HasCapability(u1, "hearing").',
    'HasCapability(u2, "visual").',
    'HasCapability(u3, "cognitive").',
    'HasCapability(u3, "physical").',
    "Authenticated(u1, yes).",
    "HasRecognizedBehavior(u1, class1).",
    "Authenticated(u2, yes).",
    "HasRecognizedBehavior(u2, class2).",
    "Authenticated(u3, yes).",
    "HasRecognizedBehavior(u3, class2).",
    "BehaviorCapability(u1, Group1).  # inferred rule=group1-assign",
    "BehaviorCapability(u2, Group2).  # inferred rule=group2-assign",
    "BehaviorCapability(u3, Group3).  # inferred rule=group3-assign",
    "Obligation(u3, signal-emergency).",
])


def _primed_store():
    store = FactStore()
    scenarios.prime_store(pdp.DecisionPoint(
        store, scenarios.load_fixture_rules(),
        scenarios.load_fixture_model(Config().distance_floor),
        scenarios.load_fixture_credentials()))
    return store


def test_primed_store_holds_the_fourteen_fixture_facts():
    lines = save_facts(_primed_store()).splitlines()
    assert sorted(line for line in lines if line.strip()) == PRIMED_FACTS


def test_priming_extracts_features_twice_per_resident(monkeypatch):
    calls = []
    extract = behavior.extract_features

    def counted(events, user):
        calls.append(user)
        return extract(events, user)

    monkeypatch.setattr(behavior, "extract_features", counted)
    _primed_store()
    assert len(calls) == 2 * len(SCENARIO_NAMES)
