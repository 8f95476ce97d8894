"""Built-in scenario fixtures and the pipeline harness that runs them.

Each scenario models one resident in a risky situation: a hearing-impaired
user asking to read an alert (served visually), a visually-impaired user
asking the same (served audibly), and a cognitively-impaired user trying to
open the front door at midnight (denied, with an emergency obligation raised
by the wandering detected in their recent movement stream).

A run walks the whole pipeline: ingest events, extract features, classify
and authenticate (deriving groups), check the recent stream for anomalies,
then authorize the scenario request and compare against the expected outcome.
Reports are deterministic: same fixtures, same bytes.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import behavior, pdp
from .config import Config
from .facts import FactStore, load_facts
from .rules import parse_ruleset

SCENARIO_NAMES = ("deaf", "blind", "alzheimer")

# Fixture secrets live here so the harness can present them; the credentials
# file stores only the salted hashes (and the tag token).
FIXTURE_SECRETS = {
    "u1": pdp.Credential("password", "door-chime-7"),
    "u2": pdp.Credential("password", "braille-lane-9"),
    "u3": pdp.Credential("tag", "tag-u3-0042"),
}


class ScenarioFixture(NamedTuple):
    name: str
    user: str
    service: str
    device: Optional[str]
    context: Dict[str, str]
    expected_effect: str
    expected_recommendations: Tuple[str, ...] = ()
    expected_obligations: Tuple[str, ...] = ()
    expects_anomaly: bool = False


SCENARIOS = {
    "deaf": ScenarioFixture(
        name="deaf", user="u1", service="ReadAlert", device="VisualAid",
        context={"time": "10.00", "location": "livingroom"},
        expected_effect="permit",
        expected_recommendations=("visual-alert",),
    ),
    "blind": ScenarioFixture(
        name="blind", user="u2", service="ReadAlert", device="AudioAid",
        context={"time": "10.00", "location": "livingroom"},
        expected_effect="permit",
        expected_recommendations=("audible-alert",),
    ),
    "alzheimer": ScenarioFixture(
        name="alzheimer", user="u3", service="OpenDoor", device=None,
        context={"time": "00.00", "location": "corridor"},
        expected_effect="deny",
        expected_obligations=(pdp.EMERGENCY_OBLIGATION,),
        expects_anomaly=True,
    ),
}


_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(*parts: str) -> str:
    with open(os.path.join(_FIXTURES, *parts), encoding="utf-8") as fh:
        return fh.read()


def load_fixture_rules() -> list:
    return parse_ruleset(fixture_text("rules", "policy_core.swl")
                         + "\n" + fixture_text("rules", "assistive_actions.swl"))


def load_fixture_model(distance_floor: float) -> behavior.BehaviorModel:
    return behavior.load_model(fixture_text("model_seed.txt"),
                               distance_floor=distance_floor)


def load_fixture_credentials() -> Dict[str, Tuple[str, str]]:
    return pdp.load_credentials(fixture_text("credentials.txt"))


class ScenarioRun(NamedTuple):
    """Everything a scenario run produced, for reporting and inspection."""

    name: str
    passed: bool
    lines: List[str]
    store: FactStore
    authn: pdp.AuthnResult
    decision: pdp.Decision
    anomaly_flagged: bool
    audit_log: pdp.AuditLog


def _scenario_events(name: str) -> behavior.EventLog:
    return behavior.load_events(fixture_text("scenarios", name, "events.csv"))


def _recent_events(name: str) -> behavior.EventLog:
    if name == "alzheimer":
        return behavior.load_events(
            fixture_text("scenarios", name, "wandering.csv"))
    return _scenario_events(name)


def _admit(name: str,
           point: pdp.DecisionPoint) -> Tuple[pdp.AuthnResult, bool]:
    """Take one fixture resident through the pipeline up to authorization.

    Loads the resident's profile facts into the point's store,
    authenticates them from their fixture stream, which derives their
    groups under the point's policy, and runs the anomaly check on the
    recent stream against the class authentication recognized.
    """
    fixture = SCENARIOS[name]
    load_facts(fixture_text("scenarios", name, "facts.kb"), point.store)
    features = behavior.extract_features(_scenario_events(name), fixture.user)
    authn = pdp.authenticate(
        pdp.AuthnRequest(user=fixture.user,
                         credential=FIXTURE_SECRETS.get(fixture.user),
                         features=features), point)
    recent = behavior.extract_features(_recent_events(name), fixture.user)
    flagged = pdp.flag_anomaly(point, fixture.user, authn.behavior_class,
                               recent)
    return authn, flagged


def run_scenario(name: str, audit_path=None,
                 config: Optional[Config] = None) -> ScenarioRun:
    """Run one named scenario end to end against the packaged fixtures."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario: {name!r}")
    fixture = SCENARIOS[name]
    config = config or Config()

    point = pdp.DecisionPoint(FactStore(), load_fixture_rules(),
                              load_fixture_model(config.distance_floor),
                              load_fixture_credentials(), config,
                              pdp.AuditLog(audit_path, truncate=True))
    audit_log, store = point.audit_log, point.store
    try:
        authn, flagged = _admit(name, point)
        groups = [g.text() for g in pdp.groups_of(store, fixture.user)]

        decision = pdp.authorize(
            pdp.AuthzRequest(user=fixture.user, service=fixture.service,
                             device=fixture.device,
                             context=dict(fixture.context)), point)
    finally:
        audit_log.close()

    checks = [
        ("authenticated", authn.authenticated == "yes"),
        ("effect", decision.effect == fixture.expected_effect),
        ("recommendations",
         sorted(decision.recommendations) == sorted(fixture.expected_recommendations)),
        ("obligations",
         sorted(decision.obligations) == sorted(fixture.expected_obligations)),
        ("anomaly", flagged == fixture.expects_anomaly),
    ]
    passed = all(ok for _, ok in checks)

    lines = [
        f"scenario {name}: authenticate {fixture.user} -> {authn.authenticated}"
        f" (mean {authn.mean_used}, class {authn.behavior_class},"
        f" trust {authn.trust:.2f})",
        f"scenario {name}: groups -> {', '.join(groups) if groups else '(none)'}",
        f"scenario {name}: anomaly -> {'flagged' if flagged else 'clear'}",
        f"scenario {name}: decision -> {decision.effect}"
        f" priority={decision.priority}"
        f" obligations=[{', '.join(decision.obligations)}]"
        f" recommendations=[{', '.join(decision.recommendations)}]",
    ]
    for label, ok in checks:
        if not ok:
            lines.append(f"scenario {name}: check {label} FAILED")
    lines.append(f"scenario {name}: {'PASS' if passed else 'FAIL'}")

    return ScenarioRun(name=name, passed=passed, lines=lines, store=store,
                       authn=authn, decision=decision, anomaly_flagged=flagged,
                       audit_log=audit_log)


def prime_store(point: pdp.DecisionPoint) -> None:
    """Warm the point's store with the three fixture residents.

    Admits each resident in turn (profile facts, authentication, groups and
    the anomaly check), so a serving process can answer the scenario
    authorization requests straight away.
    """
    for name in SCENARIO_NAMES:
        _admit(name, point)
