"""The program's records: fresh defaults, immutability, equality and the
checks their constructors make."""

import pytest

from aalguard.behavior import FeatureVector
from aalguard.config import DEFAULT_PRIORITY_TABLE, Config
from aalguard.engine import Conflict
from aalguard.facts import Constant, Fact, FactError, Variable, ground
from aalguard.pdp import (AuditLog, AuthnRequest, AuthnResult, AuthzRequest,
                          Credential, Decision, PdpError)
from aalguard.rules import Atom
from aalguard.scenarios import SCENARIOS


def test_each_default_container_is_fresh_per_instance():
    first, second = Config(), Config()
    assert first.rules == [] and first.rules is not second.rules
    assert first.priority_table == DEFAULT_PRIORITY_TABLE
    assert first.priority_table is not second.priority_table
    assert first.priority_table is not DEFAULT_PRIORITY_TABLE
    first.priority_table["cognitive"] = 9
    assert Config().priority_table == DEFAULT_PRIORITY_TABLE
    one, two = Decision("deny"), Decision("deny")
    for name in ("obligations", "recommendations", "rationale"):
        assert getattr(one, name) == [] \
            and getattr(one, name) is not getattr(two, name)
    assert (one.effect, one.priority) == ("deny", 0)
    assert FeatureVector().entries == {} \
        and FeatureVector().entries is not FeatureVector().entries
    assert AuthzRequest("u1", "s").context == {} \
        and AuthzRequest("u1", "s").context is not AuthzRequest("u1", "s").context
    assert AuthnRequest("u1", None).features == FeatureVector()
    assert AuthnRequest("u1", None).features \
        is not AuthnRequest("u1", None).features


def _immutable_records():
    fact = ground("P", "u1")
    yield fact, "predicate"
    yield fact.args[0], "kind"
    yield Variable("x"), "name"
    yield Atom("P", (Variable("x"),)), "terms"
    yield Credential("tag", "t-1"), "secret"
    yield Conflict("permit-deny", (fact,), fact.args[0]), "kind"
    yield AuditLog().append("authz", "u1", "deny"), "outcome"
    yield SCENARIOS["deaf"], "user"


def test_each_immutable_record_refuses_assignment():
    for record, name in _immutable_records():
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            setattr(record, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    # Facts and constants keep their fields and the keys derived from them.
    fact = Fact("P", [Constant.number(2)], origin="inferred", rule_id="r1")
    assert vars(fact) == {"predicate": "P", "args": (Constant.number(2),),
                          "origin": "inferred", "rule_id": "r1",
                          "premises": (), "_key": ("p", (("number", 2.0),)),
                          "_hash": hash(("p", (("number", 2.0),)))}


def test_variables_credentials_and_conflicts_compare_by_their_fields():
    assert Variable("x") == Variable("x") and Variable("x") != Variable("y")
    assert hash(Variable("x")) == hash(Variable("x"))
    assert len({Variable("x"), Variable("x"), Variable("y")}) == 2
    assert Variable("x") != "x" and Variable("x") != Constant.symbol("x")
    assert repr(Variable("x")) == "Variable(name='x')"
    assert Credential("tag", "a") == Credential("tag", "a")
    assert Credential("tag", "a") != Credential("tag", "b")
    assert Credential("tag", "a") != Credential("password", "a")
    assert hash(Credential("tag", "a")) == hash(Credential("tag", "a"))
    assert len({Credential("tag", "a"), Credential("tag", "a")}) == 1
    fact, other = ground("hasAccess", "u1", "permit"), ground("P", "u2")
    conflict = Conflict("permit-deny", (fact, other), fact.args[0])
    assert conflict == Conflict("permit-deny", (fact, other), fact.args[0])
    assert hash(conflict) == hash(
        Conflict("permit-deny", (fact, other), fact.args[0]))
    assert conflict != Conflict("permit-deny", (other, fact), fact.args[0])
    assert conflict != Conflict("authenticated-contradiction",
                                (fact, other), fact.args[0])


@pytest.mark.parametrize("build, error, message", [
    (lambda: Variable("1x"), FactError, "invalid variable name: '1x'"),
    (lambda: Variable("a-b"), FactError, "invalid variable name: 'a-b'"),
    (lambda: Variable(""), FactError, "invalid variable name: ''"),
    (lambda: Credential("pin", "1234"), PdpError,
     "unknown credential kind: 'pin'"),
    (lambda: Credential("password", ""), PdpError,
     "password credential must have a non-empty secret"),
    (lambda: AuthzRequest(1, "s"), PdpError, "user must be a string"),
    (lambda: AuthzRequest("u1", None), PdpError, "service must be a string"),
    (lambda: AuthzRequest("u1", "s", device=3), PdpError,
     "device must be a string or None"),
    (lambda: AuthzRequest("u1", "s", context=[("time", "10.00")]), PdpError,
     "context must be a dict"),
    (lambda: AuthzRequest("u1", "s", context={"mood": "calm"}), PdpError,
     "unknown context component: 'mood'"),
    (lambda: AuthzRequest("u1", "s", context={"location": 3}), PdpError,
     "context location must be a string"),
    (lambda: AuthzRequest("u1", "s", context={"time": "24.00"}), PdpError,
     "context time must be HH.MM from 00.00 to 23.59, got '24.00'"),
    # HH.MM digits are ASCII; other Unicode digits are not a time.
    pytest.param(lambda: AuthzRequest("u1", "s", context={"time": "1\u0669.00"}),
                 PdpError, "context time must be HH.MM from 00.00 to 23.59, "
                 "got '1\u0669.00'", id="time-arabic-indic-digit"),
    pytest.param(lambda: AuthzRequest("u1", "s", context={"time": "1\uff12.00"}),
                 PdpError, "context time must be HH.MM from 00.00 to 23.59, "
                 "got '1\uff12.00'", id="time-fullwidth-digit"),
    pytest.param(lambda: AuthzRequest("u1", "s", context={"time": "10.5\u0967"}),
                 PdpError, "context time must be HH.MM from 00.00 to 23.59, "
                 "got '10.5\u0967'", id="time-devanagari-minute-digit"),
    pytest.param(lambda: AuthnRequest(1, None), PdpError,
                 "user must be a string", id="authn-user-must-be-a-string"),
    (lambda: Credential("password", 7), PdpError,
     "password must be a string"),
    (lambda: Credential("tag", ["t"]), PdpError, "tag must be a string"),
    pytest.param(lambda: AuthnRequest("u\ud800", None), PdpError,
                 "user must be valid Unicode text",
                 id="authn-user-must-be-valid-unicode-text"),
    (lambda: AuthzRequest("u\ud800", "s"), PdpError,
     "user must be valid Unicode text"),
    (lambda: AuthzRequest("u1", "Read\ud800"), PdpError,
     "service must be valid Unicode text"),
    (lambda: AuthzRequest("u1", "s", device="V\udc00"), PdpError,
     "device must be valid Unicode text"),
    (lambda: AuthzRequest("u1", "s", context={"location": "hall\ud800"}),
     PdpError, "context location must be valid Unicode text"),
])
def test_records_refuse_bad_input_as_before(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_an_authn_result_keeps_its_fields_default_and_text():
    result = AuthnResult("no", "tag-mean", 0.5, None)
    assert result.reason is None
    assert result == AuthnResult(authenticated="no", mean_used="tag-mean",
                                 trust=0.5, behavior_class=None, reason=None)
    assert repr(result) == (
        "AuthnResult(authenticated='no', mean_used='tag-mean', trust=0.5, "
        "behavior_class=None, reason=None)")


def test_a_tag_credential_may_be_empty():
    assert Credential("tag", "").secret == ""
