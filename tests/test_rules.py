import random

import pytest
from hypothesis import given, settings, strategies as st

from aalguard.engine import InvalidRuleError, UnsupportedBuiltinError, check_rule
from aalguard.facts import SYMBOL_RE, Constant, Variable
from aalguard.rules import (
    IDENT,
    Atom,
    Rule,
    RuleSyntaxError,
    Token,
    format_rule,
    parse_rule,
    parse_rules,
    parse_ruleset,
    tokenize,
)

from oracles import reference_tokenize


def test_parse_behavioral_rule_with_irregular_spacing_and_arrow():
    rule = parse_rule(
        "HasActivity(?u, xxx)^HasLocation (?u, yyyy) ^HasTime(?u, zzzz) "
        "→HasRecognizedbehavior(?u, class1)")
    assert len(rule.body) == 3
    assert len(rule.head) == 1
    assert rule.head[0].predicate.lower() == "hasrecognizedbehavior"


def test_parse_auth_mean_rule_with_slash_symbol():
    rule = parse_rule(
        'HasRecognizedBehavior(?y, class2) ^ HasCapability(?y, "physical") '
        "->Authentication(tag-mean)")
    assert len(rule.body) == 2
    head = rule.head[0]
    assert head.predicate == "Authentication"
    assert len(head.terms) == 1
    assert head.terms[0] == Constant.symbol("tag-mean")


def test_slash_and_dash_stay_inside_symbols():
    rule = parse_rule("A(?x) -> Authentication(username/password)")
    assert rule.head[0].terms[0] == Constant.symbol("username/password")


def test_parse_syntax_error_has_offset_and_expected_set():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("P(?x ->")
    assert err.value.offset >= 0
    assert err.value.expected


def test_incomplete_atom_with_trailing_comma_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("AskedService(?Group2,) -> hasAccess(?u, permit)")


def test_empty_atom_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("UsedDevice() -> hasAccess(?u, permit)")


def test_multi_word_predicate_joins():
    rule = parse_rule("BehaviorCapability(?u, Group3) -> has Access (?u, permit)")
    assert rule.head[0].predicate.lower() == "hasaccess"


def test_chain_splits_into_two_rules():
    rules = parse_rules(
        "HasRecognizedbehavior(?u, class1)^ HasCapability(?u, \"hearing\")\n"
        "->BehaviorCapability(?u,Group1)^ HasRecognizedbehavior(?u, class2)^\n"
        "HasCapability(?u, \"visual\") ->BehaviorCapability(?u,Group2)")
    assert len(rules) == 2
    first, second = rules
    assert [a.predicate.lower() for a in first.body] == [
        "hasrecognizedbehavior", "hascapability"]
    assert first.head[0].terms[1] == Constant.symbol("Group1")
    assert [a.predicate.lower() for a in second.body] == [
        "hasrecognizedbehavior", "hascapability"]
    assert second.head[0].terms[1] == Constant.symbol("Group2")


def test_chain_with_empty_middle_body_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rules("A(?x) -> B(?x) -> C(?x)")


def test_parse_rule_refuses_chains():
    with pytest.raises(RuleSyntaxError):
        parse_rule("A(?x) -> B(?x) ^ C(?x) ^ D(?x) -> E(?x)")


def test_validate_accepts_corpus_rule():
    rule = parse_rule(
        'HasRecognizedBehavior(?y, class2) ^ HasCapability(?y, "physical") '
        "-> Authentication(tag-mean)")
    assert check_rule(rule) is None


def test_validate_reports_unsafe_head_variable():
    rule = parse_rule("P(?x) -> Q(?y)")
    with pytest.raises(InvalidRuleError,
                       match=r"^rule P\(\?x\) -> Q\(\?y\): head variable \?y "):
        check_rule(rule)


def test_validate_accepts_shared_variable():
    rule = parse_rule("P(?x) -> Q(?x)")
    assert check_rule(rule) is None


def test_validate_flags_reserved_builtin():
    rule = parse_rule("lessThan(?x, ?y) -> Q(?x)")
    with pytest.raises(UnsupportedBuiltinError):
        check_rule(rule)


def test_validate_safety_iff_head_vars_subset_of_body_vars():
    rng = random.Random(7)
    for _ in range(100):
        body_vars = rng.sample(["a", "b", "c"], rng.randint(1, 3))
        head_var = rng.choice(["a", "b", "c", "d"])
        rule = Rule(
            body=[Atom("P", tuple(Variable(v) for v in body_vars[:2]) or
                       (Variable(body_vars[0]),))],
            head=[Atom("Q", (Variable(head_var),))])
        try:
            check_rule(rule)
            unsafe = False
        except InvalidRuleError as err:
            unsafe = "head variable" in str(err)
        body_names = set()
        for atom in rule.body:
            body_names |= atom.variables()
        assert bool(unsafe) == (head_var not in body_names)


def test_format_rule_canonical_example():
    rule = parse_rule(
        'HasRecognizedbehavior(?u, class1)^HasCapability(?u, "no")\n'
        "->Authentication(username/password)")
    assert format_rule(rule) == (
        'HasRecognizedBehavior(?u, class1) ^ HasCapability(?u, "no") '
        "-> Authentication(username/password)")


def test_format_preserves_unary_and_binary_atoms():
    unary = parse_rule("A(?x) -> Authentication(tag-mean)")
    assert format_rule(unary).endswith("Authentication(tag-mean)")
    binary = parse_rule("A(?u) -> Authenticated(?u, yes)")
    assert format_rule(binary).endswith("Authenticated(?u, yes)")


def test_format_includes_rule_id():
    rule = parse_rule("@id: my-rule\nP(?x) -> Q(?x)")
    assert rule.id == "my-rule"
    text = format_rule(rule)
    assert text.startswith("@id: my-rule\n")
    assert parse_rule(text) == rule


# ---------------------------------------------------------------------------
# parse/format round-trip property on random rules
# ---------------------------------------------------------------------------

def _random_term(rng):
    roll = rng.random()
    if roll < 0.4:
        return Variable(rng.choice(["x", "y", "z", "u"]))
    if roll < 0.65:
        return Constant.symbol(rng.choice(["alpha", "beta-2", "a/b", "G_1"]))
    if roll < 0.85:
        return Constant.string(rng.choice(["hearing", "no", "odd text"]))
    return Constant.number(rng.choice([0.0, 3.0, -2.5, 17.0]))


def _random_rule(rng):
    predicates = ["Pred", "otherPred", "Has_Thing", "hasAccess"]
    body = []
    for _ in range(rng.randint(1, 5)):
        terms = tuple(_random_term(rng) for _ in range(rng.randint(1, 3)))
        body.append(Atom(rng.choice(predicates), terms))
    body_vars = sorted({t.name for a in body for t in a.terms
                        if isinstance(t, Variable)})
    head = []
    for _ in range(rng.randint(1, 2)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            if body_vars and rng.random() < 0.5:
                terms.append(Variable(rng.choice(body_vars)))
            else:
                terms.append(Constant.symbol("k"))
        head.append(Atom(rng.choice(predicates), tuple(terms)))
    rule_id = rng.choice([None, "label-1", "r.2"])
    return Rule(body=body, head=head, id=rule_id)


def test_parse_format_identity_on_random_rules():
    rng = random.Random(20250811)
    for _ in range(200):
        rule = _random_rule(rng)
        text = format_rule(rule)
        parsed = parse_rules(text)
        assert parsed == [rule], text


# ---------------------------------------------------------------------------
# Rule files
# ---------------------------------------------------------------------------

def test_parse_ruleset_orders_and_labels():
    text = (
        "# comment\n"
        "@id: first\n"
        "P(?x) -> Q(?x)\n"
        "\n"
        "Q(?x) -> R(?x).\n"
        "R(?x) -> S(?x)\n"
    )
    rules = parse_ruleset(text)
    assert [r.id for r in rules] == ["first", "rule2", "rule3"]


def test_parse_ruleset_empty_and_comment_only_files():
    assert parse_ruleset("") == []
    assert parse_ruleset("# only\n# comments\n\n") == []


def test_parse_ruleset_reports_line_of_first_error():
    text = "P(?x) -> Q(?x)\n\nP(?x -> Q(?x)\n"
    with pytest.raises(RuleSyntaxError) as err:
        parse_ruleset(text)
    assert err.value.line == 3
    # Names are ASCII: a non-ASCII letter is a syntax error with its line.
    for text in ("P(?x) -> Q(?x)\n\nP(?x) -> Q(é)\n",
                 "P(?x) -> Q(?x)\n\nP(?é) -> Q(a)\n"):
        with pytest.raises(RuleSyntaxError) as err:
            parse_ruleset(text)
        assert err.value.line == 3


def test_parse_ruleset_rejects_duplicate_ids():
    text = "@id: dup\nP(?x) -> Q(?x)\n\n@id: dup\nQ(?x) -> R(?x)\n"
    with pytest.raises(RuleSyntaxError) as err:
        parse_ruleset(text)
    assert "duplicate" in str(err.value)


def test_comment_between_id_and_rule_is_allowed():
    text = "@id: labeled\n# why this rule exists\nP(?x) -> Q(?x)\n"
    rules = parse_ruleset(text)
    assert [r.id for r in rules] == ["labeled"]


def test_chain_statement_in_ruleset_gets_suffixed_ids():
    text = "@id: groups\nA(?x) -> B(?x) ^ C(?x) ^ D(?x) -> E(?x)\n"
    rules = parse_ruleset(text)
    assert [r.id for r in rules] == ["groups.1", "groups.2"]


# ---------------------------------------------------------------------------
# The lexer against the one-match-per-run reference
# ---------------------------------------------------------------------------

# Pieces of the rule language and of what is not in it: both arrows and
# their halves, labels with and without a name, quotes and escapes,
# comments, a bare '?', numbers and their signs and exponents, Unicode
# digits and spaces, and stray characters.
LEXER_PIECES = ["->", "→", "-", ">", "@id:", "@id: ", "@", "@id:x-y", '"',
                '\\"', "\\", "#", "# note", "?", "?v", "?_1", "x", "A1",
                "_", "/", ".", "x-y", "e", "E+", "1", "-2", "3.5", "4e-7",
                "١", " ", "\t", "\n", "\r", "\u00a0", "(", ")", ",", "^",
                "{", "}", "!", "$", "é", "SELECT"]

lexer_texts = st.lists(st.sampled_from(LEXER_PIECES), max_size=14).map("".join)


def _lexed(tokenizer, text):
    try:
        return tokenizer(text)
    except RuleSyntaxError as err:
        return str(err), err.offset


@settings(max_examples=2000, deadline=None)
@given(text=lexer_texts)
def test_the_lexer_gives_the_reference_tokens_or_error(text):
    tokens = _lexed(tokenize, text)
    assert tokens == _lexed(reference_tokenize, text)
    if isinstance(tokens, list):
        assert all(type(token) is Token for token in tokens)


@settings(max_examples=1000, deadline=None)
@given(text=lexer_texts)
def test_every_identifier_scans_as_a_symbol(text):
    # The parser builds an identifier's constant with no symbol check.
    try:
        tokens = tokenize(text)
    except RuleSyntaxError:
        return
    for kind, value, _ in tokens:
        if kind == IDENT:
            assert SYMBOL_RE.fullmatch(value)
            assert parse_rule(f"P({value}) -> Q(a)").body[0].terms == (
                Constant.symbol(value),)
