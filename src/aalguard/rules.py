"""Parser, AST, validator and formatter for the positive Horn rule DSL.

Rules look like ``HasActivity(?u, cooking) ^ HasLocation(?u, kitchen) ->
HasRecognizedBehavior(?u, class1)``: a conjunction of body atoms implying one
or more head atoms.  The grammar is deliberately forgiving about the
typography found in the source policy corpus:

* both ``->`` and the typographic arrow ``→`` work;
* whitespace is free-form, including a space before ``(``;
* adjacent bare words before ``(`` are joined into one predicate name, so
  ``has Access (?u, permit)`` reads as ``hasAccess(?u, permit)``;
* ``/`` and ``-`` may appear inside symbols (``username/password``,
  ``tag-mean``).

A statement with several arrows is a chain and splits into multiple rules:
``A -> B ^ C ^ D -> E`` becomes ``A -> B`` and ``C ^ D -> E`` (each rule ends
at the first head atom after its arrow; the remaining atoms start the next
rule's body).

This module is syntax only: the parser accepts any well-formed rule, and
:class:`aalguard.engine.Policy` refuses one that cannot run (an unsafe head
variable, a bad arity, a reserved built-in, an empty side, a repeated id).
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from .facts import (
    _DEFAULT_CANON,
    MAX_ARITY,
    Constant,
    Immutable,
    Variable,
    _set,
    split_comment,
)


class RuleSyntaxError(ValueError):
    """Syntax error with a byte offset and the token set that was expected."""

    def __init__(self, message: str, offset: int, expected: Iterable[str] = (),
                 line: Optional[int] = None):
        self.raw_message = message
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.line = line
        where = f"line {line}, offset {offset}" if line else f"offset {offset}"
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{where}: {message}{hint}")

    def at_line(self, line: int) -> "RuleSyntaxError":
        return RuleSyntaxError(self.raw_message, self.offset, self.expected, line)


class Atom(Immutable):
    """A predicate applied to 1-3 variable or constant terms."""

    def __init__(self, predicate: str, terms):
        _set(self, "predicate", predicate)
        _set(self, "terms", tuple(terms))

    def variables(self) -> set:
        return {t.name for t in self.terms if isinstance(t, Variable)}

    def render(self) -> str:
        predicate = _DEFAULT_CANON.get(self.predicate.lower(), self.predicate)
        return f"{predicate}({', '.join(t.render() for t in self.terms)})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Atom)
                and self.predicate.lower() == other.predicate.lower()
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.predicate.lower(), self.terms))

    def __repr__(self) -> str:
        return f"Atom({self.render()})"


class Rule:
    """``body -> head`` over atoms; every head variable must occur in the body."""

    def __init__(self, body: list, head: list, id: Optional[str] = None):
        self.body = body
        self.head = head
        self.id = id

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rule)
                and self.id == other.id
                and list(self.body) == list(other.body)
                and list(self.head) == list(other.head))

    def __repr__(self) -> str:
        return f"Rule({format_rule(self)!r})"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

IDENT, VAR, STRING, NUM = "IDENT", "VAR", "STRING", "NUM"
CARET, ARROW, LPAREN, RPAREN = "CARET", "ARROW", "LPAREN", "RPAREN"
COMMA, DOT, LBRACE, RBRACE, ATID, EOF = "COMMA", "DOT", "LBRACE", "RBRACE", "ATID", "EOF"

_PRETTY = {
    IDENT: "identifier", VAR: "variable", STRING: "string", NUM: "number",
    CARET: "'^'", ARROW: "'->'", LPAREN: "'('", RPAREN: "')'",
    COMMA: "','", DOT: "'.'", LBRACE: "'{'", RBRACE: "'}'",
    ATID: "'@id:' label", EOF: "end of input",
}


class Token(NamedTuple):
    kind: str
    value: str
    offset: int


_PUNCTUATION = {"^": CARET, "(": LPAREN, ")": RPAREN, "{": LBRACE,
                "}": RBRACE, ",": COMMA, ".": DOT}

# One alternative per token kind, named after it; whitespace and comments
# match unnamed.  Symbols and ``?variables`` use the ASCII charsets of
# ``facts.SYMBOL_RE`` and ``facts.VARIABLE_RE``; a symbol or label never
# swallows the '-' of '->'.  In a string a backslash takes the next
# character literally.
_TOKEN = re.compile(r"""
    \s+ | \#[^\n]*
  | (?P<ARROW> -> | → )
  | (?P<PUNCT> [\^(){},.] )
  | (?P<NUM> -?\d+ (?:\.\d+)? (?:[eE][+-]?\d+)? )
  | (?P<IDENT> [A-Za-z_][A-Za-z0-9_/.]* (?:-(?!>)[A-Za-z0-9_/.]*)* )
  | \? (?P<VAR> [A-Za-z_][A-Za-z0-9_]* )
  | " (?P<STRING> (?:[^"\\] | \\.)* ) "
  | @id: [ \t]* (?P<ATID> (?:[A-Za-z0-9_/.] | -(?!>))+ )
""", re.VERBOSE | re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _scan_error(text: str, i: int) -> RuleSyntaxError:
    """Why no token starts at offset ``i``."""
    if text.startswith("@id:", i):
        j = i + 4
        while j < len(text) and text[j] in " \t":
            j += 1
        return RuleSyntaxError("missing label after '@id:'", j,
                               expected=("identifier",))
    if text[i] == "?":
        return RuleSyntaxError("missing variable name after '?'", i,
                               expected=("identifier",))
    if text[i] == '"':
        return RuleSyntaxError("unterminated string", i)
    return RuleSyntaxError(f"unexpected character {text[i]!r}", i)


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN.match(text, i)
        if m is None:
            raise _scan_error(text, i)
        kind = m.lastgroup
        if kind is not None:
            value = m.group(kind)
            if kind == "PUNCT":
                kind = _PUNCTUATION[value]
            elif kind == STRING and "\\" in value:
                value = _ESCAPE.sub(r"\1", value)
            tokens.append(Token(kind, value, i))
        i = m.end()
    tokens.append(Token(EOF, "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str, expected=()) -> RuleSyntaxError:
        return RuleSyntaxError(message, self.peek().offset,
                               expected=[_PRETTY.get(e, e) for e in expected])

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            found = _PRETTY.get(self.peek().kind, self.peek().kind)
            raise self.error(f"found {found}", expected=(kind,))
        return self.advance()

    def parse_term(self):
        token = self.peek()
        if token.kind == VAR:
            self.advance()
            return Variable(token.value)
        if token.kind == IDENT:
            self.advance()
            return Constant.symbol(token.value)
        if token.kind == STRING:
            self.advance()
            return Constant.string(token.value)
        if token.kind == NUM:
            self.advance()
            return Constant.number(float(token.value))
        found = _PRETTY.get(token.kind, token.kind)
        raise self.error(f"found {found}", expected=(VAR, IDENT, STRING, NUM))

    def parse_atom(self) -> Atom:
        first = self.expect(IDENT)
        parts = [first.value]
        # Adjacent bare words before '(' fuse into one predicate name
        # ("has Access" -> "hasAccess").
        while self.peek().kind == IDENT:
            parts.append(self.advance().value)
        predicate = "".join(parts)
        self.expect(LPAREN)
        terms = [self.parse_term()]
        while self.peek().kind == COMMA:
            self.advance()
            terms.append(self.parse_term())
        if len(terms) > MAX_ARITY:
            raise RuleSyntaxError(
                f"{predicate}: more than {MAX_ARITY} arguments", first.offset)
        self.expect(RPAREN)
        return Atom(predicate, tuple(terms))

    def parse_atoms(self) -> list:
        atoms = [self.parse_atom()]
        while self.peek().kind == CARET:
            self.advance()
            atoms.append(self.parse_atom())
        return atoms

    def parse_statement(self) -> list:
        """One statement: ``[@id] atoms -> atoms { -> atoms }`` -> rules."""
        rule_id = None
        if self.peek().kind == ATID:
            rule_id = self.advance().value
        segments = [self.parse_atoms()]
        while self.peek().kind == ARROW:
            self.advance()
            segments.append(self.parse_atoms())
        if self.peek().kind == DOT:
            self.advance()
        self.expect(EOF)
        if len(segments) < 2:
            raise RuleSyntaxError("rule has no '->'",
                                  self.tokens[-1].offset, expected=(ARROW,))
        rules = _split_chain(segments)
        if rule_id is not None:
            if len(rules) == 1:
                rules[0].id = rule_id
            else:
                for k, rule in enumerate(rules, start=1):
                    rule.id = f"{rule_id}.{k}"
        return rules


def _split_chain(segments: list) -> list:
    rules = []
    body = segments[0]
    for i in range(1, len(segments)):
        last = i == len(segments) - 1
        head = segments[i] if last else [segments[i][0]]
        if not body:
            raise RuleSyntaxError(
                "chained rule segment provides no body atoms", 0)
        rules.append(Rule(body=body, head=head))
        body = segments[i][1:]
    return rules


def parse_rules(text: str) -> list:
    """Parse one statement; chains yield several rules."""
    return _Parser(tokenize(text)).parse_statement()


def parse_rule(text: str) -> Rule:
    """Parse one statement that must yield exactly one rule."""
    rules = parse_rules(text)
    if len(rules) != 1:
        raise RuleSyntaxError(
            f"statement is a chain of {len(rules)} rules; use parse_rules", 0)
    return rules[0]


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------

def format_rule(rule: Rule) -> str:
    """Canonical text: single spaces around ``^`` and ``->``.

    Predicates are rendered in their canonical spelling, so
    ``parse(format(r))`` is structurally equal to ``r`` (predicate names
    compare case-insensitively).
    """
    body = " ^ ".join(a.render() for a in rule.body)
    head = " ^ ".join(a.render() for a in rule.head)
    text = f"{body} -> {head}"
    if rule.id is not None:
        return f"@id: {rule.id}\n{text}"
    return text


# ---------------------------------------------------------------------------
# Rule files: statements separated by blank lines or terminated by '.'
# ---------------------------------------------------------------------------

def _split_statements(text: str) -> list:
    """Yield (statement_text, first_line) pairs from a rule file."""
    statements = []
    buffer = []
    start_line = None

    def flush():
        nonlocal buffer, start_line
        if buffer:
            statements.append(("\n".join(buffer), start_line))
        buffer = []
        start_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            flush()
            continue
        code, _ = split_comment(raw)
        if not code.strip():
            continue  # comment-only line: no boundary
        if start_line is None:
            start_line = lineno
        buffer.append(code.rstrip())
        if _ends_statement(code):
            flush()
    flush()
    return statements


def _ends_statement(code: str) -> bool:
    stripped = code.rstrip()
    return stripped.endswith(".") and not stripped.endswith("..")


def parse_ruleset(text: str) -> list:
    """Parse a rule file into an ordered rule list.

    Rules keep their ``@id:`` labels; unlabeled rules get positional ids
    ``rule1``, ``rule2``, ...  Duplicate ids are an error, as is the first
    syntax error (reported with its file line).
    """
    rules = []
    for statement, line in _split_statements(text):
        try:
            rules.extend(parse_rules(statement))
        except RuleSyntaxError as err:
            raise err.at_line(line) from None
    seen = {}
    for index, rule in enumerate(rules, start=1):
        if rule.id is None:
            rule.id = f"rule{index}"
        if rule.id in seen:
            raise RuleSyntaxError(f"duplicate rule id {rule.id!r}", 0)
        seen[rule.id] = rule
    return rules
