"""Conjunctive pattern queries over the fact store.

The query language is a small SELECT-only subset:
``SELECT ?u WHERE { HasCapability(?u, "visual") ^ Authenticated(?u, yes) }``
with an optional ``LIMIT n``, where ``n`` is a positive decimal integer.
Evaluation compiles the where-atoms as a policy compiles a rule body
(:func:`aalguard.engine.compile_body`) and joins them left to right, whole,
through the engine's indexed join (:func:`aalguard.engine.join`), as each
round of a fixpoint joins a rule body; each atom reads its candidates
through one :meth:`FactStore.probe`.  Results are a set of rows projected
to the selected variables, sorted lexicographically so LIMIT is
deterministic.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .engine import compile_body, join
from .facts import Constant, FactStore
from .rules import (
    EOF, IDENT, LBRACE, NUM, RBRACE, VAR,
    Atom, RuleSyntaxError, _Parser, tokenize,
)


class QueryError(ValueError):
    pass


class ConjunctiveQuery(NamedTuple):
    select: List[str]
    where: List[Atom]
    limit: Optional[int] = None

    def where_variables(self) -> set:
        out = set()
        for atom in self.where:
            out |= atom.variables()
        return out


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse ``SELECT ?v... WHERE { atom ^ atom ... } [LIMIT n]``."""
    parser = _Parser(tokenize(text))
    _expect_keyword(parser, "select")
    select = []
    while parser.peek().kind == VAR:
        select.append(parser.advance().value)
    if not select:
        raise parser.error("SELECT needs at least one variable",
                           expected=(VAR,))
    _expect_keyword(parser, "where")
    parser.expect(LBRACE)
    where = parser.parse_atoms()
    parser.expect(RBRACE)
    limit = None
    if parser.peek().kind == IDENT and parser.peek().value.lower() == "limit":
        parser.advance()
        token = parser.expect(NUM)
        limit = _positive_integer(token.value)
        if limit is None:
            raise RuleSyntaxError("LIMIT must be a positive integer",
                                  token.offset)
    parser.expect(EOF)
    return ConjunctiveQuery(select=select, where=where, limit=limit)


def _positive_integer(text: str) -> Optional[int]:
    """``text`` as an int when it is a decimal integer literal above zero."""
    if not text.isascii() or not text.isdigit():
        return None
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        return None
    return value if value > 0 else None


def _expect_keyword(parser: _Parser, keyword: str) -> None:
    token = parser.peek()
    if token.kind != IDENT or token.value.lower() != keyword:
        raise parser.error(f"expected {keyword.upper()}",
                           expected=(keyword.upper(),))
    parser.advance()


def eval_query(store: FactStore, q: ConjunctiveQuery) -> List[Dict[str, Constant]]:
    """Rows satisfying every where-atom, projected to the select variables.

    Duplicates collapse; rows come back sorted by their rendered constants,
    and LIMIT truncates after the sort.
    """
    if not q.where:
        raise QueryError("query has an empty WHERE clause")
    missing = [v for v in q.select if v not in q.where_variables()]
    if missing:
        raise QueryError(
            f"select variable(s) not in WHERE: {', '.join('?' + v for v in missing)}")

    rows: Dict[tuple, Dict[str, Constant]] = {}
    plan = compile_body(q.where)
    for binding, _ in join(store, plan):
        row = {name: binding[name] for name in q.select}
        rows.setdefault(tuple(row[name].key() for name in q.select), row)
    ordered = sorted(rows.values(),
                     key=lambda r: tuple(r[name].render() for name in q.select))
    if q.limit is not None:
        ordered = ordered[:q.limit]
    return ordered

