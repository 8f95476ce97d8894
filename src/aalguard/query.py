"""Conjunctive pattern queries over the fact store.

The query language is a small SELECT-only subset:
``SELECT ?u WHERE { HasCapability(?u, "visual") ^ Authenticated(?u, yes) }``
with an optional ``LIMIT n``.  Evaluation joins the where-atoms left to
right through the engine's indexed join (:func:`aalguard.engine.join`);
results are a set of rows projected to the selected variables, sorted
lexicographically so LIMIT is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .engine import join
from .facts import Constant, FactStore
from .rules import (
    CARET, EOF, IDENT, LBRACE, NUM, RBRACE, VAR,
    Atom, RuleSyntaxError, _Parser, tokenize,
)


class QueryError(ValueError):
    pass


@dataclass
class ConjunctiveQuery:
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
    where = [parser.parse_atom()]
    while parser.peek().kind == CARET:
        parser.advance()
        where.append(parser.parse_atom())
    parser.expect(RBRACE)
    limit = None
    if parser.peek().kind == IDENT and parser.peek().value.lower() == "limit":
        parser.advance()
        token = parser.expect(NUM)
        limit = int(float(token.value))
        if limit <= 0:
            raise RuleSyntaxError("LIMIT must be positive", token.offset)
    parser.expect(EOF)
    return ConjunctiveQuery(select=select, where=where, limit=limit)


def _expect_keyword(parser: _Parser, keyword: str) -> None:
    token = parser.peek()
    if token.kind != IDENT or token.value.lower() != keyword:
        raise parser.error(f"expected {keyword.upper()}",
                           expected=(keyword.upper(),))
    parser.advance()


def format_query(q: ConjunctiveQuery) -> str:
    head = " ".join(f"?{name}" for name in q.select)
    body = " ^ ".join(atom.render() for atom in q.where)
    text = f"SELECT {head} WHERE {{ {body} }}"
    if q.limit is not None:
        text += f" LIMIT {q.limit}"
    return text


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
    for binding, _ in join(store, q.where, len(q.where), set()):
        row = {name: binding[name] for name in q.select}
        rows.setdefault(tuple(row[name].key() for name in q.select), row)
    ordered = sorted(rows.values(),
                     key=lambda r: tuple(r[name].render() for name in q.select))
    if q.limit is not None:
        ordered = ordered[:q.limit]
    return ordered

