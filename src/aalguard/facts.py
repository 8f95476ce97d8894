"""Ground-fact storage for the smart-environment knowledge base.

Facts are ground predicates over one to three constant terms, e.g.
``HasCapability(u1, "hearing")``.  The store keeps one copy of each fact,
indexes it by predicate and by each argument, and reads and writes a flat
text format (one fact per line, trailing period, ``#`` comments).

Two interoperability rules shape equality here: predicate names compare
case-insensitively (the source rule corpus spells the same relation several
ways), and quoted strings compare equal to bare symbols with the same text
(``class2`` and ``"class2"`` name the same behavior class).

Input is checked once, where it enters: ``Fact(...)``, :func:`ground`,
:func:`parse_fact` and :meth:`Constant.number` check every part.  Facts
whose parts are known valid (request facts, rule heads a compiled policy
checked, facts a store spells again) are built by ``Fact._trusted`` with no
check.  A store's tables are written only where a fact is filed or
dropped: a copy of a subject's facts (:meth:`FactStore.partition`) too
asserts them one by one.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterator, Optional

SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/.\-]*\Z")
VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

MAX_ARITY = 3

ASSERTED = "asserted"
INFERRED = "inferred"

SYMBOL = "symbol"
STRING = "string"
NUMBER = "number"

# Canonical spellings for the ontology relations the policy rules use.  The
# store registers additional predicates on first sight; these seeds make sure
# the mixed spellings found in the rule corpus all canonicalize the same way.
DEFAULT_VOCABULARY = (
    "HasCapability",
    "HasActivity",
    "HasLocation",
    "HasTime",
    "HasRecognizedBehavior",
    "BehaviorCapability",
    "AskedService",
    "UsedDevice",
    "HasContext",
    "HasEnvironment",
    "Authenticated",
    "Authentication",
    "hasAccess",
    "Username",
    "Password",
    "Obligation",
    "Recommendation",
    "TrustValue",
    "PriorityValue",
)


class FactError(ValueError):
    """Base class for knowledge-base errors."""


class ArityError(FactError):
    """Fact or pattern has zero arguments or more than three."""


# An immutable record's __init__ and a trusted build set its fields through
# object.__setattr__, so they stay in the instance's inline attribute values:
# filling __dict__ instead makes every later attribute read slower.
_new, _set = object.__new__, object.__setattr__


class Immutable:
    """Base of the records whose fields are set once, when the record is
    built: assigning or deleting an attribute raises ``AttributeError``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FactParseError(FactError):
    """A fact file line could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def text_key(text: str) -> tuple:
    """The key of the symbol or the string constant of ``text``: strings
    and symbols compare by text alone, so a caller holding only the text
    knows the key of either without building it."""
    return ("text", text)


class Constant(Immutable):
    """A ground term: bare symbol, quoted string, or decimal number.

    ``kind`` is not checked: the class methods below check the value of
    their kind."""

    def __init__(self, kind: str, value: object):
        key = (NUMBER, value) if kind == NUMBER else text_key(value)
        _set(self, "kind", kind)
        _set(self, "value", value)  # str for symbol/string, float for number
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    @classmethod
    def symbol(cls, text: str) -> "Constant":
        if not SYMBOL_RE.fullmatch(text):
            raise FactError(f"invalid symbol: {text!r}")
        return cls(SYMBOL, text)

    @classmethod
    def string(cls, text: str) -> "Constant":
        return cls(STRING, text)

    @classmethod
    def number(cls, value: float) -> "Constant":
        value = float(value)
        if not math.isfinite(value):
            raise FactError(f"number constant must be finite, got {value!r}")
        return cls(NUMBER, value)

    def key(self) -> tuple:
        return self._key

    def text(self) -> str:
        """The plain value without quoting."""
        if self.kind == NUMBER:
            return format_number(self.value)
        return str(self.value)

    def render(self) -> str:
        """Source form: strings quoted and escaped, everything else bare."""
        if self.kind == STRING:
            escaped = str(self.value).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return self.text()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Constant) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.render()})"


class Variable(Immutable):
    """A ``?name`` placeholder inside a pattern or rule atom; variables
    compare and hash by name."""

    def __init__(self, name: str):
        _set(self, "name", name)
        if not VARIABLE_RE.fullmatch(name):
            raise FactError(f"invalid variable name: {name!r}")

    def render(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Variable:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"Variable(name={self.name!r})"


def format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def coerce_constant(value: object) -> Constant:
    """Best-effort conversion of a raw Python value to a Constant.

    Strings become symbols when they scan as one, otherwise quoted strings;
    the two compare equal anyway, so the choice only affects rendering.
    """
    if isinstance(value, Constant):
        return value
    if isinstance(value, bool):
        return Constant.symbol("yes" if value else "no")
    if isinstance(value, (int, float)):
        return Constant.number(float(value))
    text = str(value)
    return Constant(SYMBOL if SYMBOL_RE.fullmatch(text) else STRING, text)


def fact_key(predicate: str, args: tuple) -> tuple:
    """The identity of a fact: its lower-cased predicate and argument keys.

    Checks the predicate name, the arity and the argument types as a
    :class:`Fact` does, and raises what constructing one would, so a store
    lookup can compute the key of raw values without building a probe fact.
    """
    if not SYMBOL_RE.fullmatch(predicate):
        raise FactError(f"invalid predicate name: {predicate!r}")
    if not 1 <= len(args) <= MAX_ARITY:
        raise ArityError(f"{predicate}: arity {len(args)} outside 1..{MAX_ARITY}")
    for a in args:
        if not isinstance(a, Constant):
            raise FactError(f"fact argument is not a Constant: {a!r}")
    return (predicate.lower(), tuple(a._key for a in args))


class Fact(Immutable):
    """A ground predicate over 1-3 constants, asserted or inferred.

    An inferred fact names the rule that first derived it and carries the
    facts that rule's body matched, its ``premises``; a fact read from a
    file has none.
    """

    def __init__(self, predicate: str, args, origin: str = ASSERTED,
                 rule_id: Optional[str] = None, premises: tuple = ()):
        args = tuple(args)
        key = fact_key(predicate, args)
        if origin not in (ASSERTED, INFERRED):
            raise FactError(f"unknown origin: {origin!r}")
        _set(self, "predicate", predicate)
        _set(self, "args", args)
        _set(self, "origin", origin)
        _set(self, "rule_id", rule_id)
        _set(self, "premises", premises)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    @classmethod
    def _trusted(cls, predicate: str, args: tuple, key: tuple,
                 origin: str = ASSERTED, rule_id: Optional[str] = None,
                 premises: tuple = ()) -> "Fact":
        """The fact ``Fact(predicate, args, origin, rule_id, premises)``
        built with no check and no ``__init__``: the caller knows
        ``predicate`` scans as a symbol, ``args`` is a tuple of one to
        ``MAX_ARITY`` constants, ``key`` is ``fact_key(predicate, args)``
        and ``origin`` is valid.  Request facts, rule heads a
        :class:`~aalguard.engine.Policy` has checked and facts a store
        spells again are built here; parsed and raw input goes through
        ``Fact(...)``."""
        fact = _new(cls)
        _set(fact, "predicate", predicate)
        _set(fact, "args", args)
        _set(fact, "origin", origin)
        _set(fact, "rule_id", rule_id)
        _set(fact, "premises", premises)
        _set(fact, "_key", key)
        _set(fact, "_hash", hash(key))
        return fact

    def key(self) -> tuple:
        return self._key

    def render(self) -> str:
        return f"{self.predicate}({', '.join(a.render() for a in self.args)})"

    def __eq__(self, other: object) -> bool:
        # Origin-insensitive: the same ground atom is the same fact.
        return isinstance(other, Fact) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Fact({self.render()})"


def ground(predicate: str, *values: object, origin: str = ASSERTED,
           rule_id: Optional[str] = None) -> Fact:
    """Build a fact from raw Python values."""
    return Fact(predicate, tuple(coerce_constant(v) for v in values),
                origin=origin, rule_id=rule_id)


def unify_against_fact(predicate: str, terms, fact: Fact, binding: dict):
    """Extend ``binding`` so that (predicate, terms) matches ``fact``.

    Returns the extended binding dict, or None if the fact does not match.
    Repeated variables must bind to equal constants.
    """
    if fact.key()[0] != predicate.lower():
        return None
    if len(fact.args) != len(terms):
        return None
    out = dict(binding)
    for term, arg in zip(terms, fact.args):
        if isinstance(term, Variable):
            bound = out.get(term.name)
            if bound is None:
                out[term.name] = arg
            elif bound != arg:
                return None
        elif isinstance(term, Constant):
            if term != arg:
                return None
        else:
            raise FactError(f"pattern term is neither Variable nor Constant: {term!r}")
    return out


_DEFAULT_CANON = {name.lower(): name for name in DEFAULT_VOCABULARY}
# The change stamps of every store, from one clock: each stamp is newer
# than every stamp before it.
_tick = itertools.count(1).__next__


class FactStore:
    """Set of ground facts with predicate and argument indexes.

    Besides the predicate index, every fact is filed under
    ``(predicate, position, argument key)`` for each of its arguments, so a
    pattern with a bound argument reads only the facts that share it:
    :meth:`probe` takes the argument keys an atom has bound, by position,
    and is the one lookup the engine's join, queries and the decision point
    read candidates through, and with :meth:`predicates` the one reader of
    the buckets; only filing a fact and :meth:`drop` write the fact table,
    the indexes and the stamps.  Both indexes keep insertion order, so a
    lookup yields its facts in the order the predicate's bucket holds them.
    A predicate is spelled as ``DEFAULT_VOCABULARY`` or its first fact does.
    Each change to a subject's facts moves that subject's :meth:`version`,
    so a caller can tell whether what it derived from them is current.

    Single-writer, multiple-reader contract: callers serialize mutations,
    and readers that need a stable view hold the lock that serializes them.
    The store does no truth maintenance: a retraction leaves what was
    inferred from it, and ``pdp.rederive`` derives a subject's facts again.
    """

    def __init__(self):
        self._facts: dict = {}          # key -> Fact, insertion ordered
        self._index: dict = {}          # predicate lower -> dict key -> Fact
        self._by_arg: dict = {}         # (predicate lower, position, arg key)
        #                                 -> dict key -> Fact
        # predicate lower -> first-seen spelling, seeded with the vocabulary
        self._canon: dict = dict(_DEFAULT_CANON)
        self._stamps: dict = {}         # subject key -> predicate lower
        #                                 -> change stamp

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts.values())

    def __contains__(self, fact: Fact) -> bool:
        return fact.key() in self._facts

    def facts(self) -> tuple:
        return tuple(self._facts.values())

    def facts_for(self, predicate: str) -> tuple:
        return self.probe(predicate.lower(), ())

    def predicates(self):
        """The lower-cased predicates the store holds facts of."""
        return self._index.keys()

    def probe(self, predicate: str, bound) -> tuple:
        """Stored facts that may match an atom of the lower-cased
        ``predicate`` whose arguments at the ``(position, arg_key)`` pairs
        of ``bound`` are known, listed by ascending position.

        The result is the smallest index bucket among the bound positions
        (of equal sizes, the first), or the predicate bucket when none is
        bound.  Facts of every arity share a bucket; callers still match
        each candidate against the atom.
        """
        best = None
        for position, arg_key in bound:
            bucket = self._by_arg.get((predicate, position, arg_key))
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is None:
            best = self._index.get(predicate, {})
        return tuple(best.values())

    def partition(self, subject: Constant, without=(),
                  into: Optional["FactStore"] = None) -> "FactStore":
        """The store of the facts whose first argument is ``subject``, less
        those of the lower-cased predicates in ``without``: a new store that
        spells predicates as this one does, or ``into``, a partition of this
        store about other subjects, with those facts added.

        Each is asserted in turn, by predicate in :meth:`predicates` order,
        then as :meth:`probe` lists the subject's position-0 bucket; the
        buckets of ``without`` are never read.  A fact spelled as the
        partition spells it is shared, not built again.
        """
        if into is None:
            into = FactStore()
            into._canon = dict(self._canon)
        bound = ((0, subject.key()),)
        for predicate in self.predicates():
            if predicate not in without:
                for fact in self.probe(predicate, bound):
                    into.assert_fact(fact)
        return into

    def version(self, subject: Constant, without=()) -> int:
        """The newest change stamp of ``subject``'s slots outside the
        lower-cased predicates in ``without``, 0 when there is none.

        A new stamp marks the slot ``(subject, predicate)`` whenever a fact
        of that predicate whose first argument is ``subject`` is filed or
        dropped; a slot stays when its bucket empties.  So the version moves
        exactly when one of those slots changed since it was last read.
        """
        stamps = self._stamps.get(subject.key())
        if not stamps:
            return 0
        return max([stamp for predicate, stamp in stamps.items()
                    if predicate not in without], default=0)

    def by_key(self, key: tuple) -> Optional[Fact]:
        """The stored fact under ``key``, a :meth:`Fact.key`, if any."""
        return self._facts.get(key)

    def get(self, predicate: str, args) -> Optional[Fact]:
        """The stored fact with this predicate and these raw values, if any."""
        return self._facts.get(
            fact_key(predicate, tuple(coerce_constant(a) for a in args)))

    def holds(self, predicate: str, *values: object) -> bool:
        return self.get(predicate, values) is not None

    def _file(self, key: tuple, fact: Fact) -> None:
        """Store ``fact`` under ``key`` in the fact table and every index."""
        predicate, arg_keys = key
        self._facts[key] = fact
        self._index.setdefault(predicate, {})[key] = fact
        for position, arg_key in enumerate(arg_keys):
            self._by_arg.setdefault((predicate, position, arg_key), {})[key] = fact
        self._stamps.setdefault(arg_keys[0], {})[predicate] = _tick()

    def assert_fact(self, fact: Fact) -> bool:
        """Insert a fact; returns True iff it was not already present.

        Re-asserting an inferred fact as asserted upgrades its origin
        (asserted wins), dropping its rule id and premises, but still
        returns False.
        """
        key = fact.key()
        canonical = self._canon.setdefault(key[0], fact.predicate)
        if canonical != fact.predicate:
            fact = Fact._trusted(canonical, fact.args, key, fact.origin,
                                 fact.rule_id, fact.premises)
        existing = self._facts.get(key)
        if existing is not None:
            if existing.origin == INFERRED and fact.origin == ASSERTED:
                # Replacing a dict value keeps its place in every index.
                self._file(key, Fact._trusted(existing.predicate,
                                              existing.args, key))
            return False
        self._file(key, fact)
        return True

    def retract_fact(self, predicate: str, args) -> bool:
        """Remove a fact; returns True iff it was present.

        Facts inferred from it stay (no truth maintenance); a caller that
        changes a subject's facts derives that subject's facts again.
        """
        try:
            key = fact_key(predicate, tuple(coerce_constant(a) for a in args))
        except ArityError:
            return False
        return self.drop(key)

    def drop(self, key: tuple) -> bool:
        """Remove the fact stored under ``key``, a :meth:`Fact.key`; returns
        True iff it was present.  A caller that holds the fact drops it
        without converting and checking its arguments again."""
        if key not in self._facts:
            return False
        del self._facts[key]
        predicate, arg_keys = key
        slots = [(self._index, predicate)]
        slots += [(self._by_arg, (predicate, position, arg_key))
                  for position, arg_key in enumerate(arg_keys)]
        for index, slot in slots:
            bucket = index[slot]
            del bucket[key]
            if not bucket:
                del index[slot]
        self._stamps[arg_keys[0]][predicate] = _tick()
        return True

    def snapshot(self) -> "FactStore":
        """Independent copy with the same change stamps; facts themselves
        are immutable and shared."""
        clone = FactStore()
        clone._canon = dict(self._canon)
        for key, fact in self._facts.items():
            clone._file(key, fact)
        clone._stamps = {subject: dict(stamps)
                         for subject, stamps in self._stamps.items()}
        return clone


# ---------------------------------------------------------------------------
# Fact file format: one fact per line, `Predicate(arg, ...).`, `#` comments.
# ---------------------------------------------------------------------------

_INFERRED_MARK = re.compile(r"inferred(?:\s+rule=(?P<rule>\S+))?\s*\Z")


def split_comment(line: str) -> tuple:
    """Split a line at the first ``#`` that is outside a quoted string."""
    if "#" not in line:
        return line, None
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "#":
            return line[:i], line[i + 1:]
        i += 1
    return line, None


def _read_atom(text: str, line: int, require_period: bool) -> tuple:
    """``(predicate, args)`` of one fact line, read by the rule parser."""
    from .rules import DOT, EOF, RuleSyntaxError, _Parser, tokenize
    try:
        parser = _Parser(tokenize(text))
        atom = parser.parse_atom()
        if require_period or parser.peek().kind == DOT:
            parser.expect(DOT)
        parser.expect(EOF)
    except (RuleSyntaxError, FactError) as err:
        raise FactParseError(str(err), line) from None
    for term in atom.terms:
        if isinstance(term, Variable):
            raise FactParseError(f"variable {term.render()} in a fact", line)
    return atom.predicate, atom.terms


def parse_fact(text: str, line: int = 1, *, require_period: bool = True) -> Fact:
    """Parse one ``Predicate(arg, ...)`` with optional trailing period."""
    return Fact(*_read_atom(text, line, require_period))


def load_facts(text: str, store: Optional[FactStore] = None) -> FactStore:
    """Load a fact file; duplicate lines collapse silently."""
    store = store if store is not None else FactStore()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, comment = split_comment(raw)
        if not code.strip():
            continue
        origin = ASSERTED
        rule_id = None
        if comment is not None:
            marked = _INFERRED_MARK.fullmatch(comment.strip())
            if marked:
                origin = INFERRED
                rule_id = marked.group("rule")
        predicate, args = _read_atom(code, lineno, True)
        store.assert_fact(Fact(predicate, args, origin=origin, rule_id=rule_id))
    return store


def save_facts(store: FactStore) -> str:
    """Canonical text form; inferred facts carry an ``# inferred`` marker."""
    lines = []
    for fact in store:
        line = f"{fact.render()}."
        if fact.origin == INFERRED:
            line += "  # inferred"
            if fact.rule_id:
                line += f" rule={fact.rule_id}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
