"""Ground-fact storage for the smart-environment knowledge base.

Facts are ground predicates over one to three constant terms, e.g.
``HasCapability(u1, "hearing")``.  The store keeps one copy of each fact,
indexes it by predicate and by each argument, tracks where inferred facts
came from, and reads and writes a flat text format (one fact per line,
trailing period, ``#`` comments).

Two interoperability rules shape equality here: predicate names compare
case-insensitively (the source rule corpus spells the same relation several
ways), and quoted strings compare equal to bare symbols with the same text
(``class2`` and ``"class2"`` name the same behavior class).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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


class FactParseError(FactError):
    """A fact file line could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class Constant:
    """A ground term: bare symbol, quoted string, or decimal number."""

    kind: str
    value: object  # str for symbol/string, float for number

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

    def __post_init__(self) -> None:
        # Strings and symbols compare by text alone; numbers stay separate.
        key = (NUMBER, self.value) if self.kind == NUMBER else ("text", self.value)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

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


@dataclass(frozen=True)
class Variable:
    """A ``?name`` placeholder inside a pattern or rule atom."""

    name: str

    def __post_init__(self) -> None:
        if not VARIABLE_RE.fullmatch(self.name):
            raise FactError(f"invalid variable name: {self.name!r}")

    def render(self) -> str:
        return f"?{self.name}"


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
    if SYMBOL_RE.fullmatch(text):
        return Constant.symbol(text)
    return Constant.string(text)


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


@dataclass(frozen=True, eq=False)
class Fact:
    """A ground predicate over 1-3 constants, asserted or inferred."""

    predicate: str
    args: tuple
    origin: str = ASSERTED
    rule_id: Optional[str] = None

    def __post_init__(self) -> None:
        args = tuple(self.args)
        key = fact_key(self.predicate, args)
        object.__setattr__(self, "args", args)
        if self.origin not in (ASSERTED, INFERRED):
            raise FactError(f"unknown origin: {self.origin!r}")
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

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


@dataclass
class Justification:
    """Why an inferred fact holds: the rule that fired and its premises."""

    rule_id: Optional[str]
    premises: tuple


class FactStore:
    """Set of ground facts with predicate and argument indexes.

    Besides the predicate index, every fact is filed under
    ``(predicate, position, argument key)`` for each of its arguments, so a
    pattern with a bound argument reads only the facts that share it.  Both
    indexes keep insertion order, so a lookup yields its facts in the order
    a scan of :meth:`facts_for` would.

    Single-writer, multiple-reader contract: callers serialize mutations;
    readers that need a stable view hold the lock that serializes them, or
    take a :meth:`snapshot` first.
    Justifications recorded here are not truth-maintained across retraction;
    inference is re-run on a fresh snapshot instead.
    """

    def __init__(self, vocabulary: Iterable[str] = DEFAULT_VOCABULARY):
        self._facts: dict = {}          # key -> Fact, insertion ordered
        self._index: dict = {}          # predicate lower -> dict key -> Fact
        self._by_arg: dict = {}         # (predicate lower, position, arg key)
        #                                 -> dict key -> Fact
        self._canon: dict = {}          # predicate lower -> first-seen spelling
        self._justifications: dict = {}  # key -> Justification
        for name in vocabulary:
            self._canon.setdefault(name.lower(), name)

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts.values())

    def __contains__(self, fact: Fact) -> bool:
        return fact.key() in self._facts

    def facts(self) -> tuple:
        return tuple(self._facts.values())

    def canonical_predicate(self, name: str) -> str:
        return self._canon.setdefault(name.lower(), name)

    def facts_for(self, predicate: str) -> tuple:
        return tuple(self._index.get(predicate.lower(), {}).values())

    def candidates(self, predicate: str, terms, binding: dict) -> tuple:
        """Stored facts that may match the atom ``(predicate, terms)``.

        An argument is bound when its term is a constant or a variable that
        ``binding`` already binds; the result is the smallest index bucket
        among the bound arguments, or the predicate bucket when none is
        bound.  Callers still unify each candidate against the atom.
        """
        predicate = predicate.lower()
        best = None
        for position, term in enumerate(terms):
            if isinstance(term, Variable):
                term = binding.get(term.name)
                if term is None:
                    continue
            elif not isinstance(term, Constant):
                raise FactError(
                    f"pattern term is neither Variable nor Constant: {term!r}")
            bucket = self._by_arg.get((predicate, position, term.key()))
            if bucket is None:
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is None:
            best = self._index.get(predicate, {})
        return tuple(best.values())

    def facts_naming(self, value: Constant) -> tuple:
        """The stored facts that hold ``value`` at any argument position.

        Read from the argument index, one bucket per predicate and
        position, so no fact that leaves ``value`` out is read.  The facts
        come grouped by predicate, then position, each group in insertion
        order.
        """
        key = value.key()
        found: dict = {}
        for predicate in self._index:
            for position in range(MAX_ARITY):
                bucket = self._by_arg.get((predicate, position, key))
                if bucket is not None:
                    found.update(bucket)
        return tuple(found.values())

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

    def assert_fact(self, fact: Fact) -> bool:
        """Insert a fact; returns True iff it was not already present.

        Re-asserting an inferred fact as asserted upgrades its origin
        (asserted wins) but still returns False.
        """
        canonical = self.canonical_predicate(fact.predicate)
        if canonical != fact.predicate:
            fact = Fact(canonical, fact.args, origin=fact.origin,
                        rule_id=fact.rule_id)
        key = fact.key()
        existing = self._facts.get(key)
        if existing is not None:
            if existing.origin == INFERRED and fact.origin == ASSERTED:
                # Replacing a dict value keeps its place in every index.
                self._file(key, Fact(existing.predicate, existing.args,
                                     origin=ASSERTED, rule_id=None))
                self._justifications.pop(key, None)
            return False
        self._file(key, fact)
        return True

    def retract_fact(self, predicate: str, args) -> bool:
        """Remove a fact; returns True iff it was present.

        Facts inferred from it stay (no truth maintenance); re-run inference
        on a fresh snapshot when that matters.
        """
        try:
            key = fact_key(predicate, tuple(coerce_constant(a) for a in args))
        except ArityError:
            return False
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
        self._justifications.pop(key, None)
        return True

    def match(self, pattern) -> list:
        """All bindings that turn ``pattern`` into a stored fact.

        ``pattern`` is anything with ``predicate`` and ``terms`` attributes
        where each term is a :class:`Constant` or :class:`Variable` (rule
        atoms qualify).  A variable-free pattern that is present yields one
        empty binding.
        """
        terms = tuple(pattern.terms)
        if not 1 <= len(terms) <= MAX_ARITY:
            raise ArityError(f"pattern arity {len(terms)} outside 1..{MAX_ARITY}")
        results = []
        for fact in self.candidates(pattern.predicate, terms, {}):
            binding = unify_against_fact(pattern.predicate, terms, fact, {})
            if binding is not None:
                results.append(binding)
        return results

    def record_justification(self, fact: Fact, rule_id: Optional[str],
                             premises: tuple) -> None:
        self._justifications.setdefault(fact.key(),
                                        Justification(rule_id, tuple(premises)))

    def justification(self, fact: Fact) -> Optional[Justification]:
        return self._justifications.get(fact.key())

    def snapshot(self) -> "FactStore":
        """Independent copy; facts themselves are immutable and shared."""
        clone = FactStore(vocabulary=())
        clone._facts = dict(self._facts)
        clone._index = {p: dict(bucket) for p, bucket in self._index.items()}
        clone._by_arg = {slot: dict(bucket)
                         for slot, bucket in self._by_arg.items()}
        clone._canon = dict(self._canon)
        clone._justifications = dict(self._justifications)
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


def load_facts_file(path) -> FactStore:
    with open(path, "r", encoding="utf-8") as fh:
        return load_facts(fh.read())


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


def save_facts_file(store: FactStore, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_facts(store))
