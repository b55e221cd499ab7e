"""Process-term syntax: actions, terms, definition environments, parser and printer.

Terms are immutable and interned: each is built through one unique table,
so equal terms are the same object and are compared by identity.  Sums are
canonicalized at construction time (flattened, deduplicated, sorted) so
identity is a decidable stand-in for syntactic identity modulo
commutative-monoid laws.
"""
from __future__ import annotations

import re
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, Union


# ---------------------------------------------------------------------------
# Actions and labels
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class Action:
    """A visible action; `co` marks the complemented polarity (~a)."""

    name: str
    co: bool = False

    def __post_init__(self) -> None:
        # a keyword name would print as text that parses as something else
        if not _NAME_RE.match(self.name) or self.name in _KEYWORDS:
            raise ValueError(f"bad action name {self.name!r}")

    def complement(self) -> "Action":
        return Action(self.name, not self.co)

    def __str__(self) -> str:
        return ("~" if self.co else "") + self.name


@dataclass(frozen=True)
class Tau:
    def __str__(self) -> str:
        return "tau"


@dataclass(frozen=True)
class Ok:
    def __str__(self) -> str:
        return "ok"


TAU = Tau()
OK = Ok()

#: Transition labels: internal, success, or a visible action.
Label = Union[Tau, Ok, Action]


def label_key(lab: Label) -> tuple:
    if isinstance(lab, Tau):
        return (0,)
    if isinstance(lab, Ok):
        return (1,)
    return (2, lab.name, lab.co)


def label_set_key(labels: Iterable[Label]) -> tuple:
    """Order on label sets (ready sets, branch families): sorted member keys."""
    return tuple(sorted(label_key(x) for x in labels))


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class for process terms.

    Terms are hash-consed (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): every node is built through one unique table, so
    two terms are equal exactly when they are the same object, and `==` is
    identity.  Each node computes once, from its children, its hash (the value
    a frozen dataclass of the same fields has, so sets and dicts of terms
    iterate in the same order as by value), its `term_key` and its visible
    depth (-1 when a constant occurs); its action names are computed on first
    use.  Assigning a field raises, and `copy`, `deepcopy` and `pickle` go back
    through the constructor, so they return the interned term.
    """

    __slots__ = ("_hash", "_key", "_depth", "_names")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return pretty(self)


_set = object.__setattr__
_NO_NAMES: tuple[frozenset[str], frozenset[str]] = (frozenset(), frozenset())


def _node(cls: type, h: int, key: tuple, depth: int, names: object) -> Term:
    t = object.__new__(cls)
    _set(t, "_hash", h)
    _set(t, "_key", key)
    _set(t, "_depth", depth)
    _set(t, "_names", names)
    return t


# The unique table.  Lookups that hit take no lock; a miss and a sweep hold
# `_LOCK`, so a live term never gets a duplicate.  Values are strong: when
# the entries have doubled since the last sweep, `_sweep` drops those only
# the table refers to.
_LOCK = threading.Lock()
# Prefix tables are keyed by the guard's id: an action's (name, co), which
# hashes and compares without a Python-level call, or the guard itself.
_PREFIXES: dict[object, dict[Term, "Prefix"]] = {}  # guard id -> body -> term
_GUARD_KEYS: dict[object, tuple] = {}  # guard id -> label_key
_SUMS: dict[tuple[Term, ...], "Sum"] = {}
_CONSTS: dict[str, "Const"] = {}
_MIN_SWEEP = 4096
_size = 0
_limit = _MIN_SWEEP


def _added() -> None:
    """Count one new entry; sweep when the table has doubled (lock held)."""
    global _size, _limit
    _size += 1
    if _size > _limit:
        _sweep()
        _limit = max(2 * _size, _MIN_SWEEP)


def _sweep() -> None:
    """Drop every entry that only the table refers to (lock held).

    An entry is popped before its count is read and put back when the term
    is still live, so a lock-free lookup either holds the term (and so keeps
    it) or misses and waits for the lock.  A dropped term frees its
    children's references, so they are checked next."""
    global _size
    probe = object()
    alone = sys.getrefcount(probe)  # what a term only this frame holds reads
    tables = [*_PREFIXES.values(), _SUMS, _CONSTS]
    work = [t for table in tables for t in table.values() if sys.getrefcount(t) == alone + 1]
    while work:
        t = work.pop()
        if isinstance(t, Prefix):
            g = t.guard
            table, key = _PREFIXES[(g.name, g.co) if isinstance(g, Action) else g], t.body
        elif isinstance(t, Sum):
            table, key = _SUMS, t.parts
        elif isinstance(t, Const):
            table, key = _CONSTS, t.name
        else:
            continue  # a leaf has no entry
        if sys.getrefcount(t) > alone + 1:
            continue  # held elsewhere, or again in `work`
        del table[key]
        if sys.getrefcount(t) > alone:
            table[key] = t
            continue
        _size -= 1
        if isinstance(t, Prefix):
            work.append(key)
        elif isinstance(t, Sum):
            work.extend(key)


class _Leaf(Term):
    """A constant process; one instance per class."""

    __slots__ = ()
    _rank: int

    def __new__(cls) -> "_Leaf":
        t = cls.__dict__.get("_instance")
        if t is None:
            with _LOCK:
                t = cls.__dict__.get("_instance")
                if t is None:
                    t = _node(cls, hash(()), (cls._rank,), 0, _NO_NAMES)
                    cls._instance = t
        return t


class Nil(_Leaf):
    """The empty sum `0`."""

    __slots__ = ()
    _rank = 0


class Unit(_Leaf):
    """The success process `1`."""

    __slots__ = ()
    _rank = 1


class Div(_Leaf):
    """The purely divergent process `div` (a tau self-loop)."""

    __slots__ = ()
    _rank = 2


class Prefix(Term):
    __slots__ = ("guard", "body")
    __match_args__ = ("guard", "body")
    guard: Union[Tau, Action]
    body: Term

    def __new__(cls, guard: Union[Tau, Action], body: Term) -> "Prefix":
        gid = (guard.name, guard.co) if isinstance(guard, Action) else guard
        table = _PREFIXES.get(gid)
        if table is not None:
            t = table.get(body)
            if t is not None:
                return t
        with _LOCK:
            table = _PREFIXES.get(gid)
            if table is None:
                table = _PREFIXES[gid] = {}
                _GUARD_KEYS[gid] = label_key(guard)
            t = table.get(body)
            if t is None:
                depth = body._depth
                if depth >= 0 and isinstance(guard, Action):
                    depth += 1
                t = _node(cls, hash((guard, body)), (3, _GUARD_KEYS[gid], body._key), depth, None)
                _set(t, "guard", guard)
                _set(t, "body", body)
                table[body] = t
                _added()
            return t


class Sum(Term):
    """A canonical external sum: flattened, deduplicated, sorted, arity >= 2."""

    __slots__ = ("parts",)
    __match_args__ = ("parts",)
    parts: tuple[Term, ...]

    def __new__(cls, parts: tuple[Term, ...]) -> "Sum":
        t = _SUMS.get(parts)
        if t is not None:
            return t
        with _LOCK:
            t = _SUMS.get(parts)
            if t is None:
                depths = [p._depth for p in parts]
                depth = -1 if min(depths) < 0 else max(depths)
                t = _node(cls, hash((parts,)), (5, tuple(p._key for p in parts)), depth, None)
                _set(t, "parts", parts)
                _SUMS[parts] = t
                _added()
            return t


class Const(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "Const":
        t = _CONSTS.get(name)
        if t is not None:
            return t
        with _LOCK:
            t = _CONSTS.get(name)
            if t is None:
                t = _node(cls, hash((name,)), (4, name), -1, (frozenset(), frozenset({name})))
                _set(t, "name", name)
                _CONSTS[name] = t
                _added()
            return t


UNIT = Unit()
NIL = Nil()
DIV = Div()


def term_key(t: Term) -> tuple:
    """Total order on terms used for canonical sum ordering."""
    return t._key


def mk_sum(parts: Iterable[Term]) -> Term:
    """Smart constructor for external choice: flatten, drop 0, dedupe, sort."""
    flat: list[Term] = []
    for p in parts:
        if isinstance(p, Sum):
            flat.extend(p.parts)
        elif isinstance(p, Nil):
            continue
        else:
            flat.append(p)
    uniq = sorted(set(flat), key=term_key)
    if not uniq:
        return NIL
    if len(uniq) == 1:
        return uniq[0]
    return Sum(tuple(uniq))


def internal_choice(left: Term, right: Term) -> Term:
    """p (+) q is sugar for tau.p + tau.q."""
    return mk_sum([Prefix(TAU, left), Prefix(TAU, right)])


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including `t` itself, in pre-order (constants are not
    unfolded); an explicit stack, so any nesting depth is walked."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Prefix):
            stack.append(t.body)
        elif isinstance(t, Sum):
            stack.extend(reversed(t.parts))


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

_CONST_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


class SyntaxErr(Exception):
    """Lexical or structural error, with 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


#: reachable states allowed in any one graph (an `Lts` or a `Product`)
DEFAULT_STATE_CAP = 100_000


@dataclass(frozen=True, eq=False)
class Env:
    """Named recursive definitions and the cap on graph size every decider
    builds under; immutable.  An environment is the scope of one definition
    file, so it is compared and hashed by identity, never by its contents."""

    defs: tuple[tuple[str, Term], ...] = ()
    state_cap: int = DEFAULT_STATE_CAP
    _map: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.state_cap <= 0:
            raise ValueError("state_cap must be positive")
        object.__setattr__(self, "_map", dict(self.defs))
        if len(self._map) != len(self.defs):
            raise SyntaxErr("duplicate definition in environment")

    def lookup(self, name: str) -> Term:
        try:
            return self._map[name]
        except KeyError:
            raise SyntaxErr(f"unbound constant {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def check_guarded(self) -> None:
        # A constant must not reach itself without crossing a prefix; the
        # one-step transition relation would otherwise be ill-founded.
        exposed: dict[str, set[str]] = {}
        for name, body in self.defs:
            seen: set[str] = set()
            stack = [body]
            while stack:
                t = stack.pop()
                if isinstance(t, Const):
                    seen.add(t.name)
                elif isinstance(t, Sum):
                    stack.extend(t.parts)
            exposed[name] = seen
        for start in exposed:
            stack, visited = [start], set()
            while stack:
                cur = stack.pop()
                for nxt in exposed.get(cur, ()):
                    if nxt == start:
                        raise SyntaxErr(f"unguarded recursion through {start}")
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)


EMPTY_ENV = Env()


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

# Each match is one token with the whitespace before it; alternatives are
# ordered by frequency, `(+)` before `(`, and `bad` catches anything else.
_TOKEN_RE = re.compile(
    r"""\s*(?:
    (?P<const>[A-Z][A-Za-z0-9_]*)
  | (?P<act>[a-z][a-z0-9_]*)
  | (?P<dot>\.)
  | (?P<plus>\+)
  | (?P<eq>=)
  | (?P<tilde>~)
  | (?P<oplus>\(\+\))
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<zero>0)
  | (?P<one>1)
  | (?P<bad>.)
    )""",
    re.VERBOSE,
)

# Only an `act` token can spell a keyword, so the token text alone decides.
_KEYWORDS = {"def": "def", "tau": "tau", "div": "div"}
_LEAVES = {"zero": NIL, "one": UNIT, "div": DIV}


def _lex(text: str, eol: bool) -> tuple[list[str], list[str], list[int], list[int]]:
    """Tokens as parallel lists of kind, text, line and column, closed by an
    `eof` token at line 0; with `eol`, every line ends in an `eol` token."""
    kinds: list[str] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        # Without trailing whitespace every match ends in a token.
        for m in _TOKEN_RE.finditer(line.rstrip()):
            kind = m.lastgroup
            tok = m[kind]
            if kind == "bad":
                raise SyntaxErr(f"unexpected character {tok!r}", lineno, m.start(kind) + 1)
            kinds.append(_KEYWORDS.get(tok, kind))
            texts.append(tok)
            lines.append(lineno)
            cols.append(m.start(kind) + 1)
        if eol:
            kinds.append("eol")
            texts.append("")
            lines.append(lineno)
            cols.append(len(line) + 1)
    kinds.append("eof")
    texts.append("")
    lines.append(0)
    cols.append(0)
    return kinds, texts, lines, cols


class _Reader:
    """Recursive descent over one token list.  `Action` and `Const` objects
    are shared within the parse, and `uses` holds the token index of every
    constant use in reading order."""

    def __init__(self, text: str, eol: bool):
        self.kinds, self.texts, self.lines, self.cols = _lex(text, eol)
        self.i = 0
        self.actions: dict[tuple[str, bool], Action] = {}
        self.consts: dict[str, Const] = {}
        self.uses: list[int] = []

    def error(self, message: str, i: int) -> SyntaxErr:
        return SyntaxErr(message, self.lines[i], self.cols[i])

    def expected(self, kind: str, i: int) -> SyntaxErr:
        return self.error(f"expected {kind}, found {self.texts[i] or self.kinds[i]!r}", i)

    # term := ichoice ('+' ichoice)*
    # ichoice := pre ('(+)' pre)*
    def term(self) -> Term:
        kinds = self.kinds
        parts = []
        while True:
            t = self.pre()
            while kinds[self.i] == "oplus":
                self.i += 1
                t = internal_choice(t, self.pre())
            parts.append(t)
            if kinds[self.i] != "plus":
                return mk_sum(parts) if len(parts) > 1 else parts[0]
            self.i += 1

    # pre := ('tau' '.' | ACT '.' | '~' ACT '.')* atom
    # atom := '0' | '1' | 'div' | CONST | '(' term ')'
    def pre(self) -> Term:
        kinds, texts, actions = self.kinds, self.texts, self.actions
        i = self.i
        guards: list[Union[Tau, Action]] = []
        while True:
            kind = kinds[i]
            if kind == "tau":
                guards.append(TAU)
            elif kind == "act" or kind == "tilde":
                co = kind == "tilde"
                if co:
                    i += 1
                    if kinds[i] != "act":
                        raise self.expected("act", i)
                key = (texts[i], co)
                act = actions.get(key)
                if act is None:
                    act = actions[key] = Action(*key)
                guards.append(act)
            else:
                break
            i += 1
            if kinds[i] != "dot":
                raise self.expected("dot", i)
            i += 1
        self.i = i + 1
        if kind == "const":
            self.uses.append(i)
            t = self.consts.get(texts[i])
            if t is None:
                t = self.consts[texts[i]] = Const(texts[i])
        elif kind in _LEAVES:
            t = _LEAVES[kind]
        elif kind == "lpar":
            t = self.term()
            if kinds[self.i] != "rpar":
                raise self.expected("rpar", self.i)
            self.i += 1
        else:
            raise self.error(f"unexpected {texts[i] or kind!r}", i)
        for guard in reversed(guards):
            t = Prefix(guard, t)
        return t


def parse_term(text: str, env: Env = EMPTY_ENV) -> Term:
    """Parse a single term; constants must be bound in `env`."""
    r = _Reader(text, eol=False)
    if r.kinds[0] == "eof":
        raise SyntaxErr("empty term")
    t = r.term()
    if r.kinds[r.i] != "eof":
        raise r.error(f"trailing input {r.texts[r.i]!r}", r.i)
    unbound = {name for name in r.consts if name not in env}
    if unbound:
        first = next(sub for sub in subterms(t) if isinstance(sub, Const) and sub.name in unbound)
        raise SyntaxErr(f"unbound constant {first.name}")
    return t


def parse_defs(text: str) -> tuple[Env, list[str]]:
    """Parse a definition file; returns the environment and names in file order."""
    r = _Reader(text, eol=True)
    kinds, texts = r.kinds, r.texts
    bodies: dict[str, Term] = {}
    while True:
        i = r.i
        kind = kinds[i]
        if kind == "eol":
            r.i = i + 1
            continue
        if kind == "eof":
            break
        if kind != "def":
            raise r.error("expected 'def'", i)
        if kinds[i + 1] != "const":
            raise r.expected("const", i + 1)
        name = texts[i + 1]
        if name == "Div":
            raise r.error("Div is reserved and cannot be redefined", i + 1)
        if name in bodies:
            raise r.error(f"duplicate definition of {name}", i + 1)
        if kinds[i + 2] != "eq":
            raise r.expected("eq", i + 2)
        r.i = i + 3
        body = r.term()
        if kinds[r.i] != "eol":
            raise r.error(f"trailing input {texts[r.i]!r}", r.i)
        bodies[name] = body
    env = Env(tuple(bodies.items()))
    if any(name not in env for name in r.consts):
        for j in r.uses:
            if texts[j] not in env:
                raise r.error(f"unbound constant {texts[j]}", j)
    env.check_guarded()
    return env, list(bodies)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def pretty(t: Term) -> str:
    """Render a term; parse_term(pretty(t)) is t for canonical terms.  An
    explicit stack of terms and text, so any nesting depth is rendered."""
    out: list[str] = []
    stack: list[Union[Term, str]] = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Prefix):
            out.append(f"{t.guard}.")
            if isinstance(t.body, Sum):
                out.append("(")
                stack.append(")")
            stack.append(t.body)
        elif isinstance(t, Sum):
            for p in reversed(t.parts[1:]):
                stack.append(p)
                stack.append(" + ")
            stack.append(t.parts[0])
        elif isinstance(t, Nil):
            out.append("0")
        elif isinstance(t, Unit):
            out.append("1")
        elif isinstance(t, Div):
            out.append("div")
        elif isinstance(t, Const):
            out.append(t.name)
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Static classification
# ---------------------------------------------------------------------------


def is_ccsf(t: Term) -> bool:
    """Finite terms: no named constants anywhere (div is allowed)."""
    return t._depth >= 0


def _names(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """The action names and the constant names occurring in `t`, cached on
    each node on first use; an explicit stack, so any nesting depth is
    walked."""
    stack = [t]
    while stack:
        s = stack[-1]
        if s._names is not None:
            stack.pop()
            continue
        if isinstance(s, Prefix):
            below = s.body._names
            if below is None:
                stack.append(s.body)
                continue
            g = s.guard
            if isinstance(g, Action) and g.name not in below[0]:
                below = (below[0] | {g.name}, below[1])
        else:
            missing = [p for p in s.parts if p._names is None]
            if missing:
                stack.extend(missing)
                continue
            below = (frozenset().union(*(p._names[0] for p in s.parts)),
                     frozenset().union(*(p._names[1] for p in s.parts)))
        _set(s, "_names", below)
        stack.pop()
    return t._names


def action_names(ts: Iterable[Term], env: Env = EMPTY_ENV) -> set[str]:
    """Action names occurring in the terms or in any reachable definition."""
    names: set[str] = set()
    done: set[str] = set()
    pending = list(ts)
    while pending:
        found, consts = _names(pending.pop())
        names |= found
        for name in consts - done:
            done.add(name)
            if name in env:
                pending.append(env.lookup(name))
    return names


def fresh_action(ts: Iterable[Term], env: Env = EMPTY_ENV) -> Action:
    """First action f0, f1, ... not occurring in the terms or reachable defs."""
    used = action_names(ts, env)
    i = 0
    while f"f{i}" in used:
        i += 1
    return Action(f"f{i}")


def visible_depth(t: Term) -> int:
    """Maximum nesting of visible prefixes (finite terms only)."""
    if t._depth < 0:
        raise ValueError("visible_depth is defined for finite terms only")
    return t._depth
