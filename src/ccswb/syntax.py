"""Process-term syntax: actions, terms, definition environments, parser and printer.

Terms are immutable, and compared and hashed by value.  Sums are
canonicalized at construction time (flattened, deduplicated, sorted) so
structural equality is a decidable stand-in for syntactic identity modulo
commutative-monoid laws.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
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
    """Base class for process terms."""

    __slots__ = ()

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Unit(Term):
    """The success process `1`."""


@dataclass(frozen=True)
class Nil(Term):
    """The empty sum `0`."""


@dataclass(frozen=True)
class Div(Term):
    """The purely divergent process `div` (a tau self-loop)."""


@dataclass(frozen=True)
class Prefix(Term):
    guard: Union[Tau, Action]
    body: Term


@dataclass(frozen=True)
class Sum(Term):
    """A canonical external sum: flattened, deduplicated, sorted, arity >= 2."""

    parts: tuple[Term, ...]


@dataclass(frozen=True)
class Const(Term):
    name: str


UNIT = Unit()
NIL = Nil()
DIV = Div()


def term_key(t: Term) -> tuple:
    """Total order on terms used for canonical sum ordering."""
    if isinstance(t, Nil):
        return (0,)
    if isinstance(t, Unit):
        return (1,)
    if isinstance(t, Div):
        return (2,)
    if isinstance(t, Prefix):
        return (3, label_key(t.guard), term_key(t.body))
    if isinstance(t, Const):
        return (4, t.name)
    if isinstance(t, Sum):
        return (5, tuple(term_key(p) for p in t.parts))
    raise TypeError(f"not a term: {t!r}")


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
    """Render a term; parse_term(pretty(t)) == t for canonical terms."""
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Unit):
        return "1"
    if isinstance(t, Div):
        return "div"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Prefix):
        body = pretty(t.body)
        if isinstance(t.body, Sum):
            body = f"({body})"
        return f"{t.guard}.{body}"
    if isinstance(t, Sum):
        return " + ".join(pretty(p) for p in t.parts)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Static classification
# ---------------------------------------------------------------------------


def is_ccsf(t: Term) -> bool:
    """Finite terms: no named constants anywhere (div is allowed)."""
    return not any(isinstance(s, Const) for s in subterms(t))


def action_names(ts: Iterable[Term], env: Env = EMPTY_ENV) -> set[str]:
    """Action names occurring in the terms or in any reachable definition."""
    names: set[str] = set()
    consts: set[str] = set()

    def scan(t: Term) -> None:
        for sub in subterms(t):
            if isinstance(sub, Prefix) and isinstance(sub.guard, Action):
                names.add(sub.guard.name)
            elif isinstance(sub, Const):
                consts.add(sub.name)

    for t in ts:
        scan(t)
    done: set[str] = set()
    while consts - done:
        name = (consts - done).pop()
        done.add(name)
        if name in env:
            scan(env.lookup(name))
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
    if isinstance(t, Prefix):
        d = visible_depth(t.body)
        return d + 1 if isinstance(t.guard, Action) else d
    if isinstance(t, Sum):
        return max(visible_depth(p) for p in t.parts)
    if isinstance(t, Const):
        raise ValueError("visible_depth is defined for finite terms only")
    return 0
