"""Process-term syntax: actions, terms, definition environments, parser and printer.

Terms are immutable and hash-consed by value.  Sums are canonicalized at
construction time (flattened, deduplicated, sorted) so structural equality is
a decidable stand-in for syntactic identity modulo commutative-monoid laws.
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
        if not _NAME_RE.match(self.name):
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
    """All subterms including `t` itself (constants are not unfolded)."""
    yield t
    if isinstance(t, Prefix):
        yield from subterms(t.body)
    elif isinstance(t, Sum):
        for p in t.parts:
            yield from subterms(p)


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


@dataclass(frozen=True)
class Env:
    """Named recursive definitions; immutable and hashable."""

    defs: tuple[tuple[str, Term], ...] = ()
    _map: dict = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
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

            def walk(t: Term) -> None:
                if isinstance(t, Const):
                    seen.add(t.name)
                elif isinstance(t, Sum):
                    for p in t.parts:
                        walk(p)

            walk(body)
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<oplus>\(\+\))
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<plus>\+)
  | (?P<dot>\.)
  | (?P<tilde>~)
  | (?P<eq>=)
  | (?P<zero>0)
  | (?P<one>1)
  | (?P<act>[a-z][a-z0-9_]*)
  | (?P<const>[A-Z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"def", "tau", "div"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise SyntaxErr(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            kind = m.lastgroup or ""
            tok = m.group()
            if kind != "ws":
                if kind == "act" and tok in _KEYWORDS:
                    kind = tok
                toks.append(_Tok(kind, tok, lineno, m.start() + 1))
            pos = m.end()
        toks.append(_Tok("eol", "", lineno, len(line) + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise SyntaxErr(f"expected {kind}, found {tok.text or tok.kind!r}", tok.line, tok.col)
        return self.next()

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    # term := ichoice ('+' ichoice)*
    def term(self) -> Term:
        parts = [self.ichoice()]
        while not self.at_end() and self.peek().kind == "plus":
            self.next()
            parts.append(self.ichoice())
        return mk_sum(parts) if len(parts) > 1 else parts[0]

    # ichoice := pre ('(+)' pre)*
    def ichoice(self) -> Term:
        t = self.pre()
        while not self.at_end() and self.peek().kind == "oplus":
            self.next()
            t = internal_choice(t, self.pre())
        return t

    # pre := 'tau' '.' pre | ACT '.' pre | '~' ACT '.' pre | atom
    def pre(self) -> Term:
        tok = self.peek()
        if tok.kind == "tau":
            self.next()
            self.expect("dot")
            return Prefix(TAU, self.pre())
        if tok.kind == "tilde":
            self.next()
            act = self.expect("act")
            if act.text in _KEYWORDS:
                raise SyntaxErr(f"{act.text!r} is a keyword", act.line, act.col)
            self.expect("dot")
            return Prefix(Action(act.text, co=True), self.pre())
        if tok.kind == "act":
            self.next()
            self.expect("dot")
            return Prefix(Action(tok.text), self.pre())
        return self.atom()

    def atom(self) -> Term:
        tok = self.next() if not self.at_end() else _Tok("eof", "", 0, 0)
        if tok.kind == "zero":
            return NIL
        if tok.kind == "one":
            return UNIT
        if tok.kind == "div":
            return DIV
        if tok.kind == "const":
            return Const(tok.text)
        if tok.kind == "lpar":
            t = self.term()
            self.expect("rpar")
            return t
        raise SyntaxErr(f"unexpected {tok.text or tok.kind!r}", tok.line, tok.col)


def parse_term(text: str, env: Env = EMPTY_ENV) -> Term:
    """Parse a single term; constants must be bound in `env`."""
    toks = [t for t in _lex(text) if t.kind != "eol"]
    if not toks:
        raise SyntaxErr("empty term")
    p = _Parser(toks)
    t = p.term()
    if not p.at_end():
        tok = p.peek()
        raise SyntaxErr(f"trailing input {tok.text!r}", tok.line, tok.col)
    for sub in subterms(t):
        if isinstance(sub, Const) and sub.name not in env:
            raise SyntaxErr(f"unbound constant {sub.name}")
    return t


def parse_defs(text: str) -> tuple[Env, list[str]]:
    """Parse a definition file; returns the environment and names in file order."""
    toks = _lex(text)
    p = _Parser(toks)
    defs: list[tuple[str, Term]] = []
    names: list[str] = []
    positions: dict[str, tuple[int, int]] = {}
    uses: list[tuple[str, int, int]] = []
    while not p.at_end():
        tok = p.peek()
        if tok.kind == "eol":
            p.next()
            continue
        if tok.kind != "def":
            raise SyntaxErr("expected 'def'", tok.line, tok.col)
        p.next()
        name_tok = p.expect("const")
        if name_tok.text == "Div":
            raise SyntaxErr("Div is reserved and cannot be redefined", name_tok.line, name_tok.col)
        if name_tok.text in positions:
            raise SyntaxErr(f"duplicate definition of {name_tok.text}", name_tok.line, name_tok.col)
        positions[name_tok.text] = (name_tok.line, name_tok.col)
        p.expect("eq")
        start = p.i
        body = p.term()
        for j in range(start, p.i):
            tj = p.toks[j]
            if tj.kind == "const":
                uses.append((tj.text, tj.line, tj.col))
        tok = p.peek() if not p.at_end() else None
        if tok is not None and tok.kind != "eol":
            raise SyntaxErr(f"trailing input {tok.text!r}", tok.line, tok.col)
        defs.append((name_tok.text, body))
        names.append(name_tok.text)
    env = Env(tuple(defs))
    for used, line, col in uses:
        if used not in env:
            raise SyntaxErr(f"unbound constant {used}", line, col)
    env.check_guarded()
    return env, names


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
