"""Process-term syntax: actions, terms, definition environments, parser and printer.

Labels and terms are immutable and interned: each is built through one
table, so equal values are the same object, and they compare and hash by
identity.  Sums are canonicalized at construction time (flattened,
deduplicated, sorted) so identity is a decidable stand-in for syntactic
identity modulo commutative-monoid laws.
"""
from __future__ import annotations

import itertools
import operator
import re
import sys
import threading
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, Optional, Union


class _Interned:
    """Base of labels and terms: one object per value, compared and hashed by
    identity, with its order key cached.  Assigning a field raises, and `copy`,
    `deepcopy` and `pickle` return the interned object."""

    __slots__ = ("_key",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


#: Total order on labels and on terms (sums sort their parts by it): the key
#: each object caches, read without a Python-level call.
label_key = term_key = operator.attrgetter("_key")

# Held by a miss in the tables of actions and terms and by the sweep; it is
# not re-entrant, so nothing that holds it may make an `Action`.
_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# Actions and labels
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class Tau(_Interned):
    """The internal action; `TAU` is the only instance."""

    __slots__ = ("_prefixes",)

    def __new__(cls) -> "Tau":
        return TAU

    def __str__(self) -> str:
        return "tau"


class Ok(_Interned):
    """The success label; `OK` is the only instance."""

    __slots__ = ()

    def __new__(cls) -> "Ok":
        return OK

    def __str__(self) -> str:
        return "ok"


class Action(_Interned):
    """A visible action; `co` marks the complemented polarity (~a).  Both
    polarities of a name are made at once, each holding the other as its
    complement.  A sweep of the term table drops a name whose two actions
    guard no prefix and are held by nothing else."""

    __slots__ = ("name", "co", "_complement", "_prefixes")
    __match_args__ = ("name", "co")
    name: str
    co: bool

    def __new__(cls, name: str, co: bool = False) -> "Action":
        pair = _ACTIONS.get(name)
        if pair is None:
            # a keyword name would print as text that parses as something else
            if not _NAME_RE.match(name) or name in _KEYWORDS:
                raise ValueError(f"bad action name {name!r}")
            with _LOCK:
                pair = _ACTIONS.get(name)
                if pair is None:
                    a = _make(cls, _key=(2, name, False), name=name, co=False, _prefixes={})
                    co_a = _make(cls, _key=(2, name, True), name=name, co=True, _prefixes={}, _complement=a)
                    object.__setattr__(a, "_complement", co_a)
                    pair = _ACTIONS[name] = (a, co_a)
        return pair[1] if co else pair[0]

    def complement(self) -> "Action":
        return self._complement

    def __str__(self) -> str:
        return ("~" if self.co else "") + self.name


_ACTIONS: dict[str, tuple[Action, Action]] = {}  # name -> (a, ~a)


def _make(cls: type, **fields: object) -> _Interned:
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


TAU = _make(Tau, _key=(0,), _prefixes={})
OK = _make(Ok, _key=(1,))

#: Transition labels: internal, success, or a visible action.
Label = Union[Tau, Ok, Action]


def label_set_key(labels: Iterable[Label]) -> tuple:
    """Order on label sets (ready sets, branch families): sorted member keys."""
    return tuple(sorted(label_key(x) for x in labels))


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(_Interned):
    """Base class for process terms.

    Terms are hash-consed (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): every node is built through one unique table, so
    two terms are equal exactly when they are the same object.  Each node
    computes once, from its children, its `term_key` and its visible depth
    (-1 when a constant occurs); its action names are computed on first use.
    """

    __slots__ = ("_depth", "_names")

    def __str__(self) -> str:
        return pretty(self)


_NO_NAMES: tuple[frozenset[str], frozenset[str]] = (frozenset(), frozenset())
# A new node's fields are stored through their slot descriptors, which the
# frozen `__setattr__` does not see.
_set_key = Term._key.__set__
_set_depth = Term._depth.__set__
_set_names = Term._names.__set__
_depth_of = operator.attrgetter("_depth")


def _node(cls: type, key: tuple, depth: int, names: object) -> Term:
    t = object.__new__(cls)
    _set_key(t, key)
    _set_depth(t, depth)
    _set_names(t, names)
    return t


# The unique table.  Lookups that hit take no lock; a miss and a sweep hold
# `_LOCK`, so a live term never gets a duplicate.  A prefix is filed in its
# guard's own table (`_prefixes`) under its body's `id`, which stays the
# body's while the entry holds it.  Values are strong: when the entries have
# doubled since the last sweep, `_sweep` drops those only the table refers to.
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
    getrc = sys.getrefcount
    probe = object()
    alone = getrc(probe)  # what a term only this frame holds reads
    tables = [TAU._prefixes, *(a._prefixes for pair in _ACTIONS.values() for a in pair), _SUMS, _CONSTS]
    work = [t for table in tables for t in table.values() if getrc(t) == alone + 1]
    while work:
        t = work.pop()
        if getrc(t) > alone + 1:
            continue  # held elsewhere, or again in `work`
        cls = type(t)
        if cls is Sum:
            table, key = _SUMS, t.parts
        elif cls is Prefix:
            table, key = t.guard._prefixes, id(t.body)
        elif cls is Const:
            table, key = _CONSTS, t.name
        else:
            continue
        del table[key]
        if getrc(t) > alone:
            table[key] = t
            continue
        _size -= 1
        if cls is Sum:
            work.extend(t.parts)
        elif cls is Prefix:
            work.append(t.body)
        key = None  # hold no child: its count is read next
    t = None  # a dropped prefix would hold its guard
    # a name whose two actions guard no prefix goes, by the same rule, unless
    # more than the pair and each other hold its actions
    for name in [n for n, (a, co_a) in _ACTIONS.items() if not a._prefixes and not co_a._prefixes]:
        pair = _ACTIONS.pop(name)
        a, co_a = pair
        if getrc(pair) > alone or getrc(a) > alone + 2 or getrc(co_a) > alone + 2:
            _ACTIONS[name] = pair
            continue
        object.__setattr__(a, "_complement", None)
        object.__setattr__(co_a, "_complement", None)


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
                    t = _node(cls, (cls._rank,), 0, _NO_NAMES)
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
        table = guard._prefixes
        t = table.get(id(body))
        if t is not None:
            return t
        with _LOCK:
            t = table.get(id(body))
            if t is None:
                depth = body._depth
                if depth >= 0 and guard is not TAU:
                    depth += 1
                t = _node(cls, (3, guard._key, body._key), depth, None)
                _set_guard(t, guard)
                _set_body(t, body)
                table[id(body)] = t
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
        # the node is built before the lock is taken; a thread that loses
        # the race for the entry drops its own
        depth = min(map(_depth_of, parts))
        if depth >= 0:
            depth = max(map(_depth_of, parts))
        node = _node(cls, (5, tuple(map(term_key, parts))), depth, None)
        _set_parts(node, parts)
        with _LOCK:
            t = _SUMS.setdefault(parts, node)
            if t is node:
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
                t = _node(cls, (4, name), -1, None)
                _set_name(t, name)
                _CONSTS[name] = t
                _added()
            return t


UNIT = Unit()
NIL = Nil()
DIV = Div()
_set_guard = Prefix.guard.__set__
_set_body = Prefix.body.__set__
_set_parts = Sum.parts.__set__
_set_name = Const.name.__set__


def mk_sum(parts: Iterable[Term]) -> Term:
    """Smart constructor for external choice: flatten, drop 0, dedupe, sort."""
    flat: list[Term] = []
    for p in parts:
        if type(p) is Sum:
            flat.extend(p.parts)
        elif p is not NIL:
            flat.append(p)
    # sorted first: equal terms, being one object, then sit side by side
    flat.sort(key=term_key)
    if any(map(operator.is_, flat, flat[1:])):
        flat = list(dict.fromkeys(flat))
    if len(flat) < 2:
        return flat[0] if flat else NIL
    return Sum(tuple(flat))


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


class SyntaxErr(Exception):
    """Lexical or structural error, with 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


#: reachable states allowed in any one graph (an `Lts` or a `Product`)
DEFAULT_STATE_CAP = 100_000


class _Defs:
    """The definitions of an environment as (name, body) pairs in file order.

    `starts` holds every name, in file order, with the token index its body
    starts at in `reader` (None for a body given built).  A body is built
    from its tokens the first time it is read, from an index local to the
    call, and kept with `setdefault`: two threads that build one body get
    one object anyway, since terms are interned.  Reading every pair builds
    every body."""

    __slots__ = ("starts", "bodies", "reader")

    def __init__(self, starts: dict[str, Optional[int]], bodies: dict[str, Term],
                 reader: Optional["_Reader"]):
        self.starts, self.bodies, self.reader = starts, bodies, reader

    def body(self, name: str) -> Term:
        t = self.bodies.get(name)
        if t is None:
            try:
                i = self.starts[name]
            except KeyError:
                raise SyntaxErr(f"unbound constant {name}") from None
            t = self.bodies.setdefault(name, self.reader.term(i, _TERMS)[0])
        return t

    def __iter__(self) -> Iterator[tuple[str, Term]]:
        return ((name, self.body(name)) for name in self.starts)


@dataclass(frozen=True, eq=False)
class Env:
    """Named recursive definitions and the cap on graph size every decider
    builds under, both fixed, and `graphs`, the graphs `lts.cached_lts` built
    under them.  An environment is the scope of one definition file, so it is
    compared and hashed by identity, never by its contents.

    `defs` may be given as (name, body) pairs; it is kept as a `_Defs`,
    whose bodies `parse_defs` leaves unbuilt until first looked up.
    `dataclasses.replace(env, state_cap=N)` shares them, built or not."""

    defs: Iterable[tuple[str, Term]] = ()
    state_cap: int = DEFAULT_STATE_CAP
    graphs: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.state_cap <= 0:
            raise ValueError("state_cap must be positive")
        defs = self.defs
        if not isinstance(defs, _Defs):
            pairs = tuple(defs)
            defs = _Defs(dict.fromkeys(name for name, _ in pairs), dict(pairs), None)
            if len(defs.starts) != len(pairs):
                raise SyntaxErr("duplicate definition in environment")
            object.__setattr__(self, "defs", defs)
        object.__setattr__(self, "graphs", {})

    def lookup(self, name: str) -> Term:
        return self.defs.body(name)

    def __contains__(self, name: str) -> bool:
        return name in self.defs.starts


EMPTY_ENV = Env()


# ---------------------------------------------------------------------------
# Lexer / parser
# ---------------------------------------------------------------------------

# One pass finds every token: each match is a token after the blanks and the
# comment before it.  Line ends are those of `str.splitlines`, and a `#`
# comment runs to the line end.  Read from the text with a line end added,
# every match ends in a token, so no character is skipped; a character no
# other alternative takes is a token of its own (`bad` unless listed).  The
# alternatives start with distinct characters, except that `(+)` and `\r\n`
# come before the single `(` and `\r`; the most common are tried first.
_LINE_END = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_TOKEN_RE = re.compile(
    rf"[^\S{_LINE_END}]*(?:\#[^{_LINE_END}]*)?"
    r"(\(\+\)|[.+=~()01\n]|[a-z][a-z0-9_]*|[A-Z][A-Za-z0-9_]*|\r\n|.)",
    re.DOTALL,
)
_KINDS = {".": "dot", "+": "plus", "=": "eq", "~": "tilde", "(+)": "oplus", "(": "lpar",
          ")": "rpar", "0": "zero", "1": "one", "\r\n": "eol",
          **dict.fromkeys("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", "eol"),
          # only an `act` token can spell a keyword
          "def": "def", "tau": "tau", "div": "div"}
_KEYWORDS = frozenset(("def", "tau", "div"))
# any other token is a name, whose first letter gives its kind, or `bad`
_NAME_KINDS = {**dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "const"),
               **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "act")}
_LEAVES = {"zero": NIL, "one": UNIT, "div": DIV}


def _lex(text: str, eol: bool) -> tuple[list[str], list[str]]:
    """Tokens as parallel lists of kind and text, closed by an `eof` token;
    with `eol`, every line ends in an `eol` token.  Positions are found only
    for an error (`_position`)."""
    texts = _TOKEN_RE.findall(text + "\n")
    kind_of = {tok: _KINDS.get(tok) or _NAME_KINDS.get(tok[0], "bad") for tok in set(texts)}
    if "bad" in kind_of.values():
        i = min(texts.index(tok) for tok, kind in kind_of.items() if kind == "bad")
        raise SyntaxErr(f"unexpected character {texts[i]!r}", *_position(text, i, True))
    if not eol:
        texts = [tok for tok in texts if kind_of[tok] != "eol"]
    kinds = list(map(kind_of.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _position(text: str, i: int, eol: bool) -> tuple[int, int]:
    """1-based line and column of token `i` of `_lex(text, eol)`, from the
    same matches; (0, 0) for `eof`.  A line end sits where its line's
    comment starts, or where the line ends."""
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text + "\n"):
        at_end = _KINDS.get(m[1]) == "eol"
        if eol or not at_end:
            if i == 0:
                col = m.start(1) - start
                if at_end:
                    col = len(text[start:m.start(1)].split("#", 1)[0])
                return line, col + 1
            i -= 1
        if at_end:
            line, start = line + 1, m.end()
    return 0, 0


# What the reader builds from what it reads, as (action, constant, prefix,
# internal choice, sum of two or more parts, leaves by token kind): terms,
# or the names of the constants a term exposes unguarded (under no prefix
# and no internal choice), which is all the guardedness check reads of a
# body.
_TERMS = (Action, Const, Prefix, internal_choice, mk_sum, _LEAVES)
_EXPOSED = (lambda name, co: None, lambda name: (name,), lambda guard, t: (), lambda left, right: (),
            lambda parts: tuple(itertools.chain.from_iterable(parts)), dict.fromkeys(_LEAVES, ()))


class _Reader:
    """Reads terms from one token list."""

    def __init__(self, text: str, eol: bool):
        self.text, self.eol = text, eol
        self.kinds, self.texts = _lex(text, eol)

    def error(self, message: str, i: int) -> SyntaxErr:
        return SyntaxErr(message, *_position(self.text, i, self.eol))

    def shown(self, i: int) -> str:
        """How messages name token `i`: its text, or its kind at a line end."""
        kind = self.kinds[i]
        return kind if kind == "eol" or kind == "eof" else self.texts[i]

    def expected(self, kind: str, i: int) -> SyntaxErr:
        return self.error(f"expected {kind}, found {self.shown(i)!r}", i)

    def consts(self) -> set[str]:
        """The constant names read."""
        return set(itertools.compress(self.texts, map("const".__eq__, self.kinds)))

    def term(self, i: int, build: tuple) -> tuple[object, int]:
        """Read one term from token `i`, ending before the first token that
        cannot continue it; returns what `build` (`_TERMS` or `_EXPOSED`)
        makes of it and the index where it ends:
            term := ichoice ('+' ichoice)*      ichoice := pre ('(+)' pre)*
            pre := guard* atom                  guard := ('tau' | ACT | '~' ACT) '.'
            atom := '0' | '1' | 'div' | CONST | '(' term ')'
        One loop reads every nesting depth: an open parenthesis stacks the
        guards, parts and pending `(+)` operand of the enclosing term."""
        kinds, texts = self.kinds, self.texts
        act, const, prefix, ichoice, join, leaves = build
        stack: list[tuple[list, list, object]] = []
        parts: list = []
        guards: list[Union[Tau, Action]] = []
        left = None
        while True:
            while True:
                kind = kinds[i]
                if kind == "act":
                    g = act(texts[i], False)
                elif kind == "tau":
                    g = TAU
                elif kind == "tilde":
                    i += 1
                    if kinds[i] != "act":
                        raise self.expected("act", i)
                    g = act(texts[i], True)
                else:
                    break
                i += 1
                if kinds[i] != "dot":
                    raise self.expected("dot", i)
                i += 1
                guards.append(g)
            if kind == "const":
                t = const(texts[i])
            elif kind == "lpar":
                stack.append((guards, parts, left))
                guards, parts, left = [], [], None
                i += 1
                continue
            elif kind in leaves:
                t = leaves[kind]
            else:
                raise self.error(f"unexpected {self.shown(i)!r}", i)
            i += 1
            while True:
                # `t` is a whole atom: put its guards on it, then see what follows
                while guards:
                    t = prefix(guards.pop(), t)
                if left is not None:
                    t, left = ichoice(left, t), None
                kind = kinds[i]
                if kind == "oplus":
                    left = t
                    i += 1
                    break
                parts.append(t)
                if kind == "plus":
                    i += 1
                    break
                t = join(parts) if len(parts) > 1 else parts[0]
                if not stack:
                    return t, i
                if kind != "rpar":
                    raise self.expected("rpar", i)
                i += 1
                guards, parts, left = stack.pop()


def parse_term(text: str, env: Env = EMPTY_ENV) -> Term:
    """Parse a single term; constants must be bound in `env`."""
    r = _Reader(text, eol=False)
    if r.kinds[0] == "eof":
        raise SyntaxErr("empty term")
    t, i = r.term(0, _TERMS)
    if r.kinds[i] != "eof":
        raise r.error(f"trailing input {r.texts[i]!r}", i)
    unbound = {name for name in r.consts() if name not in env}
    if unbound:
        first = next(sub for sub in subterms(t) if isinstance(sub, Const) and sub.name in unbound)
        raise SyntaxErr(f"unbound constant {first.name}")
    return t


def parse_defs(text: str) -> tuple[Env, list[str]]:
    """Parse a definition file; returns the environment and names in file
    order.  Every definition is checked here, and its body is built the
    first time the environment is asked for it."""
    from .lts import on_cycle  # lts builds on this module

    r = _Reader(text, eol=True)
    kinds, texts = r.kinds, r.texts
    starts: dict[str, Optional[int]] = {}
    exposed: dict[str, tuple[str, ...]] = {}  # name -> the constants its body exposes, if any
    i = 0
    while True:
        kind = kinds[i]
        if kind == "eol":
            i += 1
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
        if name in starts:
            raise r.error(f"duplicate definition of {name}", i + 1)
        if kinds[i + 2] != "eq":
            raise r.expected("eq", i + 2)
        names, end = r.term(i + 3, _EXPOSED)
        if names:
            exposed[name] = names
        if kinds[end] != "eol":
            raise r.error(f"trailing input {texts[end]!r}", end)
        starts[name] = i + 3
        i = end
    if not r.consts() <= starts.keys():
        # the first use in reading order; a definition's own name is bound
        j = next(j for j, kind in enumerate(kinds) if kind == "const" and texts[j] not in starts)
        raise r.error(f"unbound constant {texts[j]}", j)
    # a constant must not reach itself without crossing a prefix, or the
    # one-step transition relation would be ill-founded
    cyclic = on_cycle(exposed, lambda name: exposed.get(name, ()))
    for name in exposed:
        if name in cyclic:
            raise SyntaxErr(f"unguarded recursion through {name}")
    return Env(_Defs(starts, {}, r)), list(starts)


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
        elif isinstance(s, Const):
            below = (frozenset(), frozenset({s.name}))
        else:
            missing = [p for p in s.parts if p._names is None]
            if missing:
                stack.extend(missing)
                continue
            below = (frozenset().union(*(p._names[0] for p in s.parts)),
                     frozenset().union(*(p._names[1] for p in s.parts)))
        _set_names(s, below)
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
