"""Axiom systems with two-sorted instantiation, saturation closure, and
constructive normalization of finite terms to peer and client normal forms.

Normalization is a constructive fold over the term (pairwise merging with
derivative unification, then saturation) rather than generic rewriting; each
interned subterm is normalized once and keeps its form.  Its output is
validated semantically by the test suite, never assumed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import islice
from typing import Callable, Iterable, Optional, TypeVar, Union

from .lts import can_ok
from .oracle import EnumSpec, enumerate_terms
from .preorders import leq_plus
from .syntax import (
    DIV,
    EMPTY_ENV,
    NIL,
    OK,
    TAU,
    UNIT,
    Action,
    Div,
    Env,
    Nil,
    Ok,
    Prefix,
    Sum,
    Term,
    Unit,
    is_ccsf,
    label_key,
    label_set_key,
    mk_sum,
    pretty,
    shared_set,
)
from .usability import usable

#: ready-set members: visible actions plus the success marker
FamLabel = Union[Action, Ok]
Family = frozenset[frozenset]
_N = TypeVar("_N")
_V = TypeVar("_V")


class NotCCSf(ValueError):
    """Normalization is defined on finite terms only."""


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------


def saturate(family: Iterable[Iterable[FamLabel]]) -> Family:
    """Least union-closed and convex superset, by the constructive formula
    {Z | X <= Z <= union(family) for some member X}."""
    fam = [frozenset(x) for x in family]
    if not fam:
        return frozenset()
    universe = frozenset().union(*fam)
    out: set[frozenset] = set()
    rest_pool = sorted(universe, key=label_key)
    for x in fam:
        free = [a for a in rest_pool if a not in x]
        for mask in range(1 << len(free)):
            z = set(x)
            for i, a in enumerate(free):
                if mask >> i & 1:
                    z.add(a)
            out.add(frozenset(z))
    return frozenset(out)


def is_saturated(family: Family) -> bool:
    return family == saturate(family)


# ---------------------------------------------------------------------------
# Normal-form trees
# ---------------------------------------------------------------------------


class Pnf:
    """Base class of peer normal forms; `unit` is the optional +1 summand.
    A `PnfTau`'s family and its members are the shared objects of
    `syntax.shared_set`, so equal families of any two forms are one object."""

    __slots__ = ()
    unit: bool


@dataclass(frozen=True, slots=True)
class PnfDiv(Pnf):
    unit: bool


@dataclass(frozen=True, slots=True)
class PnfExt(Pnf):
    branches: tuple[tuple[Action, Pnf], ...]
    unit: bool

    def branch_map(self) -> dict[Action, Pnf]:
        return dict(self.branches)


@dataclass(frozen=True, slots=True)
class PnfTau(Pnf):
    family: Family
    leaves: tuple[tuple[Action, Pnf], ...]
    unit: bool

    def leaf_map(self) -> dict[Action, Pnf]:
        return dict(self.leaves)


def _sorted_items(d: dict[Action, _V]) -> tuple[tuple[Action, _V], ...]:
    return tuple(sorted(d.items(), key=lambda kv: label_key(kv[0])))


def okify(n: Pnf) -> Pnf:
    """Add the success summand, pushing success down so the ok-propagation
    side condition keeps holding (repeated unit absorption under prefixes)."""
    if isinstance(n, PnfDiv):
        return PnfDiv(True)
    if isinstance(n, PnfExt):
        return PnfExt(_sorted_items({a: okify(c) for a, c in n.branches}), True)
    if isinstance(n, PnfTau):
        fam = shared_set(frozenset(A | {OK} for A in n.family))
        return PnfTau(fam, _sorted_items({a: okify(c) for a, c in n.leaves}), True)
    raise TypeError(n)


def make_ext(branches: dict[Action, Pnf], unit: bool) -> PnfExt:
    if unit:
        branches = {a: okify(c) for a, c in branches.items()}
    return PnfExt(_sorted_items(branches), unit)


def make_tau(family: Iterable[Iterable[FamLabel]], leaves: dict[Action, Pnf]) -> PnfTau:
    fam = shared_set(saturate(family))
    labels = {a for A in fam for a in A if isinstance(a, Action)}
    leaves = {a: c for a, c in leaves.items() if a in labels}
    return PnfTau(fam, _sorted_items(leaves), False)


_ZERO = PnfExt((), False)
_ONE = PnfExt((), True)
_LEAF_FORMS = {Nil: (_ZERO, True), Unit: (_ONE, True), Div: (PnfDiv(False), True)}


# ---------------------------------------------------------------------------
# Merge machinery
# ---------------------------------------------------------------------------


def _strip(n: Pnf) -> Pnf:
    return replace(n, unit=False)  # type: ignore[arg-type]


def tau_single(n: Pnf) -> tuple[Pnf, bool]:
    """Normal form of a single internal step onto `n`, and whether it is
    exact: False for a success-carrying divergence, whose internal step the
    grammar cannot express, so `div + 1` stands in for it from above."""
    if isinstance(n, PnfDiv):
        return n, not n.unit
    if isinstance(n, PnfExt):
        labels: set[FamLabel] = set(n.branch_map())
        if n.unit:
            labels.add(OK)
        # an internal commitment to deadlock keeps an explicit empty branch
        return PnfTau(shared_set(frozenset({frozenset(labels)})), n.branches, False), True
    if isinstance(n, PnfTau):
        return (_strip(n) if n.unit else n), True
    raise TypeError(n)


def _unify(a: Pnf, b: Pnf) -> tuple[Pnf, bool]:
    """One continuation standing for two merged derivatives of an action,
    with the merge's exactness flag."""
    if a == b:
        return a, True
    (ta, ok1), (tb, ok2) = tau_single(a), tau_single(b)
    merged, exact = plus_pnf(ta, tb)
    exact = exact and ok1 and ok2
    if a.unit and b.unit:
        return okify(merged), exact
    return merged, exact


def _merge_maps(n: dict[Action, Pnf], m: dict[Action, Pnf]) -> tuple[dict[Action, Pnf], bool]:
    """Per-action union of two continuation maps, unifying shared actions."""
    out: dict[Action, Pnf] = {}
    exact = True
    for a in set(n) | set(m):
        if a in n and a in m:
            out[a], ok = _unify(n[a], m[a])
            exact = exact and ok
        else:
            out[a] = n[a] if a in n else m[a]
    return out, exact


def plus_pnf(n: Pnf, m: Pnf) -> tuple[Pnf, bool]:
    """Normal form of the external choice of two normal forms, and whether
    it is exact: False when the merge had to shield an unsuccessful visible
    step under a success-capable internal branch, or took an inexact
    internal step (see `tau_single`)."""
    if n == _ZERO:
        return m, True
    if m == _ZERO:
        return n, True
    unit = n.unit or m.unit
    n0, m0 = _strip(n), _strip(m)
    out: Pnf
    exact = True
    if isinstance(n0, PnfDiv) or isinstance(m0, PnfDiv):
        # divergence absorbs any prefixed alternative
        out = PnfDiv(False)
    elif isinstance(n0, PnfExt) and isinstance(m0, PnfExt):
        merged, exact = _merge_maps(n0.branch_map(), m0.branch_map())
        out = PnfExt(_sorted_items(merged), False)
    elif isinstance(n0, PnfTau) and isinstance(m0, PnfTau):
        leaves, exact = _merge_maps(n0.leaf_map(), m0.leaf_map())
        out = make_tau(n0.family | m0.family, leaves)
    else:
        ext, tau = (n0, m0) if isinstance(n0, PnfExt) else (m0, n0)
        assert isinstance(ext, PnfExt) and isinstance(tau, PnfTau)
        nonok_members = [A for A in tau.family if OK not in A]
        if nonok_members:
            b1 = min(nonok_members, key=label_set_key)
        else:
            # Lifting the prefixes under a branch that can already succeed
            # shields their unsuccessful steps; the result can sit strictly
            # above the source whenever such a step exists.
            b1 = min(tau.family, key=label_set_key)
            exact = all(c.unit for _, c in ext.branches)
        lm = tau.leaf_map()
        ext_b1 = make_ext({a: lm[a] for a in b1 if isinstance(a, Action)}, OK in b1)
        inner, ok1 = plus_pnf(ext, ext_b1)
        stepped, ok2 = tau_single(inner)
        out, ok3 = plus_pnf(stepped, tau)
        exact = exact and ok1 and ok2 and ok3
    return (okify(out) if unit else out), exact


def normalize_pnf(t: Term) -> Pnf:
    """Peer normal form of a finite term."""
    return normalize_pnf_info(t)[0]


# a form is stored past the frozen `__setattr__`, as `syntax` stores fields
_set_pnf = Term._pnf.__set__


def normalize_pnf_info(t: Term) -> tuple[Pnf, bool]:
    """Normal form plus an exactness flag: False when the merge had to shield
    an unsuccessful visible step under a success-capable internal branch, or
    an internal step led to a success-carrying divergence (`tau.(1 + div)`);
    in both cases the form can sit strictly above the source.

    One post-order fold over the term on an explicit stack, so any nesting
    depth is normalized.  Each subterm keeps its (form, flag) on first use,
    as its action names are kept, so an interned subterm is normalized once
    however many terms share it, and its form goes with it when the term
    table drops it.  A thread racing for a subterm stores an equal pair."""
    if not is_ccsf(t):
        raise NotCCSf(f"not a finite term: {pretty(t)}")
    stack = [t]
    while stack:
        s = stack[-1]
        if s._pnf is not None:
            stack.pop()
            continue
        cls = type(s)
        if cls is Prefix:
            below = s.body._pnf
            if below is None:
                stack.append(s.body)
                continue
            body, exact = below
            if s.guard is TAU:
                stepped, ok = tau_single(body)
                info = stepped, exact and ok
            else:
                info = PnfExt(((s.guard, body),), False), exact
        elif cls is Sum:
            missing = [p for p in s.parts if p._pnf is None]
            if missing:
                stack.extend(missing)
                continue
            acc, exact = s.parts[0]._pnf
            for p in s.parts[1:]:
                part, ok1 = p._pnf
                acc, ok2 = plus_pnf(acc, part)
                exact = exact and ok1 and ok2
            info = acc, exact
        else:
            info = _LEAF_FORMS[cls]
        _set_pnf(s, info)
        stack.pop()
    return t._pnf


def _postorder(root: _N, kids: Callable[[_N], Iterable[_N]], make: Callable[[_N, dict], _V]) -> _V:
    """`make(n, done)` of `root`, where `done` maps the `id` of each of n's
    `kids` to what `make` made of it: one post-order pass over the distinct
    nodes below `root`, on an explicit stack, so any nesting depth is
    walked.  The ids stay valid since `root` holds every node below it."""
    done: dict[int, _V] = {}
    stack = [root]
    while stack:
        n = stack[-1]
        if id(n) in done:
            stack.pop()
            continue
        missing = [c for c in kids(n) if id(c) not in done]
        if missing:
            stack.extend(missing)
            continue
        done[id(n)] = make(n, done)
        stack.pop()
    return done[id(root)]


def _form_kids(n: Pnf) -> Iterable[Pnf]:
    if isinstance(n, PnfExt):
        return [c for _, c in n.branches]
    if isinstance(n, PnfTau):
        return [c for _, c in n.leaves]
    return ()


def _render(n: Pnf, done: dict[int, Term]) -> Term:
    if isinstance(n, PnfDiv):
        return mk_sum([DIV, UNIT]) if n.unit else DIV
    if isinstance(n, PnfExt):
        parts: list[Term] = [Prefix(a, done[id(c)]) for a, c in n.branches]
        if n.unit:
            parts.append(UNIT)
        return mk_sum(parts)
    if isinstance(n, PnfTau):
        lm = n.leaf_map()
        parts = []
        for A in sorted(n.family, key=label_set_key):
            branch = [UNIT if isinstance(lab, Ok) else Prefix(lab, done[id(lm[lab])])
                      for lab in sorted(A, key=label_key)]
            parts.append(Prefix(TAU, mk_sum(branch)))
        if n.unit:
            parts.append(UNIT)
        return mk_sum(parts)
    raise TypeError(n)


def pnf_to_term(n: Pnf) -> Term:
    """Render a normal form back into the term syntax; the success marker in
    a branch set renders as a 1 summand of that branch."""
    return _postorder(n, _form_kids, _render)


def _check(n: Pnf, client: bool) -> list[str]:
    """Structural validity report under the peer grammar, or under the client
    grammar, where success stands only as the whole form 1 or as the
    one-member branch {ok}; empty means well formed.  The nodes are checked
    in pre-order on an explicit stack, each with its path and the error its
    parent found on the way to it, if any."""
    errors: list[str] = []
    stack: list[tuple[Pnf, str, Optional[str]]] = [(n, "nf", None)]
    while stack:
        n, path, above = stack.pop()
        if above is not None:
            errors.append(above)
        if isinstance(n, PnfDiv):
            children: tuple[tuple[Action, Pnf], ...] = ()
        elif isinstance(n, PnfExt):
            children = n.branches
        elif isinstance(n, PnfTau):
            family = n.family
            if not family:
                errors.append(f"{path}: empty branch family")
            if client:
                if any(OK in A and len(A) > 1 for A in family):
                    errors.append(f"{path}: success marker inside a larger member")
                family = frozenset(A for A in family if OK not in A)
            missing = saturate(family) - family
            if missing:
                ex = sorted("{" + ",".join(sorted(map(str, A))) + "}" for A in missing)
                errors.append(f"{path}: family not saturated, missing {', '.join(ex)}")
            labels = {a for A in family for a in A if isinstance(a, Action)}
            if labels != {a for a, _ in n.leaves}:
                errors.append(f"{path}: leaves do not match the family labels")
            children = n.leaves
        else:
            errors.append(f"{path}: not a normal form node")
            continue
        if client and n.unit and n != _ONE:
            errors.append(f"{path}: success summand beside siblings")
        for a, c in reversed(children):
            lost = not client and n.unit and not c.unit
            stack.append((c, f"{path}.{a}",
                          f"{path}: success summand without success under {a}" if lost else None))
    return errors


def check_pnf(n: Pnf) -> list[str]:
    """Validity report under the peer grammar; empty means well formed."""
    return _check(n, client=False)


# ---------------------------------------------------------------------------
# Client normal forms
# ---------------------------------------------------------------------------


def _cnf_kids(n: Pnf) -> Iterable[Pnf]:
    if n.unit:
        return ()
    if isinstance(n, PnfExt):
        return [c for _, c in n.branches]
    if isinstance(n, PnfTau):
        lm = n.leaf_map()
        return [lm[a] for a in {a for A in n.family if OK not in A for a in A}]
    return ()


def _cnf(n: Pnf, done: dict[int, Pnf]) -> Pnf:
    if n.unit:
        return _ONE
    if isinstance(n, PnfDiv):
        return n
    if isinstance(n, PnfExt):
        return PnfExt(tuple((a, done[id(c)]) for a, c in n.branches), False)
    assert isinstance(n, PnfTau)
    plain = frozenset(A for A in n.family if OK not in A)
    # the members holding success collapse to the one-member branch {ok}
    family = n.family if plain == n.family else shared_set(plain | {frozenset({OK})})
    lm = n.leaf_map()
    labels = {a for A in plain for a in A}
    return PnfTau(family, _sorted_items({a: done[id(lm[a])] for a in labels}), False)


def pnf_to_cnf(n: Pnf) -> Pnf:
    """Client normal form of a peer normal form: every sibling of an
    immediate success is absorbed (x + 1 = 1), so success is left only as
    the whole form 1 or as the one-member branch {ok}."""
    return _postorder(n, _cnf_kids, _cnf)


def normalize_cnf(t: Term) -> Pnf:
    """Client normal form: the peer normal form simplified by absorbing every
    sibling of an immediate success (x + 1 = 1); the peer form is the one
    kept on the term."""
    return pnf_to_cnf(normalize_pnf(t))


#: client forms are peer-form trees and render the same way
cnf_to_term = pnf_to_term


def check_cnf(n: Pnf) -> list[str]:
    """Validity report under the client grammar; empty means well formed."""
    return _check(n, client=True)


# ---------------------------------------------------------------------------
# Server-side normalization (success erased first)
# ---------------------------------------------------------------------------


def _term_kids(t: Term) -> Iterable[Term]:
    if isinstance(t, Prefix):
        return (t.body,)
    if isinstance(t, Sum):
        return t.parts
    return ()


def _erase(t: Term, done: dict[int, Term]) -> Term:
    if isinstance(t, Unit):
        return NIL
    if isinstance(t, Prefix):
        return Prefix(t.guard, done[id(t.body)])
    if isinstance(t, Sum):
        return mk_sum(done[id(p)] for p in t.parts)
    return t


def erase_units(t: Term) -> Term:
    """1 = 0 for servers; the success operator plays no server role."""
    return _postorder(t, _term_kids, _erase)


def normalize_snf(t: Term) -> Pnf:
    """Server normal form: erase success (it plays no server role), then
    apply the shared normalizer; deadlock commitments stay explicit empty
    branch sets, so nothing client-specific is assumed."""
    return normalize_pnf(erase_units(t))


# ---------------------------------------------------------------------------
# Axiom schemas and instantiation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    theories: tuple[str, ...]  # subset of ("svr", "clt", "p2p") where postulated
    direction: str  # "leq" | "eq"
    variables: tuple[tuple[str, str], ...]  # (name, sort) with sort any|nook|mu
    build: Callable[[dict], tuple[Term, Term]]


def _ax(name: str, theories: tuple[str, ...], direction: str, variables, build) -> AxiomSchema:
    return AxiomSchema(name, theories, direction, tuple(variables), build)


def _p(g, t: Term) -> Term:
    return Prefix(g, t)


ALL = ("svr", "clt", "p2p")

STANDARD_AXIOMS: tuple[AxiomSchema, ...] = (
    _ax("S1a", ALL, "eq", [("mu", "mu"), ("x", "nook"), ("y", "any")],
        lambda s: (mk_sum([_p(s["mu"], s["x"]), _p(s["mu"], s["y"])]),
                   _p(s["mu"], mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"])])))),
    _ax("S1b", ALL, "leq", [("x", "any")],
        lambda s: (_p(TAU, s["x"]), _p(TAU, _p(TAU, s["x"])))),
    _ax("S2", ALL, "eq", [("x", "nook"), ("y", "nook")],
        lambda s: (mk_sum([s["x"], _p(TAU, s["y"])]),
                   mk_sum([_p(TAU, mk_sum([s["x"], s["y"]])), _p(TAU, s["y"])]))),
    _ax("S3", ALL, "eq", [("mu", "mu"), ("x", "any"), ("y", "any"), ("z", "nook")],
        lambda s: (mk_sum([_p(s["mu"], s["x"]), _p(TAU, mk_sum([_p(s["mu"], s["y"]), s["z"]]))]),
                   _p(TAU, mk_sum([_p(s["mu"], s["x"]), _p(s["mu"], s["y"]), s["z"]])))),
    _ax("S4", ALL, "leq", [("x", "any"), ("y", "any")],
        lambda s: (mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"])]), s["x"])),
    _ax("S5", ALL, "leq", [("x", "any")], lambda s: (DIV, s["x"])),
)

SVR_AXIOMS: tuple[AxiomSchema, ...] = (
    _ax("SVR1", ("svr",), "eq", [], lambda s: (UNIT, NIL)),
)

CLT_AXIOMS: tuple[AxiomSchema, ...] = (
    _ax("Za", ("clt", "p2p"), "leq", [], lambda s: (_p(TAU, NIL), DIV)),
    _ax("Zb", ("clt", "p2p"), "leq", [("mu", "mu")], lambda s: (_p(s["mu"], NIL), NIL)),
    _ax("CLT1a", ("clt",), "leq", [("x", "any")], lambda s: (s["x"], UNIT)),
    _ax("CLT1b", ("clt",), "leq", [("x", "any")], lambda s: (UNIT, mk_sum([s["x"], UNIT]))),
    _ax("CLT1c", ("clt",), "leq", [("mu", "mu")], lambda s: (NIL, _p(s["mu"], UNIT))),
)

P2P_AXIOMS: tuple[AxiomSchema, ...] = (
    _ax("P2P1", ("p2p",), "leq", [], lambda s: (NIL, UNIT)),
    _ax("P2P2", ("p2p",), "leq", [("mu", "mu"), ("x", "any")],
        lambda s: (_p(s["mu"], mk_sum([UNIT, s["x"]])), mk_sum([UNIT, _p(s["mu"], s["x"])]))),
    _ax("P2P3", ("p2p",), "leq", [("mu", "mu"), ("x", "any"), ("y", "any")],
        lambda s: (mk_sum([_p(s["mu"], mk_sum([UNIT, s["x"]])), _p(s["mu"], mk_sum([UNIT, s["y"]]))]),
                   _p(s["mu"], mk_sum([UNIT, _p(TAU, s["x"]), _p(TAU, s["y"])])))),
)

DERIVED_AXIOMS: tuple[AxiomSchema, ...] = (
    _ax("D1", ("clt", "p2p"), "eq", [("x", "any"), ("y", "any")],
        lambda s: (mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"])]),
                   _p(TAU, mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"])])))),
    _ax("D2", ("clt", "p2p"), "eq", [("x", "nook"), ("y", "nook")],
        lambda s: (mk_sum([s["x"], _p(TAU, mk_sum([s["x"], s["y"]]))]),
                   _p(TAU, mk_sum([s["x"], s["y"]])))),
    _ax("D3", ("clt", "p2p"), "eq", [("mu", "mu"), ("x", "any")],
        lambda s: (mk_sum([_p(s["mu"], s["x"]), DIV]), DIV)),
    _ax("D4a", ("clt", "p2p"), "eq", [("x", "nook"), ("y", "any")],
        lambda s: (mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"])]),
                   mk_sum([_p(TAU, s["x"]), _p(TAU, s["y"]),
                           _p(TAU, mk_sum([s["x"], s["y"]]))]))),
    _ax("D5a", ("clt", "p2p"), "eq", [("x", "any"), ("y", "nook"), ("z", "nook")],
        lambda s: (mk_sum([_p(TAU, s["x"]), _p(TAU, mk_sum([s["x"], s["y"], s["z"]]))]),
                   mk_sum([_p(TAU, s["x"]), _p(TAU, mk_sum([s["x"], s["y"]])),
                           _p(TAU, mk_sum([s["x"], s["y"], s["z"]]))]))),
    _ax("DZ1", ("clt", "p2p"), "leq", [("mu", "mu"), ("x", "any")],
        lambda s: (_p(s["mu"], NIL), _p(s["mu"], s["x"]))),
    _ax("DP1", ("clt", "p2p"), "eq", [("mu", "mu"), ("x", "any")],
        lambda s: (mk_sum([UNIT, _p(s["mu"], s["x"])]),
                   mk_sum([UNIT, _p(s["mu"], mk_sum([s["x"], UNIT]))]))),
    _ax("DP2", ("clt", "p2p"), "eq", [("x", "any"), ("y", "any")],
        lambda s: (_p(TAU, mk_sum([UNIT, _p(TAU, s["x"]), _p(TAU, s["y"])])),
                   mk_sum([_p(TAU, mk_sum([UNIT, s["x"]])), _p(TAU, mk_sum([UNIT, s["y"]]))]))),
    _ax("DP3", ("clt", "p2p"), "leq", [("mu", "mu"), ("x", "any")],
        lambda s: (_p(s["mu"], s["x"]), _p(s["mu"], mk_sum([UNIT, _p(TAU, s["x"])])))),
    _ax("D4b", ("clt", "p2p"), "eq", [("x", "nook"), ("y", "nook")],
        lambda s: (mk_sum([_p(TAU, mk_sum([s["x"], UNIT])), _p(TAU, mk_sum([s["y"], UNIT]))]),
                   mk_sum([_p(TAU, mk_sum([s["x"], UNIT])), _p(TAU, mk_sum([s["y"], UNIT])),
                           _p(TAU, mk_sum([s["x"], s["y"], UNIT]))]))),
    _ax("D5b", ("clt", "p2p"), "eq", [("x", "any"), ("y", "nook"), ("z", "any")],
        lambda s: (mk_sum([_p(TAU, s["x"]),
                           _p(TAU, mk_sum([s["x"], s["y"], UNIT, s["z"]]))]),
                   mk_sum([_p(TAU, s["x"]), _p(TAU, mk_sum([s["x"], s["y"], UNIT])),
                           _p(TAU, mk_sum([s["x"], s["y"], UNIT, s["z"]]))]))),
)

_POSTULATED = STANDARD_AXIOMS + SVR_AXIOMS + CLT_AXIOMS + P2P_AXIOMS

THEORY_AXIOMS: dict[str, tuple[AxiomSchema, ...]] = {
    "STD": STANDARD_AXIOMS,
    **{kind.upper(): tuple(a for a in _POSTULATED if kind in a.theories) for kind in ALL},
    "Derived": DERIVED_AXIOMS,
}


@dataclass(frozen=True)
class GroundInstance:
    axiom: str
    direction: str
    lhs: Term
    rhs: Term

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "direction": self.direction,
            "lhs": pretty(self.lhs),
            "rhs": pretty(self.rhs),
        }


#: instances draw their terms from this many smallest terms of the corpus
POOL_LIMIT = 400

@cache
def _instance_pool(spec: EnumSpec) -> tuple[list[Term], list[Term]]:
    pool = list(islice(enumerate_terms(spec), POOL_LIMIT))
    return pool, [t for t in pool if not can_ok(t)]


def instantiate_axioms(
    theory: str,
    alphabet: tuple[str, ...] = ("a", "b"),
    depth: int = 2,
    samples: int = 25,
    seed: int = 0,
) -> list[GroundInstance]:
    """Seeded ground instances respecting variable sorts: plain variables draw
    from the pool (smallest `POOL_LIMIT` terms of the corpus), success-free
    variables only from terms that cannot immediately succeed."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    spec = EnumSpec(alphabet, depth, allow_unit=True, allow_div=True, max_width=2)
    pool, nook_pool = _instance_pool(spec)
    guards = spec.guards()
    rng = random.Random(seed)
    out: list[GroundInstance] = []
    for schema in THEORY_AXIOMS[theory]:
        for _ in range(samples):
            subst: dict = {}
            for var, sort in schema.variables:
                if sort == "mu":
                    subst[var] = guards[rng.randrange(len(guards))]
                elif sort == "nook":
                    subst[var] = nook_pool[rng.randrange(len(nook_pool))]
                else:
                    subst[var] = pool[rng.randrange(len(pool))]
            lhs, rhs = schema.build(subst)
            out.append(GroundInstance(schema.name, schema.direction, lhs, rhs))
    return out


def check_instances(kind: str, instances: Iterable[GroundInstance],
                    env: Env = EMPTY_ENV) -> list[tuple[GroundInstance, str]]:
    """Check ground (in)equations under the precongruence of `kind`; returns
    the violations (instance, failed direction)."""
    failures: list[tuple[GroundInstance, str]] = []
    for inst in instances:
        if not leq_plus(kind, inst.lhs, inst.rhs, env).holds:
            failures.append((inst, "lhs<=rhs"))
        if inst.direction == "eq" and not leq_plus(kind, inst.rhs, inst.lhs, env).holds:
            failures.append((inst, "rhs<=lhs"))
    return failures


# ---------------------------------------------------------------------------
# Unusable-subterm simplification
# ---------------------------------------------------------------------------


def simplify_unusable(t: Term, env: Env = EMPTY_ENV) -> Term:
    """Rewrite prefixed subterms that no partner can satisfy toward 0; under a
    prefix the unusable continuation is interchangeable with deadlock."""
    if not is_ccsf(t):
        raise NotCCSf(f"not a finite term: {pretty(t)}")

    def go(t: Term) -> Term:
        if isinstance(t, Prefix):
            body = go(t.body)
            if not isinstance(body, Nil) and not usable(body, env).usable:
                return Prefix(t.guard, NIL)
            return Prefix(t.guard, body)
        if isinstance(t, Sum):
            return mk_sum(go(p) for p in t.parts)
        return t

    return go(t)
