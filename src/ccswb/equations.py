"""Axiom systems with two-sorted instantiation, saturation closure, and
constructive normalization of finite terms to peer and client normal forms.

Normalization is a constructive recursion (pairwise merging with derivative
unification, then saturation) rather than generic rewriting; its output is
validated semantically by the test suite, never assumed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cache
from itertools import islice
from typing import Callable, Iterable, TypeVar, Union

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
)
from .usability import usable

#: ready-set members: visible actions plus the success marker
FamLabel = Union[Action, Ok]
Family = frozenset[frozenset]
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
    """Base class of peer normal forms; `unit` is the optional +1 summand."""

    __slots__ = ()
    unit: bool


@dataclass(frozen=True)
class PnfDiv(Pnf):
    unit: bool


@dataclass(frozen=True)
class PnfExt(Pnf):
    branches: tuple[tuple[Action, Pnf], ...]
    unit: bool

    def branch_map(self) -> dict[Action, Pnf]:
        return dict(self.branches)


@dataclass(frozen=True)
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
        fam = frozenset(A | {OK} for A in n.family)
        return PnfTau(fam, _sorted_items({a: okify(c) for a, c in n.leaves}), True)
    raise TypeError(n)


def make_ext(branches: dict[Action, Pnf], unit: bool) -> PnfExt:
    if unit:
        branches = {a: okify(c) for a, c in branches.items()}
    return PnfExt(_sorted_items(branches), unit)


def make_tau(family: Iterable[Iterable[FamLabel]], leaves: dict[Action, Pnf]) -> PnfTau:
    fam = saturate(family)
    labels = {a for A in fam for a in A if isinstance(a, Action)}
    leaves = {a: c for a, c in leaves.items() if a in labels}
    return PnfTau(fam, _sorted_items(leaves), False)


_ZERO = PnfExt((), False)
_ONE = PnfExt((), True)


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
        return PnfTau(frozenset({frozenset(labels)}), n.branches, False), True
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


def normalize_pnf_info(t: Term) -> tuple[Pnf, bool]:
    """Normal form plus an exactness flag: False when the merge had to shield
    an unsuccessful visible step under a success-capable internal branch, or
    an internal step led to a success-carrying divergence (`tau.(1 + div)`);
    in both cases the form can sit strictly above the source."""
    if not is_ccsf(t):
        raise NotCCSf(f"not a finite term: {pretty(t)}")

    def go(t: Term) -> tuple[Pnf, bool]:
        if isinstance(t, Nil):
            return _ZERO, True
        if isinstance(t, Unit):
            return _ONE, True
        if isinstance(t, Div):
            return PnfDiv(False), True
        if isinstance(t, Prefix):
            body, exact = go(t.body)
            if isinstance(t.guard, Action):
                return make_ext({t.guard: body}, False), exact
            stepped, ok = tau_single(body)
            return stepped, exact and ok
        if isinstance(t, Sum):
            acc, exact = go(t.parts[0])
            for p in t.parts[1:]:
                part, ok1 = go(p)
                acc, ok2 = plus_pnf(acc, part)
                exact = exact and ok1 and ok2
            return acc, exact
        raise NotCCSf(f"not a finite term: {pretty(t)}")

    return go(t)


def pnf_to_term(n: Pnf) -> Term:
    """Render a normal form back into the term syntax; the success marker in
    a branch set renders as a 1 summand of that branch."""
    if isinstance(n, PnfDiv):
        return mk_sum([DIV, UNIT]) if n.unit else DIV
    if isinstance(n, PnfExt):
        parts: list[Term] = [Prefix(a, pnf_to_term(c)) for a, c in n.branches]
        if n.unit:
            parts.append(UNIT)
        return mk_sum(parts)
    if isinstance(n, PnfTau):
        lm = n.leaf_map()
        parts = []
        for A in sorted(n.family, key=label_set_key):
            branch = [UNIT if isinstance(lab, Ok) else Prefix(lab, pnf_to_term(lm[lab]))
                      for lab in sorted(A, key=label_key)]
            parts.append(Prefix(TAU, mk_sum(branch)))
        if n.unit:
            parts.append(UNIT)
        return mk_sum(parts)
    raise TypeError(n)


def _check(n: Pnf, client: bool) -> list[str]:
    """Structural validity report under the peer grammar, or under the client
    grammar, where success stands only as the whole form 1 or as the
    one-member branch {ok}; empty means well formed."""
    errors: list[str] = []

    def go(n: Pnf, path: str) -> None:
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
            return
        if client and n.unit and n != _ONE:
            errors.append(f"{path}: success summand beside siblings")
        for a, c in children:
            if not client and n.unit and not c.unit:
                errors.append(f"{path}: success summand without success under {a}")
            go(c, f"{path}.{a}")

    go(n, "nf")
    return errors


def check_pnf(n: Pnf) -> list[str]:
    """Validity report under the peer grammar; empty means well formed."""
    return _check(n, client=False)


# ---------------------------------------------------------------------------
# Client normal forms
# ---------------------------------------------------------------------------


def pnf_to_cnf(n: Pnf) -> Pnf:
    """Client normal form of a peer normal form: every sibling of an
    immediate success is absorbed (x + 1 = 1), so success is left only as
    the whole form 1 or as the one-member branch {ok}."""
    if n.unit:
        return _ONE
    if isinstance(n, PnfDiv):
        return n
    if isinstance(n, PnfExt):
        return PnfExt(tuple((a, pnf_to_cnf(c)) for a, c in n.branches), False)
    assert isinstance(n, PnfTau)
    plain = frozenset(A for A in n.family if OK not in A)
    # the members holding success collapse to the one-member branch {ok}
    family = plain if plain == n.family else plain | {frozenset({OK})}
    lm = n.leaf_map()
    labels = {a for A in plain for a in A}
    return PnfTau(family, _sorted_items({a: pnf_to_cnf(lm[a]) for a in labels}), False)


def normalize_cnf(t: Term) -> Pnf:
    """Client normal form: the peer normal form simplified by absorbing every
    sibling of an immediate success (x + 1 = 1)."""
    return pnf_to_cnf(normalize_pnf(t))


#: client forms are peer-form trees and render the same way
cnf_to_term = pnf_to_term


def check_cnf(n: Pnf) -> list[str]:
    """Validity report under the client grammar; empty means well formed."""
    return _check(n, client=True)


# ---------------------------------------------------------------------------
# Server-side normalization (success erased first)
# ---------------------------------------------------------------------------


def erase_units(t: Term) -> Term:
    """1 = 0 for servers; the success operator plays no server role."""
    if isinstance(t, Unit):
        return NIL
    if isinstance(t, Prefix):
        return Prefix(t.guard, erase_units(t.body))
    if isinstance(t, Sum):
        return mk_sum(erase_units(p) for p in t.parts)
    return t


def normalize_snf(t: Term) -> Pnf:
    """Server normal form: erase success (it plays no server role), then
    apply the shared normalizer; deadlock commitments stay explicit empty
    branch sets, so nothing client-specific is assumed."""
    return normalize_pnf_info(erase_units(t))[0]


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
