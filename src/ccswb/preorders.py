"""Refinement preorders for servers, clients and peers, decided through their
trace/ready-set characterisations, plus distinguishing-test synthesis.

The decision walks the trace tree of both processes at once.  One table,
`_WALKS`, defines every walk (the three preorders, the classical server
formulation and the two diagnostics) as clause groups, each one
trace/ready-set clause under its own left guards.  From its groups alone a
walk derives what it carries per trace, with the guards folded in along the
trace: the weak residuals with convergence, the unsuccessful residuals with
usability, or both.  A trace where no group's left guard holds is dropped
with everything below it, where no clause can fail.  For finite terms the
walk is exhausted exactly; recursive terms get a depth-bounded verdict that
is reported as such.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, NamedTuple, Optional

from .lts import Lts, Trace, cached_lts
from .syntax import (
    DIV,
    EMPTY_ENV,
    TAU,
    UNIT,
    Action,
    Env,
    Prefix,
    Term,
    fresh_action,
    is_ccsf,
    label_key,
    label_set_key,
    mk_sum,
    pretty,
    visible_depth,
)
from .testing import fails
from .usability import usable_set, usable_witness

KINDS = ("svr", "clt", "p2p")


class ModeError(ValueError):
    """Exact decision requested for terms outside the finite fragment."""


class SynthesisGap(RuntimeError):
    """No synthesis rule covers the refuting clause, or verification failed."""


@dataclass(frozen=True)
class FailingClause:
    clause: str  # usability_flow | convergence | acceptance_match | unsuccessful_trace | trace_flow
    part: str  # svr | clt | usmpo
    trace: Trace
    ready_set: Optional[frozenset[Action]] = None
    usable_actions: Optional[frozenset[Action]] = None

    def to_json(self) -> dict:
        out: dict = {
            "clause": self.clause,
            "part": self.part,
            "trace": [str(a) for a in self.trace],
        }
        if self.ready_set is not None:
            out["ready_set"] = sorted(str(a) for a in self.ready_set)
        if self.usable_actions is not None:
            out["usable_actions"] = sorted(str(a) for a in self.usable_actions)
        return out


@dataclass(frozen=True)
class RefinementVerdict:
    kind: str
    holds: bool
    mode: str  # "exact" | "bounded"
    bound: Optional[int] = None
    failing_clause: Optional[FailingClause] = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "holds": self.holds, "mode": self.mode}
        if self.bound is not None:
            out["bound"] = self.bound
        if self.failing_clause is not None:
            out["failing_clause"] = self.failing_clause.to_json()
        return out


class _Side:
    """One side of a walk pair: a graph's residuals after some trace, closed
    under one walk plan, w (weak) and x (unsuccessful), with what the clauses
    read of them, each filled on first demand: the local guards `conv` and
    `usb` (None until decided), the ready sets of w and of x in
    `label_set_key` order, the successor row `after` (action to the key of
    the side it leads to) and the row `usable_after` (action to whether the
    left process is usable after it, for relaxed matches).  A side holds
    neither its graph nor another side, so sides make no reference cycle."""

    __slots__ = ("w", "x", "conv", "usb", "ready_w", "ready_x", "after", "usable_after")

    def __init__(self, w: frozenset[int], x: frozenset[int]):
        self.w, self.x = w, x
        self.conv = self.usb = self.ready_w = self.ready_x = None
        self.after: dict = {}
        self.usable_after: dict = {}


class _Node:
    """A pair of sides with their guards folded along the trace; a node keeps
    only the step that first reached it, not its trace."""

    __slots__ = ("parent", "action", "depth", "left", "right", "conv1", "conv2", "usb1", "usb2")

    def __init__(self, parent: Optional[_Node], action: Optional[Action], left: _Side, right: _Side,
                 conv1: bool, conv2: bool, usb1: bool, usb2: bool):
        self.parent, self.action = parent, action
        self.depth = 0 if parent is None else parent.depth + 1
        self.left, self.right = left, right
        self.conv1, self.conv2, self.usb1, self.usb2 = conv1, conv2, usb1, usb2

    def trace(self) -> Trace:
        """The actions from the root to this node."""
        out = []
        node = self
        while node.parent is not None:
            out.append(node.action)
            node = node.parent
        return tuple(reversed(out))


class _Group(NamedTuple):
    """The arguments of `_Engine.clauses`."""
    part: str  # svr | clt | usmpo
    left_guards: tuple[str, ...]  # conv1 | usb1
    premise: str  # convergence | usability_flow
    residual: str  # w | x
    relaxed: bool
    trailing: Optional[str]  # trace_flow | unsuccessful_trace | None


_SVR = _Group("svr", ("conv1",), "convergence", "w", False, "trace_flow")
_CLT = _Group("clt", ("usb1",), "usability_flow", "x", True, "unsuccessful_trace")

# Every walk as its clause groups, checked in this order at each node.  The
# trace_flow clause is kept as the paper states it, though on a finite graph
# it never fails first (see `leq_svr_classical`), so no test is built for it.
_WALKS: dict[str, tuple[_Group, ...]] = {
    "svr": (_SVR,),
    "clt": (_CLT,),
    "p2p": (_CLT, _Group("usmpo", ("conv1", "usb1"), "convergence", "w", True, "trace_flow")),
    "svr_classical": (_SVR._replace(trailing=None),),
    "sbad": (_Group("clt", ("conv1",), "convergence", "x", False, None),),
    "sbad_prime": (_Group("clt", ("conv1",), "convergence", "x", True, None),),
}


@cache
def _plan(walk: str) -> tuple[bool, ...]:
    """What `walk` computes, read off its groups: it decides a guard that a
    group reads (as premise, left guard, or usability in a relaxed match),
    computes w1/w2 and x1/x2 when it decides their guard or a group matches
    them, and drops a node on conv1 or usb1 when every group lists it."""
    groups = _WALKS[walk]
    conv = any(g.premise == "convergence" or "conv1" in g.left_guards for g in groups)
    usb = any(g.premise == "usability_flow" or "usb1" in g.left_guards or g.relaxed for g in groups)
    return (conv, usb, conv or any(g.residual == "w" for g in groups),
            usb or any(g.residual == "x" for g in groups),
            *(all(guard in g.left_guards for g in groups) for guard in ("conv1", "usb1")))


_NONE: frozenset[int] = frozenset()


class _Engine:
    """The trace walk `walk` (a key of `_WALKS`) to `depth_cap` visible steps;
    usability is decided exactly, or cut off at `bound` levels when one is
    given.  The walk computes what `_plan(walk)` derives from its groups: a
    residual it does not compute stays empty and a guard it does not decide
    stays true.  Its sides live in each graph's table for the plan (weak,
    unsuccessful, bound), keyed by the closed residuals: w, x, or (w, x)
    when both are computed, and the root's side also under None; the tables
    outlive the walk, so every walk over a graph under the same plan shares
    them.  The walk's alphabet merges the two graphs' sorted alphabets."""

    def __init__(self, lts1: Lts, lts2: Lts, depth_cap: int, bound: Optional[int], walk: str):
        self.lts1 = lts1
        self.lts2 = lts2
        self.depth_cap = depth_cap
        self.bound = bound
        self.groups = _WALKS[walk]
        self.conv, self.usb, self.weak, self.unsuccessful, self.conv_guard, self.usb_guard = \
            _plan(walk)
        plan = (self.weak, self.unsuccessful, bound)
        self.sides1 = lts1.sides.setdefault(plan, {})
        self.sides2 = lts2.sides.setdefault(plan, {})
        a1, a2 = lts1.sorted_alphabet(), lts2.sorted_alphabet()
        self.alphabet = a1 if a1 == a2 else tuple(sorted({*a1, *a2}, key=label_key))

    def root_side(self, lts: Lts, sides: dict) -> _Side:
        """The side of the graph's root, kept in its plan table under None."""
        side = sides.get(None)
        if side is None:
            r = frozenset({lts.root})
            side = sides.setdefault(None, sides[self.side(lts, sides, r, r)])
        return side

    def side(self, lts: Lts, sides: dict, w: frozenset[int], x: frozenset[int]) -> object:
        """The key of the side whose residuals close w and x, made on first use;
        a residual the walk does not compute is dropped."""
        w = lts.tau_closure(w) if self.weak else _NONE
        x = lts.unsuccessful_closure(x) if self.unsuccessful else _NONE
        key = (w, x) if self.weak and self.unsuccessful else w if self.weak else x
        if key not in sides:
            sides.setdefault(key, _Side(w, x))
        return key

    def child(self, lts: Lts, sides: dict, side: _Side, a: Action) -> _Side:
        """The side that `side` reaches by `a`, through its successor row."""
        key = side.after.get(a)
        if key is None:
            key = side.after.setdefault(a, self.side(
                lts, sides, lts.step(side.w, a) if self.weak else _NONE,
                lts.step(side.x, a) if self.unsuccessful else _NONE))
        return sides[key]

    def fold(self, lts: Lts, side: _Side, conv: bool, usb: bool) -> tuple[bool, bool]:
        """The guards reaching `side` folded with its own, which are decided
        only while the folded guard still holds."""
        if conv and self.conv:
            if side.conv is None:
                side.conv = not side.w or lts.converges_state_set(side.w)
            conv = side.conv
        if usb and self.usb:
            if side.usb is None:
                side.usb = usable_set(lts, side.x, self.bound)
            usb = side.usb
        return conv, usb

    def usable_action(self, node: _Node, a: Action) -> bool:
        """Membership of `a` in the left process's usable actions after the
        current trace; none counts as usable unless the guard usb1 holds."""
        if not node.usb1:
            return False
        row = node.left.usable_after
        got = row.get(a)
        if got is None:
            got = row.setdefault(a, usable_set(self.lts1, self.lts1.step(node.left.x, a), self.bound))
        return got

    def ready_list(self, lts: Lts, side: _Side, residual: str) -> tuple[frozenset[Action], ...]:
        """The ready sets of the side's `residual` (w or x) in `label_set_key`
        order, sorted once."""
        slot = "ready_" + residual
        got = getattr(side, slot)
        if got is None:
            got = tuple(sorted(lts.ready_sets_of(getattr(side, residual)), key=label_set_key))
            setattr(side, slot, got)
        return got

    def nodes(self) -> Iterable[_Node]:
        """Breadth-first trace walk with subtree pruning on stabilized nodes.

        The sides and guards this walk computes are, at each node, a
        deterministic function of the same at its parent and the action,
        and its clause groups read nothing else.  Breadth-first order with
        dedup, actions in alphabet order, reaches each distinct node first
        by its shortlex-least trace, so the first failing node is the
        shortlex-least failing trace, whether or not the unread residuals
        and guards are computed.  Dropping a node where no group's left
        guard holds keeps that: guards are and-folded, so every node below
        it has the same false guard, under which every clause group holds.
        The failing trace, its ready set and its usable actions are
        therefore those of the walk that computes everything.  A node is
        dropped before its right side is computed; sides are one record
        per key, so nodes are deduplicated by identity.
        """
        l1, l2, s1, s2 = self.lts1, self.lts2, self.sides1, self.sides2
        drop_conv, drop_usb = self.conv_guard, self.usb_guard
        left = self.root_side(l1, s1)
        conv1, usb1 = self.fold(l1, left, True, True)
        if drop_conv and not conv1 or drop_usb and not usb1:
            return
        right = self.root_side(l2, s2)
        conv2, usb2 = self.fold(l2, right, True, True)
        queue = [_Node(None, None, left, right, conv1, conv2, usb1, usb2)]
        seen = {(left, right, conv1, conv2, usb1, usb2)}
        for node in queue:  # the queue grows as nodes are found
            yield node
            left, right = node.left, node.right
            if node.depth >= self.depth_cap or not (left.w or left.x or right.w or right.x):
                continue
            for a in self.alphabet:
                ch1 = self.child(l1, s1, left, a)
                conv1, usb1 = self.fold(l1, ch1, node.conv1, node.usb1)
                if drop_conv and not conv1 or drop_usb and not usb1:
                    continue
                ch2 = self.child(l2, s2, right, a)
                conv2, usb2 = self.fold(l2, ch2, node.conv2, node.usb2)
                key = (ch1, ch2, conv1, conv2, usb1, usb2)
                if (ch1.w or ch1.x or ch2.w or ch2.x) and key not in seen:
                    seen.add(key)
                    queue.append(_Node(node, a, ch1, ch2, conv1, conv2, usb1, usb2))

    def clauses(self, node: _Node, group: _Group) -> Optional[FailingClause]:
        """The one trace/ready-set clause shape behind every walk.

        Under the group's left guards the right side must keep the `premise`
        guard (usability_flow: usb2, convergence: conv2); each right ready
        set of the `residual` pair (w or x) must be matched by a left one,
        included in it or, when `relaxed`, included up to left actions that
        are not usable, asked in key order; the `trailing` clause fails a
        right residual with no left one.
        """
        part, left_guards, premise, residual, relaxed, trailing = group
        for guard in left_guards:
            if not getattr(node, guard):
                return None
        if not (node.usb2 if premise == "usability_flow" else node.conv2):
            return FailingClause(premise, part, node.trace())
        acc2 = self.ready_list(self.lts2, node.right, residual)
        if acc2:
            acc1 = self.ready_list(self.lts1, node.left, residual)
            for B in acc2:
                if not any(A <= B or relaxed and not any(
                        self.usable_action(node, c) for c in sorted(A - B, key=label_key))
                        for A in acc1):
                    usable = (frozenset(c for c in self.alphabet if self.usable_action(node, c))
                              if relaxed else None)
                    return FailingClause("acceptance_match", part, node.trace(), B, usable)
        if trailing is not None and getattr(node.right, residual) and not getattr(node.left, residual):
            return FailingClause(trailing, part, node.trace())
        return None


def _first_failure(walk: str, p: Term, q: Term, env: Env,
                   bound: Optional[int]) -> tuple[Optional[FailingClause], str]:
    """The first clause of `walk` that fails on p and q, nodes in
    breadth-first order and groups in table order, with the verdict mode."""
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be a non-negative integer, got {bound}")
    lts1 = cached_lts(p, env)
    lts2 = cached_lts(q, env)
    if bound is None:
        if not (is_ccsf(p) and is_ccsf(q)):
            raise ModeError("exact decision requires finite terms; pass a bound")
        mode, depth_cap = "exact", max(visible_depth(p), visible_depth(q)) + 1
    else:
        mode, depth_cap = "bounded", bound
    engine = _Engine(lts1, lts2, depth_cap, bound, walk)
    for node in engine.nodes():
        for group in engine.groups:
            fail = engine.clauses(node, group)
            if fail is not None:
                return fail, mode
    return None, mode


def _decide(kind: str, p: Term, q: Term, env: Env, bound: Optional[int]) -> RefinementVerdict:
    if kind not in KINDS:
        raise ValueError(f"unknown preorder kind {kind!r}")
    fail, mode = _first_failure(kind, p, q, env, bound)
    return RefinementVerdict(kind, fail is None, mode, bound, fail)


def leq_svr(p: Term, q: Term, env: Env = EMPTY_ENV, bound: Optional[int] = None) -> RefinementVerdict:
    """Server refinement: every client satisfied by p is satisfied by q."""
    return _decide("svr", p, q, env, bound)


def leq_clt(p: Term, q: Term, env: Env = EMPTY_ENV, bound: Optional[int] = None) -> RefinementVerdict:
    """Client refinement: every server satisfying p satisfies q."""
    return _decide("clt", p, q, env, bound)


def leq_p2p(p: Term, q: Term, env: Env = EMPTY_ENV, bound: Optional[int] = None) -> RefinementVerdict:
    """Peer refinement: every peer mutually satisfied with p is with q."""
    return _decide("p2p", p, q, env, bound)


def leq(kind: str, p: Term, q: Term, env: Env = EMPTY_ENV,
        bound: Optional[int] = None) -> RefinementVerdict:
    return _decide(kind, p, q, env, bound)


def leq_svr_classical(p: Term, q: Term, env: Env = EMPTY_ENV) -> bool:
    """Convergence-plus-ready-set-inclusion formulation, without the trace-flow
    clause; coincides with leq_svr on every finite graph, where a convergent
    non-empty right residual holds a stable state, so the acceptance match
    fails wherever trace flow would."""
    return _first_failure("svr_classical", p, q, env, None)[0] is None


def leq_plus(kind: str, p: Term, q: Term, env: Env = EMPTY_ENV,
             bound: Optional[int] = None) -> RefinementVerdict:
    """The precongruence: the preorder applied under a fresh-success summand."""
    f = fresh_action([p, q], env)
    fp = mk_sum([Prefix(f, UNIT), p])
    fq = mk_sum([Prefix(f, UNIT), q])
    return _decide(kind, fp, fq, env, bound)


# ---------------------------------------------------------------------------
# Pedagogical diagnostics: the two tentative client relations
# ---------------------------------------------------------------------------


def diag_sbad(r1: Term, r2: Term, env: Env = EMPTY_ENV) -> bool:
    """Convergence-guarded matching of unsuccessful ready sets by inclusion."""
    return _first_failure("sbad", r1, r2, env, None)[0] is None


def diag_sbad_prime(r1: Term, r2: Term, env: Env = EMPTY_ENV) -> bool:
    """Same, with the inclusion relaxed through the left usable actions."""
    return _first_failure("sbad_prime", r1, r2, env, None)[0] is None


# ---------------------------------------------------------------------------
# Distinguishing-test synthesis
# ---------------------------------------------------------------------------


def _witness(kind: str, lts1: Lts, clause: FailingClause) -> Term:
    """The test the refuting `clause` of walk `kind` yields, built along its
    trace s from the left graph alone.  Stage k offers the complement of
    s[k], leading to the next stage, next to the escape tau.serve(x_k),
    where x_k is the left unsuccessful residual after s[:k]; the clause
    picks only the end.  `serve` decides what a left residual is offered: a
    server test reports success, a client test is a usability witness of
    it, a peer test both.  In p2p's client group a stage offers success
    instead, plus the escape when x_k is non-empty, and the acceptance end
    and the whole chain also offer success."""
    s = clause.trace
    # a server test offers success whatever the left side reaches: it reads no left residual
    xs = [frozenset()] * (len(s) + 1) if kind == "svr" else lts1.residuals(s, True)
    x = xs[len(s)]
    peer_clt = kind == "p2p" and clause.part == "clt"

    def serve(states: frozenset[int]) -> Term:
        if kind == "svr":
            return UNIT
        wit = usable_witness(lts1, states, None)
        if wit is None:
            raise SynthesisGap("left residual unexpectedly unusable during synthesis")
        return mk_sum([UNIT, wit]) if kind == "p2p" else wit

    upto = len(s)
    if clause.clause == "convergence":
        t = Prefix(TAU, serve(x))
    elif clause.clause == "usability_flow":
        t = serve(x)
    elif clause.clause == "unsuccessful_trace":
        # diverge after the last prefix the left side can still take unsuccessfully
        upto = 1 + max((k for k in range(len(s) + 1) if xs[k]), default=-1)
        t = DIV
    elif clause.clause == "acceptance_match":
        # answer each left ready set on actions the refuting right ready set
        # lacks: a server test on every one, the others on the least usable one,
        # continuing with what serve offers after it
        B, usable = clause.ready_set, clause.usable_actions
        assert B is not None
        ready = lts1.ready_sets_of(x if clause.part == "clt" else lts1.weak_after(s))
        if usable is None:
            t = mk_sum(Prefix(a.complement(), UNIT) for A in ready for a in A - B)
        else:
            t = mk_sum(Prefix(a.complement(), serve(lts1.step(x, a)))
                       for a in {min((A & usable) - B, key=label_key) for A in ready})
        if peer_clt:
            t = mk_sum([UNIT, t])
    else:
        raise SynthesisGap(f"no {kind} synthesis for clause {clause.clause}")
    for k in reversed(range(upto)):
        escape = [Prefix(TAU, serve(xs[k]))] if xs[k] or not peer_clt else []
        t = mk_sum(([UNIT] if peer_clt else []) + escape + [Prefix(s[k].complement(), t)])
    return mk_sum([UNIT, t]) if peer_clt else t


def synthesize_witness(kind: str, p: Term, q: Term, env: Env = EMPTY_ENV,
                       verdict: Optional[RefinementVerdict] = None) -> Term:
    """Build a test discriminating p from q out of the failing clause, and
    re-check it with the testing module before returning it."""
    if not (is_ccsf(p) and is_ccsf(q)):
        raise SynthesisGap("synthesis is defined for finite terms only")
    if verdict is None:
        verdict = _decide(kind, p, q, env, None)
    if verdict.holds or verdict.failing_clause is None:
        raise ValueError("synthesis needs a refuted verdict")
    clause = verdict.failing_clause
    t = _witness(kind, cached_lts(p, env), clause)
    if not check_witness(kind, p, q, t, env):
        raise SynthesisGap(
            f"synthesized test failed verification: kind={kind} clause={clause.clause} "
            f"p={pretty(p)} q={pretty(q)} t={pretty(t)}"
        )
    return t


def passes(kind: str, p: Term, t: Term, env: Env) -> bool:
    """Does `p` pass the test `t` in the role fixed by `kind`: a server
    satisfies the client t, a client is satisfied by the server t, a peer
    and t satisfy each other?"""
    return passes_graph(kind, cached_lts(p, env), cached_lts(t, env))


def passes_graph(kind: str, p: Lts, t: Lts) -> bool:
    """`passes` on built graphs: server `must(p, t)`, client `must(t, p)`,
    peer `must_sc(p, t)`, decided without evidence and remembered per pair.
    A peer passes when it passes as a server and as a client, so it reads
    the cells of the other two kinds."""
    if kind not in KINDS:
        raise ValueError(f"unknown preorder kind {kind!r}")
    server, client = (t, p) if kind == "clt" else (p, t)
    return not (fails(server, client) or kind == "p2p" and fails(client, server))


def check_witness(kind: str, p: Term, q: Term, t: Term, env: Env = EMPTY_ENV) -> bool:
    """Does `t` pass with p and fail with q, in the roles fixed by `kind`?"""
    graph, test = cached_lts(p, env), cached_lts(t, env)
    return passes_graph(kind, graph, test) and not passes_graph(kind, cached_lts(q, env), test)
