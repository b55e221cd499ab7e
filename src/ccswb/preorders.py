"""Refinement preorders for servers, clients and peers, decided through their
trace/ready-set characterisations, plus distinguishing-test synthesis.

The decision walks the trace tree of both processes at once.  Per trace it
carries the residuals its preorder reads, with their guards folded in along
the trace: the weak residuals with convergence for servers, the unsuccessful
residuals with usability for clients, both for peers.  A trace whose left
guard fails is dropped with everything below it, where no clause can fail.
For finite terms the walk is exhausted exactly; recursive terms get a
depth-bounded verdict that is reported as such.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .lts import Lts, Trace, cached_lts
from .syntax import (
    DIV,
    EMPTY_ENV,
    NIL,
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
from .testing import must, must_sc
from .usability import usable_set

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


@dataclass
class _Node:
    trace: Trace
    w1: frozenset[int]
    w2: frozenset[int]
    x1: frozenset[int]
    x2: frozenset[int]
    conv1: bool
    conv2: bool
    usb1: bool
    usb2: bool


# Per walk: does it read the weak residuals w1/w2 with their convergence
# guards, does it read the unsuccessful residuals x1/x2 with their usability
# guards, and which left guard all of its clause groups are guarded by.
_WALKS = {
    "svr": (True, False, "conv1"),
    "clt": (False, True, "usb1"),
    "p2p": (True, True, "usb1"),
    "diag": (True, True, "conv1"),
}


class _Engine:
    """The trace walk `walk` (a key of `_WALKS`) to `depth_cap` visible steps;
    usability is decided exactly, or cut off at `bound` levels when one is
    given.  A residual pair the walk does not read stays empty and its
    guards stay true."""

    def __init__(self, lts1: Lts, lts2: Lts, depth_cap: int, bound: Optional[int], walk: str):
        self.lts1 = lts1
        self.lts2 = lts2
        self.depth_cap = depth_cap
        self.bound = bound
        self.weak, self.unsuccessful, self.left_guard = _WALKS[walk]
        self.alphabet = sorted(lts1.alphabet() | lts2.alphabet(), key=label_key)

    def build_node(self, trace: Trace, w1: frozenset[int], w2: frozenset[int],
                   x1: frozenset[int], x2: frozenset[int],
                   conv1: bool, conv2: bool, usb1: bool, usb2: bool) -> Optional[_Node]:
        """The node for `trace` from its residuals before closure, with the
        parent's guards folded into its own; None, before the right side is
        computed, when the left guard fails."""
        l1, l2 = self.lts1, self.lts2
        if self.weak:
            w1 = l1.tau_closure(w1)
            conv1 = conv1 and (not w1 or l1.converges_state_set(w1))
        if self.unsuccessful:
            x1 = l1.unsuccessful_closure(x1)
            usb1 = usb1 and usable_set(l1, x1, self.bound)[0]
        if not (conv1 if self.left_guard == "conv1" else usb1):
            return None
        if self.weak:
            w2 = l2.tau_closure(w2)
            conv2 = conv2 and (not w2 or l2.converges_state_set(w2))
        if self.unsuccessful:
            x2 = l2.unsuccessful_closure(x2)
            usb2 = usb2 and usable_set(l2, x2, self.bound)[0]
        return _Node(trace, w1, w2, x1, x2, conv1, conv2, usb1, usb2)

    def usable_action(self, node: _Node, a: Action) -> bool:
        """Membership of `a` in the left process's usable actions after the
        current trace; none counts as usable unless the guard usb1 holds."""
        return node.usb1 and usable_set(self.lts1, self.lts1.step(node.x1, a), self.bound)[0]

    def usable_actions_snapshot(self, node: _Node) -> frozenset[Action]:
        return frozenset(a for a in self.alphabet if self.usable_action(node, a))

    def nodes(self) -> Iterable[_Node]:
        """Breadth-first trace walk with subtree pruning on stabilized nodes.

        The fields this walk reads are, at each node, a deterministic
        function of the same fields at its parent and the action, and its
        clauses read nothing else.  Breadth-first order with dedup, actions
        in alphabet order, reaches each distinct node first by its
        shortlex-least trace, so the first failing node is the
        shortlex-least failing trace, whether or not the unread fields are
        computed.  Dropping a node whose left guard fails keeps that: guards
        are and-folded, so every node below it has the same false guard,
        under which every clause group holds.  The failing trace, its ready
        set and its usable actions are therefore those of the walk that
        computes every field.
        """
        l1, l2 = self.lts1, self.lts2
        roots, none = (frozenset({l1.root}), frozenset({l2.root})), (frozenset(), frozenset())
        w1, w2 = roots if self.weak else none
        x1, x2 = roots if self.unsuccessful else none
        root = self.build_node((), w1, w2, x1, x2, True, True, True, True)
        if root is None:
            return
        queue = [root]
        seen = {self._node_key(root)}
        qi = 0
        while qi < len(queue):
            node = queue[qi]
            qi += 1
            yield node
            if len(node.trace) >= self.depth_cap:
                continue
            if not (node.w1 or node.w2 or node.x1 or node.x2):
                continue
            for a in self.alphabet:
                ch = self.build_node(node.trace + (a,), l1.step(node.w1, a), l2.step(node.w2, a),
                                     l1.step(node.x1, a), l2.step(node.x2, a),
                                     node.conv1, node.conv2, node.usb1, node.usb2)
                if ch is None or not (ch.w1 or ch.w2 or ch.x1 or ch.x2):
                    continue
                key = self._node_key(ch)
                if key not in seen:
                    seen.add(key)
                    queue.append(ch)

    @staticmethod
    def _node_key(node: _Node) -> tuple:
        return (node.w1, node.w2, node.x1, node.x2, node.conv1, node.conv2, node.usb1, node.usb2)

    # -- clause groups ------------------------------------------------------

    def clauses(self, node: _Node, part: str, guard: bool, premise: str, residual: str,
                relaxed: bool, trailing: Optional[str]) -> Optional[FailingClause]:
        """The one trace/ready-set clause shape behind every preorder.

        Under `guard` the right side must keep the `premise` guard
        (usability_flow: usb2, convergence: conv2); each right ready set of
        the `residual` pair (w or x) must be matched by a left one, included
        in it or, when `relaxed`, included up to left actions that are not
        usable; the `trailing` clause fails a right residual with no left one.
        """
        if not guard:
            return None
        if not (node.usb2 if premise == "usability_flow" else node.conv2):
            return FailingClause(premise, part, node.trace)
        r1, r2 = (node.w1, node.w2) if residual == "w" else (node.x1, node.x2)
        acc2 = sorted(self.lts2.ready_sets_of(r2), key=label_set_key)
        if acc2:
            acc1 = self.lts1.ready_sets_of(r1)
            for B in acc2:
                if not any(
                    all(c in B or (relaxed and not self.usable_action(node, c)) for c in A)
                    for A in acc1
                ):
                    usable = self.usable_actions_snapshot(node) if relaxed else None
                    return FailingClause("acceptance_match", part, node.trace, B, usable)
        if trailing is not None and r2 and not r1:
            return FailingClause(trailing, part, node.trace)
        return None

    def clt_clauses(self, node: _Node) -> Optional[FailingClause]:
        return self.clauses(node, "clt", node.usb1, "usability_flow", "x", True,
                            "unsuccessful_trace")

    def svr_clauses(self, node: _Node) -> Optional[FailingClause]:
        return self.clauses(node, "svr", node.conv1, "convergence", "w", False, "trace_flow")

    def usmpo_clauses(self, node: _Node) -> Optional[FailingClause]:
        return self.clauses(node, "usmpo", node.conv1 and node.usb1, "convergence", "w", True,
                            "trace_flow")


def _prepare(kind: str, p: Term, q: Term, env: Env, bound: Optional[int]):
    if kind not in KINDS:
        raise ValueError(f"unknown preorder kind {kind!r}")
    return _walk(kind, p, q, env, bound)


def _walk(walk: str, p: Term, q: Term, env: Env, bound: Optional[int]):
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be a non-negative integer, got {bound}")
    lts1 = cached_lts(p, env)
    lts2 = cached_lts(q, env)
    if bound is None:
        if not (is_ccsf(p) and is_ccsf(q)):
            raise ModeError("exact decision requires finite terms; pass a bound")
        mode = "exact"
        depth_cap = max(visible_depth(p), visible_depth(q)) + 1
    else:
        mode = "bounded"
        depth_cap = bound
    return _Engine(lts1, lts2, depth_cap, bound, walk), mode


def _decide(kind: str, p: Term, q: Term, env: Env, bound: Optional[int]) -> RefinementVerdict:
    engine, mode = _prepare(kind, p, q, env, bound)
    for node in engine.nodes():
        fail: Optional[FailingClause] = None
        if kind == "clt":
            fail = engine.clt_clauses(node)
        elif kind == "svr":
            fail = engine.svr_clauses(node)
        else:
            fail = engine.clt_clauses(node) or engine.usmpo_clauses(node)
        if fail is not None:
            return RefinementVerdict(kind, False, mode, bound, fail)
    return RefinementVerdict(kind, True, mode, bound)


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
    clause; coincides with leq_svr on success-free finite terms."""
    engine, _ = _prepare("svr", p, q, env, None)
    for node in engine.nodes():
        if engine.clauses(node, "svr", node.conv1, "convergence", "w", False, None) is not None:
            return False
    return True


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


def _diag(r1: Term, r2: Term, env: Env, relaxed: bool) -> bool:
    engine, _ = _walk("diag", r1, r2, env, None)
    return not any(
        engine.clauses(node, "clt", node.conv1, "convergence", "x", relaxed, None)
        for node in engine.nodes()
    )


def diag_sbad(r1: Term, r2: Term, env: Env = EMPTY_ENV) -> bool:
    """Convergence-guarded matching of unsuccessful ready sets by inclusion."""
    return _diag(r1, r2, env, relaxed=False)


def diag_sbad_prime(r1: Term, r2: Term, env: Env = EMPTY_ENV) -> bool:
    """Same, with the inclusion relaxed through the left usable actions."""
    return _diag(r1, r2, env, relaxed=True)


# ---------------------------------------------------------------------------
# Distinguishing-test synthesis
# ---------------------------------------------------------------------------


def _witness_or_nil(lts: Lts, states: frozenset[int]) -> Term:
    ok, wit = usable_set(lts, states)
    if not ok or wit is None:
        raise SynthesisGap("left residual unexpectedly unusable during synthesis")
    return wit


def _pick(actions: Iterable[Action]) -> Action:
    return sorted(actions, key=label_key)[0]


def _chain(s: Trace, upto: int, escape: Callable[[int], list[Term]], end: Term) -> Term:
    """Wrap `end` in stages upto-1 ... 0; stage k offers escape(k) next to the
    complement of s[k] leading to the next stage."""
    t = end
    for k in reversed(range(upto)):
        t = mk_sum(escape(k) + [Prefix(s[k].complement(), t)])
    return t


def _match_branches(lts1: Lts, clause: FailingClause, ready: Iterable[frozenset[Action]],
                    x: frozenset[int], lift: Callable[[Term], Term]) -> Term:
    """Answer each left ready set on one of its usable actions that the
    refuting right ready set lacks, continuing with a left witness."""
    assert clause.ready_set is not None and clause.usable_actions is not None
    branches: dict[Action, Term] = {}
    for A in ready:
        a = _pick((A & clause.usable_actions) - clause.ready_set)
        if a not in branches:
            branches[a] = lift(_witness_or_nil(lts1, lts1.step(x, a)))
    return mk_sum(Prefix(a.complement(), cont) for a, cont in branches.items())


def _with_unit(t: Term) -> Term:
    return mk_sum([UNIT, t])


def _svr_witness(lts1: Lts, clause: FailingClause) -> Term:
    s = clause.trace
    if clause.clause == "convergence":
        end: Term = Prefix(TAU, UNIT)
    elif clause.clause == "acceptance_match":
        assert clause.ready_set is not None
        end = mk_sum(Prefix(a.complement(), UNIT)
                     for A in lts1.ready_sets_of(lts1.weak_after(s)) for a in A - clause.ready_set)
    elif clause.clause == "trace_flow":
        end = NIL
    else:
        raise SynthesisGap(f"no server synthesis for clause {clause.clause}")
    return _chain(s, len(s), lambda k: [Prefix(TAU, UNIT)], end)


def _clt_witness(lts1: Lts, clause: FailingClause, peer: bool) -> Term:
    """Client chains; the peer variants can also succeed at every stage."""
    s = clause.trace
    xs = lts1.residuals(s, True)
    lift = _with_unit if peer else (lambda t: t)

    def escape(k: int) -> list[Term]:
        if not peer:
            return [Prefix(TAU, _witness_or_nil(lts1, xs[k]))]
        return [UNIT] + ([Prefix(TAU, lift(_witness_or_nil(lts1, xs[k])))] if xs[k] else [])

    upto = len(s)
    if clause.clause == "usability_flow":
        end: Term = lift(_witness_or_nil(lts1, xs[upto]))
    elif clause.clause == "acceptance_match":
        end = lift(_match_branches(lts1, clause, lts1.ready_sets_of(xs[upto]), xs[upto], lift))
    elif clause.clause == "unsuccessful_trace":
        # diverge after the last prefix the left side can still take unsuccessfully
        upto = 1 + max((k for k in range(len(s) + 1) if xs[k]), default=-1)
        end = DIV
    else:
        raise SynthesisGap(f"no {'peer' if peer else 'client'} synthesis for clause {clause.clause}")
    return lift(_chain(s, upto, escape, end))


def _p2p_usmpo_witness(lts1: Lts, clause: FailingClause) -> Term:
    """Peer chains with tau-guarded success escapes; sound under the
    convergence half of the guard."""
    s = clause.trace
    xs = lts1.residuals(s, True)

    def commit(k: int) -> Term:
        return Prefix(TAU, _with_unit(_witness_or_nil(lts1, xs[k])))

    if clause.clause == "convergence":
        end: Term = commit(len(s))
    elif clause.clause == "acceptance_match":
        end = _match_branches(lts1, clause, lts1.ready_sets_of(lts1.weak_after(s)),
                              xs[len(s)], _with_unit)
    elif clause.clause == "trace_flow":
        end = NIL
    else:
        raise SynthesisGap(f"no peer synthesis for clause {clause.clause}")
    return _chain(s, len(s), lambda k: [commit(k)], end)


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
    lts1 = cached_lts(p, env)
    if kind == "svr":
        t = _svr_witness(lts1, clause)
    elif clause.part == "clt":
        t = _clt_witness(lts1, clause, peer=kind == "p2p")
    else:
        t = _p2p_usmpo_witness(lts1, clause)
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
    if kind == "svr":
        return must(p, t, env).holds
    if kind == "clt":
        return must(t, p, env).holds
    if kind == "p2p":
        return must_sc(p, t, env).holds
    raise ValueError(f"unknown preorder kind {kind!r}")


def check_witness(kind: str, p: Term, q: Term, t: Term, env: Env = EMPTY_ENV) -> bool:
    """Does `t` pass with p and fail with q, in the roles fixed by `kind`?"""
    return passes(kind, p, t, env) and not passes(kind, q, t, env)
