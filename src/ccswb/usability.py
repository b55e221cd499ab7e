"""Usability of clients and peers: which processes can be satisfied at all,
usability along unsuccessful traces, usable actions, and peer convergence.

The core decision works on sets of non-ok states.  Obligations for a visible
action are pooled across the whole unsuccessful closure, because one server
continuation must cope with every residual it may face after that action.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Generator, Optional

from .lts import Lts, Trace, cached_lts
from .syntax import (
    EMPTY_ENV,
    NIL,
    Action,
    Env,
    Prefix,
    Term,
    label_key,
    mk_sum,
    pretty,
)
from .testing import fails


class VisibleCycle(RuntimeError):
    """Exact usability refused: deciding a set of non-ok states came back,
    through a visible action, to a set still being decided, so the
    finite-unfolding decision does not terminate."""


@dataclass(frozen=True)
class UsabilityReport:
    usable: bool
    witness_server: Optional[Term]
    mode: str  # "exact" | "bounded"
    depth: Optional[int] = None

    def to_json(self) -> dict:
        out: dict = {"usable": self.usable, "mode": self.mode}
        if self.depth is not None:
            out["depth"] = self.depth
        if self.witness_server is not None:
            out["witness_server"] = pretty(self.witness_server)
        return out


def usable_set(lts: Lts, states: frozenset[int], depth: Optional[int] = None) -> bool:
    """Is the internal choice over a set of states satisfiable at all?

    A set with no non-ok state has nothing left to satisfy: any server,
    `0` included, satisfies it, at every depth.  Otherwise, with `depth`
    set, the descent over visible actions is cut off at that many levels
    and the cut is reported as not usable (a bounded verdict).  Each closed
    set is decided by a `_usable_closed` generator on one stack.  An exact
    decision that comes back to a set still on the stack raises
    `VisibleCycle`; a bounded one cannot, since each visible step lowers
    `depth`.

    The graph keeps one entry per closed set: its exact answer, the
    smallest depth known usable and the largest depth known unusable.
    Bounded usability only grows with the depth (by induction on
    `_usable_closed`: the cut answers no, and `nonok_tau_cyclic` does not
    depend on the depth), so a set usable at depth d is usable at every
    larger depth and one unusable at d at every smaller one.  A bounded
    answer never stands in for an exact one, nor the other way round.
    """
    memo = lts._usable_memo
    deciding: dict = {}  # (closed set, depth) -> its generator: the stack, innermost last
    while True:
        if all(lts.ok[i] for i in states):
            got = True
        elif depth is not None and depth < 0:
            got = False
        else:
            closed = lts.unsuccessful_closure(states)
            entry = memo.get(closed)
            got = None
            if entry is not None:
                if depth is None:
                    got = entry[0]
                elif entry[1] <= depth:
                    got = True
                elif depth <= entry[2]:
                    got = False
            if got is None:
                key = (closed, depth)
                if key in deciding:
                    raise VisibleCycle("exact usability undecided: non-ok region has a "
                                       "visible-action cycle; rerun bounded")
                deciding[key] = _usable_closed(lts, closed, depth)
        # hand the answer to the set that asked for it, until one asks again
        while deciding:
            key, decide = next(reversed(deciding.items()))
            try:
                states, depth = decide.send(got)
                break
            except StopIteration as done:
                del deciding[key]
                got = done.value
                _learn(memo, *key, got)
        else:
            return got


# An entry of `Lts._usable_memo`: [exact answer or None, smallest depth
# known usable, largest depth known unusable].  An entry only gains facts,
# so a lost update between threads drops a fact and never stores a wrong one.
_NEVER = sys.maxsize


def _learn(memo: dict, closed: frozenset[int], depth: Optional[int], answer: bool) -> None:
    """Add to the memo entry of `closed` its answer at `depth`."""
    entry = memo.get(closed)
    if entry is None:
        entry = memo.setdefault(closed, [None, _NEVER, -1])
    if depth is None:
        entry[0] = answer
    elif answer:
        if depth < entry[1]:
            entry[1] = depth
    elif depth > entry[2]:
        entry[2] = depth


def _usable_closed(lts: Lts, C: frozenset[int], depth: Optional[int]) -> Generator:
    """Decide the closed set `C`: yields each derivative set with its depth,
    is sent that set's answer, and returns the answer for `C`."""
    if C & lts.nonok_tau_cyclic:
        return False
    usable_act: set[Action] = set()
    for a in sorted({a for i in C for a in lts.vis[i]}, key=label_key):
        derivs = frozenset(j for i in C for j in lts.vis[i].get(a, ()) if not lts.ok[j])
        if (yield derivs, None if depth is None else depth - 1):
            usable_act.add(a)
    return all(not usable_act.isdisjoint(lts.ready[i]) for i in C if lts.stable(i))


def usable_witness(lts: Lts, states: frozenset[int], depth: Optional[int]) -> Optional[Term]:
    """A server that satisfies the internal choice over `states` at `depth`,
    or None when `usable_set` finds none.  Built from `usable_set`'s answers
    by one rule: a set with no non-ok state gets `0`; otherwise each action
    a stable state of the closed set offers whose derivative set is usable
    one level down is answered by its complement, followed by that set's
    witness, summed in key order.  An explicit stack; the graph keeps each
    witness built, per (closed set, depth), for the next call to ask."""
    if not usable_set(lts, states, depth):
        return None
    built = lts._usable_witnesses
    steps: dict = {}  # (closed set, depth) -> its usable offered actions with their sets' keys
    root = (lts.unsuccessful_closure(states), depth)
    stack = [root]
    while stack:
        key = stack[-1]
        C, d = key
        if key in built:
            stack.pop()
            continue
        if not C:
            built[key] = NIL
            stack.pop()
            continue
        below = None if d is None else d - 1
        out = steps.get(key)
        if out is None:
            out = steps[key] = []
            for a in sorted({a for i in C if lts.stable(i) for a in lts.ready[i]}, key=label_key):
                after = lts.step(C, a)
                if usable_set(lts, after, below):
                    out.append((a, (lts.unsuccessful_closure(after), below)))
        missing = [k for _, k in out if k not in built]
        if missing:
            stack.extend(missing)
            continue
        built[key] = mk_sum(Prefix(a.complement(), built[k]) for a, k in out)
        stack.pop()
    return built[root]


def usable(r: Term, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> UsabilityReport:
    """Is there any server that must-satisfies `r`?  Exact unless `depth`
    given.  A witness server is re-checked, with the verdict `must` would
    give, before it is returned."""
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be a non-negative integer, got {depth}")
    lts = cached_lts(r, env)
    wit = usable_witness(lts, frozenset({lts.root}), depth)
    ok = wit is not None
    if ok and fails(cached_lts(wit, env), lts):
        raise RuntimeError(f"internal error: witness server failed verification for {r}")
    return UsabilityReport(ok, wit, "exact" if depth is None else "bounded", depth)


def usbut(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> bool:
    """Usability along an unsuccessful trace: every residual reachable by an
    unsuccessful prefix of `s` is still satisfiable."""
    lts = cached_lts(r, env)
    return all(usable_set(lts, x, depth) for x in lts.residuals(s, True))


def uaut(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> frozenset[Action]:
    """Usable actions after `s`: those the client cannot perform unsuccessfully,
    or whose pooled residual is still satisfiable."""
    lts = cached_lts(r, env)
    cur = lts.unsuccessful_after(s)
    nxt = {a: lts.unsuccessful_closure(lts.step(cur, a))
           for a in lts.sorted_alphabet()}
    # an action the client can still perform unsuccessfully needs `s` usable
    along = any(nxt.values()) and usbut(r, s, env, depth)
    return frozenset(a for a, x in nxt.items() if not x or (along and usable_set(lts, x, depth)))


def peer_conv(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> bool:
    """Peer convergence: convergence along `s` plus client usability along `s`."""
    lts = cached_lts(r, env)
    return lts.converges_along(s) and usbut(r, s, env, depth)
