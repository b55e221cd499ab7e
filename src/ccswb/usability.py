"""Usability of clients and peers: which processes can be satisfied at all,
usability along unsuccessful traces, usable actions, and peer convergence.

The core decision works on sets of non-ok states.  Obligations for a visible
action are pooled across the whole unsuccessful closure, because one server
continuation must cope with every residual it may face after that action.
"""
from __future__ import annotations

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


def usable_set(lts: Lts, states: frozenset[int], depth: Optional[int] = None) -> tuple[bool, Optional[Term]]:
    """Decide satisfiability of the internal choice over a set of states;
    on success also return a witness server.

    A set with no non-ok state has nothing left to satisfy: any server,
    `0` included, satisfies it, at every depth.  Otherwise, with `depth`
    set, the descent over visible actions is cut off at that many levels
    and the cut is reported as not usable (a bounded verdict).  Each closed
    set is decided by a `_usable_closed` generator on one stack and
    memoized.  An exact decision that comes back to a set still on the
    stack raises `VisibleCycle`; a bounded one cannot, since each visible
    step lowers `depth`.
    """
    deciding: dict = {}  # (closed set, depth) -> its generator: the stack, innermost last
    while True:
        if all(lts.ok[i] for i in states):
            got = True, NIL
        elif depth is not None and depth < 0:
            got = False, None
        else:
            key = (lts.unsuccessful_closure(states), depth)
            got = lts._usable_memo.get(key)
            if got is None:
                if key in deciding:
                    raise VisibleCycle("exact usability undecided: non-ok region has a "
                                       "visible-action cycle; rerun bounded")
                deciding[key] = _usable_closed(lts, *key)
        # hand the answer to the set that asked for it, until one asks again
        while deciding:
            key, decide = next(reversed(deciding.items()))
            try:
                states, depth = decide.send(got)
                break
            except StopIteration as done:
                del deciding[key]
                got = lts._usable_memo[key] = done.value
        else:
            return got


def _usable_closed(lts: Lts, C: frozenset[int], depth: Optional[int]) -> Generator:
    """Decide the closed set `C`: yields each derivative set with its depth,
    is sent that set's answer, and returns the answer for `C`."""
    if C & lts.nonok_tau_cyclic:
        return False, None
    actions = sorted({a for i in C for a in lts.vis[i]}, key=label_key)
    usable_act: dict[Action, Term] = {}
    for a in actions:
        derivs = frozenset(j for i in C for j in lts.vis[i].get(a, ()) if not lts.ok[j])
        ok, wit = yield derivs, None if depth is None else depth - 1
        if ok:
            usable_act[a] = wit
    needed: set[Action] = set()
    for i in C:
        if not lts.stable(i):
            continue
        offered = [a for a in lts.ready[i] if a in usable_act]
        if not offered:
            return False, None
        needed.update(offered)
    return True, mk_sum(Prefix(a.complement(), usable_act[a])
                        for a in sorted(needed, key=label_key))


def usable(r: Term, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> UsabilityReport:
    """Is there any server that must-satisfies `r`?  Exact unless `depth`
    given.  A witness server is re-checked, with the verdict `must` would
    give, before it is returned."""
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be a non-negative integer, got {depth}")
    lts = cached_lts(r, env)
    ok, wit = usable_set(lts, frozenset({lts.root}), depth)
    if ok and fails(cached_lts(wit, env), lts):
        raise RuntimeError(f"internal error: witness server failed verification for {r}")
    return UsabilityReport(ok, wit, "exact" if depth is None else "bounded", depth)


def usbut(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> bool:
    """Usability along an unsuccessful trace: every residual reachable by an
    unsuccessful prefix of `s` is still satisfiable."""
    lts = cached_lts(r, env)
    return all(usable_set(lts, x, depth)[0] for x in lts.residuals(s, True))


def uaut(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> frozenset[Action]:
    """Usable actions after `s`: those the client cannot perform unsuccessfully,
    or whose pooled residual is still satisfiable."""
    lts = cached_lts(r, env)
    cur = lts.unsuccessful_after(s)
    nxt = {a: lts.unsuccessful_closure(lts.step(cur, a))
           for a in sorted(lts.alphabet(), key=label_key)}
    # an action the client can still perform unsuccessfully needs `s` usable
    along = any(nxt.values()) and usbut(r, s, env, depth)
    return frozenset(a for a, x in nxt.items() if not x or (along and usable_set(lts, x, depth)[0]))


def peer_conv(r: Term, s: Trace, env: Env = EMPTY_ENV, depth: Optional[int] = None) -> bool:
    """Peer convergence: convergence along `s` plus client usability along `s`."""
    lts = cached_lts(r, env)
    return lts.converges_along(s) and usbut(r, s, env, depth)
