"""Independent replay of must/mustSC counterexamples.

A counterexample from `ccswb --json must|mustsc` lists product states as
pretty-printed (server, client) pairs.  Replay re-parses them against the
operation's own definition file and checks the computation with nothing but
the one-step semantics (`transitions`, `can_ok`), so it shares no code with
`Product` or the lasso search that produced it.
"""
from __future__ import annotations

from ccswb.lts import can_ok, transitions
from ccswb.syntax import TAU, Action, Env, SyntaxErr, Term, parse_term


def _tau_targets(t: Term, env: Env) -> set[Term]:
    return {tgt for lab, tgt in transitions(t, env) if lab == TAU}


def _visible(t: Term, env: Env) -> set[tuple[Action, Term]]:
    return {(lab, tgt) for lab, tgt in transitions(t, env) if isinstance(lab, Action)}


def _is_step(src: tuple[Term, Term], dst: tuple[Term, Term], env: Env) -> bool:
    (p, q), (p2, q2) = src, dst
    if q2 == q and p2 in _tau_targets(p, env):
        return True
    if p2 == p and q2 in _tau_targets(q, env):
        return True
    right = _visible(q, env)
    return any((a.complement(), q2) in right for a, tgt in _visible(p, env) if tgt == p2)


def _stable(p: Term, q: Term, env: Env) -> bool:
    if _tau_targets(p, env) or _tau_targets(q, env):
        return False
    right = {a for a, _ in _visible(q, env)}
    return not any(a.complement() in right for a, _ in _visible(p, env))


def replay(evidence: dict, server: Term, client: Term, env: Env, symmetric: bool) -> list[str]:
    """Problems with a counterexample; empty when it replays.

    Along the path the client never succeeds for `must`; for `mustsc`
    (`symmetric`) one of the two sides never does.
    """
    try:
        path = [(parse_term(l, env), parse_term(r, env)) for l, r in evidence["states"]]
    except (KeyError, TypeError, ValueError, SyntaxErr) as exc:
        return [f"unreadable evidence: {exc}"]
    if not path:
        return ["empty path"]
    problems = []
    if path[0] != (server, client):
        problems.append("path does not start at the composed pair")
    for k in range(len(path) - 1):
        if not _is_step(path[k], path[k + 1], env):
            problems.append(f"state {k + 1} is no tau or synchronisation step from state {k}")
    client_ok = [k for k, (_, q) in enumerate(path) if can_ok(q, env)]
    server_ok = [k for k, (p, _) in enumerate(path) if can_ok(p, env)]
    if symmetric:
        if client_ok and server_ok:
            problems.append(f"both sides can succeed (states {client_ok[0]} and {server_ok[0]})")
    elif client_ok:
        problems.append(f"the client can succeed at state {client_ok[0]}")
    shape = evidence.get("shape")
    if shape == "deadlock":
        if not _stable(*path[-1], env):
            problems.append("deadlock path ends in a state with a move")
    elif shape == "lasso":
        start = evidence.get("loop_start")
        if not isinstance(start, int) or not 0 <= start < len(path) - 1:
            problems.append(f"bad loop_start {start!r}")
        elif path[-1] != path[start]:
            problems.append("lasso does not return to loop_start")
    else:
        problems.append(f"unknown evidence shape {shape!r}")
    return problems
