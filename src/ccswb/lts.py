"""Operational semantics: transition graphs, weak closures, acceptance sets,
convergence and divergence predicates, and the parallel test composition."""
from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from .syntax import (
    OK,
    TAU,
    Action,
    Const,
    Div,
    Env,
    EMPTY_ENV,
    Label,
    Nil,
    Prefix,
    Sum,
    Term,
    Unit,
    label_key,
    NIL,
    pretty,
    term_key,
)

Trace = tuple[Action, ...]
Node = TypeVar("Node", bound=Hashable)


class StateCapExceeded(RuntimeError):
    """Reachable state space grew past the configured cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"state space exceeds cap of {cap}")


def transitions(t: Term, env: Env = EMPTY_ENV) -> frozenset[tuple[Label, Term]]:
    """One-step derivatives of a term."""
    if isinstance(t, Unit):
        return frozenset({(OK, NIL)})
    if isinstance(t, Nil):
        return frozenset()
    if isinstance(t, Div):
        return frozenset({(TAU, t)})
    if isinstance(t, Prefix):
        return frozenset({(t.guard, t.body)})
    if isinstance(t, Sum):
        out: set[tuple[Label, Term]] = set()
        for p in t.parts:
            out |= transitions(p, env)
        return frozenset(out)
    if isinstance(t, Const):
        return transitions(env.lookup(t.name), env)
    raise TypeError(f"not a term: {t!r}")


def can_ok(t: Term, env: Env = EMPTY_ENV) -> bool:
    """True iff the term can report success immediately."""
    return any(lab is OK for lab, _ in transitions(t, env))


def sccs(nodes: Iterable[Node], succ: Callable[[Node], Iterable[Node]]) -> list[list[Node]]:
    """Strongly connected components of the graph reached from `nodes` through
    `succ` (Tarjan 1972), each listed after every component it reaches.

    Iterative: each open node keeps its successor iterator on the work stack,
    so deep graphs neither recurse nor rebuild successor lists."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    stack: list[Node] = []
    onstack: set[Node] = set()
    out: list[list[Node]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in onstack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def on_cycle(nodes: Iterable[Node], succ: Callable[[Node], Iterable[Node]]) -> frozenset[Node]:
    """Nodes reached from `nodes` that lie on a cycle of at least one step."""
    out: set[Node] = set()
    for comp in sccs(nodes, succ):
        if len(comp) > 1 or comp[0] in succ(comp[0]):
            out.update(comp)
    return frozenset(out)


_SERIALS = itertools.count()


class Lts:
    """Reachable transition graph of a term; a state is an interned term.

    Constants are kept folded: a state is the term as written, and its moves
    come from unfolding the definition on demand.  At most `env.state_cap`
    states are built.

    Each graph has a serial number, never reused, and one verdict row for
    the pairs it is the server of (`testing.fails`): a dict of 64-bit words,
    where bits 2k and 2k+1 of word w say that the pair with the client of
    serial 32w+k is known, and that it fails.
    """

    def __init__(self, root_term: Term, env: Env = EMPTY_ENV):
        cap = env.state_cap
        self.env = env
        self.serial = next(_SERIALS)
        self.row: dict[int, int] = {}
        self.root = 0
        self.terms: list[Term] = [root_term]
        self.ok: list[bool] = []
        self.taus: list[tuple[int, ...]] = []
        self.vis: list[dict[Action, tuple[int, ...]]] = []
        self.ready: list[frozenset[Action]] = []
        index = {root_term: 0}
        for t in self.terms:  # the list grows as states are found: breadth-first
            ok, taus, vis = False, [], {}
            for lab, tgt in sorted(transitions(t, env), key=lambda e: (label_key(e[0]), term_key(e[1]))):
                j = index.get(tgt)
                if j is None:
                    if len(self.terms) >= cap:
                        raise StateCapExceeded(cap)
                    j = index[tgt] = len(self.terms)
                    self.terms.append(tgt)
                if lab is TAU:
                    taus.append(j)
                elif lab is OK:
                    ok = True
                else:
                    vis.setdefault(lab, []).append(j)
            self.ok.append(ok)
            self.taus.append(tuple(taus))
            self.vis.append({a: tuple(js) for a, js in vis.items()})
            self.ready.append(frozenset(vis))
        # states on a tau cycle, and on a tau cycle of non-ok states; the
        # closures are closed under those cycles, so divergence checks are
        # intersections
        self.tau_cyclic = on_cycle((i for i, ts in enumerate(self.taus) if ts), self.taus.__getitem__)
        self.nonok_tau_cyclic = on_cycle(
            (i for i, ts in enumerate(self.taus) if ts and not self.ok[i]),
            lambda i: [j for j in self.taus[i] if not self.ok[j]],
        ) if self.tau_cyclic else frozenset()
        # memo tables, keyed per graph
        self._tau_closure: dict[frozenset[int], frozenset[int]] = {}
        self._uclosure: dict[frozenset[int], frozenset[int]] = {}
        self._usable_memo: dict = {}

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def n_edges(self) -> int:
        return sum(self.ok) + sum(map(len, self.taus)) + sum(len(js) for vis in self.vis for js in vis.values())

    def stable(self, i: int) -> bool:
        return not self.taus[i]

    def alphabet(self) -> frozenset[Action]:
        """Visible actions occurring on any edge."""
        out: set[Action] = set()
        for vis in self.vis:
            out |= set(vis)
        return frozenset(out)

    # -- closures ---------------------------------------------------------

    def tau_closure(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._tau_closure.get(states)
        if cached is not None:
            return cached
        seen = set(states)
        stack = list(states)
        while stack:
            for j in self.taus[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        out = frozenset(seen)
        self._tau_closure[states] = out
        return out

    def unsuccessful_closure(self, states: frozenset[int]) -> frozenset[int]:
        """Tau closure staying within non-ok states; ok-capable inputs are dropped."""
        key = states
        cached = self._uclosure.get(key)
        if cached is not None:
            return cached
        seen = {i for i in states if not self.ok[i]}
        stack = list(seen)
        while stack:
            for j in self.taus[stack.pop()]:
                if not self.ok[j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        out = frozenset(seen)
        self._uclosure[key] = out
        return out

    def step(self, states: frozenset[int], a: Action) -> frozenset[int]:
        out: set[int] = set()
        for i in states:
            out.update(self.vis[i].get(a, ()))
        return frozenset(out)

    def residuals(self, s: Trace, unsuccessful: bool = False) -> list[frozenset[int]]:
        """Weak (or unsuccessful) residual sets after each prefix of `s`,
        from the root's closure to the residual after all of `s`."""
        close = self.unsuccessful_closure if unsuccessful else self.tau_closure
        out = [close(frozenset({self.root}))]
        for a in s:
            out.append(close(self.step(out[-1], a)))
        return out

    def weak_after(self, s: Trace) -> frozenset[int]:
        return self.residuals(s)[-1]

    def unsuccessful_after(self, s: Trace) -> frozenset[int]:
        return self.residuals(s, True)[-1]

    # -- acceptance sets ----------------------------------------------------

    def ready_sets_of(self, states: Iterable[int]) -> frozenset[frozenset[Action]]:
        return frozenset(self.ready[i] for i in states if self.stable(i))

    def acc(self, s: Trace) -> frozenset[frozenset[Action]]:
        """Ready sets of stable states reachable weakly along `s`."""
        return self.ready_sets_of(self.weak_after(s))

    def acc_ut(self, s: Trace) -> frozenset[frozenset[Action]]:
        """Ready sets of stable states reachable unsuccessfully along `s`."""
        return self.ready_sets_of(self.unsuccessful_after(s))

    # -- convergence / divergence -----------------------------------------

    def converges_state_set(self, states: frozenset[int]) -> bool:
        """No infinite tau run from any of the states."""
        return not (self.tau_closure(states) & self.tau_cyclic)

    def converges(self) -> bool:
        return self.converges_state_set(frozenset({self.root}))

    def converges_along(self, s: Trace) -> bool:
        return all(self.converges_state_set(w) for w in self.residuals(s))

    def diverges_unsuccessfully(self) -> bool:
        """An infinite tau run all of whose states are non-ok."""
        return bool(self.unsuccessful_closure(frozenset({self.root})) & self.nonok_tau_cyclic)

    # -- rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph lts {", "  rankdir=LR;"]
        for i, t in enumerate(self.terms):
            shape = "doublecircle" if self.ok[i] else "circle"
            label = pretty(t).replace('"', '\\"')
            extra = " penwidth=2" if i == self.root else ""
            lines.append(f'  s{i} [shape={shape} label="{label}"{extra}];')
        nil = self.terms.index(NIL) if any(self.ok) else None  # every ok move ends in 0
        for i, vis in enumerate(self.vis):
            # in label order: tau, ok, then the actions
            outs = [(TAU, j) for j in self.taus[i]] + [(OK, nil)] * self.ok[i]
            outs += [(a, j) for a, js in vis.items() for j in js]
            lines.extend(f'  s{i} -> s{j} [label="{lab}"];' for lab, j in outs)
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parallel composition of a pair (server/peer on the left, client/peer right)
# ---------------------------------------------------------------------------


def moves(left: Lts, right: Lts, i: int, j: int) -> list[tuple[int, int]]:
    """The composition rule: the tau moves of the pair (i, j), as left taus,
    right taus, then synchronisations in the left graph's label order.  A
    pair can appear more than once."""
    nxt = [(i2, j) for i2 in left.taus[i]]
    nxt.extend((i, j2) for j2 in right.taus[j])
    rvis = right.vis[j]
    if rvis:
        for a, tis in left.vis[i].items():  # in label order, as Lts builds vis
            tjs = rvis.get(a._complement)
            if tjs:
                nxt.extend((i2, j2) for i2 in tis for j2 in tjs)
    return nxt


class Product:
    """Tau-edge graph of a parallel composition, built on demand.

    Edges are left moves, right moves, and complementary synchronisations;
    success of either component is recorded as a state flag, not an edge.
    The constructor interns only the root; `succ(k)` expands a state the
    first time it is asked for, so a search builds the states it visits and
    their successors, and `explore()` builds the rest in breadth-first order.
    The state cap, the smaller of the two graphs' caps, bounds the states
    built.  A product is filled by the call that made it; only its `Lts`
    graphs are shared.
    """

    def __init__(self, left: Lts, right: Lts):
        self.left_lts = left
        self.right_lts = right
        self.cap = min(left.env.state_cap, right.env.state_cap)
        self.states: list[tuple[int, int]] = []
        self.index: dict[tuple[int, int], int] = {}
        self.left_ok: list[bool] = []
        self.right_ok: list[bool] = []
        self._succ: list[Optional[tuple[int, ...]]] = []
        self.root = self._intern((left.root, right.root))

    def _intern(self, st: tuple[int, int]) -> int:
        k = self.index.get(st)
        if k is None:
            k = len(self.states)
            if k >= self.cap:
                raise StateCapExceeded(self.cap)
            self.index[st] = k
            self.states.append(st)
            self.left_ok.append(self.left_lts.ok[st[0]])
            self.right_ok.append(self.right_lts.ok[st[1]])
            self._succ.append(None)
        return k

    def succ(self, k: int) -> tuple[int, ...]:
        """Successors of state k: its `moves`, in that order, without repeats."""
        out = self._succ[k]
        if out is None:
            nxt = moves(self.left_lts, self.right_lts, *self.states[k])
            out = self._succ[k] = tuple(dict.fromkeys(map(self._intern, nxt)))
        return out

    def explore(self) -> Product:
        """Expand every reachable state, in order of state number.  On a
        product no search has touched, that numbers the states in
        breadth-first order from the root, as `to_dot` shows them."""
        for k, _ in enumerate(self.states):  # the list grows as states are found
            self.succ(k)
        return self

    def __len__(self) -> int:
        """States built so far."""
        return len(self.states)

    def stable(self, k: int) -> bool:
        return not self.succ(k)

    def pretty_state(self, k: int) -> tuple[str, str]:
        i, j = self.states[k]
        return (pretty(self.left_lts.terms[i]), pretty(self.right_lts.terms[j]))

    def to_dot(self) -> str:
        self.explore()
        lines = ["digraph product {", "  rankdir=LR;"]
        for k in range(len(self.states)):
            l, r = self.pretty_state(k)
            flags = ("L" if self.left_ok[k] else "") + ("R" if self.right_ok[k] else "")
            label = f"{l} || {r}" + (f" [{flags}]" if flags else "")
            shape = "doublecircle" if self.right_ok[k] else "circle"
            extra = " penwidth=2" if k == self.root else ""
            lines.append(f'  s{k} [shape={shape} label="{label.replace(chr(34), chr(39))}"{extra}];')
        for k in range(len(self.states)):
            for k2 in self.succ(k):
                lines.append(f'  s{k} -> s{k2} [label="tau"];')
        lines.append("}")
        return "\n".join(lines)


_LTS_CACHE: dict[tuple[Env, Term], Lts] = {}


def cached_lts(t: Term, env: Env = EMPTY_ENV) -> Lts:
    """Shared Lts instances; safe because a graph is complete once built and
    its memo tables fill idempotently.
    The key is the `env` object, compared by identity, and the term, so graphs
    of different environments or state caps stay apart."""
    key = (env, t)
    got = _LTS_CACHE.get(key)
    if got is None:
        if len(_LTS_CACHE) > 200_000:
            _LTS_CACHE.clear()
        got = Lts(t, env)
        _LTS_CACHE[key] = got
    return got
