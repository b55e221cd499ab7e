"""Operational semantics: transition graphs, weak closures, acceptance sets,
convergence and divergence predicates, and the parallel test composition."""
from __future__ import annotations

import itertools
import sys
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
    """One-step derivatives of a term.  Sums and constants are unfolded on an
    explicit stack, each constant at most once, so a long chain of aliases
    needs no recursion and an unguarded environment still terminates."""
    out: set[tuple[Label, Term]] = set()
    stack = [t]
    unfolded: set[Const] = set()
    while stack:
        t = stack.pop()
        if isinstance(t, Prefix):
            out.add((t.guard, t.body))
        elif isinstance(t, Sum):
            stack.extend(t.parts)
        elif isinstance(t, Const):
            if t not in unfolded:
                unfolded.add(t)
                stack.append(env.lookup(t.name))
        elif isinstance(t, Unit):
            out.add((OK, NIL))
        elif isinstance(t, Div):
            out.add((TAU, t))
        elif not isinstance(t, Nil):
            raise TypeError(f"not a term: {t!r}")
    return frozenset(out)


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
    out: list[list[Node]] = []
    done = sys.maxsize  # the index of a node whose component is out: no edge to it lowers a link
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                x = index.get(w)
                if x is None:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ(w))))
                    break
                if x < low[v]:
                    low[v] = x
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
                        index[w] = done
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
    come from unfolding the definition on demand.  At most `cap`, the
    environment's state cap, states are built; the graph keeps the cap and
    no reference to the environment.

    Each graph has a `serial`, never reused, and a verdict `row` that
    `testing.fails` fills.
    """

    def __init__(self, root_term: Term, env: Env = EMPTY_ENV):
        self.cap = cap = env.state_cap
        self.serial = next(_SERIALS)
        self.row: dict[int, int] = {}
        self.root = 0
        self.terms: list[Term] = [root_term]
        self.ok: list[bool] = []
        self.taus: list[tuple[int, ...]] = []
        self.vis: list[dict[Action, tuple[int, ...]]] = []
        self.ready: list[frozenset[Action]] = []
        index = {root_term: 0}
        readies: dict[frozenset[Action], frozenset[Action]] = {}  # one object per ready set
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
            ready = frozenset(vis)
            self.ready.append(readies.setdefault(ready, ready))
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
        self.sides: dict = {}  # walk plan -> its side records (`preorders._Side`) by key
        self._alphabet: Optional[frozenset[Action]] = None

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def n_edges(self) -> int:
        return sum(self.ok) + sum(map(len, self.taus)) + sum(len(js) for vis in self.vis for js in vis.values())

    def stable(self, i: int) -> bool:
        return not self.taus[i]

    def alphabet(self) -> frozenset[Action]:
        """Visible actions occurring on any edge, computed on first use."""
        if self._alphabet is None:
            self._alphabet = frozenset().union(*self.vis)
        return self._alphabet

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
        out = states if len(seen) == len(states) else frozenset(seen)
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
        out = states if seen == states else frozenset(seen)
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


def moves(left: Lts, right: Lts, k: int) -> list[int]:
    """The composition rule: the tau moves of the pair with code k (`code`),
    as successor codes: left taus, right taus, then synchronisations in the
    left graph's label order.  A pair can appear more than once."""
    w = len(right.terms)
    i, j = divmod(k, w)
    nxt = []
    for i2 in left.taus[i]:
        nxt.append(i2 * w + j)
    k -= j
    for j2 in right.taus[j]:
        nxt.append(k + j2)
    rvis = right.vis[j]
    if rvis:
        for a, tis in left.vis[i].items():  # in label order, as Lts builds vis
            tjs = rvis.get(a._complement)
            if tjs:
                for i2 in tis:
                    i2 *= w
                    for j2 in tjs:
                        nxt.append(i2 + j2)
    return nxt


def code(left: Lts, right: Lts, i: int, j: int) -> int:
    """The pair code of left state i and right state j, i * len(right) + j."""
    return i * len(right.terms) + j


class Product:
    """Tau-edge graph of a parallel composition, as a view of its two graphs.

    A state is a pair code (`code`) and its edges are its `moves`.  `built`
    holds the codes built so far, the root and each expanded state's
    successors, up to the state cap, the smaller of the two graphs' caps.  A
    product is filled by the call that made it; only its graphs are shared.
    """

    def __init__(self, left: Lts, right: Lts):
        self.left_lts = left
        self.right_lts = right
        self.cap = min(left.cap, right.cap)
        self.root = code(left, right, left.root, right.root)
        self.built = {self.root}

    def build(self, codes: list[int]) -> list[int]:
        """`codes`, each counted as built the first time it is seen."""
        built = self.built
        for k in codes:
            if k not in built:
                if len(built) >= self.cap:
                    raise StateCapExceeded(self.cap)
                built.add(k)
        return codes

    def succ(self, k: int) -> tuple[int, ...]:
        """Successors of state k: its `moves`, in that order, without repeats."""
        return tuple(dict.fromkeys(self.build(moves(self.left_lts, self.right_lts, k))))

    def _numbering(self) -> dict[int, int]:
        """Every reachable state, expanded, numbered in breadth-first order."""
        order, number = [self.root], {self.root: 0}
        for k in order:  # the order grows as states are found
            for k2 in self.succ(k):
                if k2 not in number:
                    number[k2] = len(order)
                    order.append(k2)
        return number

    def __len__(self) -> int:
        """States built so far."""
        return len(self.built)

    def pair(self, k: int) -> tuple[int, int]:
        """The left and the right state of state k."""
        return divmod(k, len(self.right_lts.terms))

    def flags(self, k: int) -> tuple[bool, bool]:
        """Whether the left and the right state of state k can report success."""
        i, j = self.pair(k)
        return self.left_lts.ok[i], self.right_lts.ok[j]

    def succeeded(self, side: str) -> Callable[[int], bool]:
        """Whether the `side` ("left" or "right") state of a code can report success."""
        left, right, w = self.left_lts, self.right_lts, len(self.right_lts.terms)
        return (lambda k: right.ok[k % w]) if side == "right" else (lambda k: left.ok[k // w])

    def pretty_state(self, k: int) -> tuple[str, str]:
        i, j = self.pair(k)
        return (pretty(self.left_lts.terms[i]), pretty(self.right_lts.terms[j]))

    def to_dot(self) -> str:
        number = self._numbering()
        lines = ["digraph product {", "  rankdir=LR;"]
        for k, n in number.items():
            l, r = self.pretty_state(k)
            lok, rok = self.flags(k)
            mark = ("L" if lok else "") + ("R" if rok else "")
            label = f"{l} || {r}" + (f" [{mark}]" if mark else "")
            shape = "doublecircle" if rok else "circle"
            extra = " penwidth=2" if k == self.root else ""
            lines.append(f'  s{n} [shape={shape} label="{label.replace(chr(34), chr(39))}"{extra}];')
        for k, n in number.items():
            lines.extend(f'  s{n} -> s{number[k2]} [label="tau"];' for k2 in self.succ(k))
        lines.append("}")
        return "\n".join(lines)


def cached_lts(t: Term, env: Env = EMPTY_ENV) -> Lts:
    """The graph of `t` under `env`, built on first use and kept in
    `env.graphs` until that table passes 200,000 graphs; sharing is safe
    because a graph is complete once built and its memo tables fill
    idempotently."""
    graphs = env.graphs
    got = graphs.get(t)
    if got is None:
        if len(graphs) > 200_000:
            graphs.clear()
        got = graphs[t] = Lts(t, env)
    return got
