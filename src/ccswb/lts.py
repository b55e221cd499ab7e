"""Operational semantics: transition graphs, weak closures, acceptance sets,
convergence and divergence predicates, and the parallel test composition."""
from __future__ import annotations

import itertools
import sys
import threading
from typing import Callable, Hashable, Iterable, Optional, TypeVar

from .syntax import (
    DIV,
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
_NO_STATES: frozenset[int] = frozenset()  # shared by every graph with no cycle of a kind


def _edge_key(edge: tuple[Label, Term]) -> tuple:
    return label_key(edge[0]), term_key(edge[1])


class StateTable:
    """The states of one environment, of which every graph built under it is
    a view (the implicit graph with one state table of OPEN/CÆSAR, Garavel
    1998).  A term is interned once, as its position in `terms`; its rows
    `ok`, `taus` (tau successors in term order), `vis` (visible successors
    per action, in label order) and `ready` stay None until an exploration
    first reaches it, which fills them, once, under `lock`.

    A state's moves, and a set's closures, usability and walk side records,
    depend only on the terms and the environment, never on the root that
    reached them, so the memo tables are keyed by sets of ids and shared by
    every graph of the table.  They fill idempotently, from any thread.  The
    table holds neither a graph nor its environment."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.index: dict[Term, int] = {}
        self.terms: list[Term] = []
        self.ok: list = []
        self.taus: list = []
        self.vis: list = []
        self.ready: list = []
        self.readies: dict[frozenset[Action], frozenset[Action]] = {}  # one object per ready set
        self.tau_closures: dict[frozenset[int], frozenset[int]] = {}
        self.unsuccessful_closures: dict[frozenset[int], frozenset[int]] = {}
        self.usable_memo: dict = {}  # closed set -> what `usability.usable_set` knows of it
        self.usable_witnesses: dict = {}  # (closed set, depth) -> `usability.usable_witness`
        self.sides: dict = {}  # walk plan -> its side records (`preorders._Side`) by key

    def explore(self, root: Term, env: Env, cap: int) -> list[int]:
        """The ids of the states reachable from `root`, in root-local
        breadth-first order with successors in edge order: taus, ok, then
        the visible moves.  A state's rows are filled the first time any
        exploration reaches it.  More than `cap` states raise
        `StateCapExceeded`."""
        index, terms, ok, taus, vis, ready = self.index, self.terms, self.ok, self.taus, self.vis, self.ready
        with self.lock:
            i = index.get(root)
            if i is None:
                i = index[root] = len(terms)
                terms.append(root)
                ok.append(None)
                taus.append(None)
                vis.append(None)
                ready.append(None)
            order, seen = [i], {i}
            for i in order:  # the order grows as states are found
                if taus[i] is None:
                    # fill the rows, meeting the successors in edge order
                    o, ts, vs = False, [], {}
                    for lab, tgt in sorted(transitions(terms[i], env), key=_edge_key):
                        j = index.get(tgt)
                        if j is None:
                            j = index[tgt] = len(terms)
                            terms.append(tgt)
                            ok.append(None)
                            taus.append(None)
                            vis.append(None)
                            ready.append(None)
                        if j not in seen:
                            if len(order) >= cap:
                                raise StateCapExceeded(cap)
                            seen.add(j)
                            order.append(j)
                        if lab is TAU:
                            ts.append(j)
                        elif lab is OK:
                            o = True
                        else:
                            vs.setdefault(lab, []).append(j)
                    ok[i] = o
                    vis[i] = {a: tuple(js) for a, js in vs.items()}
                    r = frozenset(vs)
                    ready[i] = self.readies.setdefault(r, r)
                    taus[i] = tuple(ts)
                    continue
                nxt = list(taus[i])
                if ok[i]:
                    nxt.append(index[NIL])  # every ok move ends in 0
                for js in vis[i].values():
                    nxt += js
                for j in nxt:
                    if j not in seen:
                        if len(order) >= cap:
                            raise StateCapExceeded(cap)
                        seen.add(j)
                        order.append(j)
            return order


_NEW_TABLE = threading.Lock()


def state_table(env: Env) -> StateTable:
    """The state table of `env`, made on first use."""
    table = env.table
    if table is None:
        with _NEW_TABLE:
            table = env.table
            if table is None:
                table = StateTable()
                object.__setattr__(env, "table", table)
    return table


class Lts:
    """Reachable transition graph of a term, as a root view of its
    environment's state table (`StateTable`): a state is an id of the table.
    `states` lists the ids reachable from the root, the root first, in
    root-local breadth-first order.  They are explored when the graph is
    made, and at most `cap`, the environment's state cap, are allowed.  The
    rows `terms`, `ok`, `taus`, `vis` and `ready` are the table's, indexed
    by id, and the closures are memoized in the table.  The graph keeps the
    cap and its table, and no reference to the environment.

    Constants are kept folded: a state is the term as written, and its moves
    come from unfolding the definition on demand.

    Each graph has a `serial`, never reused, and a verdict `row` that
    `testing.fails` fills.
    """

    def __init__(self, root_term: Term, env: Env = EMPTY_ENV):
        self.cap = env.state_cap
        self.table = table = state_table(env)
        self.serial = next(_SERIALS)
        self.row: dict[int, int] = {}
        self.states = table.explore(root_term, env, self.cap)
        self.root = self.states[0]
        self.terms, self.ok, self.taus, self.vis, self.ready = (
            table.terms, table.ok, table.taus, table.vis, table.ready)
        self._alphabet: Optional[frozenset[Action]] = None
        self._sorted_alphabet: Optional[tuple[Action, ...]] = None
        self._tau_cyclic: Optional[frozenset[int]] = None
        self._nonok_cyclic: Optional[frozenset[int]] = None

    # -- basic views ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.states)

    def n_edges(self) -> int:
        ok, taus, vis = self.ok, self.taus, self.vis
        return sum(ok[i] + len(taus[i]) + sum(map(len, vis[i].values())) for i in self.states)

    def stable(self, i: int) -> bool:
        return not self.taus[i]

    def alphabet(self) -> frozenset[Action]:
        """Visible actions occurring on any edge, computed on first use."""
        if self._alphabet is None:
            self._alphabet = frozenset().union(*map(self.vis.__getitem__, self.states))
        return self._alphabet

    def sorted_alphabet(self) -> tuple[Action, ...]:
        """The alphabet in label order, computed on first use."""
        if self._sorted_alphabet is None:
            self._sorted_alphabet = tuple(sorted(self.alphabet(), key=label_key))
        return self._sorted_alphabet

    # -- closures ---------------------------------------------------------

    def tau_closure(self, states: frozenset[int]) -> frozenset[int]:
        memo = self.table.tau_closures
        cached = memo.get(states)
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
        memo[states] = out
        return out

    def unsuccessful_closure(self, states: frozenset[int]) -> frozenset[int]:
        """Tau closure staying within non-ok states; ok-capable inputs are dropped."""
        memo = self.table.unsuccessful_closures
        cached = memo.get(states)
        if cached is not None:
            return cached
        ok = self.ok
        seen = {i for i in states if not ok[i]}
        stack = list(seen)
        while stack:
            for j in self.taus[stack.pop()]:
                if not ok[j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        out = states if seen == states else frozenset(seen)
        memo[states] = out
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

    def on_tau_cycle(self, states: frozenset[int], unsuccessful: bool) -> frozenset[int]:
        """The states of `states` on a cycle of tau moves, through non-ok
        states only when `unsuccessful`.  Each kind's cyclic states are found
        for the whole graph the first time it is asked, and a non-ok cycle
        is looked for among the states on a tau cycle alone, since it is
        one.  A racing thread finds the same set."""
        cyclic = self._tau_cyclic
        if cyclic is None:
            cyclic = self._tau_cyclic = self._cyclic(self.states, self.taus.__getitem__)
        if unsuccessful and cyclic:
            if self._nonok_cyclic is None:
                ok, taus = self.ok, self.taus
                self._nonok_cyclic = self._cyclic([i for i in cyclic if not ok[i]],
                                                  lambda i: [j for j in taus[i] if not ok[j]])
            cyclic = self._nonok_cyclic
        return states & cyclic

    def _cyclic(self, states: Iterable[int], succ: Callable[[int], Iterable[int]]) -> frozenset[int]:
        """The states of `states` that lie on a cycle of `succ` moves.  A term
        with no constant moves by tau only to proper subterms, but `div` to
        itself, so its state is on a cycle exactly when it is `div`; only
        states holding a constant with a tau move start an `on_cycle`
        search."""
        terms, taus = self.terms, self.taus
        out, roots = set(), []
        for i in states:
            term = terms[i]
            if term is DIV:
                out.add(i)
            elif term._depth < 0 and taus[i]:
                roots.append(i)
        if roots:
            out.update(on_cycle(roots, succ))
        return frozenset(out) if out else _NO_STATES

    def converges_state_set(self, states: frozenset[int]) -> bool:
        """No infinite tau run from any of the states."""
        return not self.on_tau_cycle(self.tau_closure(states), False)

    def converges(self) -> bool:
        return self.converges_state_set(frozenset({self.root}))

    def converges_along(self, s: Trace) -> bool:
        return all(self.converges_state_set(w) for w in self.residuals(s))

    def diverges_unsuccessfully(self) -> bool:
        """An infinite tau run all of whose states are non-ok."""
        return bool(self.on_tau_cycle(self.unsuccessful_closure(frozenset({self.root})), True))

    # -- rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        """The graph in Graphviz syntax, its states numbered in `states` order."""
        number = {i: n for n, i in enumerate(self.states)}
        nil = number.get(self.table.index.get(NIL))  # every ok move ends in 0
        lines = ["digraph lts {", "  rankdir=LR;"]
        for n, i in enumerate(self.states):
            shape = "doublecircle" if self.ok[i] else "circle"
            label = pretty(self.terms[i]).replace('"', '\\"')
            extra = " penwidth=2" if n == 0 else ""
            lines.append(f'  s{n} [shape={shape} label="{label}"{extra}];')
        for n, i in enumerate(self.states):
            # in label order: tau, ok, then the actions
            outs = [(TAU, number[j]) for j in self.taus[i]] + [(OK, nil)] * self.ok[i]
            outs += [(a, number[j]) for a, js in self.vis[i].items() for j in js]
            lines.extend(f'  s{n} -> s{m} [label="{lab}"];' for lab, m in outs)
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parallel composition of a pair (server/peer on the left, client/peer right)
# ---------------------------------------------------------------------------


def moves(left: Lts, right: Lts, k: int, w: int) -> list[int]:
    """The composition rule: the tau moves of the pair with code k, as
    successor codes: left taus, right taus, then synchronisations in the
    left graph's label order.  A pair can appear more than once.  The code
    of left state i and right state j is i * w + j, where the width w,
    fixed when a search starts, exceeds every right state's id."""
    i, j = divmod(k, w)
    nxt = []
    for i2 in left.taus[i]:
        nxt.append(i2 * w + j)
    k -= j
    for j2 in right.taus[j]:
        nxt.append(k + j2)
    rvis = right.vis[j]
    if rvis:
        for a, tis in left.vis[i].items():  # in label order, as `StateTable.explore` builds vis
            tjs = rvis.get(a._complement)
            if tjs:
                for i2 in tis:
                    i2 *= w
                    for j2 in tjs:
                        nxt.append(i2 + j2)
    return nxt


class Product:
    """Tau-edge graph of a parallel composition, as a view of its two graphs.

    A state is a pair code under the product's `width` (`moves`), and its
    edges are its `moves`.  `built` holds the codes built so far, the root
    and each expanded state's successors, up to the state cap, the smaller
    of the two graphs' caps.  A product is filled by the call that made it;
    only its graphs are shared.
    """

    def __init__(self, left: Lts, right: Lts):
        self.left_lts = left
        self.right_lts = right
        self.cap = min(left.cap, right.cap)
        self.width = len(right.terms)
        self.root = left.root * self.width + right.root
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
        return tuple(dict.fromkeys(self.build(moves(self.left_lts, self.right_lts, k, self.width))))

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
        return divmod(k, self.width)

    def flags(self, k: int) -> tuple[bool, bool]:
        """Whether the left and the right state of state k can report success."""
        i, j = self.pair(k)
        return self.left_lts.ok[i], self.right_lts.ok[j]

    def succeeded(self, side: str) -> Callable[[int], bool]:
        """Whether the `side` ("left" or "right") state of a code can report success."""
        left, right, w = self.left_lts, self.right_lts, self.width
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
    `env.graphs` until that table passes 200,000 graphs, when the state
    table goes too and the next graph starts a fresh one; sharing is safe
    because a graph is complete once built and its table's memos fill
    idempotently."""
    graphs = env.graphs
    got = graphs.get(t)
    if got is None:
        if len(graphs) > 200_000:
            graphs.clear()
            object.__setattr__(env, "table", None)
        got = graphs[t] = Lts(t, env)
    return got
