import gc
import hashlib
import itertools
import weakref
from dataclasses import replace

import pytest

from conftest import explore, t
from hypothesis import given, strategies as st

from ccswb import lts as lts_module
from ccswb.lts import (Lts, Product, StateCapExceeded, cached_lts, can_ok, on_cycle, sccs,
                       transitions)
from ccswb.oracle import EnumSpec, enumerate_terms
from ccswb.preorders import KINDS, leq, leq_plus
from ccswb.syntax import (Action, Const, DIV, EMPTY_ENV, Env, NIL, OK, TAU, UNIT, Prefix, label_key, mk_sum,
                          parse_defs, pretty)
from ccswb.testing import find_counterexample, has_unsuccessful_maximal, must, must_sc
from ccswb.usability import usable

a, b, c, d = Action("a"), Action("b"), Action("c"), Action("d")

LTS_DOT_DIGEST = "dd8b8dbc361011cc001045e95c104f29617a635ecfc8fbf9683c1ff671b4bb07"
DOT_DIGEST = "af1dcab2105dfdabd0b40cee1c5400493433b9e4ea50aaaef52b27f36706ccf3"


def acc(term, trace):
    return cached_lts(term).acc(tuple(trace))


def acc_ut(term, trace):
    return cached_lts(term).acc_ut(tuple(trace))


def after(term, trace):
    lts = cached_lts(term)
    return {lts.terms[i] for i in lts.weak_after(tuple(trace))}


def after_ut(term, trace):
    lts = cached_lts(term)
    return {lts.terms[i] for i in lts.unsuccessful_after(tuple(trace))}


def test_one_step_transitions():
    assert transitions(t("1")) == frozenset({(OK, NIL)})
    assert transitions(t("a.1 + b.0")) == frozenset({(a, t("1")), (b, t("0"))})
    env, _ = parse_defs("def A = ~a.A")
    assert transitions(Const("A"), env) == frozenset({(a.complement(), Const("A"))})
    # a hand-built environment is not checked for guardedness: each constant
    # is unfolded once per call, so unguarded recursion still terminates
    env = Env((("A", mk_sum([Const("B"), Prefix(a, NIL)])), ("B", mk_sum([Const("A"), Prefix(b, UNIT)]))))
    assert transitions(Const("A"), env) == frozenset({(a, NIL), (b, UNIT)})


def test_closures_return_their_input_when_they_add_nothing():
    lts = Lts(t("b.1 + tau.a.0"), Env())  # a fresh state table: nothing memoized yet
    root, a0, one = (lts.terms.index(t(text)) for text in ("b.1 + tau.a.0", "a.0", "1"))
    stable = frozenset({a0})
    assert lts.tau_closure(stable) is stable and lts.unsuccessful_closure(stable) is stable
    assert lts.tau_closure(frozenset({root})) == {root, a0}
    # as many states as the input, but not the same ones: the ok state is dropped
    mixed = frozenset({root, one})
    assert lts.unsuccessful_closure(mixed) == {root, a0}
    # equal ready sets are one object within a graph
    lts = Lts(t("tau.a.0 + c.a.1"))
    a0, a1 = lts.terms.index(t("a.0")), lts.terms.index(t("a.1"))
    assert lts.ready[a0] == {a} and lts.ready[a0] is lts.ready[a1]


def test_can_ok():
    assert can_ok(t("1 + b.0"))
    assert not can_ok(t("a.1"))
    assert not can_ok(t("tau.1"))


def test_build_lts_sizes():
    lts = Lts(t("a.b.0"))
    assert (len(lts), lts.n_edges()) == (3, 2)
    env, _ = parse_defs("def A = ~a.A")
    lts = Lts(Const("A"), env)
    assert (len(lts), lts.n_edges()) == (1, 1)
    lts = Lts(t("div"))
    assert (len(lts), lts.n_edges()) == (1, 1)


def test_state_cap():
    env = Env(state_cap=3)
    with pytest.raises(StateCapExceeded):
        Lts(t("a.b.c.d.0"), env)
    # each graph has 3 states, their interleaving 9
    chain = t("tau.tau.0")
    left, right = cached_lts(chain, env), cached_lts(chain, env)
    assert len(left) == len(right) == 3
    with pytest.raises(StateCapExceeded):
        explore(Product(left, right))


def test_state_cap_bounds_the_states_a_search_builds():
    env = Env(state_cap=3)
    # the client succeeds at the root, so the search builds one state of nine
    assert must(t("tau.tau.0"), t("1 + tau.tau.0"), env).holds
    # every one of the nine states is unsuccessful and must be searched
    with pytest.raises(StateCapExceeded):
        must(t("tau.tau.0"), t("tau.tau.0"), env)
    # the server side never succeeds, so its search needs all nine
    with pytest.raises(StateCapExceeded):
        must_sc(t("tau.tau.0"), t("1 + tau.tau.0"), env)
    # the search expands no state where the client has succeeded
    product = Product(cached_lts(t("~a.tau.tau.0")), cached_lts(t("a.1")))
    assert find_counterexample(product, symmetric=False) is None and len(product) == 2


def test_product_expands_on_demand():
    p = Product(cached_lts(t("~a.0 + tau.0")), cached_lts(t("a.1")))
    assert len(p) == 1 and p.built == {p.root} and p.pair(p.root) == (p.left_lts.root, p.right_lts.root)
    assert len(p.succ(p.root)) == 2 and len(p) == 3
    assert explore(p) is p and len(p) == 3


def test_compose_examples():
    p = explore(Product(cached_lts(t("~a.0")), cached_lts(t("a.1"))))
    assert len(p) == 2 and p.succ(p.root) and p.flags(p.succ(p.root)[0])[1] and not p.flags(p.root)[1]
    p = explore(Product(cached_lts(t("0")), cached_lts(t("tau.0"))))
    assert len(p) == 2 and len(p.succ(p.root)) == 1
    p = Product(cached_lts(t("~b.0")), cached_lts(t("a.0")))
    assert not p.succ(p.root)


def test_compose_is_symmetric_up_to_swap(small_corpus):
    for left, right in itertools.islice(zip(small_corpus, reversed(small_corpus)), 40):
        pq = explore(Product(cached_lts(left), cached_lts(right)))
        qp = explore(Product(cached_lts(right), cached_lts(left)))
        assert len(pq) == len(qp)
        remap = {pq.pair(k): k for k in pq.built}
        for k in qp.built:
            i, j = qp.pair(k)
            m = remap[(j, i)]
            assert qp.flags(k)[0] == pq.flags(m)[1]
            assert qp.flags(k)[1] == pq.flags(m)[0]
            assert {tuple(reversed(qp.pair(x))) for x in qp.succ(k)} == \
                   {pq.pair(x) for x in pq.succ(m)}


def _dot_corpus(small_corpus):
    """Products of every small term with every third one, plus recursive
    pairs with tau loops and synchronising loops."""
    pairs = [(p, r, EMPTY_ENV) for p in small_corpus for r in small_corpus[::3]]
    env, _ = parse_defs("def P = tau.Q + tau.R + ~a.P\ndef Q = tau.P + b.1\ndef R = ~b.R + 1\n"
                        "def S = a.S + a.1 + tau.0")
    names = [Const(n) for n in ("P", "Q", "R", "S")]
    pairs += [(p, r, env) for p in names for r in names]
    return pairs


def test_product_dot_is_unchanged(small_corpus):
    """A digest of `to_dot` over a fixed corpus, pinned from the eager
    construction that the on-demand `Product` replaced: state numbering, flags and edge
    order are byte-identical."""
    digest = hashlib.sha256()
    for p, r, env in _dot_corpus(small_corpus):
        digest.update(Product(cached_lts(p, env), cached_lts(r, env)).to_dot().encode())
    assert digest.hexdigest() == DOT_DIGEST


def test_lts_dot_is_unchanged(small_corpus):
    """A digest of each graph's `to_dot`, state count and edge count over
    the terms and definitions of `_dot_corpus`: state numbering, flags and
    edge order are byte-identical to the graphs that kept an edge list."""
    digest = hashlib.sha256()
    graphs = dict.fromkeys((x, env) for p, r, env in _dot_corpus(small_corpus) for x in (p, r))
    for x, env in graphs:
        lts = Lts(x, env)
        digest.update(f"{lts.to_dot()}\n{len(lts)} {lts.n_edges()}\n".encode())
    assert digest.hexdigest() == LTS_DOT_DIGEST


def test_weak_after():
    assert after(t("tau.a.b.0 + tau.a.c.0"), [a]) == {t("b.0"), t("c.0")}
    assert t("a.1") in after(t("a.1"), [])
    assert after(t("a.1"), [b]) == set()


def test_weak_after_empty_trace_is_tau_closure(small_corpus):
    for term in small_corpus:
        lts = cached_lts(term)
        assert lts.weak_after(()) == lts.tau_closure(frozenset({lts.root}))
        assert lts.unsuccessful_after(()) <= lts.weak_after(())


def test_unsuccessful_after():
    assert after_ut(t("c.(a.1 + b.0)"), [c, b]) == {NIL}
    assert after_ut(t("a.1"), [a]) == set()
    # all runs of the four-level term, by hand: after b the endpoints reached
    # without touching a success-capable state are the branch point itself and
    # the a.tau.1 continuation; 1 + a.0 can report success and is excluded
    term = t("b.(tau.(1 + a.0) + tau.a.tau.1)")
    assert after_ut(term, [b]) == {t("tau.(1 + a.0) + tau.a.tau.1"), t("a.tau.1")}
    stable = {s for s in after_ut(term, [b]) if not cached_lts(term).taus[cached_lts(term).terms.index(s)]}
    assert stable == {t("a.tau.1")}


def test_converges():
    assert not cached_lts(t("div")).converges()
    assert cached_lts(t("tau.tau.0")).converges()
    assert not cached_lts(t("1 + div")).converges()


def test_converges_along():
    assert not cached_lts(t("a.(div + b.1)")).converges_along((a,))
    assert cached_lts(t("a.(b.d.0 + b.1)")).converges_along((a, c))
    assert cached_lts(t("tau.a.1")).converges_along(())


def test_converges_along_prefix_closure(small_corpus):
    traces = [(), (a,), (b,), (a, b), (a, a)]
    for term in small_corpus[:50]:
        lts = cached_lts(term)
        for s in traces:
            if lts.converges_along(s):
                for k in range(len(s)):
                    assert lts.converges_along(s[:k])


def test_acceptance_sets():
    assert acc(t("tau.a.b.0 + tau.a.c.0"), [a]) == {frozenset({b}), frozenset({c})}
    assert acc_ut(t("b.a.1"), [b]) == {frozenset({a})}
    assert frozenset({c}) in acc(t("b.(c.0 + 1)"), [b])
    assert acc_ut(t("b.(c.0 + 1)"), [b]) == frozenset()
    assert acc_ut(t("c.(a.1 + b.0)"), [c]) == {frozenset({a, b})}


def test_acc_ut_members_within_acc(small_corpus):
    traces = [(), (a,), (b,), (a, b)]
    for term in small_corpus:
        lts = cached_lts(term)
        for s in traces:
            assert lts.acc_ut(s) <= lts.acc(s)


def test_diverges_unsuccessfully():
    assert cached_lts(t("div")).diverges_unsuccessfully()
    assert not cached_lts(t("1 + div")).diverges_unsuccessfully()
    assert not cached_lts(t("tau.(1 + div)")).diverges_unsuccessfully()


def test_dot_export():
    dot = cached_lts(t("a.1 + b.0")).to_dot()
    assert "doublecircle" in dot and "digraph" in dot
    product = Product(cached_lts(t("~a.0")), cached_lts(t("a.1")))
    assert "||" in product.to_dot()


@st.composite
def digraphs(draw):
    """Digraphs on 0..n-1 for n <= 12, self-loops included."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.sets(st.tuples(node, node), max_size=40)) if n else set()
    return n, {v: sorted(w for u, w in edges if u == v) for v in range(n)}


def _reach(succ, v):
    """Nodes reachable from v in at least one step."""
    seen: set = set()
    stack = list(succ[v])
    while stack:
        w = stack.pop()
        if w not in seen:
            seen.add(w)
            stack.extend(succ[w])
    return seen


@given(digraphs())
def test_graph_kernel_matches_brute_force(graph):
    n, succ = graph
    reach = {v: _reach(succ, v) for v in range(n)}
    assert on_cycle(range(n), succ.__getitem__) == {v for v in range(n) if v in reach[v]}
    comps = sccs(range(n), succ.__getitem__)
    classes = {frozenset({v} | {w for w in reach[v] if v in reach[w]}) for v in range(n)}
    assert sorted(map(sorted, comps)) == sorted(map(sorted, classes))
    # each component comes after every component it reaches
    position = {v: i for i, comp in enumerate(comps) for v in comp}
    assert all(position[w] <= position[v] for v in range(n) for w in succ[v])
    if n:
        assert {v for comp in sccs([0], succ.__getitem__) for v in comp} == {0} | reach[0]


def test_graph_kernel_does_not_recurse():
    n = 10_000
    succ = [[i + 1] for i in range(n - 1)] + [[n - 10]]
    assert on_cycle([0], succ.__getitem__) == set(range(n - 10, n))
    assert len(sccs([0], succ.__getitem__)) == n - 9


def test_tau_cycle_sets():
    env, _ = parse_defs("def A = tau.B + a.A\ndef B = tau.A + 1\ndef C = tau.C + tau.A")
    lts = Lts(Const("C"), env)
    named = lambda states: {pretty(lts.terms[i]) for i in states}
    states = frozenset(lts.states)
    assert named(lts.on_tau_cycle(states, False)) == {"A", "B", "C"}
    assert named(lts.on_tau_cycle(states, True)) == {"C"}
    assert not lts.converges() and lts.diverges_unsuccessfully()


def test_finite_terms_find_tau_cycles_without_a_component_search(monkeypatch):
    # a term with no constant moves by tau only to proper subterms, but div
    # to itself, so its states on a tau cycle of either kind are its div states
    corpus = list(itertools.islice(enumerate_terms(EnumSpec(("a",), 2, allow_div=True, max_width=2)), 3000))
    pairs = list(zip(corpus[::37], corpus[1::37]))
    expected = []
    for term in corpus:
        g = Lts(term, Env())
        nonok = [i for i in g.states if not g.ok[i]]
        found = (on_cycle(g.states, g.taus.__getitem__),
                 on_cycle(nonok, lambda i: [j for j in g.taus[i] if not g.ok[j]]))
        assert found[0] == found[1] == {i for i in g.states if g.terms[i] is DIV}
        expected.append([{g.terms[i] for i in ids} for ids in found])
    verdicts = [leq_plus(kind, p, q, Env()).to_json() for kind in KINDS for p, q in pairs]
    searches = []
    monkeypatch.setattr(lts_module, "sccs", lambda *args: searches.append(args) or sccs(*args))
    env = Env()  # one table for the corpus
    for term, cyclic in zip(corpus, expected):
        g = Lts(term, env)
        states = frozenset(g.states)
        assert [{g.terms[i] for i in g.on_tau_cycle(states, kind)} for kind in (False, True)] == cyclic
    assert [leq_plus(kind, p, q, Env()).to_json() for kind in KINDS for p, q in pairs] == verdicts
    assert searches == []


def test_visible_edges_are_kept_in_label_order(small_corpus):
    """`Product` reads each `Lts.vis[i]` in this order without re-sorting it."""
    for term in small_corpus + [t("c.0 + ~b.0 + tau.a.0 + ~a.(b.0 + ~c.0 + a.1) + b.1 + a.0")]:
        lts = cached_lts(term)
        for i in lts.states:
            assert list(lts.vis[i]) == sorted(lts.vis[i], key=label_key)


def test_cached_lts_keys_environments_by_identity():
    # a lookup reads the environment's own table and never hashes its
    # definition bodies
    calls = []

    class CountingNil(type(NIL)):
        def __hash__(self):
            calls.append(1)
            return 0

    env = Env((("P", CountingNil()),))
    for _ in range(100):
        cached_lts(NIL, env)
    assert calls == []


def test_clearing_the_graph_table_starts_a_fresh_state_table():
    env = Env()
    p, q = t("a.(b.1 + tau.0)"), t("~a.~b.0 + tau.~a.0")
    old = cached_lts(p, env)
    table = old.table
    env.graphs.update(dict.fromkeys(range(200_001)))  # past the bound: the next miss clears
    server = cached_lts(q, env)
    assert list(env.graphs.values()) == [server] and env.table is server.table is not table
    new = cached_lts(p, env)
    assert new is not old and new.table is env.table and old.table is table
    assert [new.terms[i] for i in new.states] == [old.terms[i] for i in old.states]
    # views of the two tables still compose: each reads its own table's rows
    assert Product(server, old).width == len(table.terms)
    assert has_unsuccessful_maximal(server, old) is has_unsuccessful_maximal(server, new) is True
    assert explore(Product(server, old)).to_dot() == explore(Product(server, new)).to_dot()


class _Tracked(dict):
    """A memo table a weakref can follow; a table `setdefault` makes in it is
    one too."""

    def setdefault(self, key, default=None):
        return super().setdefault(key, _Tracked(default) if type(default) is dict else default)


def test_graphs_live_and_die_with_their_environment():
    env = replace(parse_defs("def P = a.P + tau.b.0\ndef Q = a.Q + b.0 + tau.Q\n")[0], state_cap=50)
    graph = weakref.ref(cached_lts(Const("P"), env))
    assert graph() is env.graphs[Const("P")] and graph().cap == 50
    table = env.table
    memos = ("tau_closures", "unsuccessful_closures", "usable_memo", "usable_witnesses", "sides")
    for name in memos:
        setattr(table, name, _Tracked())
    # walks leave side records in the environment's state table, one side
    # table per walk plan, and usability its witnesses
    for kind in KINDS:
        for left, right in ((Const("P"), Const("Q")), (Const("Q"), Const("P"))):
            leq(kind, left, right, env, bound=4)
    assert usable(mk_sum([Prefix(a, Const("P")), Prefix(b, UNIT)]), env, depth=3).usable
    walked = [weakref.ref(g) for g in env.graphs.values()]  # P, Q, the client and its witness
    assert len(walked) == 4 and all(g().table is table for g in walked)
    plans = list(table.sides.values())
    assert len(plans) == 3 and all(plans) and all(getattr(table, name) for name in memos)
    kept = [weakref.ref(x) for x in [table, *map(table.__getattribute__, memos), *plans]]
    del table, plans
    capped = replace(env, state_cap=7)
    assert capped.graphs == {} and capped.table is None and capped.state_cap == 7
    was_enabled = gc.isenabled()
    gc.disable()  # the graphs and the state table must go by reference counting alone
    try:
        del env, capped
        assert graph() is None and all(g() is None for g in walked)
        assert all(x() is None for x in kept)
    finally:
        if was_enabled:
            gc.enable()
