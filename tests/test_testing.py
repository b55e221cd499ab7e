import importlib.util
import itertools
import os
import random

import pytest
from hypothesis import given, settings

from conftest import FINITE_TERMS, explore, t
from test_concurrency import _SERVERS, _recursive_client
from ccswb import lts, testing
from ccswb.lts import Lts, Product, StateCapExceeded, cached_lts, on_cycle
from ccswb.oracle import EnumSpec, enumerate_terms, pass_table
from ccswb.preorders import KINDS, passes_graph
from ccswb.syntax import Const, parse_defs
from ccswb.testing import (
    STEP_BOUND,
    BoundExceeded,
    NotAcyclic,
    client_successful,
    enumerate_computations,
    find_unsuccessful_maximal,
    has_unsuccessful_maximal,
    must,
    must_by_enumeration,
    must_sc,
    must_sc_by_enumeration,
    successful,
)


def test_must_section1():
    p = t("tau.a.(b.0 + c.0) + tau.a.c.0")
    q = t("tau.a.b.0 + tau.a.c.0")
    r = t("~a.~c.1")
    assert must(p, r).holds
    v = must(q, r)
    assert not v.holds and v.evidence.shape == "deadlock"
    # the shortest unhappy run gets stuck with the client wanting ~c
    assert v.evidence.pretty_path()[-1] == ("b.0", "~c.1")


def test_must_footnote():
    assert must(t("0"), t("~b.0 + tau.1")).holds
    assert not must(t("b.0"), t("~b.0 + tau.1")).holds


def test_must_lasso():
    assert must(t("1 + div"), t("1 + tau.a.1")).holds
    v = must(t("1 + div"), t("tau.(1 + a.1) + tau.a.1"))
    assert not v.holds and v.evidence.shape == "lasso"
    ce = v.evidence
    assert ce.path[ce.loop_start] == ce.path[-1]


def test_must_sc_examples():
    assert must_sc(t("1 + b.0"), t("~b.1")).holds
    assert not must_sc(t("1"), t("~b.1")).holds
    assert must_sc(t("~a.1"), t("f.1 + a.1")).holds
    assert not must_sc(t("~a.1"), t("f.1 + 1")).holds


def test_trivial_success(small_corpus):
    client = t("1 + a.0")
    for server in small_corpus[:60]:
        assert must(server, client).holds


def test_evidence_replays_through_the_product(small_corpus):
    rng = random.Random(4)
    pairs = [(small_corpus[rng.randrange(len(small_corpus))],
              small_corpus[rng.randrange(len(small_corpus))]) for _ in range(150)]
    for server, client in pairs:
        v = must(server, client)
        if v.holds:
            continue
        ce = v.evidence
        product = ce.product
        assert ce.path[0] == product.root
        for here, there in zip(ce.path, ce.path[1:]):
            assert there in product.succ(here)
        assert not any(product.flags(k)[1] for k in ce.path)
        if ce.shape == "deadlock":
            assert not product.succ(ce.path[-1])
        else:
            assert ce.path[ce.loop_start] == ce.path[-1]


def _search(product, side):
    """A search's evidence, with states named by their component states,
    which do not depend on the order the product was built in."""
    ce = find_unsuccessful_maximal(product, side)
    if ce is None:
        return None
    return [product.pair(k) for k in ce.path], ce.shape, ce.loop_start


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FINITE_TERMS, FINITE_TERMS)
def test_lazy_search_matches_the_explored_product(p, r):
    left, right = cached_lts(p), cached_lts(r)
    explored = explore(Product(left, right))
    want = {side: _search(explored, side) for side in ("right", "left")}
    for side in ("right", "left"):
        lazy = Product(left, right)
        assert _search(lazy, side) == want[side]
        assert len(lazy) <= len(explored)
    # mustSC runs the left search on the product the right search started
    shared = Product(left, right)
    assert [_search(shared, side) for side in ("right", "left")] == [want["right"], want["left"]]


# ---------------------------------------------------------------------------
# the code-keyed search finds what a search over a dense product numbering finds
# ---------------------------------------------------------------------------


class _DenseProduct:
    """The product as it was once built: each pair interned into a dense
    number as it is first seen, with each expanded state's successors kept
    as a row of numbers."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.cap = min(left.cap, right.cap)
        self.states, self.index, self.rows = [], {}, []
        self.root = self.intern((left.root, right.root))

    def intern(self, pair):
        k = self.index.get(pair)
        if k is None:
            if len(self.states) >= self.cap:
                raise StateCapExceeded(self.cap)
            k = self.index[pair] = len(self.states)
            self.states.append(pair)
            self.rows.append(None)
        return k

    def succ(self, k):
        if self.rows[k] is None:
            w = len(self.right.terms)
            i, j = self.states[k]
            codes = lts.moves(self.left, self.right, i * w + j, w)
            self.rows[k] = tuple(dict.fromkeys(self.intern(divmod(c, w)) for c in codes))
        return self.rows[k]

    def __len__(self):
        return len(self.states)


def _reference_search(product, side):
    """Breadth-first search of the unsuccessful region for the nearest
    deadlock; without one, the first cyclic state visited by `on_cycle` is
    the lasso entry c, and a second breadth-first search from c inside the
    cyclic states finds the shortest loop.  Same result shape as `_search`."""
    side_of = 1 if side == "right" else 0
    graph = product.right if side == "right" else product.left
    won = lambda k: graph.ok[product.states[k][side_of]]
    succ, root = product.succ, product.root
    if won(root):
        return None

    def bfs(start, within, goal):
        parent, order = {start: start}, [start]
        for k in order:
            if goal(k):
                return order, parent, k
            for k2 in succ(k):
                if k2 not in parent and within(k2):
                    parent[k2] = k
                    order.append(k2)
        return order, parent, None

    def path(parent, k):
        out = [k]
        while parent[out[-1]] != out[-1]:
            out.append(parent[out[-1]])
        return out[::-1]

    order, parent, dead = bfs(root, lambda k: not won(k), lambda k: not succ(k))
    if dead is not None:
        return [product.states[k] for k in path(parent, dead)], "deadlock", None
    cyclic = on_cycle(order, lambda k: [k2 for k2 in succ(k) if not won(k2)])
    c = next((k for k in order if k in cyclic), None)
    if c is None:
        return None
    entry = path(parent, c)
    _, back, last = bfs(c, cyclic.__contains__, lambda k: c in succ(k))
    loop = entry + path(back, last)[1:] + [c]
    return [product.states[k] for k in loop], "lasso", len(entry) - 1


def _both_sides(product, search):
    """mustSC's two searches on one product: each side's evidence and the
    states built after it, or "cap" where the cap stops a search."""
    out = []
    for side in ("right", "left"):
        try:
            out.append((search(product, side), len(product)))
        except StateCapExceeded:
            return out + ["cap"]
    return out


def _assert_matches_the_reference(left, right, caps=()):
    assert _both_sides(Product(left, right), _search) == _both_sides(
        _DenseProduct(left, right), _reference_search)
    # the right side alone is the first of `_both_sides`
    assert _search(Product(left, right), "left") == _reference_search(_DenseProduct(left, right), "left")
    for cap in caps:
        product, dense = Product(left, right), _DenseProduct(left, right)
        product.cap = dense.cap = cap
        assert _both_sides(product, _search) == _both_sides(dense, _reference_search), cap


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FINITE_TERMS, FINITE_TERMS)
def test_search_matches_the_dense_reference(p, r):
    left, right = cached_lts(p), cached_lts(r)
    size = len(explore(Product(left, right)))
    _assert_matches_the_reference(left, right, caps=range(1, size + 1))


def test_search_matches_the_dense_reference_on_protocol_files():
    gen = _load_gen()
    cases = [case for case in range(0, gen.POOL, 5)
             if gen.COMMANDS[case % len(gen.COMMANDS)] in ("must", "mustsc")]
    shapes = set()
    for case in cases:
        text, args = gen.protocol_case(case)
        env, _ = parse_defs(text)
        left, right = cached_lts(Const(args[2]), env), cached_lts(Const(args[4]), env)
        _assert_matches_the_reference(left, right)
        ce = find_unsuccessful_maximal(Product(left, right), "right")
        shapes.add(ce and ce.shape)
    assert len(cases) == 40 and shapes == {None, "deadlock", "lasso"}


def test_enumerate_computations_single_sync():
    product, paths = enumerate_computations(t("~a.0"), t("a.1"))
    assert len(paths) == 1
    assert client_successful(product, paths[0])


def test_enumerate_computations_two_interleavings():
    product, paths = enumerate_computations(t("~a.0 + ~b.0"), t("a.1 + b.0"))
    assert len(paths) == 2
    assert sorted(client_successful(product, p) for p in paths) == [False, True]
    assert not must_by_enumeration(t("~a.0 + ~b.0"), t("a.1 + b.0"))


def test_enumeration_guards():
    with pytest.raises(NotAcyclic):
        enumerate_computations(t("div"), t("a.1"))
    # a run of STEP_BOUND steps is walked, one step more is refused
    _, paths = enumerate_computations(t("tau." * STEP_BOUND + "0"), t("0"))
    assert [len(p) for p in paths] == [STEP_BOUND + 1]
    with pytest.raises(BoundExceeded):
        enumerate_computations(t("tau." * (STEP_BOUND + 1) + "0"), t("0"))


def test_oracle_agrees_with_lasso_algorithm(small_corpus):
    rng = random.Random(9)
    checked = 0
    for _ in range(400):
        server = small_corpus[rng.randrange(len(small_corpus))]
        client = small_corpus[rng.randrange(len(small_corpus))]
        try:
            expected = must_by_enumeration(server, client)
            expected_sc = must_sc_by_enumeration(server, client)
        except NotAcyclic:
            continue
        checked += 1
        assert must(server, client).holds == expected
        assert must_sc(server, client).holds == expected_sc
    assert checked > 200


def test_must_with_recursive_definitions():
    env, _ = parse_defs("def A = ~a.A\ndef S = a.S")
    # a finite client is driven to success through the loop
    assert must(Const("A"), t("a.a.1"), env).holds
    # two loops synchronize forever without success: a lasso refutation
    v = must(Const("A"), Const("S"), env)
    assert not v.holds and v.evidence.shape == "lasso"
    # the divergent server never blocks an immediately successful client
    assert must(t("div"), t("1 + a.0"), env).holds
    assert not must(t("div"), t("tau.1"), env).holds


def test_must_sc_decomposes(small_corpus):
    rng = random.Random(17)
    for _ in range(300):
        p = small_corpus[rng.randrange(len(small_corpus))]
        r = small_corpus[rng.randrange(len(small_corpus))]
        assert must_sc(p, r).holds == (must(p, r).holds and must(r, p).holds)


_LOOPS = "def P = tau.Q + tau.R\ndef Q = tau.Q2\ndef Q2 = tau.P\ndef R = tau.P"


@pytest.mark.parametrize("server, client, expected", [
    # the root itself is a deadlock
    ("a.0", "b.1",
     {"shape": "deadlock", "states": [["a.0", "b.1"]]}),
    # the deadlock is one and two tau steps away; the shorter path is reported
    ("tau.tau.0 + tau.0", "a.1",
     {"shape": "deadlock", "states": [["tau.0 + tau.tau.0", "a.1"], ["0", "a.1"]]}),
    # a lasso that closes on a self-loop
    ("tau.div", "a.1",
     {"shape": "lasso", "states": [["tau.div", "a.1"], ["div", "a.1"], ["div", "a.1"]],
      "loop_start": 1}),
    # P's first successor Q returns in three steps, its second R in two
    ("P", "0",
     {"shape": "lasso", "states": [["P", "0"], ["R", "0"], ["P", "0"]], "loop_start": 0}),
    ("P", "tau.1",
     {"shape": "lasso", "states": [["P", "tau.1"], ["R", "tau.1"], ["P", "tau.1"]],
      "loop_start": 0}),
])
def test_must_evidence_is_pinned(server, client, expected):
    env, _ = parse_defs(_LOOPS)
    p = Const(server) if server in env else t(server)
    want = {"holds": False, "evidence": expected}
    assert must(p, t(client), env).to_json() == want
    assert must_sc(p, t(client), env).to_json() == want


def test_must_sc_left_evidence_is_pinned():
    assert must_sc(t("~b.0"), t("b.1")).to_json() == {
        "holds": False,
        "evidence": {"shape": "deadlock", "states": [["~b.0", "b.1"], ["0", "1"]]},
    }


# ---------------------------------------------------------------------------
# the verdict search decides what the evidence search finds
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tau cycles through several states, with and without success on them
_TAU_CYCLES = _LOOPS + "\ndef D = tau.D + a.1\ndef E = tau.F + ~a.E\ndef F = tau.E + 1 + b.0"


def _assert_verdicts_agree(graphs) -> int:
    """On both sides of every ordered pair, the verdict search answers
    whether the evidence search finds a maximal unsuccessful computation:
    the left side's question is the right side's with the graphs swapped.
    Returns how many of the cases fail."""
    fails = 0
    for server in graphs:
        for client in graphs:
            for side, pair in (("right", (server, client)), ("left", (client, server))):
                want = find_unsuccessful_maximal(Product(server, client), side) is not None
                assert has_unsuccessful_maximal(*pair) == want, (
                    server.terms[server.root], client.terms[client.root], side)
                fails += want
    return fails


def test_verdict_search_agrees_on_finite_terms_and_tau_cycles():
    env, names = parse_defs(_TAU_CYCLES)
    spec = EnumSpec(("a", "b"), 2, allow_div=True, max_width=2)
    pool = list(itertools.islice(enumerate_terms(spec), 3000))
    terms = random.Random(16).sample(pool, 60) + [t("div"), t("tau.div + a.1")]
    graphs = [cached_lts(x, env) for x in terms + [Const(n) for n in names]]
    assert 0 < _assert_verdicts_agree(graphs) < 2 * len(graphs) ** 2


def test_verdict_search_agrees_on_recursive_definitions():
    env, names = parse_defs(_recursive_client() + "\n" + _SERVERS)
    graphs = [cached_lts(Const(n), env) for n in names]
    assert 0 < _assert_verdicts_agree(graphs) < 2 * len(graphs) ** 2


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_verdict_search_agrees_on_protocol_files():
    gen = _load_gen()
    fails = []
    # recorded for `ccswb must -s S0 -c C0`: two lassos, two deadlocks and a pass
    for case in (0, 1, 6, 7, 24):
        env, _ = parse_defs(gen.protocol_case(case)[0])
        fails.append(_assert_verdicts_agree([cached_lts(Const(n), env) for n in ("S0", "T0", "C0", "D0")]))
    assert 0 < sum(fails) < len(fails) * 2 * 4 ** 2


def test_passes_graph_answers_alike_from_a_row_miss_and_a_row_hit(small_corpus):
    for kind in KINDS:
        # a fresh environment per kind: fresh graphs with empty rows
        env, names = parse_defs(_TAU_CYCLES)
        graphs = [cached_lts(x, env) for x in small_corpus[::4] + [Const(n) for n in names]]
        first = [passes_graph(kind, p, q) for p in graphs for q in graphs]
        assert [passes_graph(kind, p, q) for p in graphs for q in graphs] == first
        assert any(first) and not all(first)
        # the evidence search gives the same answers
        role = {"svr": lambda p, q: must(p, q, env), "clt": lambda p, q: must(q, p, env),
                "p2p": lambda p, q: must_sc(p, q, env)}[kind]
        terms = [g.terms[g.root] for g in graphs]
        assert [role(p, q).holds for p in terms for q in terms] == first


def test_the_peer_table_reads_the_server_and_client_cells(small_corpus, monkeypatch):
    # a peer passes a test when it passes as a server and as a client, so
    # after those two tables every cell of the peer table is known
    env, names = parse_defs(_TAU_CYCLES)
    terms = small_corpus[::4] + [Const(n) for n in names]
    tests = small_corpus[1::5] + [Const(n) for n in names]
    svr, clt = (pass_table(kind, terms, tests, env) for kind in ("svr", "clt"))
    searches = []
    monkeypatch.setattr(testing, "has_unsuccessful_maximal", lambda *pair: searches.append(pair))
    p2p = pass_table("p2p", terms, tests, env)
    assert not searches
    assert p2p == {x: svr[x] & clt[x] for x in terms} and any(p2p.values())


def test_verdict_rows_stay_small_at_large_serials(small_corpus, monkeypatch):
    # a row is a dict of 64-bit words keyed by serial // 32, so a store
    # copies one word however many graphs the process has built before
    def verdicts(start):
        monkeypatch.setattr(lts, "_SERIALS", itertools.count(start))
        env, names = parse_defs(_TAU_CYCLES)
        graphs = [Lts(x, env) for x in small_corpus[::4] + [Const(n) for n in names]]
        return graphs, [passes_graph(kind, p, q) for kind in KINDS for p in graphs for q in graphs]

    _, first = verdicts(0)
    graphs, again = verdicts(10**9)
    assert again == first and any(first) and not all(first)
    assert min(g.serial for g in graphs) == 10**9
    words = [w for g in graphs for w in g.row.values()]
    assert words and all(0 < w < 1 << 64 for w in words)
