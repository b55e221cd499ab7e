"""Shared graphs and the normalizer under concurrent use.

Memo tables fill lazily and idempotently; no other state is shared between
calls, so two threads working on one graph or normalizing side by side must
see exactly the single-threaded answers.  A `Product` is filled by the call
that made it; only its `Lts` graphs are shared.  A tiny switch interval
makes the interpreter interleave the threads at almost every bytecode.
"""
import functools
import importlib.util
import itertools
import os
import sys
import threading
import time

import pytest

from conftest import t
from ccswb import syntax
from ccswb.equations import cnf_to_term, normalize_cnf, normalize_pnf_info, pnf_to_term
from ccswb.preorders import KINDS, leq, leq_plus
from ccswb.lts import Lts
from ccswb.oracle import EnumSpec, enumerate_terms, pass_table
from ccswb.syntax import Action, Const, Prefix, parse_defs, parse_term, pretty, subterms
from ccswb.testing import must, must_sc
from ccswb.usability import usable_set, usable_witness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACTIONS = ("a", "b", "c", "d")
N_CONSTS = 40


def _recursive_client() -> str:
    """Every state offers every co-action; a few states also move silently."""
    lines = []
    for i in range(N_CONSTS):
        parts = [f"~{a}.P{(3 * i + 7 * k + 1) % N_CONSTS}" for k, a in enumerate(ACTIONS)]
        if i % 9 == 4:
            parts.append(f"tau.P{(i + 5) % N_CONSTS}")
        if i % 13 == 5:
            parts.append("1")
        lines.append(f"def P{i} = " + " + ".join(parts))
    return "\n".join(lines)


@pytest.fixture()
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run_together(*jobs):
    """Run the jobs in one thread each; return their results or exceptions."""
    results = [None] * len(jobs)

    def runner(i, job):
        try:
            results[i] = job()
        except BaseException as exc:  # reported to the test thread
            results[i] = exc

    threads = [threading.Thread(target=runner, args=(i, job)) for i, job in enumerate(jobs)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    return results


def test_two_threads_intern_the_same_terms(fast_switching):
    # the unique table is shared: lookups that hit take no lock, while misses
    # and sweeps take one, so both threads must get the very same objects
    spec = EnumSpec(("a", "b"), 2, allow_div=True, max_width=2)
    texts = [pretty(term) for term in itertools.islice(enumerate_terms(spec), 20_000)]

    def build():
        out = []
        for i, text in enumerate(texts):
            out.append(parse_term(text))
            if i % 2_000 == 0:
                with syntax._LOCK:
                    syntax._sweep()
        return out

    first, second = _run_together(build, build)
    assert len(first) == len(second) == 20_000
    assert all(x is y for x, y in zip(first, second))
    assert [pretty(x) for x in first] == texts


def test_two_threads_parse_one_file_while_sweeps_run(fast_switching):
    # parsing leaves the bodies to their first lookup: both threads look up
    # every body of the same environments at once, so they build the same
    # new prefixes and sums together, while a third thread sweeps the unique
    # table: every body must be one object
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    text = gen.protocol_case(5)[0]
    # renamed copies, so each build makes terms no earlier one left behind
    texts = [text.replace("S", f"S{k}w").replace("C", f"C{k}w") for k in range(3)]
    parsed = [parse_defs(text) for text in texts]
    assert not any(env.defs.bodies for env, _ in parsed)
    sweeping = threading.Event()
    finished = []

    def build():
        assert sweeping.wait(timeout=60)
        try:
            return [[env.lookup(name) for name in names] for env, names in parsed]
        finally:
            finished.append(True)

    def sweep():
        sweeps = 0
        sweeping.set()
        while len(finished) < 2:
            with syntax._LOCK:
                syntax._sweep()
            sweeps += 1
            time.sleep(1e-3)  # let the builders reach the lock between sweeps
        return sweeps

    first, second, sweeps = _run_together(build, build, sweep)
    assert sweeps > 1
    for (env, names), text, bodies1, bodies2 in zip(parsed, texts, first, second):
        assert all(x is y for x, y in zip(bodies1, bodies2))
        assert [env.lookup(name) for name in names] == bodies1
        again, _ = parse_defs(text)  # a single-threaded build gives the same objects
        assert all(again.lookup(name) is x for name, x in zip(names, bodies1))


def test_two_threads_parse_new_action_names_at_once(fast_switching):
    # each round's action names occur nowhere else, so both readers find no
    # prefix table for them and make the tables at the same moment
    texts = ["def P = " + " + ".join(f"new{r}x{k}.0" for k in range(10)) for r in range(1000)]
    barrier = threading.Barrier(2)

    def parse():
        bodies = []
        try:
            for text in texts:
                barrier.wait(timeout=60)
                bodies.append(parse_defs(text)[0].lookup("P"))
        except BaseException:
            barrier.abort()  # the other reader stops at its next round
            raise
        return bodies

    first, second = _run_together(parse, parse)
    assert isinstance(first, list) and isinstance(second, list), (first, second)
    assert len(first) == len(second) == 1000
    assert all(x is y for x, y in zip(first, second))


def test_two_threads_make_the_same_new_actions(fast_switching):
    # both threads make each round's names first, one polarity each first,
    # then parse a file that uses them, while a third thread sweeps the
    # tables of terms and names: every name and polarity is one object, and
    # each polarity holds the other as its complement
    rounds = [[f"fresh{r}x{k}" for k in range(8)] for r in range(300)]
    barrier = threading.Barrier(2)
    finished = []

    def make(first_co):
        got = []
        try:
            for names in rounds:
                barrier.wait(timeout=60)
                acts = [Action(name, co) for name in names for co in (first_co, not first_co)]
                text = "def P = " + " + ".join(f"{name}.~{name}.0" for name in names)
                body = parse_defs(text)[0].lookup("P")
                got.append((acts, body))
        except BaseException:
            barrier.abort()  # the other thread stops at its next round
            raise
        finally:
            finished.append(True)
        return got

    def sweep():
        sweeps = 0
        while len(finished) < 2:
            with syntax._LOCK:
                syntax._sweep()
            sweeps += 1
            time.sleep(1e-3)  # let the makers reach the lock between sweeps
        return sweeps

    first, second, sweeps = _run_together(lambda: make(False), lambda: make(True), sweep)
    assert isinstance(first, list) and isinstance(second, list), (first, second)
    assert sweeps > 1
    for (acts1, body1), (acts2, body2), names in zip(first, second, rounds):
        assert body1 is body2
        for k, name in enumerate(names):
            a, co_a = acts1[2 * k], acts1[2 * k + 1]
            assert (acts2[2 * k], acts2[2 * k + 1]) == (co_a, a)  # identity
            assert a is Action(name) and co_a is Action(name, True) and a is not co_a
            assert a.complement() is co_a and co_a.complement() is a
            assert a.complement().complement() is a
        guards = {p.guard for p in body1.parts} | {p.body.guard for p in body1.parts}
        assert guards == {Action(name, co) for name in names for co in (False, True)}


def test_shared_graph_usable_set_from_two_threads(fast_switching):
    # both threads add facts to the same memo entries; the witness is built
    # from the answers the memo gives
    text = _recursive_client()
    lts = Lts(Const("P0"), parse_defs(text)[0])
    expected = (usable_set(lts, frozenset({0}), 5), usable_witness(lts, frozenset({0}), 5))
    assert expected[0] and expected[1] is not None
    for _ in range(20):
        lts = Lts(Const("P0"), parse_defs(text)[0])  # a fresh state table: empty memos
        root = frozenset({lts.root})

        def ask():
            return usable_set(lts, root, 5), usable_witness(lts, root, 5)

        results = _run_together(ask, ask)
        assert results == [expected, expected]


def test_usability_facts_from_three_threads(fast_switching):
    # more threads than cores ask one graph's sets at every depth, each in
    # its own order, adding facts to the same memo entries at once; a lost
    # update may drop a fact but must never change an answer
    # P0 is the first graph of each environment, so its states are ids 0 to n - 1
    text = _recursive_client()
    depths = [0, 1, 2, 3, 4, 6]
    n = len(Lts(Const("P0"), parse_defs(text)[0]))

    def answers(lts, order):
        return {(i, d): usable_set(lts, frozenset({i}), d) for d in order for i in range(n)}

    expected = {}
    for d in depths:
        # a fresh state table per depth: empty memos
        expected.update(answers(Lts(Const("P0"), parse_defs(text)[0]), [d]))
    assert any(expected.values()) and not all(expected.values())
    orders = [depths, depths[::-1], [3, 0, 6, 1, 4, 2]]
    for _ in range(5):
        lts = Lts(Const("P0"), parse_defs(text)[0])
        got = _run_together(*[functools.partial(answers, lts, order) for order in orders])
        assert got == [expected] * 3


def test_normalize_flags_from_two_threads(fast_switching):
    shielded = t("a.(b.0 + tau.1) + b.(a.0 + tau.1)")
    exact = t("a.(b.0 (+) c.1) + a.(b.1 (+) c.0)")
    assert normalize_pnf_info(shielded)[1] is False
    assert normalize_pnf_info(exact)[1] is True

    def flags(term):
        return [normalize_pnf_info(term)[1] for _ in range(3000)]

    got_shielded, got_exact = _run_together(lambda: flags(shielded), lambda: flags(exact))
    assert got_shielded == [False] * 3000
    assert got_exact == [True] * 3000


def test_two_threads_normalize_overlapping_corpora(fast_switching):
    # both threads normalize the shared subterms at once: each stores its
    # own form on a subterm, and a lost race leaves an equal one
    def forms(term):
        pnf, exact = normalize_pnf_info(term)
        return pretty(pnf_to_term(pnf)), pretty(cnf_to_term(normalize_cnf(term))), exact

    start = threading.Barrier(2)
    for r in range(4):
        spec = EnumSpec((f"nfthread{r}", "b"), 2, max_width=2)
        corpus = list(itertools.islice(enumerate_terms(spec), 0, 3000, 3))

        def job(terms):
            start.wait(timeout=60)
            return [forms(term) for term in terms]

        first, second = _run_together(lambda: job(corpus[:700]), lambda: job(corpus[300:][::-1]))
        # forget every kept form, then normalize in this thread alone
        for sub in {sub for term in corpus for sub in subterms(term)}:
            syntax.Term._pnf.__set__(sub, None)
        expected = [forms(term) for term in corpus]
        assert first == expected[:700]
        assert second == expected[300:][::-1]


_SERVERS = "def S = a.S + b.T\ndef T = c.S + tau.T + d.1\ndef U = tau.U + a.0 + b.U"


def test_must_over_shared_graphs_from_two_threads(fast_switching):
    text = _recursive_client() + "\n" + _SERVERS
    env, _ = parse_defs(text)
    names = ["S", "T", "U", "P0", "P4", "P5", "P17"]
    pairs = [(Const(p), Const(r)) for p in names for r in names if p != r]
    pairs.append((t("a.b.0 + c.0"), Const("P3")))

    def answers(env):
        return [(must(p, r, env).to_json(), must_sc(p, r, env).to_json()) for p, r in pairs]

    expected = answers(env)
    assert any(not held["holds"] for held, _ in expected)
    assert any(held["holds"] for held, _ in expected)
    for _ in range(5):
        # a fresh environment per round, so the two threads build, share and
        # first fill the same cached graphs at once
        shared, _ = parse_defs(text)
        assert _run_together(lambda: answers(shared), lambda: answers(shared)) == [expected, expected]


def test_walks_over_shared_graphs_from_two_threads(fast_switching):
    # both threads walk the same graphs under the same plans, so they make
    # and fill the same side records and rows at once
    text = _recursive_client() + "\n" + _SERVERS
    finite = [t(x) for x in ("a.b.0 + c.0", "a.(b.1 + tau.c.0)", "tau.a.1 + tau.b.1", "a.1 + b.1",
                             "~a.1 + tau.div", "a.b.1 + a.c.1", "tau.(a.0 + b.1) + c.1")]
    recursive = [Const(n) for n in ("S", "T", "U", "P0", "P4", "P5")]

    def answers(env):
        out = []
        for kind in KINDS:
            for decide in (leq, leq_plus):
                out += [decide(kind, p, q, env).to_json() for p in finite for q in finite]
                out += [decide(kind, p, q, env, bound=2).to_json() for p in recursive for q in recursive]
        return out

    expected = answers(parse_defs(text)[0])
    assert any(v["holds"] for v in expected) and any(not v["holds"] for v in expected)
    assert any(v["mode"] == "exact" for v in expected) and any(v["mode"] == "bounded" for v in expected)
    for _ in range(3):
        shared, _ = parse_defs(text)
        assert _run_together(lambda: answers(shared), lambda: answers(shared)) == [expected, expected]


def test_pass_tables_over_shared_graphs_from_three_threads(fast_switching):
    # more threads than cores fill the same graphs' verdict rows at once; a
    # lost row update only drops a cell, which is then decided again
    text = _recursive_client() + "\n" + _SERVERS
    names = parse_defs(text)[1]
    consts = [Const(n) for n in names]
    terms = consts + [t("a.b.0 + c.0"), t("~a.1 + tau.div"), t("~b.(1 + ~c.0)")]
    for kind in KINDS:
        env, _ = parse_defs(text)
        expected = pass_table(kind, terms, terms, env)
        passed = sum(bin(row).count("1") for row in expected.values())
        assert 0 < passed < len(terms) ** 2
        for _ in range(5):
            shared, _ = parse_defs(text)
            got = _run_together(*[lambda: pass_table(kind, terms, terms, shared)] * 3)
            assert got == [expected] * 3


def _views(env, roots):
    """Each root's graph as its root-local state ids, with every state's
    term and rows spelled in terms.  The graphs are all built first, so two
    threads calling this at once build them at once."""
    graphs = [Lts(root, env) for root in roots]
    out = []
    for root, g in zip(roots, graphs):
        term = g.terms.__getitem__
        out.append((root, tuple(g.states), [
            (term(i), g.ok[i], tuple(map(term, g.taus[i])),
             {a: tuple(map(term, js)) for a, js in g.vis[i].items()}, g.ready[i]) for i in g.states]))
    return out


def _one_id_per_term(table):
    assert len(table.index) == len(table.terms) == len(table.taus)
    assert all(table.index[x] == i for i, x in enumerate(table.terms))


def test_two_threads_build_views_of_one_state_table(fast_switching):
    # interning allocates ids under the table's lock: however the threads
    # interleave, each term gets one id, both threads see the same rows, and
    # verdicts and walks are the single-threaded ones
    text = _recursive_client() + "\n" + _SERVERS
    consts = [Const(n) for n in parse_defs(text)[1]]
    pairs = [(Const(p), Const(q)) for p in ("S", "T", "P0", "P4") for q in ("U", "P5", "P17")]

    def answers(env, roots):
        views = _views(env, roots)
        verdicts = [(must(p, q, env).to_json(), leq("p2p", p, q, env, bound=2).to_json(),
                     leq_plus("clt", p, q, env, bound=2).to_json()) for p, q in pairs]
        return sorted(views, key=lambda view: consts.index(view[0])), verdicts

    expected_views, expected = answers(parse_defs(text)[0], consts)
    start = threading.Barrier(2)
    for r in range(10):
        shared, _ = parse_defs(text)

        def job(order):
            start.wait()
            return answers(shared, order)

        # the threads start together and explore the constants in one order,
        # or each from its own end: either way their graphs overlap
        got = _run_together(lambda: job(consts), lambda: job(consts[::(-1) ** r]))
        _one_id_per_term(shared.table)
        assert got[0] == got[1]
        views, verdicts = got[0]
        assert [(root, rows) for root, _, rows in views] == [(root, rows) for root, _, rows in expected_views]
        assert verdicts == expected


def test_two_threads_build_precongruence_roots_in_the_empty_environment(fast_switching):
    # the roots f.1 + p of `leq_plus` are new terms whose successors are
    # known, or new too when p has a fresh action; two threads make them at
    # once in the process's table
    table = Lts(syntax.NIL).table
    start = threading.Barrier(2)
    for r in range(6):
        spec = EnumSpec((f"thread{r}", "b"), 2, max_width=2)
        corpus = list(itertools.islice(enumerate_terms(spec), 0, 3000, 5))
        f = Prefix(Action(f"thread{r}f"), syntax.UNIT)
        roots = [syntax.mk_sum([f, p]) for p in corpus]
        pairs = list(zip(corpus[:40], corpus[1:]))

        def job(order):
            start.wait()
            views = sorted(_views(syntax.EMPTY_ENV, order), key=lambda view: roots.index(view[0]))
            return views, [leq_plus(kind, p, q).to_json() for kind in KINDS for p, q in pairs]

        got = _run_together(lambda: job(roots), lambda: job(roots[::(-1) ** r]))
        _one_id_per_term(table)
        assert got[0] == got[1]
        fresh = syntax.Env()
        assert [(root, rows) for root, _, rows in got[0][0]] == \
            [(root, rows) for root, _, rows in _views(fresh, roots)]
        assert got[0][1] == [leq_plus(kind, p, q, fresh).to_json() for kind in KINDS for p, q in pairs]
