import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_TERMS, t
from ccswb import lts, preorders, usability
from ccswb.equations import erase_units
from ccswb.lts import Lts, cached_lts
from ccswb.oracle import EnumSpec, enumerate_terms, refute_by_search
from ccswb.preorders import (
    KINDS,
    ModeError,
    SynthesisGap,
    check_witness,
    diag_sbad,
    diag_sbad_prime,
    leq,
    leq_clt,
    leq_p2p,
    leq_plus,
    leq_svr,
    leq_svr_classical,
    passes,
    synthesize_witness,
)
from ccswb.syntax import EMPTY_ENV, UNIT, Action, Const, Env, Prefix, fresh_action, mk_sum, parse_defs, pretty
from ccswb.testing import must, must_sc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_client_preorder_examples():
    assert leq_clt(t("b.a.1"), t("b.(c.0 + 1)")).holds
    assert leq_clt(t("a.1 + b.0"), t("a.1")).holds
    assert not leq_clt(t("a.1"), t("a.0")).holds
    assert leq_clt(t("a.(b.0 + c.1) + a.(b.1 + c.0)"), t("0")).holds
    assert leq_clt(t("c.(a.1 + b.0)"), t("c.a.1")).holds
    assert leq_clt(t("a.(b.d.0 + b.1)"), t("a.c.d.1")).holds
    assert not leq_clt(t("b.(tau.(1 + a.0) + tau.a.tau.1)"), t("b.0")).holds


def test_client_least_element(small_corpus):
    for r in small_corpus:
        assert leq_clt(t("0"), r).holds


def test_server_preorder_examples():
    p = t("tau.a.(b.0 + c.0) + tau.a.c.0")
    q = t("tau.a.b.0 + tau.a.c.0")
    assert leq_svr(q, p).holds
    assert not leq_svr(p, q).holds
    assert not leq_svr(t("a.1 + b.0"), t("a.1")).holds
    assert leq_svr(t("a.1"), t("a.0")).holds
    assert not leq_svr(t("a.0"), t("b.0")).holds


def test_peer_preorder_examples():
    assert leq_p2p(t("a.0"), t("b.0")).holds
    assert not leq_p2p(t("1 + b.0"), t("1")).holds
    assert leq_clt(t("1 + b.0"), t("1")).holds
    assert leq_p2p(t("0"), t("b.0")).holds


def test_peer_contained_in_client(small_corpus):
    rng = random.Random(3)
    for _ in range(250):
        p = small_corpus[rng.randrange(len(small_corpus))]
        q = small_corpus[rng.randrange(len(small_corpus))]
        if leq_p2p(p, q).holds:
            assert leq_clt(p, q).holds


def test_precongruence_examples():
    assert leq_p2p(t("0"), t("b.0")).holds
    assert not leq_plus("p2p", t("0"), t("b.0")).holds
    assert not leq_plus("p2p", t("a.1"), t("a.tau.1")).holds
    assert not leq_plus("p2p", t("a.1"), t("1")).holds
    assert not leq_plus("p2p", t("1"), t("tau.0 + 1")).holds


def test_unit_is_a_maximal_client(small_corpus):
    for r in small_corpus:
        assert leq_plus("clt", r, t("1")).holds


def test_tau_capable_left_lifts_to_the_precongruence(small_corpus):
    from ccswb.lts import cached_lts

    rng = random.Random(8)
    checked = 0
    for _ in range(600):
        p = small_corpus[rng.randrange(len(small_corpus))]
        q = small_corpus[rng.randrange(len(small_corpus))]
        lts = cached_lts(p)
        if not lts.taus[lts.root]:
            continue
        for kind in ("svr", "clt", "p2p"):
            if leq(kind, p, q).holds:
                checked += 1
                assert leq_plus(kind, p, q).holds, (kind, pretty(p), pretty(q))
    assert checked > 100


def test_reflexive_and_transitive(small_corpus):
    rng = random.Random(12)
    sample = [small_corpus[rng.randrange(len(small_corpus))] for _ in range(12)]
    for kind in ("svr", "clt", "p2p"):
        for p in sample:
            assert leq(kind, p, p).holds
        for p in sample[:6]:
            for q in sample[:6]:
                for r in sample[:6]:
                    if leq(kind, p, q).holds and leq(kind, q, r).holds:
                        assert leq(kind, p, r).holds


@pytest.fixture(scope="module")
def criterion_4_universe():
    wide = enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2))
    chains = enumerate_terms(EnumSpec(("a", "b"), 2, max_width=1))
    return list(dict.fromkeys([*wide, *chains]))


@pytest.mark.parametrize("relation, kind, chained", [
    (leq, "svr", 8_157), (leq, "clt", 378_917), (leq, "p2p", 305_745),
    (leq_plus, "svr", 6_449), (leq_plus, "clt", 124_938), (leq_plus, "p2p", 46_530),
], ids=["leq-svr", "leq-clt", "leq-p2p", "leq_plus-svr", "leq_plus-clt", "leq_plus-p2p"])
def test_transitive_over_the_criterion_4_universe(relation, kind, chained, criterion_4_universe):
    """Every chained triple p <= q <= r of the whole relation has p <= r."""
    universe = criterion_4_universe
    assert len(universe) == 117
    above = {p: {q for q in universe if relation(kind, p, q).holds} for p in universe}
    triples = 0
    for p in universe:
        for q in above[p]:
            triples += len(above[q])
            assert above[q] <= above[p], (pretty(p), pretty(q))
    assert triples == chained


@pytest.fixture(scope="module")
def finite_draw():
    """A seeded draw of distinct terms from `FINITE_TERMS`, which unlike the
    criterion-4 universe has `tau`, `div` and internal choice."""
    drawn = []

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(FINITE_TERMS)
    def draw(term):
        drawn.append(term)

    draw()
    return list(dict.fromkeys(drawn))


@pytest.mark.parametrize("relation", [leq, leq_plus], ids=["leq", "leq_plus"])
@pytest.mark.parametrize("kind", KINDS)
def test_transitive_over_drawn_finite_terms(relation, kind, finite_draw):
    """Every chained triple p <= q <= r of drawn terms has p <= r, and some
    such triple has three distinct terms."""
    above = {p: {q for q in finite_draw if relation(kind, p, q).holds} for p in finite_draw}
    chained = 0
    for p in finite_draw:
        for q in above[p]:
            assert above[q] <= above[p], (pretty(p), pretty(q))
            chained += sum(1 for r in above[q] if len({id(p), id(q), id(r)}) == 3)
    assert chained > 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(KINDS), FINITE_TERMS)
def test_preorders_are_reflexive(kind, p):
    assert leq(kind, p, p).holds
    assert leq_plus(kind, p, p).holds


def test_diagnostic_relations():
    r = t("c.(a.1 + b.0)")
    assert not diag_sbad(r, t("c.a.1"))
    assert diag_sbad_prime(r, t("c.a.1"))
    assert not diag_sbad_prime(t("a.(b.d.0 + b.1)"), t("a.c.d.1"))


def test_classical_server_check_on_ok_free_terms(small_corpus):
    from ccswb.lts import can_ok
    from ccswb.syntax import UNIT, subterms, Unit

    ok_free = [p for p in small_corpus if not any(isinstance(s, Unit) for s in subterms(p))]
    rng = random.Random(5)
    for _ in range(250):
        p = ok_free[rng.randrange(len(ok_free))]
        q = ok_free[rng.randrange(len(ok_free))]
        assert leq_svr(p, q).holds == leq_svr_classical(p, q)


def test_exact_mode_requires_finite_terms():
    env, _ = parse_defs("def A = ~a.A")
    with pytest.raises(ModeError):
        leq_svr(Const("A"), t("a.0"), env)
    v = leq_svr(Const("A"), t("~a.~a.0"), env, bound=3)
    assert v.mode == "bounded"


def test_witness_synthesis_basic():
    cases = [
        ("clt", "a.1", "a.0"),
        ("svr", "tau.a.(b.0 + c.0) + tau.a.c.0", "tau.a.b.0 + tau.a.c.0"),
        ("p2p", "1 + b.0", "1"),
        ("svr", "a.0", "b.0"),
        ("clt", "b.(tau.(1 + a.0) + tau.a.tau.1)", "b.0"),
        ("svr", "tau.tau.0", "div"),
        ("clt", "b.a.1", "b.a.a.1"),
        ("p2p", "~a.1", "~a.tau.1"),
        ("p2p", "1", "1 + div"),
        ("svr", "a.tau.b.0", "a.(div + tau.b.0)"),
        ("p2p", "a.1", "a.(1 + div) + a.1"),
        ("clt", "tau.1", "a.0 + tau.1"),
    ]
    for kind, left, right in cases:
        p, q = t(left), t(right)
        verdict = leq(kind, p, q)
        assert not verdict.holds, (kind, left, right)
        w = synthesize_witness(kind, p, q, verdict=verdict)
        assert check_witness(kind, p, q, w), (kind, left, right, pretty(w))


# sha256 per kind over "pretty(p)|pretty(q)|pretty(witness)" lines, one per
# refuted ordered pair of the corpus below, in corpus order
WITNESS_DIGESTS = {
    "svr": "2c51d894a9562b623e7dc16a656e67337d23688072bd105df5960368483741ae",
    "clt": "ce769766abb8c1dbd0d02d1959b6fe7d31a8bfd96a28d9701f962ccd3344f2d4",
    "p2p": "0740f3d9833eebbde7443cb442a71fd6d1bc47e462c35cbde890c0fc32b3080a",
}


def test_synthesized_witnesses_are_pinned(small_corpus):
    extra = enumerate_terms(EnumSpec(("a",), 1, allow_div=True, max_width=2))
    terms = list(dict.fromkeys([*small_corpus, *extra]))
    assert len(terms) == 144
    reached = set()
    for kind in KINDS:
        digest = hashlib.sha256()
        for p in terms:
            for q in terms:
                verdict = leq(kind, p, q)
                if not verdict.holds:
                    fc = verdict.failing_clause
                    reached.add((kind, fc.part, fc.clause))
                    w = synthesize_witness(kind, p, q, verdict=verdict)
                    digest.update(f"{pretty(p)}|{pretty(q)}|{pretty(w)}\n".encode())
        assert digest.hexdigest() == WITNESS_DIGESTS[kind], kind
    # every (kind, part, clause) that can fail first
    assert reached == {
        ("svr", "svr", "convergence"), ("svr", "svr", "acceptance_match"),
        *((kind, "clt", clause) for kind in ("clt", "p2p")
          for clause in ("usability_flow", "acceptance_match", "unsuccessful_trace")),
        ("p2p", "usmpo", "convergence"), ("p2p", "usmpo", "acceptance_match"),
    }


def test_witness_for_usability_flow_uses_the_client_machinery():
    # refuting a.1 <=clt a.0 must produce a server passed by a.1 only
    v = leq_clt(t("a.1"), t("a.0"))
    w = synthesize_witness("clt", t("a.1"), t("a.0"), verdict=v)
    assert must(w, t("a.1")).holds and not must(w, t("a.0")).holds


def test_synthesis_rejects_holding_verdicts():
    with pytest.raises(ValueError):
        synthesize_witness("clt", t("0"), t("a.1"), verdict=leq_clt(t("0"), t("a.1")))


def test_synthesis_refuses_recursive_terms():
    env, _ = parse_defs("def A = ~a.A")
    with pytest.raises(SynthesisGap):
        synthesize_witness("svr", Const("A"), t("a.0"), env)


def test_failing_clause_is_reported_with_trace_and_sets():
    from ccswb import Action

    v = leq_svr(t("tau.a.(b.0 + c.0) + tau.a.c.0"), t("tau.a.b.0 + tau.a.c.0"))
    fc = v.failing_clause
    assert fc is not None and fc.clause == "acceptance_match"
    assert [str(x) for x in fc.trace] == ["a"]
    assert fc.ready_set == frozenset({Action("b")})
    # b.0 is not usable at all, so the flow of usability fails at the root
    v = leq_clt(t("b.(tau.(1 + a.0) + tau.a.tau.1)"), t("b.0"))
    assert v.failing_clause.clause == "usability_flow" and v.failing_clause.trace == ()
    # a pair refuted by ready-set matching carries the usable-action snapshot
    v = leq_clt(t("c.(a.1 + b.0)"), t("c.b.1"))
    fc = v.failing_clause
    assert fc.clause == "acceptance_match" and [str(x) for x in fc.trace] == ["c"]
    assert Action("a") in fc.usable_actions and Action("b") not in fc.usable_actions
    w = synthesize_witness("clt", t("c.(a.1 + b.0)"), t("c.b.1"), verdict=v)
    assert check_witness("clt", t("c.(a.1 + b.0)"), t("c.b.1"), w)


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError):
        leq("clt", t("a.1"), t("a.0"), bound=-1)


@pytest.mark.parametrize("kind, left, right", [
    ("svr", "tau.a.(b.0 + c.0) + tau.a.c.0", "tau.a.b.0 + tau.a.c.0"),
    ("clt", "a.1", "a.0"),
    ("p2p", "1 + b.0", "1"),
])
def test_passes_takes_the_role_of_the_kind(kind, left, right, small_corpus):
    p, q = t(left), t(right)
    assert not leq(kind, p, q).holds
    role = {"svr": lambda x, r: must(x, r), "clt": lambda x, r: must(r, x), "p2p": must_sc}[kind]
    separating = 0
    for r in small_corpus + [synthesize_witness(kind, p, q)]:
        p_passes = passes(kind, p, r, EMPTY_ENV)
        assert p_passes == role(p, r).holds, pretty(r)
        separates = p_passes and not passes(kind, q, r, EMPTY_ENV)
        assert separates == check_witness(kind, p, q, r), pretty(r)
        separating += separates
    assert separating


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_server_walk_decides_no_usability(monkeypatch):
    usable_calls = _count_calls(monkeypatch, preorders, "usable_set")
    closure_calls = _count_calls(monkeypatch, Lts, "unsuccessful_closure")
    assert leq("svr", t("a.(b.0 + c.1) + tau.a.b.0"), t("a.b.0")).holds
    assert usable_calls == [] and closure_calls == []


def test_client_walk_decides_no_convergence(monkeypatch):
    calls = _count_calls(monkeypatch, Lts, "converges_state_set")
    assert leq("clt", t("a.(~b.1 + c.0)"), t("a.~b.1")).holds
    assert calls == []


def test_walks_step_only_the_residual_pairs_they_read(monkeypatch):
    # each walk runs under a fresh environment, whose state table no earlier
    # walk has filled side records in, so every side is stepped afresh, and
    # once: the side of {0}, which both graphs reach, is shared
    calls = _count_calls(monkeypatch, Lts, "step")
    assert leq("clt", t("a.(~b.1 + c.0)"), t("a.~b.1"), Env()).holds
    assert calls and all(states for _, states, _ in calls)
    calls.clear()
    assert leq("svr", t("a.(b.0 + c.1) + tau.a.b.0"), t("a.b.0"), Env()).holds
    assert len(calls) == 21  # the weak sides only; the unsuccessful ones would double it


def test_graphs_of_one_environment_share_states_and_memos(monkeypatch):
    # a state's moves, a set's closures and usability and a walk's side
    # records belong to the environment's state table, not to one graph, so
    # the precongruence's root f.1 + p reads what the graph of p filled
    env = Env()
    p = t("a.(b.1 + tau.c.0) + tau.d.1")
    first = cached_lts(p, env)
    explored = _count_calls(monkeypatch, lts, "transitions")
    fp = mk_sum([Prefix(fresh_action([p, p], env), UNIT), p])
    second = cached_lts(fp, env)
    assert [args[0] for args in explored] == [fp]  # only the new root is unfolded
    assert set(second.states) - set(first.states) == {second.root}
    after = first.step(frozenset({first.root}), Action("a"))
    closed = first.tau_closure(after), first.unsuccessful_closure(after)
    assert len(closed[0]) == 2 and closed[0] is not after
    after = second.step(frozenset({second.root}), Action("a"))
    assert (second.tau_closure(after), second.unsuccessful_closure(after)) == closed
    assert all(x is y for x, y in zip(closed, (second.tau_closure(after), second.unsuccessful_closure(after))))
    decided = _count_calls(monkeypatch, usability, "_usable_closed")
    answer = usability.usable_set(first, after)
    n = len(decided)
    assert n and usability.usable_set(second, after) == answer and len(decided) == n
    # the walk over f.1 + p steps only its root's side: every side below it is p's
    assert leq("clt", p, p, env).holds
    steps = _count_calls(monkeypatch, Lts, "step")
    decided.clear()
    assert leq_plus("clt", p, p, env).holds
    assert steps and all(second.root in states for _, states, _ in steps)
    assert len(decided) == 1  # the root's closed set; every set below it is decided


# Each summand of the left term is a stable state offering one usable
# action (to 1) among unusable ones (to 0); the right side offers none of
# them, so every match asks usability and stops at the first usable action.
_RELAXED_COUNT = """
import sys
from ccswb import preorders, syntax
names = [f"u{i}" for i in range(12)]
for name in (names if sys.argv[1] == "up" else names[::-1]):
    syntax.Action(name)
calls = []
usable_set = preorders.usable_set
preorders.usable_set = lambda *args: calls.append(args) or usable_set(*args)
parts = ["tau.(" + " + ".join(f"u{3 * k + j}.{int(j == k % 3)}" for j in range(3)) + ")"
         for k in range(4)]
verdict = preorders.leq("clt", syntax.parse_term(" + ".join(parts)), syntax.parse_term("e.1"))
print(len(calls), verdict.holds)
"""


def test_relaxed_matching_asks_usability_in_key_order():
    # identity hashes follow addresses, which follow the order the actions
    # were made in; matching in key order makes the work repeat
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    counts = [subprocess.run([sys.executable, "-c", _RELAXED_COUNT, order], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
              for order in ("up", "down")]
    # the left side's usable-after row asks each action at most once
    assert counts[0] == counts[1] == "15 False\n"


def test_diagnostic_walk_decides_no_usability_it_does_not_read(monkeypatch):
    calls = _count_calls(monkeypatch, preorders, "usable_set")
    assert not diag_sbad(t("c.(a.1 + b.0)"), t("c.a.1"))
    assert calls == []


@settings(max_examples=200, derandomize=True, deadline=None)
@given(FINITE_TERMS, FINITE_TERMS)
def test_diagnostic_and_classical_walks(p, q):
    if diag_sbad(p, q):
        assert diag_sbad_prime(p, q)
    assert leq_svr_classical(p, q) == leq_svr(p, q).holds
    p0, q0 = erase_units(p), erase_units(q)
    assert leq_svr_classical(p0, q0) == leq_svr(p0, q0).holds


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FINITE_TERMS, FINITE_TERMS)
def test_trace_flow_never_fails_first(p, q):
    # a convergent non-empty right residual of a finite graph holds a stable
    # state, so its ready sets fail the acceptance match before trace flow can
    for kind in KINDS:
        for decide in (leq, leq_plus):
            fail = decide(kind, p, q).failing_clause
            assert fail is None or fail.clause != "trace_flow", (kind, pretty(p), pretty(q))


def test_client_walk_stops_below_an_unusable_left_root(monkeypatch):
    calls = _count_calls(monkeypatch, preorders, "usable_set")
    assert leq("clt", t("a.0"), t("a.b.0"), Env()).holds  # fresh graphs: a cold walk
    assert len(calls) == 1


def test_only_the_preorder_kinds_are_decided():
    for kind in ("diag", "svr_classical", "sbad", "sbad_prime"):
        with pytest.raises(ValueError):
            leq(kind, t("0"), t("0"))
        with pytest.raises(ValueError):
            leq_plus(kind, t("0"), t("0"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(KINDS), FINITE_TERMS, FINITE_TERMS)
def test_verdicts_agree_with_the_test_search(kind, p, q):
    verdict = leq(kind, p, q)
    if verdict.holds:
        assert refute_by_search(kind, p, q, limit=300) is None
    else:
        synthesize_witness(kind, p, q, verdict=verdict)  # raises unless the test separates p from q


def test_exact_walk_memory_is_linear_in_the_depth():
    # a walk node keeps the step that reached it, not its whole trace
    def peak(depth):
        env, _ = parse_defs("def P = " + "a." * depth + "1\n")
        p = env.lookup("P")
        tracemalloc.start()
        try:
            assert leq("svr", p, p, env).holds
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) < 8 * peak(1000)


def test_bounded_walk_keeps_one_usability_entry_per_set():
    # node k of the walk on a^n.1 asks its residual at the full bound; the
    # answer node k+1's decision found one level down stands for it, so the
    # memo keeps one entry per closed set, not one per (set, depth)
    for depth in (100, 200):
        env, _ = parse_defs("def P = " + "a." * depth + "1\n")
        p = env.lookup("P")
        assert leq("clt", p, p, env, bound=depth).holds
        assert len(env.table.usable_memo) <= depth + 1
