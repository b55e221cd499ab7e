import random

import pytest

from conftest import FINITE_TERMS, t
from hypothesis import given, settings, strategies as st

from ccswb.cli import run
from ccswb.lts import Lts, cached_lts
from ccswb.oracle import EnumSpec, enumerate_terms, search_satisfying_server
from ccswb.syntax import Action, NIL, Prefix, label_key, mk_sum, parse_defs, Const, pretty
from ccswb.testing import must
from ccswb.usability import (
    VisibleCycle,
    peer_conv,
    uaut,
    usable,
    usable_set,
    usable_witness,
    usbut,
)

a, b, c, d = Action("a"), Action("b"), Action("c"), Action("d")


def test_usable_examples():
    assert not usable(t("0")).usable
    rep = usable(t("1"))
    assert rep.usable and rep.witness_server == NIL
    assert not usable(t("b.d.0 + b.1")).usable
    assert not usable(t("a.(b.0 + c.1) + a.(b.1 + c.0)")).usable
    assert not usable(t("a.0")).usable
    assert search_satisfying_server(t("a.0"), max_depth=4) is None


def test_usable_witnesses_verify(small_corpus):
    for client in small_corpus:
        rep = usable(client)
        if rep.usable:
            assert rep.witness_server is not None
            assert must(rep.witness_server, client).holds


def test_usable_agrees_with_bounded_server_search(small_corpus, chain_corpus):
    for client in small_corpus + chain_corpus:
        found = search_satisfying_server(client)
        assert usable(client).usable == (found is not None), pretty(client)


def test_nil_not_must_shape():
    # an unusable stable state with no actions is what dooms these clients
    assert not usable(t("tau.0 + tau.1")).usable
    assert usable(t("tau.1 + a.0")).usable  # the a branch is never forced


def test_usbut_examples():
    assert not usbut(t("c.(a.1 + b.0)"), (c, b))
    assert not usbut(t("a.(b.d.0 + b.1)"), (a, c))
    assert usbut(t("1"), (a, b, c))
    assert usbut(t("c.(a.1 + b.0)"), (c, a))


def test_uaut_examples():
    r = t("c.(a.1 + b.0)")
    ua = uaut(r, (c,))
    assert a in ua and b not in ua
    assert uaut(t("1"), (a,)) == cached_lts(t("1")).alphabet()
    assert a in uaut(t("b.(tau.(1 + a.0) + tau.a.tau.1)"), (b,))


def test_peer_conv():
    assert not peer_conv(t("a.0"), ())
    assert not peer_conv(t("1 + div"), ())
    assert peer_conv(t("~a.1"), (a,))


def test_satisfaction_implies_usability(small_corpus):
    rng = random.Random(23)
    hits = 0
    for _ in range(400):
        p = small_corpus[rng.randrange(len(small_corpus))]
        r = small_corpus[rng.randrange(len(small_corpus))]
        if must(p, r).holds:
            hits += 1
            assert usable(r).usable
    assert hits > 50


def test_satisfaction_preserves_usability_along_co_traces(small_corpus):
    # if a server satisfies the client and weakly performs the complement of
    # a trace, the client stays usable along that trace
    rng = random.Random(31)
    traces = [(a,), (b,), (a, b)]
    for _ in range(200):
        p = small_corpus[rng.randrange(len(small_corpus))]
        r = small_corpus[rng.randrange(len(small_corpus))]
        if not must(p, r).holds:
            continue
        lp = cached_lts(p)
        for s in traces:
            co = tuple(x.complement() for x in s)
            if lp.weak_after(co):
                assert usbut(r, s), (pretty(p), pretty(r), s)


def test_exact_mode_refused_on_visible_cycles():
    env, _ = parse_defs("def A = ~a.A")
    with pytest.raises(VisibleCycle):
        usable(Const("A"), env)
    rep = usable(Const("A"), env, depth=3)
    assert rep.mode == "bounded"
    # the decision reaches the cycle behind a usable branch
    env, _ = parse_defs("def E = a.1 + b.F\ndef F = ~c.F")
    with pytest.raises(VisibleCycle):
        usable(Const("E"), env)


def test_exact_mode_answers_when_the_cycle_lies_behind_success(tmp_path):
    # the root reports success, so the decision never reaches the ~b cycle
    text = "def C = 1 + a.D\ndef D = ~b.D\n"
    env, _ = parse_defs(text)
    rep = usable(Const("C"), env)
    assert (rep.usable, rep.witness_server, rep.mode) == (True, NIL, "exact")
    path = tmp_path / "behind.ccs"
    path.write_text(text)
    assert run(["usable", str(path), "-c", "C"]) == 0


def test_negative_depth_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        usable(t("a.1 + b.0"), depth=-1)
    # usbut and uaut keep accepting -1, where no non-empty residual is usable
    assert usbut(t("1"), (a,), depth=-1) is True
    assert usbut(t("a.1"), (a,), depth=-1) is False
    assert uaut(t("a.1"), (), depth=-1) == {a}


def test_usable_set_answers_sets_with_nothing_left_to_satisfy():
    lts = cached_lts(t("a.1 + b.0"))
    ok_states = frozenset(i for i in range(len(lts)) if lts.ok[i])
    assert ok_states and not lts.ok[lts.root]
    for depth in (None, 0, 2, -1):
        assert usable_set(lts, frozenset(), depth) is True
        assert usable_set(lts, ok_states, depth) is True
        assert usable_witness(lts, frozenset(), depth) is NIL
        assert usable_witness(lts, ok_states, depth) is NIL
    assert usable_set(lts, frozenset({lts.root}), -1) is False
    assert usable_witness(lts, frozenset({lts.root}), -1) is None


def _reference(lts, states, depth, open_sets=frozenset()):
    """Usability and a witness server by the rule of `usable_set` and
    `usable_witness`, recursively and with no memo: per closed set and depth,
    (usable, witness), or VisibleCycle when an exact decision comes back to
    a set it is deciding."""
    if all(lts.ok[i] for i in states):
        return True, NIL
    if depth is not None and depth < 0:
        return False, None
    key = (lts.unsuccessful_closure(states), depth)
    C = key[0]
    if key in open_sets:
        raise VisibleCycle("cycle")
    if C & lts.nonok_tau_cyclic:
        return False, None
    usable_act = {}
    for x in sorted({x for i in C for x in lts.vis[i]}, key=label_key):
        derivs = frozenset(j for i in C for j in lts.vis[i].get(x, ()) if not lts.ok[j])
        ok, wit = _reference(lts, derivs, None if depth is None else depth - 1, open_sets | {key})
        if ok:
            usable_act[x] = wit
    needed = set()
    for i in C:
        if lts.stable(i):
            offered = [x for x in lts.ready[i] if x in usable_act]
            if not offered:
                return False, None
            needed.update(offered)
    return True, mk_sum(Prefix(x.complement(), usable_act[x]) for x in sorted(needed, key=label_key))


def _outcome(ask):
    try:
        return ask()
    except VisibleCycle:
        return "cycle"


# H is usable from depth 2 on, K from depth 1 on, and neither exactly
_RECURSIVE = parse_defs("def B = a.1 + b.B\ndef C = ~a.C + tau.(b.1 + c.C)\n"
                        "def D = a.(b.D + c.1) + a.d.0 + tau.(a.1 + b.0)\n"
                        "def E = a.1 + b.F\ndef F = ~c.F + a.(1 + F)\n"
                        "def H = a.b.c.1 + b.H\ndef K = tau.a.b.1 + c.(a.1 + K)\n")[0]
_DEEP = [t(x) for x in ("a.b.c.1", "a.(b.~c.1 + c.0) + tau.b.a.1", "tau.a.b.1 + tau.b.(a.1 + c.d.1)")]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(FINITE_TERMS, st.sampled_from(_DEEP + [Const(n) for n in "BCDEHK"])),
       st.permutations([None, 0, 1, 2, 3, 5]))
def test_one_memo_answers_every_depth_as_a_fresh_graph(term, depths):
    # one graph is asked at every depth, exact included, in a shuffled order;
    # each answer must be a fresh graph's, and each witness the rule's
    shared = Lts(term, _RECURSIVE)
    sets = [frozenset({i}) for i in range(len(shared))] + [frozenset(range(len(shared)))]
    for depth in depths:
        for states in sets:
            fresh = Lts(term, _RECURSIVE)
            want = _outcome(lambda: usable_set(fresh, states, depth))
            assert _outcome(lambda: usable_set(shared, states, depth)) == want
            rule = _outcome(lambda: _reference(fresh, states, depth))
            assert want == (rule if rule == "cycle" else rule[0])
            assert _outcome(lambda: usable_witness(shared, states, depth)) == (
                rule if rule == "cycle" else rule[1])


def test_usable_verifies_its_witness(monkeypatch):
    # the witness check asks the verdict memo; make it refute every pair
    monkeypatch.setattr("ccswb.usability.fails", lambda server, client: True)
    with pytest.raises(RuntimeError, match="failed verification"):
        usable(t("a.1"))


def test_bounded_mode_on_recursive_client():
    # a recursive client satisfiable by a finite server is found usable at
    # a depth that covers one unfolding
    env, _ = parse_defs("def B = a.1 + b.B")
    rep = usable(Const("B"), env, depth=2)
    assert rep.usable
    assert must(rep.witness_server, Const("B"), env).holds


# the criterion-4 universe, with div
_UNIVERSE = list(dict.fromkeys(
    list(enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2, allow_div=True)))
    + list(enumerate_terms(EnumSpec(("a", "b"), 2, max_width=1, allow_div=True)))))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_UNIVERSE),
       st.lists(st.sampled_from([a, b, a.complement(), b.complement()]), max_size=3),
       st.sampled_from([None, 0, 2, -1]))
def test_uaut_is_the_per_action_definition(r, s, depth):
    s = tuple(s)
    lts = cached_lts(r)
    expected = frozenset(x for x in lts.alphabet()
                         if not lts.unsuccessful_after(s + (x,)) or usbut(r, s + (x,), depth=depth))
    assert uaut(r, s, depth=depth) == expected
