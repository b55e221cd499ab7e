"""Acceptance suite: worked-example fixtures, axiom soundness sweeps,
normalization soundness, cross-validation against the definitional oracle,
structural properties, and usability against bounded server search.

Each criterion prints a PASS line on success so a -s run reads as a report.
"""
import itertools
import random

import pytest

from conftest import t
from ccswb.equations import (
    check_cnf,
    check_instances,
    check_pnf,
    cnf_to_term,
    instantiate_axioms,
    normalize_cnf,
    normalize_pnf_info,
    pnf_to_term,
)
from ccswb.lts import cached_lts
from ccswb.oracle import (
    EnumSpec,
    cross_validate,
    enumerate_terms,
    search_satisfying_server,
)
from ccswb.preorders import (
    diag_sbad,
    diag_sbad_prime,
    leq,
    leq_clt,
    leq_p2p,
    leq_plus,
    leq_svr,
)
from ccswb.syntax import Action, pretty
from ccswb.testing import (
    NotAcyclic,
    enumerate_computations,
    must,
    must_by_enumeration,
    must_sc,
)
from ccswb.usability import uaut, usable

a, b, c = Action("a"), Action("b"), Action("c")


@pytest.fixture(scope="module")
def sweep_corpus():
    """Every term over {a,b} at depth <= 1 width <= 2, plus every sum-free
    term at depth <= 2: the ordered-pair universe for the validation sweeps."""
    wide = list(enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2)))
    chains = list(enumerate_terms(EnumSpec(("a", "b"), 2, max_width=1)))
    return list(dict.fromkeys(wide + chains))


@pytest.fixture(scope="module")
def deep_sample():
    pool = list(itertools.islice(
        enumerate_terms(EnumSpec(("a", "b"), 3, max_width=2)), 4000))
    rng = random.Random(2026)
    return [pool[rng.randrange(len(pool))] for _ in range(140)]


def test_criterion_1a_section1_server_examples():
    p = t("tau.a.(b.0 + c.0) + tau.a.c.0")
    q = t("tau.a.b.0 + tau.a.c.0")
    r = t("~a.~c.1")
    assert must(p, r).holds
    assert not must(q, r).holds
    assert leq_svr(q, p).holds
    assert not leq_svr(p, q).holds
    print("ACCEPTANCE 1a: PASS")


def test_criterion_1b_client_vs_server_sensitivity(sweep_corpus):
    assert not leq_svr(t("a.1 + b.0"), t("a.1")).holds
    assert leq_clt(t("a.1 + b.0"), t("a.1")).holds
    assert leq_svr(t("a.1"), t("a.0")).holds
    assert not leq_clt(t("a.1"), t("a.0")).holds
    for r in sweep_corpus:
        assert leq_clt(t("0"), r).holds
    assert must(t("0"), t("~b.0 + tau.1")).holds
    assert not must(t("b.0"), t("~b.0 + tau.1")).holds
    print("ACCEPTANCE 1b: PASS")


def test_criterion_1c_surprising_client_equation():
    assert leq_clt(t("a.(b.0 + c.1) + a.(b.1 + c.0)"), t("0")).holds
    print("ACCEPTANCE 1c: PASS")


def test_criterion_1d_peer_vs_client():
    assert must_sc(t("1 + b.0"), t("~b.1")).holds
    assert not must_sc(t("1"), t("~b.1")).holds
    assert leq_clt(t("1 + b.0"), t("1")).holds
    assert not leq_p2p(t("1 + b.0"), t("1")).holds
    print("ACCEPTANCE 1d: PASS")


def test_criterion_1e_ready_set_example():
    assert leq_clt(t("b.a.1"), t("b.(c.0 + 1)")).holds
    assert cached_lts(t("b.a.1")).acc_ut((b,)) == {frozenset({a})}
    # the matched ready set {c} lives in the plain acceptance family; after b
    # the right client is immediately success-capable, so success-avoiding
    # runs cannot reach a stable state and the unsuccessful family is empty
    assert frozenset({c}) in cached_lts(t("b.(c.0 + 1)")).acc((b,))
    assert cached_lts(t("b.(c.0 + 1)")).acc_ut((b,)) == frozenset()
    print("ACCEPTANCE 1e: PASS")


@pytest.mark.xfail(reason="after b the client b.(c.0+1) can succeed at once, "
                          "so no success-avoiding run reaches a stable state; "
                          "{c} can only live in the plain acceptance family "
                          "(and the refinement claim above depends on that)",
                   strict=True)
def test_criterion_1e_literal_unsuccessful_family():
    assert frozenset({c}) in cached_lts(t("b.(c.0 + 1)")).acc_ut((b,))


def test_criterion_1f_usable_action_moderation():
    r = t("c.(a.1 + b.0)")
    assert leq_clt(r, t("c.a.1")).holds
    assert not diag_sbad(r, t("c.a.1"))
    assert diag_sbad_prime(r, t("c.a.1"))
    ua = uaut(r, (c,))
    assert ua & {a, b} == {a}
    assert cached_lts(r).acc_ut((c,)) == {frozenset({a, b})}
    print("ACCEPTANCE 1f: PASS")


def test_criterion_1g_unsuccessful_traces_matter():
    r = t("b.(tau.(1 + a.0) + tau.a.tau.1)")
    assert must(t("~b.~a.0"), r).holds
    assert not must(t("~b.~a.0"), t("b.0")).holds
    assert not leq_clt(r, t("b.0")).holds
    print("ACCEPTANCE 1g: PASS")


def test_criterion_1h_usability_guards_matching():
    assert not usable(t("b.d.0 + b.1")).usable
    assert leq_clt(t("a.(b.d.0 + b.1)"), t("a.c.d.1")).holds
    assert not diag_sbad_prime(t("a.(b.d.0 + b.1)"), t("a.c.d.1"))
    print("ACCEPTANCE 1h: PASS")


def test_criterion_1i_peer_not_in_server():
    assert leq_p2p(t("a.0"), t("b.0")).holds
    assert not leq_svr(t("a.0"), t("b.0")).holds
    print("ACCEPTANCE 1i: PASS")


def test_criterion_1j_external_choice_breaks_the_preorders():
    assert leq_p2p(t("0"), t("b.0")).holds
    assert must_sc(t("~a.1 + ~b.0"), t("a.1 + 0")).holds
    assert not must_sc(t("~a.1 + ~b.0"), t("a.1 + b.0")).holds
    assert not leq_plus("p2p", t("0"), t("b.0")).holds
    print("ACCEPTANCE 1j: PASS")


def test_criterion_1k_equation_counterexamples():
    assert not leq_plus("p2p", t("a.1"), t("a.tau.1")).holds
    assert must_sc(t("a.1"), t("~a.1")).holds
    assert not must_sc(t("a.tau.1"), t("~a.(1 + div)")).holds
    assert must(t("1 + div"), t("1 + tau.a.1")).holds
    assert not must(t("1 + div"), t("tau.(1 + a.1) + tau.a.1")).holds
    assert not leq_plus("p2p", t("a.1"), t("1")).holds
    assert not leq_plus("p2p", t("1"), t("tau.0 + 1")).holds
    assert must_sc(t("~a.0 + ~f.1"), t("f.1 + 0")).holds
    assert not must_sc(t("~a.0 + ~f.1"), t("f.1 + a.1")).holds
    print("ACCEPTANCE 1k: PASS")


def test_criterion_2_axiom_soundness_sweep():
    checks = [
        ("STD", ("svr", "clt", "p2p")),
        ("SVR", ("svr",)),
        ("CLT", ("clt",)),
        ("P2P", ("p2p",)),
        ("Derived", ("p2p", "clt")),
    ]
    total = 0
    for theory, kinds in checks:
        for kind in kinds:
            instances = instantiate_axioms(theory, ("a", "b"), depth=3,
                                           samples=200, seed=20260808)
            failures = check_instances(kind, instances)
            assert failures == [], (theory, kind, failures[:3])
            total += len(instances)
    # the instantiator never draws success-capable terms for the guarded sort
    from ccswb.lts import can_ok

    insts = [inst for inst in instantiate_axioms("STD", ("a", "b"), depth=3, samples=200, seed=1)
             if inst.axiom == "S1a"]
    assert len(insts) == 200
    for inst in insts:
        parts = inst.lhs.parts if hasattr(inst.lhs, "parts") else (inst.lhs,)
        assert any(not can_ok(p.body) for p in parts)
    # the forced forbidden instance is semantically false
    assert not leq_plus("clt", t("1 + tau.a.1"), t("tau.(1 + a.1) + tau.a.1")).holds
    print(f"ACCEPTANCE 2: PASS ({total} ground instances)")


@pytest.fixture(scope="module")
def nf_corpus():
    return list(enumerate_terms(EnumSpec(("a", "b"), 2, max_width=2)))


def test_criterion_3_normalization_soundness(nf_corpus, deep_sample):
    running = t("a.(b.0 (+) c.1) + a.(b.1 (+) c.0)")
    n, exact = normalize_pnf_info(running)
    inner = n.branch_map()[a]
    assert exact
    assert inner.family == {frozenset({b}), frozenset({c}), frozenset({b, c})}
    leaves = inner.leaf_map()
    assert leaves[b] == leaves[c]
    assert pretty(pnf_to_term(leaves[b])) == "tau.0 + tau.1"

    deep = deep_sample[:100]
    exact_checked = shielded = 0
    for term in nf_corpus + deep:
        n, exact = normalize_pnf_info(term)
        assert check_pnf(n) == [], pretty(term)
        cn = normalize_cnf(term)
        assert check_cnf(cn) == [], pretty(term)
        if not exact:
            # an unsuccessful visible step got shielded under a success-capable
            # internal branch; no term of the normal-form grammar carries both
            # that step and an empty unsuccessful family, so the output can
            # only sit above the source
            shielded += 1
            assert leq_plus("p2p", term, pnf_to_term(n)).holds, pretty(term)
            continue
        exact_checked += 1
        rendered = pnf_to_term(n)
        assert leq_plus("p2p", term, rendered).holds, pretty(term)
        assert leq_plus("p2p", rendered, term).holds, pretty(term)
        crendered = cnf_to_term(cn)
        assert leq_plus("clt", term, crendered).holds, pretty(term)
        assert leq_plus("clt", crendered, term).holds, pretty(term)
    assert exact_checked > 40_000
    print(f"ACCEPTANCE 3: PASS ({exact_checked} exact, {shielded} shielded)")


@pytest.mark.xfail(reason="no term of the peer normal-form grammar is "
                          "precongruence-equal to a mixed sum whose only "
                          "internal branches can succeed while some visible "
                          "branch leads to an unsatisfiable residual",
                   strict=True)
def test_criterion_3_literal_every_term_has_an_equal_normal_form():
    term = t("a.0 + tau.1")
    n, _ = normalize_pnf_info(term)
    rendered = pnf_to_term(n)
    assert leq_plus("p2p", rendered, term).holds


def test_criterion_4_cross_validation_sweeps(sweep_corpus, deep_sample):
    for kind in ("svr", "clt", "p2p"):
        report = cross_validate(kind, sweep_corpus, test_limit=700, seed=4)
        assert report.ok, [r.to_json() for r in report.disagreements[:3]]
        refuted = [r for r in report.records if not r.holds]
        assert all(r.witness is not None for r in refuted)
        deep_report = cross_validate(kind, deep_sample, test_limit=700,
                                     pair_cap=1000, seed=4)
        assert deep_report.ok, [r.to_json() for r in deep_report.disagreements[:3]]
        print(f"ACCEPTANCE 4 ({kind}): PASS "
              f"({len(report.records)} + {len(deep_report.records)} pairs)")


def test_criterion_5_structural_properties(sweep_corpus):
    rng = random.Random(55)
    n = len(sweep_corpus)
    # mustSC decomposes into the two one-sided tests
    for _ in range(1000):
        p = sweep_corpus[rng.randrange(n)]
        r = sweep_corpus[rng.randrange(n)]
        assert must_sc(p, r).holds == (must(p, r).holds and must(r, p).holds)
    # the peer preorder refines the client preorder
    pairs = [(sweep_corpus[rng.randrange(n)], sweep_corpus[rng.randrange(n)])
             for _ in range(1200)]
    for p, q in pairs:
        if leq_p2p(p, q).holds:
            assert leq_clt(p, q).holds
    # an internal move on the left lifts the plain preorder to the precongruence
    checked = 0
    for p, q in pairs:
        lts = cached_lts(p)
        if not lts.taus[lts.root]:
            continue
        for kind in ("svr", "clt", "p2p"):
            if leq(kind, p, q).holds:
                checked += 1
                assert leq_plus(kind, p, q).holds
    assert checked > 150
    # the lasso search agrees with exhaustive run enumeration when acyclic
    agreed = 0
    for _ in range(800):
        p = sweep_corpus[rng.randrange(n)]
        r = sweep_corpus[rng.randrange(n)]
        try:
            expected = must_by_enumeration(p, r)
        except NotAcyclic:
            continue
        assert must(p, r).holds == expected
        agreed += 1
    assert agreed > 400
    print(f"ACCEPTANCE 5: PASS ({agreed} enumeration agreements)")


def test_criterion_6_usability_vs_bounded_search(sweep_corpus, deep_sample):
    # depth-3 chains are swept exhaustively; the wide depth-3 samples keep the
    # exhaustive server search affordable when limited to two action names
    chains3 = list(enumerate_terms(EnumSpec(("a", "b"), 3, max_width=1)))
    wide3 = [x for x in deep_sample if len(cached_lts(x).alphabet()) <= 2][:60]
    corpus = sweep_corpus + chains3 + wide3
    usable_n = unusable_n = 0
    for client in corpus:
        report = usable(client)
        found = search_satisfying_server(client)  # depth min(4, client depth)
        assert report.usable == (found is not None), pretty(client)
        if report.usable:
            usable_n += 1
            assert report.witness_server is not None
            assert must(report.witness_server, client).holds, pretty(client)
        else:
            unusable_n += 1
    assert usable_n > 40 and unusable_n > 40
    print(f"ACCEPTANCE 6: PASS ({usable_n} usable, {unusable_n} unusable)")
