import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import FINITE_TERMS, t
from ccswb import equations
from ccswb.equations import (
    GroundInstance,
    NotCCSf,
    PnfDiv,
    PnfExt,
    PnfTau,
    THEORY_AXIOMS,
    check_cnf,
    check_instances,
    check_pnf,
    cnf_to_term,
    erase_units,
    instantiate_axioms,
    is_saturated,
    normalize_cnf,
    normalize_pnf,
    normalize_pnf_info,
    normalize_snf,
    plus_pnf,
    pnf_to_term,
    saturate,
    simplify_unusable,
)
from ccswb.oracle import EnumSpec, enumerate_terms
from ccswb.preorders import leq_plus
from ccswb.syntax import Action, Const, OK, Term, pretty, subterms

a, b, c = Action("a"), Action("b"), Action("c")


def test_saturate_examples():
    assert saturate([{a}, {b}]) == {frozenset({a}), frozenset({b}), frozenset({a, b})}
    assert saturate([{a}, {a, b, c}]) == {
        frozenset({a}), frozenset({a, b}), frozenset({a, c}), frozenset({a, b, c})}
    fam = saturate([{a}, {b}])
    assert saturate(fam) == fam


def test_saturate_is_a_closure_operator():
    rng = random.Random(2)
    labels = [a, b, c, OK]
    for _ in range(60):
        fam = [frozenset(x for x in labels if rng.random() < 0.4) for _ in range(3)]
        fam = [x for x in fam if x] or [frozenset({a})]
        sat = saturate(fam)
        assert set(fam) <= sat                       # extensive
        assert saturate(sat) == sat                  # idempotent
        bigger = saturate(fam + [frozenset({a, b})])
        assert sat <= bigger or not is_saturated(sat)  # monotone


def test_running_example_normal_form():
    term = t("a.(b.0 (+) c.1) + a.(b.1 (+) c.0)")
    n, exact = normalize_pnf_info(term)
    assert exact and check_pnf(n) == []
    assert isinstance(n, PnfExt)
    inner = n.branch_map()[a]
    assert isinstance(inner, PnfTau)
    assert inner.family == {frozenset({b}), frozenset({c}), frozenset({b, c})}
    leaves = inner.leaf_map()
    assert pretty(pnf_to_term(leaves[b])) == "tau.0 + tau.1"
    assert leaves[b] == leaves[c]
    rendered = pnf_to_term(n)
    assert leq_plus("p2p", term, rendered).holds and leq_plus("p2p", rendered, term).holds


def test_pnf_base_cases():
    assert normalize_pnf(t("0")) == PnfExt((), False)
    assert normalize_pnf(t("1")) == PnfExt((), True)
    assert normalize_pnf(t("div")) == PnfDiv(False)
    assert normalize_pnf(t("div + 1")) == PnfDiv(True)
    assert check_pnf(PnfDiv(True)) == []


def test_merge_with_both_successful_derivatives():
    # merging a.1 with a.(1 + b.1) funnels both continuations under one prefix
    n = normalize_pnf(t("a.1 + a.(1 + b.1)"))
    assert check_pnf(n) == []
    rendered = pnf_to_term(n)
    for source in [t("a.1 + a.(1 + b.1)")]:
        assert leq_plus("p2p", source, rendered).holds
        assert leq_plus("p2p", rendered, source).holds


def test_internal_step_to_successful_divergence_is_not_exact():
    # no normal form expresses an internal step onto div + 1; the form
    # renders as div + 1, strictly above the source
    n, exact = normalize_pnf_info(t("tau.(1 + div)"))
    assert n == PnfDiv(True) and exact is False


def test_criterion_3_rule_on_div_terms():
    # source <= PNF under p2p+, plus the converse and the CNF checks when exact
    terms = list(enumerate_terms(EnumSpec(("a",), 1, max_width=2, allow_div=True)))
    assert len(terms) == 106
    for term in terms:
        n, exact = normalize_pnf_info(term)
        rendered = pnf_to_term(n)
        assert leq_plus("p2p", term, rendered).holds, pretty(term)
        if not exact:
            continue
        assert leq_plus("p2p", rendered, term).holds, pretty(term)
        crendered = cnf_to_term(normalize_cnf(term))
        assert leq_plus("clt", term, crendered).holds, pretty(term)
        assert leq_plus("clt", crendered, term).holds, pretty(term)


def test_normalize_rejects_recursive_terms():
    with pytest.raises(NotCCSf):
        normalize_pnf(Const("A"))


def test_the_fold_normalizes_each_distinct_subterm_once(monkeypatch):
    # names no other test uses, so no subterm that holds them has a form yet
    corpus = list(itertools.islice(enumerate_terms(EnumSpec(("foldx", "foldy"), 2, max_width=2)), 2000))
    distinct = {s for term in corpus for s in subterms(term)}
    fresh = {s for s in distinct if s._pnf is None}
    assert fresh >= {s for s in distinct if "fold" in pretty(s)}
    steps = []
    monkeypatch.setattr(equations, "_set_pnf", lambda s, info: steps.append(s) or Term._pnf.__set__(s, info))
    forms = [normalize_pnf_info(term) for term in corpus]
    assert len(steps) == len(fresh) and set(steps) == fresh
    assert all(s._pnf is not None for s in distinct)
    # a second pass reads the kept forms
    assert [normalize_pnf_info(term) for term in corpus] == forms and len(steps) == len(fresh)


def test_client_form_reads_the_kept_peer_form(monkeypatch):
    term = t("a.(b.0 (+) c.1) + a.(b.1 (+) c.0) + tau.(a.1 + b.0) + tau.keptx.0")
    pnf, _ = normalize_pnf_info(term)
    merges = []
    monkeypatch.setattr(equations, "plus_pnf", lambda n, m: merges.append((n, m)) or plus_pnf(n, m))
    cnf = normalize_cnf(term)
    assert merges == [] and normalize_pnf(term) is pnf
    assert check_cnf(cnf) == [] and normalize_snf(term) is normalize_pnf(erase_units(term))


def test_pnf_idempotent_on_rendering(small_corpus):
    for term in small_corpus:
        n = normalize_pnf(term)
        assert normalize_pnf(pnf_to_term(n)) == n


def test_check_pnf_flags_unsaturated_families():
    bogus = PnfTau(frozenset({frozenset({a}), frozenset({b})}),
                   ((a, PnfExt((), False)), (b, PnfExt((), False))), False)
    errors = check_pnf(bogus)
    assert errors and "not saturated" in errors[0] and "a" in errors[0] and "b" in errors[0]


def test_check_pnf_flags_missing_success_propagation():
    bogus = PnfExt(((a, PnfExt((), False)),), True)
    assert any("success" in e for e in check_pnf(bogus))


def test_cnf_examples():
    one = PnfExt((), True)
    assert normalize_cnf(t("1 + a.0")) == one
    assert normalize_cnf(t("tau.(1 + a.1) + tau.1")) == PnfTau(frozenset({frozenset({OK})}), (),
                                                                 False)
    n = normalize_cnf(t("a.1"))
    assert n == PnfExt(((a, one),), False)
    assert pretty(cnf_to_term(n)) == "a.1"
    # the sibling of an immediate success is absorbed; the {ok} branch stays
    n = normalize_cnf(t("tau.(1 + a.1) + tau.b.0"))
    assert n == PnfTau(frozenset({frozenset({OK}), frozenset({b}), frozenset({a, b})}),
                       ((a, one), (b, PnfExt((), False))), False)
    assert pretty(cnf_to_term(n)) == "tau.1 + tau.b.0 + tau.(a.1 + b.0)"
    assert cnf_to_term is pnf_to_term


def test_check_cnf_flags_each_client_grammar_breach():
    zero = PnfExt((), False)
    ok = frozenset({OK})
    cases = [
        (PnfTau(frozenset({frozenset({a, OK})}), ((a, zero),), False),
         "success marker inside a larger member"),
        (PnfExt(((a, zero),), True), "success summand beside siblings"),
        (PnfDiv(True), "success summand beside siblings"),
        (PnfTau(frozenset({ok, frozenset({a}), frozenset({b})}), ((a, zero), (b, zero)), False),
         "family not saturated, missing {a,b}"),
        (PnfTau(frozenset({ok, frozenset({a})}), ((a, zero), (b, zero)), False),
         "leaves do not match the family labels"),
    ]
    for bogus, message in cases:
        assert any(message in e for e in check_cnf(bogus)), (bogus, check_cnf(bogus))
    # a valid peer form keeps success inside a larger member; a client form may not
    peer = normalize_pnf(t("tau.(1 + a.1) + tau.b.0"))
    assert check_pnf(peer) == [] and check_cnf(peer) != []


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FINITE_TERMS)
def test_normal_forms_are_well_formed(term):
    assert check_pnf(normalize_pnf(term)) == []
    assert check_pnf(normalize_snf(term)) == []
    assert check_cnf(normalize_cnf(term)) == []


def test_cnf_soundness_on_corpus(small_corpus):
    for term in small_corpus:
        _, exact = normalize_pnf_info(term)
        if not exact:
            continue
        n = normalize_cnf(term)
        assert check_cnf(n) == []
        rendered = cnf_to_term(n)
        assert leq_plus("clt", term, rendered).holds
        assert leq_plus("clt", rendered, term).holds


def test_pnf_soundness_on_corpus(small_corpus):
    for term in small_corpus:
        n, exact = normalize_pnf_info(term)
        assert check_pnf(n) == []
        if not exact:
            continue
        rendered = pnf_to_term(n)
        assert leq_plus("p2p", term, rendered).holds
        assert leq_plus("p2p", rendered, term).holds


def test_snf_is_server_sound(small_corpus):
    # success erased first, then the shared normalizer; validated against
    # the server precongruence
    for term in small_corpus[:60]:
        n = normalize_snf(term)
        rendered = pnf_to_term(n)
        assert leq_plus("svr", term, rendered).holds, pretty(term)
        assert leq_plus("svr", rendered, term).holds, pretty(term)


def test_erase_units():
    assert erase_units(t("a.1 + 1")) == t("a.0")
    assert erase_units(t("tau.(1 + b.1)")) == t("tau.b.0")


def test_instantiator_respects_sorts():
    from ccswb.lts import can_ok

    insts = instantiate_axioms("STD", ("a", "b"), depth=2, samples=60, seed=1)
    s1a = [i for i in insts if i.axiom == "S1a"]
    assert len(s1a) == 60
    # S1a's left summand guards the success-free variable: mu.x with x non-ok
    for inst in s1a:
        lhs_parts = inst.lhs.parts if hasattr(inst.lhs, "parts") else (inst.lhs,)
        assert any(not can_ok(p.body) for p in lhs_parts)


def test_axiom_soundness_sampled():
    for theory, kind in [("STD", "svr"), ("STD", "clt"), ("STD", "p2p"),
                         ("SVR", "svr"), ("CLT", "clt"), ("P2P", "p2p"),
                         ("Derived", "p2p"), ("Derived", "clt")]:
        insts = instantiate_axioms(theory, ("a", "b"), depth=2, samples=12, seed=7)
        assert check_instances(kind, insts) == []


def test_forbidden_s1a_instance_fails_when_forced():
    # substituting a success-capable term for the success-free variable in the
    # tau-distribution law produces a semantically false inequation
    assert not leq_plus("clt", t("1 + tau.a.1"), t("tau.(1 + a.1) + tau.a.1")).holds


def test_simplify_unusable():
    source = t("a.(b.0 (+) c.1) + a.(b.1 (+) c.0)")
    rendered = pnf_to_term(normalize_pnf(source))
    reduced = simplify_unusable(rendered)
    assert pretty(reduced) == "a.0"
    assert leq_plus("p2p", rendered, reduced).holds
    assert leq_plus("p2p", reduced, rendered).holds
    assert simplify_unusable(t("0")) == t("0")
    reduced = simplify_unusable(t("a.(b.d.0 + b.1)"))
    assert leq_plus("p2p", t("a.(b.d.0 + b.1)"), reduced).holds
    assert leq_plus("p2p", reduced, t("a.(b.d.0 + b.1)")).holds
