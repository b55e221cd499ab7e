import gc
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_TERMS, t
from ccswb import lts, oracle, preorders
from ccswb.oracle import (
    EnumSpec,
    count_terms,
    cross_validate,
    det_stable_servers,
    enumerate_terms,
    pass_table,
    refute_by_search,
    sample_terms,
    search_satisfying_server,
    term_size,
)
from ccswb.preorders import KINDS, ModeError, SynthesisGap, check_witness, passes
from ccswb.syntax import EMPTY_ENV, Action, Const, Env, parse_defs, pretty


def test_enumeration_base_cases():
    assert [pretty(x) for x in enumerate_terms(EnumSpec(("a",), 0))] == ["0", "1"]
    assert count_terms(EnumSpec(("a",), 0, allow_div=True)) == 4  # 0, 1, div, 1 + div
    got = {pretty(x) for x in enumerate_terms(EnumSpec(("a",), 1, max_width=1))}
    assert got == {"0", "1", "tau.0", "tau.1", "a.0", "a.1", "~a.0", "~a.1"}


def _digest(terms) -> tuple[int, str]:
    lines = [pretty(x) for x in terms]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


_PINNED_ENUMERATIONS = [
    # (spec, terms taken or None for all, (count, sha256 of the printed terms))
    # atoms {0,1}, six single prefixes, C(7,2) two-part sums
    (EnumSpec(("a",), 1, max_width=2), None,
     (29, "67493a39530e57e8ac407ac6708a39f2606ca43ec3058c7c183f5910c72a887d")),
    (EnumSpec(("a", "b"), 1, max_width=2), None,
     (67, "5924abb896ee0a15e314e18ea675b8a2a7bf65d1ef74cb3117feef7cefbf7de1")),
    (EnumSpec(("a", "b"), 2, max_width=1), None,
     (62, "615e4b894c9cd06e89050b7becbc89bd888ed0753eeb9f32e504c8e420d83016")),
    (EnumSpec(("a",), 1, allow_div=True, max_width=3), None,
     (470, "c8ca90a5bf11dc30e73ee9dd9ccc6b696ee32eb2aa556e6a8ff3ec759349bbf7")),
    (EnumSpec(("a", "b", "c"), 1, max_width=3), None,
     (576, "46fbd0c51e194f6685f974e9dd8188a6d87ec130ba4bfc8eea4684291b91d916")),
    (EnumSpec(("a",), 2, allow_unit=False, max_width=3), None,
     (2325, "fda05a1aa449d4eab802590d4509243bb44c96b0c71632235b0fa0fc3b42635e")),
    # the two specs of the benchmark's enum workload
    (EnumSpec(("a",), 2, allow_div=True, max_width=2), None,
     (51361, "08a8b6511b3bd44c6859533352fa151bce700abedd14f646271ba0804fd022c3")),
    (EnumSpec(("a", "b"), 2, max_width=2), None,
     (56617, "153c20ec966896e1b996495dfea578f9a8806803946351eb20e0b8b24611f975")),
    # the benchmark's deep xval pool
    (EnumSpec(("a", "b"), 3, max_width=2), 4000,
     (4000, "df4b6563407ba5cfe391473fbce7e3967bf0b18f448e04c07a3ff122c40f5265")),
]


def test_enumeration_counts_are_stable():
    # frozen digests of the printed terms: exhaustiveness, duplicate-freedom
    # and output order regression
    for spec, limit, pinned in _PINNED_ENUMERATIONS:
        assert _digest(itertools.islice(enumerate_terms(spec), limit)) == pinned, spec


@pytest.mark.parametrize("spec, limit", [
    (EnumSpec(("a", "b"), 3, allow_div=True, max_width=2), 700),  # the xval test pool
    (EnumSpec(("a", "b"), 3, max_width=2), 4000),  # the deep xval pool
])
def test_an_early_stop_leaves_no_cyclic_garbage(spec, limit):
    # the enumerator's state is freed with the generator, without the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert len(list(itertools.islice(enumerate_terms(spec), limit))) == limit
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_repeated_action_name_enumerates_nothing_new():
    assert EnumSpec(("a", "a"), 1).guards() == EnumSpec(("a",), 1).guards()
    assert list(enumerate_terms(EnumSpec(("a", "a"), 1, max_width=2))) == \
        list(enumerate_terms(EnumSpec(("a",), 1, max_width=2)))


def test_enumeration_matches_reference_construction():
    """Independent oracle: close the term universe level by level and compare."""
    from ccswb.syntax import DIV, NIL, Prefix, TAU, UNIT, mk_sum

    def reference(alphabet, depth, atoms):
        guards = [TAU] + [g for n in alphabet for g in (Action(n), Action(n, True))]
        pieces0 = {x for x in atoms if x != NIL}
        level = set(atoms) | {mk_sum([p, q]) for p, q
                              in itertools.combinations(sorted(pieces0, key=pretty), 2)}
        for _ in range(depth):
            prefixes = {Prefix(g, x) for g in guards for x in level}
            pieces = pieces0 | prefixes
            level = set(atoms) | prefixes | level | {
                mk_sum([p, q]) for p, q
                in itertools.combinations(sorted(pieces, key=pretty), 2)}
        return level

    for spec, atoms in [
        (EnumSpec(("a",), 1, max_width=2, allow_div=True), [NIL, UNIT, DIV]),
        (EnumSpec(("a", "b"), 1, max_width=2), [NIL, UNIT]),
        (EnumSpec(("a",), 2, max_width=2), [NIL, UNIT]),
    ]:
        assert set(enumerate_terms(spec)) == reference(spec.alphabet, spec.max_depth, atoms)


def test_enumeration_no_duplicates_and_size_ordered():
    terms = list(enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2)))
    assert len(terms) == len(set(terms))
    sizes = [term_size(x) for x in terms]
    assert sizes == sorted(sizes)


def test_sample_terms_deterministic():
    spec = EnumSpec(("a", "b"), 1, max_width=2)
    assert sample_terms(spec, 10, seed=3) == sample_terms(spec, 10, seed=3)


def test_det_stable_servers():
    servers = [pretty(x) for x in det_stable_servers([Action("a", co=True)], 2, 1)]
    assert servers == ["0", "~a.0", "~a.~a.0"]
    wide = list(det_stable_servers([Action("a", co=True), Action("b", co=True)], 1, 2))
    assert t("~a.0 + ~b.0") in wide


def test_det_stable_servers_are_pinned():
    acts = [Action("a"), Action("b", co=True), Action("c")]
    grid = [s for k in range(1, 4) for depth in range(3) for width in range(3)
            for s in det_stable_servers(acts[:k], depth, width)]
    assert _digest(grid) == (257, "1e564e1416260aad28dfef0a005a4b349831e39aa2e589ebfa500574e0ad246d")


def test_search_finds_the_standard_witnesses():
    assert pretty(refute_by_search("clt", t("a.1"), t("a.0"), limit=400)) == "~a.0"
    assert pretty(refute_by_search("p2p", t("1 + b.0"), t("1"), limit=400)) == "~b.1"
    w = refute_by_search("svr",
                         t("tau.a.(b.0 + c.0) + tau.a.c.0"),
                         t("tau.a.b.0 + tau.a.c.0"), limit=3000)
    assert w is not None and check_witness(
        "svr", t("tau.a.(b.0 + c.0) + tau.a.c.0"), t("tau.a.b.0 + tau.a.c.0"), w)


def test_search_respects_direction():
    # q <=svr p holds, so no test should separate them within the bound
    assert refute_by_search("svr", t("tau.a.b.0 + tau.a.c.0"),
                            t("tau.a.(b.0 + c.0) + tau.a.c.0"), limit=800) is None


def test_pass_table_rows_are_the_definitional_preorder(small_corpus):
    tests = small_corpus[:40]
    rows = pass_table("clt", [t("0"), t("1"), t("a.1")], tests)
    assert rows[t("0")] == 0  # no server satisfies the deadlocked client
    assert rows[t("1")] == (1 << len(tests)) - 1  # everything satisfies success


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(FINITE_TERMS, min_size=1, max_size=3, unique=True),
       st.lists(FINITE_TERMS, min_size=1, max_size=4))
def test_pass_table_rows_are_per_cell_passes(terms, tests):
    for kind in KINDS:
        rows = pass_table(kind, terms, tests)
        assert rows == {p: sum(1 << i for i, r in enumerate(tests) if passes(kind, p, r, EMPTY_ENV))
                        for p in terms}


def test_pass_table_looks_each_graph_up_once(small_corpus, monkeypatch):
    calls = []

    def counted(term, env):
        calls.append(term)
        return lts.cached_lts(term, env)

    monkeypatch.setattr(oracle, "cached_lts", counted)
    monkeypatch.setattr(preorders, "cached_lts", None)  # no per-cell lookup
    terms, tests = small_corpus[:5], small_corpus[5:25]
    for kind in KINDS:
        calls.clear()
        pass_table(kind, terms, tests)
        assert calls == tests + terms


def test_pass_table_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        pass_table("bogus", [t("a.1")], [t("~a.1")])


def test_graphs_are_built_at_the_callers_state_cap(small_corpus):
    env = Env(state_cap=50)
    refute_by_search("clt", t("a.1"), t("a.0"), env, limit=50)
    cross_validate("clt", small_corpus[:6], env, test_limit=40)
    assert env.graphs and {g.cap for g in env.graphs.values()} == {50}


def test_cross_validate_small(small_corpus):
    report = cross_validate("clt", small_corpus[:25], test_limit=300)
    assert report.ok and len(report.records) == 625
    refuted = [r for r in report.records if not r.holds]
    assert refuted and all(r.witness is not None for r in refuted)


@pytest.mark.parametrize("source", ["synthesized", "pool"])
def test_cross_validate_witnesses_separate_their_pairs(source, small_corpus, monkeypatch):
    if source == "pool":
        def gap(*args):
            raise SynthesisGap("pool witnesses only")

        monkeypatch.setattr(oracle, "synthesize_witness", gap)
    for kind in ("svr", "clt", "p2p"):
        report = cross_validate(kind, small_corpus[:12], test_limit=300)
        witnessed = [r for r in report.records if r.witness is not None]
        assert witnessed
        for r in witnessed:
            assert check_witness(kind, r.left, r.right, r.witness), r.to_json()


def test_cross_validate_pair_cap_deterministic(small_corpus):
    r1 = cross_validate("svr", small_corpus[:30], test_limit=200, pair_cap=50, seed=5)
    r2 = cross_validate("svr", small_corpus[:30], test_limit=200, pair_cap=50, seed=5)
    assert [(pretty(a.left), pretty(a.right)) for a in r1.records] == \
           [(pretty(a.left), pretty(a.right)) for a in r2.records]


def test_cross_validate_rejects_recursive_terms_before_building_the_pool(monkeypatch):
    env, _ = parse_defs("def A = ~a.A")

    def no_pool(spec):
        raise AssertionError("the test pool was built")

    monkeypatch.setattr(oracle, "enumerate_terms", no_pool)
    with pytest.raises(ModeError):
        cross_validate("svr", [Const("A")], env)
