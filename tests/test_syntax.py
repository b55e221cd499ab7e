import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_TERMS, t
from ccswb import syntax
from ccswb.oracle import EnumSpec, enumerate_terms, term_size
from ccswb.syntax import (
    Action,
    Const,
    DIV,
    EMPTY_ENV,
    NIL,
    Nil,
    Prefix,
    Sum,
    SyntaxErr,
    TAU,
    UNIT,
    Unit,
    fresh_action,
    is_ccsf,
    mk_sum,
    parse_defs,
    parse_term,
    pretty,
    subterms,
    term_key,
    visible_depth,
)


def test_parse_internal_choice_sugar():
    env, names = parse_defs("def P = tau.a.(b.0 + c.0) + tau.a.c.0")
    assert names == ["P"]
    p = env.lookup("P")
    assert isinstance(p, Sum) and len(p.parts) == 2
    assert all(isinstance(q, Prefix) and q.guard == TAU for q in p.parts)
    # (+) desugars to the same shape
    env2, _ = parse_defs("def P = a.(b.0 + c.0) (+) a.c.0")
    assert env2.lookup("P") == p


def test_parse_nil_and_recursion():
    env, _ = parse_defs("def Z = 0")
    assert env.lookup("Z") == NIL
    env, _ = parse_defs("def A = ~a.A")
    assert env.lookup("A") == Prefix(Action("a", co=True), Const("A"))


def test_parse_errors_carry_positions():
    with pytest.raises(SyntaxErr) as exc:
        parse_defs("def P = a.0\ndef P = b.0")
    assert exc.value.line == 2
    with pytest.raises(SyntaxErr, match="unbound"):
        parse_defs("def P = a.Q")
    with pytest.raises(SyntaxErr) as exc:
        parse_defs("def P = a.$")
    assert (exc.value.line, exc.value.col) == (1, 11)
    with pytest.raises(SyntaxErr, match="reserved"):
        parse_defs("def Div = a.0")
    with pytest.raises(SyntaxErr, match="unguarded"):
        parse_defs("def A = A + a.0")


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_defs, "def P = a.0\ndef P = b.0", "2:5: duplicate definition of P", 2, 5),
    (parse_defs, "def P = a.Q", "1:11: unbound constant Q", 1, 11),
    (parse_defs, "def P = a.0\n\n  def Q = b.(P + R)  # R\n", "3:18: unbound constant R", 3, 18),
    (parse_defs, "def P = a.$", "1:11: unexpected character '$'", 1, 11),
    (parse_defs, "def P = a.0 # ok\ndef Q = ~b.P (+) c.@", "2:20: unexpected character '@'", 2, 20),
    (parse_defs, "def Div = a.0", "1:5: Div is reserved and cannot be redefined", 1, 5),
    (parse_defs, "def A = A + a.0", "unguarded recursion through A", 0, 0),
    (parse_defs, "def P = ~tau.0", "1:10: expected act, found 'tau'", 1, 10),
    (parse_defs, "def P = a.0 b.0", "1:13: trailing input 'b'", 1, 13),
    (parse_defs, "def P = a.(b.0 + c.0", "1:21: expected rpar, found 'eol'", 1, 21),
    (parse_defs, "P = a.0", "1:1: expected 'def'", 1, 1),
    (parse_defs, "def P = a.\ndef Q = 0", "1:11: unexpected 'eol'", 1, 11),
    (parse_defs, "def P = ~a 0", "1:12: expected dot, found '0'", 1, 12),
    (parse_term, "", "empty term", 0, 0),
    (parse_term, "  # comment only", "empty term", 0, 0),
    (parse_term, "a.0 b.0", "1:5: trailing input 'b'", 1, 5),
    (parse_term, "a.A + ~b.B", "unbound constant A", 0, 0),
    (parse_term, "B + A", "unbound constant A", 0, 0),
], ids=["duplicate", "unbound", "unbound-after-blank-line", "dollar", "bad-char-line-2",
        "def-div", "unguarded", "tilde-tau", "trailing", "missing-rpar", "missing-def",
        "dot-at-eol", "tilde-no-dot", "term-empty", "term-comment-only", "term-trailing",
        "term-unbound", "term-unbound-sum-order"])
def test_parse_error_messages_and_positions(parse, text, message, line, col):
    with pytest.raises(SyntaxErr) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize("text, message", [
    ("a", "expected dot, found 'eof'"),
    ("~", "expected act, found 'eof'"),
    ("tau", "expected dot, found 'eof'"),
    ("(a.0", "expected rpar, found 'eof'"),
    ("a.0 +", "unexpected 'eof'"),
])
def test_truncated_terms_are_syntax_errors(text, message):
    with pytest.raises(SyntaxErr) as exc:
        parse_term(text)
    assert (str(exc.value), exc.value.line) == (message, 0)


def test_deep_prefix_chains_parse():
    depth = 10_000
    env, _ = parse_defs("def P = " + "a." * depth + "P\n")
    term = parse_term("~b." * depth + "1")
    for chain, guard, leaf in [(env.lookup("P"), Action("a"), Const("P")),
                               (term, Action("b", co=True), UNIT)]:
        for _ in range(depth):
            assert isinstance(chain, Prefix) and chain.guard == guard
            chain = chain.body
        assert chain == leaf
    with pytest.raises(SyntaxErr, match="unbound constant A"):
        parse_term("a." * depth + "A")


def test_deep_prefix_chains_walk():
    # `subterms` keeps its own stack, so the static scans take any depth
    depth = 10_000
    term = parse_term("a." * depth + "b.1")
    assert is_ccsf(term)
    assert fresh_action([term]) == Action("f0")
    assert term_size(term) == depth + 2


def test_subterms_is_pre_order():
    term = t("a.(b.0 + c.1) + tau.div")
    assert [pretty(sub) for sub in subterms(term)] == [
        "tau.div + a.(b.0 + c.1)", "tau.div", "div", "a.(b.0 + c.1)", "b.0 + c.1",
        "b.0", "0", "c.1", "1"]


def test_comments_and_blank_lines():
    env, names = parse_defs("# header\n\ndef P = a.1  # trailing\n")
    assert names == ["P"] and pretty(env.lookup("P")) == "a.1"
    env, names = parse_defs("def P = a.0 \t \n \t\ndef Q = b.P\t\n")
    assert names == ["P", "Q"] and env.lookup("Q") == Prefix(Action("b"), Const("P"))
    assert parse_term(" ~a.1\t\n") == Prefix(Action("a", co=True), UNIT)


def test_pretty_examples():
    assert pretty(UNIT) == "1"
    assert pretty(Prefix(TAU, NIL)) == "tau.0"
    assert pretty(mk_sum([Prefix(Action("a"), UNIT), Prefix(Action("b"), NIL)])) == "a.1 + b.0"
    assert pretty(t("~a.(b.0 + 1)")) == "~a.(1 + b.0)"


def test_parse_pretty_round_trip_on_corpus():
    spec = EnumSpec(alphabet=("a", "b"), max_depth=2, allow_div=True, max_width=2)
    for term in itertools.islice(enumerate_terms(spec), 1200):
        assert parse_term(pretty(term)) == term


@settings(max_examples=300, deadline=None)
@given(FINITE_TERMS)
def test_parse_inverts_pretty(term):
    assert parse_term(pretty(term)) == term


def test_complement_is_an_involution():
    for term in [t("a.1"), t("~a.~b.0 + c.1"), t("tau.~x0.0")]:
        for sub in subterms(term):
            if isinstance(sub, Prefix) and isinstance(sub.guard, Action):
                assert sub.guard.complement().complement() == sub.guard


def test_sum_canonicalization():
    assert mk_sum([]) == NIL
    assert mk_sum([t("a.0")]) == t("a.0")
    assert t("a.0 + 0") == t("a.0")
    assert t("a.0 + b.0") == t("b.0 + a.0")
    assert t("a.0 + (b.0 + c.0)") == t("(a.0 + b.0) + c.0")
    assert t("a.0 + a.0") == t("a.0")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(FINITE_TERMS, max_size=4), st.data())
def test_mk_sum_is_canonical(parts, data):
    total = mk_sum(parts)
    assert mk_sum(data.draw(st.permutations(parts))) == total
    k = data.draw(st.integers(0, len(parts)))
    assert mk_sum([mk_sum(parts[:k]), mk_sum(parts[k:])]) == total
    assert mk_sum([total]) == total == mk_sum([total, total])
    if isinstance(total, Sum):
        keys = [term_key(p) for p in total.parts]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert not any(isinstance(p, (Sum, Nil)) for p in total.parts)


@pytest.mark.parametrize("name", ["tau", "div", "def"])
def test_keywords_are_not_action_names(name):
    # `tau.0` would print as an internal step, `div.0` and `def.0` not parse
    with pytest.raises(ValueError):
        Action(name)


def test_is_ccsf():
    assert is_ccsf(t("a.(b.0 + c.1)"))
    assert not is_ccsf(Const("A"))
    assert is_ccsf(t("tau.div + a.1"))
    # closed under subterms
    spec = EnumSpec(alphabet=("a",), max_depth=2, allow_div=True, max_width=2)
    for term in itertools.islice(enumerate_terms(spec), 400):
        assert all(is_ccsf(sub) for sub in subterms(term))


def test_fresh_action():
    assert fresh_action([t("a.1"), t("b.0")]) == Action("f0")
    assert fresh_action([]) == Action("f0")
    assert fresh_action([t("f0.1")]) == Action("f1")
    env, _ = parse_defs("def A = ~f0.B\ndef B = f1.A")
    assert fresh_action([Const("A")], env) == Action("f2")


def test_visible_depth():
    assert visible_depth(t("a.(b.0 + c.1)")) == 2
    assert visible_depth(t("tau.tau.1")) == 0
    assert visible_depth(DIV) == 0


def _check_interned(term, rng):
    """One object per term: rebuilding, copying or unpickling a term gives
    that object back, and nothing can change it."""
    assert parse_term(pretty(term)) is term
    assert copy.copy(term) is term and copy.deepcopy(term) is term
    assert pickle.loads(pickle.dumps(term)) is term
    for sub in subterms(term):
        # the hash a frozen dataclass of the same fields has
        assert hash(sub) == hash(tuple(getattr(sub, f) for f in sub.__match_args__))
    if isinstance(term, Sum):
        parts = list(term.parts)
        rng.shuffle(parts)
        assert mk_sum(parts) is term
    for name in term.__match_args__ + ("_hash",):
        with pytest.raises(AttributeError):
            setattr(term, name, NIL)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(FINITE_TERMS, st.randoms(use_true_random=False))
def test_terms_are_interned(term, rng):
    _check_interned(term, rng)


def test_the_criterion_4_universe_is_interned():
    wide = enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2))
    chains = enumerate_terms(EnumSpec(("a", "b"), 2, max_width=1))
    universe = list(dict.fromkeys([*wide, *chains]))
    assert len(universe) == 117
    rng = random.Random(4)
    for term in universe:
        _check_interned(term, rng)
    assert Unit() is UNIT and Const("A") is Const("A")


def test_the_unique_table_stays_bounded():
    def entries():
        return sum(map(len, syntax._PREFIXES.values())) + len(syntax._SUMS) + len(syntax._CONSTS)

    a = Action("a")
    kept = t("a.(b.0 + tau.1)")
    for i in range(75_000):
        # four new terms, dropped at once: a constant, two prefixes, a sum
        c = Const(f"X{i}")
        total = mk_sum([Prefix(a, c), Prefix(TAU, c)])
    del c, total
    before = entries()
    with syntax._LOCK:
        syntax._sweep()
    alive = entries()
    # the last sweep ran while the loop held at most four of its terms
    assert before <= 2 * (max(alive, syntax._MIN_SWEEP) + 4)
    assert t("a.(b.0 + tau.1)") is kept
