import ast
import copy
import hashlib
import importlib.util
import itertools
import os
import pickle
import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FINITE_TERMS, t
from ccswb import syntax
from ccswb.equations import normalize_pnf_info
from ccswb.oracle import EnumSpec, enumerate_terms, term_size
from ccswb.syntax import (
    Action,
    Const,
    DIV,
    EMPTY_ENV,
    NIL,
    Nil,
    OK,
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


_LAZY = "def P = a.Q + b.P\ndef Q = ~c.1 + tau.Q\ndef R = d.(e.0 + R)\ndef S = R (+) 1\n"


def test_bodies_are_built_on_first_lookup(tmp_path, monkeypatch):
    from ccswb import cli
    from ccswb.preorders import leq

    env, names = parse_defs(_LAZY)
    assert names == ["P", "Q", "R", "S"] and env.defs.bodies == {}
    assert "R" in env and "T" not in env
    capped = replace(env, state_cap=7)  # shares the bodies and builds none
    assert capped.defs is env.defs and env.defs.bodies == {}
    assert leq("clt", Const("P"), Const("P"), capped, bound=3).holds
    assert set(env.defs.bodies) == {"P", "Q"}  # R and S are never reached
    assert env.lookup("Q") is capped.lookup("Q") is parse_term("~c.1 + tau.Q", env)
    with pytest.raises(SyntaxErr, match="unbound constant T"):
        env.lookup("T")
    # reading every pair builds every body, in file order
    assert [name for name, _ in env.defs] == names
    assert list(env.defs) == [(name, parse_defs(_LAZY)[0].lookup(name)) for name in names]
    assert set(env.defs.bodies) == set(names)
    # a command builds only what it reaches
    loaded = []
    monkeypatch.setattr(cli, "parse_defs", lambda text: loaded.append(parse_defs(text)) or loaded[-1])
    path = tmp_path / "lazy.ccs"
    path.write_text(_LAZY)
    assert cli.run(["refines", str(path), "--kind", "p2p", "-l", "Q", "-r", "Q", "--bound", "2"]) == 0
    assert set(loaded[0][0].defs.bodies) == {"Q"}


@pytest.mark.parametrize("text, message", [
    ("def R = b.(c.0\n", "2:15: expected rpar, found 'eol'"),
    ("def R = b.c.0 d\n", "2:15: trailing input 'd'"),
    ("def R = b.T\n", "2:11: unbound constant T"),
    ("def R = S + b.0\ndef S = tau.0 + (R)\n", "unguarded recursion through R"),
])
def test_unreached_definitions_are_still_checked(text, message):
    with pytest.raises(SyntaxErr) as exc:
        parse_defs("def P = a.P\n" + text)
    assert str(exc.value) == message


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


_ERROR_CASES = [
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
]
# unguarded recursion names the first definition on a cycle
_CYCLE_CASES = [
    (parse_defs, "def A = B\ndef B = A\ndef C = C", "unguarded recursion through A", 0, 0),
    (parse_defs, "def X = a.0\ndef C = C + a.0\ndef A = B\ndef B = A",
     "unguarded recursion through C", 0, 0),
]
# the base texts of the pinned error corpus below: the texts of the cases
# above, frozen when the corpus was pinned, so that adding a case does not
# redraw the corpus
_CORPUS_BASES = (
    "def P = a.0\ndef P = b.0",
    "def P = a.Q",
    "def P = a.0\n\n  def Q = b.(P + R)  # R\n",
    "def P = a.$",
    "def P = a.0 # ok\ndef Q = ~b.P (+) c.@",
    "def Div = a.0",
    "def A = A + a.0",
    "def P = ~tau.0",
    "def P = a.0 b.0",
    "def P = a.(b.0 + c.0",
    "P = a.0",
    "def P = a.\ndef Q = 0",
    "def P = ~a 0",
    "",
    "  # comment only",
    "a.0 b.0",
    "a.A + ~b.B",
    "B + A",
)


@pytest.mark.parametrize("parse, text, message, line, col", _ERROR_CASES + _CYCLE_CASES, ids=[
    "duplicate", "unbound", "unbound-after-blank-line", "dollar", "bad-char-line-2",
    "def-div", "unguarded", "tilde-tau", "trailing", "missing-rpar", "missing-def",
    "dot-at-eol", "tilde-no-dot", "term-empty", "term-comment-only", "term-trailing",
    "term-unbound", "term-unbound-sum-order", "unguarded-first-defined", "unguarded-self-loop"])
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


def test_deep_parentheses_parse():
    # the reader stacks open parentheses itself, so nesting depth is not
    # bounded by the recursion limit
    depth = 10_000
    assert parse_term("(" * depth + "a.0" + ")" * depth) is parse_term("a.0")
    env, _ = parse_defs("def P = " + "a.(" * depth + "P" + ")" * depth + "\n")
    chain = env.lookup("P")
    for _ in range(depth):
        assert isinstance(chain, Prefix) and chain.guard == Action("a")
        chain = chain.body
    assert chain == Const("P")
    with pytest.raises(SyntaxErr, match="expected rpar, found 'eof'"):
        parse_term("(" * depth + "a.0" + ")" * (depth - 1))


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


def _check_frozen_copies(obj):
    """Copying or unpickling gives the object back, and nothing can change it."""
    assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
    assert pickle.loads(pickle.dumps(obj)) is obj
    for name in obj.__match_args__ + ("_key",):
        with pytest.raises(AttributeError):
            setattr(obj, name, NIL)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def _check_interned(term, rng):
    """One object per term and per label: rebuilding, copying or unpickling
    one gives that object back, and nothing can change it."""
    assert parse_term(pretty(term)) is term
    _check_frozen_copies(term)
    if isinstance(term, Sum):
        parts = list(term.parts)
        rng.shuffle(parts)
        assert mk_sum(parts) is term
    for sub in subterms(term):
        if isinstance(sub, Prefix):
            g = sub.guard
            _check_frozen_copies(g)
            if g is not TAU:
                assert Action(g.name, g.co) is g and g.complement().complement() is g
                assert g.complement() is Action(g.name, not g.co)


def test_labels_are_interned():
    for lab in (TAU, OK, Action("a"), Action("a", True), Action("x_1", True)):
        _check_frozen_copies(lab)
        assert type(lab)(*(getattr(lab, f) for f in lab.__match_args__)) is lab
    a = Action("a")
    assert a.complement() is Action("a", True) and a.complement().complement() is a
    assert repr(a.complement()) == "Action(name='a', co=True)" and str(a.complement()) == "~a"
    assert (repr(TAU), str(TAU), repr(OK), str(OK)) == ("Tau()", "tau", "Ok()", "ok")
    # labels and terms compare and hash by identity
    for obj in (TAU, OK, a, NIL, UNIT, DIV, t("a.1 + tau.0"), Const("A")):
        assert hash(obj) == object.__hash__(obj)
        for cls in type(obj).__mro__[:-1]:
            assert "__hash__" not in vars(cls) and "__eq__" not in vars(cls)
    for name in ("A", "tau", "div", "def", "a-b", ""):
        with pytest.raises(ValueError):
            Action(name)


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
        guards = [TAU, *itertools.chain(*syntax._ACTIONS.values())]
        return sum(len(g._prefixes) for g in guards) + len(syntax._SUMS) + len(syntax._CONSTS)

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


def test_the_action_table_is_swept():
    # a name used once goes with its last prefix; a held action, a held
    # complement or a held pair tuple keeps the name, both actions and
    # their links to each other
    held, co_held = Action("keptname"), Action("keptco", True)
    Action("paironly")
    pair = syntax._ACTIONS["paironly"]  # what a lock-free lookup holds
    Prefix(Action("usedonce"), NIL)
    for _ in range(2):
        with syntax._LOCK:
            syntax._sweep()
        assert "usedonce" not in syntax._ACTIONS
        assert syntax._ACTIONS["paironly"] is pair and Action("paironly") is pair[0]
        assert pair[0].complement() is pair[1] and pair[1].complement() is pair[0]
        assert Action("keptname") is held and Action("keptname", True) is held.complement()
        assert held.complement().complement() is held
        assert Action("keptco", True) is co_held and Action("keptco") is co_held.complement()
        assert co_held.complement().complement() is co_held
    again = Action("usedonce")
    assert again.complement() is Action("usedonce", True) and again.complement().complement() is again


def test_one_off_action_names_leave_nothing_behind():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(100_000):
            Prefix(Action(f"oneoff{i}"), NIL)
        with syntax._LOCK:
            syntax._sweep()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 5 * 2**20
    assert not any(name.startswith("oneoff") for name in syntax._ACTIONS)
    # a normal form keeps its label sets in a table of its own, swept with
    # the terms whose forms hold them
    term = parse_term("tau.(oneoffnf.0 + tau.1) + tau.(b.oneoffnf.1 + tau.0)")
    form, _ = normalize_pnf_info(term)
    assert any(Action("oneoffnf") in s for s in syntax._LABEL_SETS)
    del term, form
    with syntax._LOCK:
        syntax._sweep()
    assert "oneoffnf" not in syntax._ACTIONS


def test_sums_that_differ_in_one_leaf_stay_distinct():
    g = Action("clash")
    one, div = Prefix(g, UNIT), Prefix(g, DIV)
    with_one, with_div = mk_sum([UNIT, one]), mk_sum([DIV, one])
    assert with_one is not with_div
    assert one is not div and Prefix(g, UNIT) is one and Prefix(g, DIV) is div
    assert mk_sum([one, UNIT]) is with_one and Sum(with_div.parts) is with_div
    # a sweep that drops one of them leaves the other interned
    parts = with_one.parts
    del with_one
    with syntax._LOCK:
        syntax._sweep()
    assert parts not in syntax._SUMS and syntax._SUMS[with_div.parts] is with_div
    assert mk_sum([one, DIV]) is with_div
    again = mk_sum([one, UNIT])
    assert again is mk_sum([UNIT, one]) and again is not with_div and pretty(again) == "1 + clash.1"


# ---------------------------------------------------------------------------
# Pinned parser behaviour: every error message, line and column over a
# mutated corpus, and the parsed environments of protocols pool files
# ---------------------------------------------------------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(_ROOT, "perfbench", "gen.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_gen = _load_gen()
_LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# stray characters: most are bad, the last two are blanks inside a line
_STRAY_CHARS = ["$", "@", "!", "%", "-", "?", "{", "\u00e9", "\x00", "\x1f", "\xa0"]


def _error_corpus() -> dict[str, list[str]]:
    """Inputs by mutation family: slices of protocols pool files and the
    frozen bases above, with bad characters, truncations, other line ends, tabs and
    comments holding `(+)`."""
    rng = random.Random(15)
    bases = list(_CORPUS_BASES)
    bases.append("# header (+)\ndef P = a.(b.P + tau.1) (+) ~c.Q  # tail\n\ndef Q = div + ~a.(0 + 1)\n")
    for i in range(3):
        # closed files, so most mutations parse or fail late
        bases.append("\n".join(_gen._server(random.Random(i), "S", 8)) + "\n")
        bases.append("\n".join(_gen._client(random.Random(i), "C", 5)))
    for case in range(0, 600, 97):
        lines = _gen.protocol_case(case)[0].splitlines(keepends=True)
        for start in (0, 5, len(lines) - 9):
            bases.append("".join(lines[start:start + 8]))
    families: dict[str, list[str]] = {name: [] for name in (
        "plain", "bad-char", "truncated", "line-ends", "tabs", "comments")}
    for text in bases:
        families["plain"].append(text)
        for _ in range(12):
            k = rng.randrange(len(text) + 1)
            families["bad-char"].append(text[:k] + rng.choice(_STRAY_CHARS) + text[k:])
        for _ in range(8):
            families["truncated"].append(text[:rng.randrange(len(text) + 1)])
        for end in _LINE_ENDS:
            changed = text.replace("\n", end)
            k = rng.randrange(len(changed) + 1)
            families["line-ends"].append(changed)
            families["line-ends"].append(changed[:k] + "$" + changed[k:])
            families["line-ends"].append(changed[:k])
        tabbed = "".join("\t" if c == " " and rng.random() < 0.5 else c for c in text)
        families["tabs"].append(tabbed)
        k = rng.randrange(len(tabbed) + 1)
        families["tabs"].append(tabbed[:k] + "\t$" + tabbed[k:])
        commented = "".join(line + (" # p (+) q.$" if rng.random() < 0.5 else "")
                            for line in text.split("\n"))
        families["comments"].append(commented)
        families["comments"].append(text.replace("\n", "  #(+)(\n", 1))
        families["comments"].append(commented[:rng.randrange(len(commented) + 1)])
    return families


def _outcome(parse, text: str) -> str:
    try:
        result = parse(text)
    except SyntaxErr as exc:
        return f"error {str(exc)!r} {exc.line} {exc.col}"
    if parse is parse_term:
        return "term " + pretty(result)
    env, names = result
    return "defs " + ";".join(f"{name}={pretty(env.lookup(name))}" for name in names)


# sha256 of the outcomes of each family: a changed message, line or column
# changes it
_CORPUS_DIGESTS = {
    "plain": "14159a5a7ab5a1e83cd85502726e6d6bb5234b141e02607bed5e4c567c263129",
    "bad-char": "eb74f0955fa24a0f982e31810741fbeea748f1b36943e276c9a817914f669dda",
    "truncated": "7fe43987d44db83216c66c106537deeb7eb5ae02e51dbabba6fe62e27ba70e95",
    "line-ends": "b2800ca220a5d45eadecf4d0ecf4e5ee3578881eb704dda93b2225a8d630b24a",
    "tabs": "c6b2e42b09bfaf6b33e44d64bf42c0376f21727477f8f3bdb984db4b914fd30c",
    "comments": "8575e40a65dc46a9620f0b520b97da4bd6d876b2dd27044700e4c79988b634a7",
}


@pytest.mark.parametrize("family", list(_CORPUS_DIGESTS))
def test_error_corpus_is_pinned(family):
    texts = _error_corpus()[family]
    outcomes = [_outcome(parse, text) for text in texts for parse in (parse_defs, parse_term)]
    assert sum(o.startswith("error") for o in outcomes) > len(texts) // 2
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == _CORPUS_DIGESTS[family]


_PIECES = ["def", " ", "P", "Q", "Div", "=", "a", "b1", "tau", "div", ".", "~", "+", "(+)", "(",
           ")", "0", "1", "2", "$", "#", "# c (+) d", "\t", "\n", "\r\n", "\r", "\x0c", "\x85",
           "\u2028", "\x1f", "\u00e9", "eol"]


def _named_token(message: str):
    """The token text an error message names, or None when it names none."""
    for pattern in (r"unexpected character (.+)", r"expected \w+, found (.+)",
                    r"unexpected (.+)", r"trailing input (.+)"):
        m = re.fullmatch(pattern, message)
        if m:
            return ast.literal_eval(m[1])
    m = re.fullmatch(r"(?:duplicate definition of|unbound constant) (\w+)", message)
    if m:
        return m[1]
    return "Div" if message.startswith("Div is reserved") else None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
       st.sampled_from([parse_defs, parse_term]))
def test_error_positions_point_at_the_named_token(text, parse):
    try:
        parse(text)
    except SyntaxErr as exc:
        if not exc.line:
            return
        message = str(exc).split(": ", 1)[1]
        token = _named_token(message)
        rest = text.splitlines()[exc.line - 1][exc.col - 1:]
        if token == "eol":
            # a line end sits where its line's comment starts, or where the line ends
            assert rest == "" or rest.startswith(("#", "eol")), (text, message)
        elif token is not None:
            assert rest.startswith(token), (text, message)


# sha256 of `def N = pretty(body)` over every tenth pool case, in file order
_POOL_DIGEST = "566a94160717a004b5ebdee87094d2f6cc4252a8ac3e223caa5473393a8716ca"


def test_pool_parses_are_pinned_and_interned():
    lines = []
    for case in range(0, _gen.POOL, 10):
        text = _gen.protocol_case(case)[0]
        env, names = parse_defs(text)
        again, _ = parse_defs(text)
        assert all(again.lookup(name) is env.lookup(name) for name in names)
        lines += [f"def {name} = {pretty(env.lookup(name))}" for name in names]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _POOL_DIGEST
