"""The state cap lives on `Env`: every graph-building entry point honours it,
and no function takes it (or the enumeration step bound) as a parameter."""
import ast
import pathlib

import pytest

from conftest import t
from ccswb import equations, lts, oracle, preorders, testing, usability
from ccswb.lts import StateCapExceeded
from ccswb.syntax import Env

ENV = Env(state_cap=2)
BIG = t("a.b.c.0")  # four states
SMALL = t("0")

ENTRY_POINTS = {
    "Lts": lambda: lts.Lts(BIG, ENV),
    "cached_lts": lambda: lts.cached_lts(BIG, ENV),
    "must": lambda: testing.must(SMALL, BIG, ENV),
    "must_sc": lambda: testing.must_sc(SMALL, BIG, ENV),
    "usable": lambda: usability.usable(BIG, ENV),
    "usbut": lambda: usability.usbut(BIG, (), ENV),
    "uaut": lambda: usability.uaut(BIG, (), ENV),
    "peer_conv": lambda: usability.peer_conv(BIG, (), ENV),
    "leq": lambda: preorders.leq("svr", BIG, SMALL, ENV),
    "leq_plus": lambda: preorders.leq_plus("svr", BIG, SMALL, ENV),
    "synthesize_witness": lambda: preorders.synthesize_witness("svr", BIG, SMALL, ENV),
    "refute_by_search": lambda: oracle.refute_by_search("svr", BIG, SMALL, ENV, limit=10),
    "cross_validate": lambda: oracle.cross_validate("svr", [BIG, SMALL], ENV, test_limit=10),
    "check_instances": lambda: equations.check_instances(
        "svr", [equations.GroundInstance("X", "eq", BIG, SMALL)], ENV),
    "simplify_unusable": lambda: equations.simplify_unusable(t("c.a.b.1"), ENV),
    "search_satisfying_server": lambda: oracle.search_satisfying_server(BIG, ENV),
    "enumerate_computations": lambda: testing.enumerate_computations(SMALL, BIG, ENV),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_builds_under_the_env_cap(entry):
    with pytest.raises(StateCapExceeded) as exc:
        ENTRY_POINTS[entry]()
    assert exc.value.cap == 2


# each graph of tau.tau.0 has 3 states, but its composition with itself has
# 9, none of them successful: the verdict search must stop at the cap too
ENV3 = Env(state_cap=3)
TT = t("tau.tau.0")
PRODUCT_ENTRY_POINTS = {
    "passes": lambda: preorders.passes("svr", TT, TT, ENV3),
    "check_witness": lambda: preorders.check_witness("svr", TT, TT, TT, ENV3),
}


@pytest.mark.parametrize("entry", sorted(PRODUCT_ENTRY_POINTS))
def test_verdict_search_builds_under_the_env_cap(entry):
    assert len(lts.cached_lts(TT, ENV3)) == 3
    with pytest.raises(StateCapExceeded) as exc:
        PRODUCT_ENTRY_POINTS[entry]()
    assert exc.value.cap == 3


def test_the_cap_must_be_positive():
    with pytest.raises(ValueError):
        Env(state_cap=0)


def test_no_function_takes_the_cap_or_the_step_bound():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "ccswb"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in ("state_cap", "step_bound"):
                        found.append(f"{path.name}:{node.lineno} {arg.arg}")
    assert not found
