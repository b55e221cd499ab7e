import pytest
from hypothesis import strategies as st

from ccswb.oracle import EnumSpec, enumerate_terms
from ccswb.syntax import (
    DIV,
    EMPTY_ENV,
    NIL,
    TAU,
    UNIT,
    Action,
    Prefix,
    internal_choice,
    mk_sum,
    parse_term,
)


def t(text, env=EMPTY_ENV):
    return parse_term(text, env)


def explore(product):
    """Expand every state `product` reaches, breadth first; return it."""
    seen, order = {product.root}, [product.root]
    for k in order:  # the order grows as states are found
        for k2 in product.succ(k):
            if k2 not in seen:
                seen.add(k2)
                order.append(k2)
    return product


@pytest.fixture(scope="session")
def small_corpus():
    """Every term over {a, b} (both polarities) of prefix depth <= 1, width <= 2."""
    return list(enumerate_terms(EnumSpec(("a", "b"), 1, max_width=2)))


@pytest.fixture(scope="session")
def chain_corpus():
    """Sum-free terms over {a, b} up to depth 3."""
    return list(enumerate_terms(EnumSpec(("a", "b"), 3, max_width=1)))


_GUARDS = [TAU, Action("a"), Action("b"), Action("a", co=True), Action("b", co=True)]
# finite terms over a, b and their complements, with tau, 1, div and internal choice
FINITE_TERMS = st.recursive(
    st.sampled_from([NIL, UNIT, DIV]),
    lambda sub: st.one_of(
        st.builds(Prefix, st.sampled_from(_GUARDS), sub),
        st.lists(sub, min_size=2, max_size=3).map(mk_sum),
        st.builds(internal_choice, sub, sub),
    ),
    max_leaves=10,
)
