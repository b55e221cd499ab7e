"""ccswb: a workbench for must-testing of servers, clients and peers."""

from .syntax import (
    Action,
    Env,
    EMPTY_ENV,
    SyntaxErr,
    Term,
    fresh_action,
    is_ccsf,
    mk_sum,
    parse_defs,
    parse_term,
    pretty,
)
from .lts import Lts, Product, StateCapExceeded, can_ok, transitions
from .testing import Verdict, must, must_sc
from .usability import UsabilityReport, peer_conv, uaut, usable, usbut
from .preorders import (
    RefinementVerdict,
    leq,
    leq_clt,
    leq_p2p,
    leq_plus,
    leq_svr,
    synthesize_witness,
)
from .equations import (
    normalize_cnf,
    normalize_pnf,
    saturate,
    simplify_unusable,
)
from .oracle import EnumSpec, cross_validate, enumerate_terms, refute_by_search

__all__ = [
    "Action",
    "Env",
    "EMPTY_ENV",
    "SyntaxErr",
    "Term",
    "fresh_action",
    "is_ccsf",
    "mk_sum",
    "parse_defs",
    "parse_term",
    "pretty",
    "Lts",
    "Product",
    "StateCapExceeded",
    "can_ok",
    "transitions",
    "Verdict",
    "must",
    "must_sc",
    "UsabilityReport",
    "peer_conv",
    "uaut",
    "usable",
    "usbut",
    "RefinementVerdict",
    "leq",
    "leq_clt",
    "leq_p2p",
    "leq_plus",
    "leq_svr",
    "synthesize_witness",
    "normalize_cnf",
    "normalize_pnf",
    "saturate",
    "simplify_unusable",
    "EnumSpec",
    "cross_validate",
    "enumerate_terms",
    "refute_by_search",
]
