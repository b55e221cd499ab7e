"""Brute-force machinery: exhaustive term enumeration, distinguishing-test
search, and cross-validation of the semantic deciders against it."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Iterable, Iterator, Optional

from .lts import cached_lts
from .preorders import ModeError, SynthesisGap, check_witness, leq, passes_graph, synthesize_witness
from .syntax import (
    DIV,
    EMPTY_ENV,
    NIL,
    TAU,
    UNIT,
    Action,
    Env,
    Prefix,
    Term,
    is_ccsf,
    label_key,
    mk_sum,
    pretty,
    subterms,
    term_key,
    visible_depth,
)
from .testing import fails


@dataclass(frozen=True)
class EnumSpec:
    """Shape of an exhaustive CCSf term corpus."""

    alphabet: tuple[str, ...]
    max_depth: int
    allow_unit: bool = True
    allow_div: bool = False
    max_width: int = 2

    def guards(self) -> list:
        """tau, then every action of the alphabet in both polarities, each once."""
        return sorted({TAU, *(Action(name, co) for name in self.alphabet for co in (False, True))},
                      key=label_key)


def term_size(t: Term) -> int:
    return sum(1 for _ in subterms(t))


def _max_size(spec: EnumSpec) -> int:
    # depth-0 sums of atoms (e.g. success plus divergence) seed the recurrence
    w = max(spec.max_width, 1)
    s = 1 + w
    for _ in range(spec.max_depth):
        s = 1 + w * (1 + s)
    return s


def _pick(parts: list[tuple[Term, int]], ends: list[int], start: int, target: int,
          room: int) -> Iterator[tuple]:
    """At most `room` of `parts` at increasing positions from `start`, sizes
    summing to `target`, where the first ends[s] parts have size <= s: each
    set of parts comes out once."""
    for i in range(max(start, ends[target - 1]), ends[target]):
        yield (parts[i],)
    if room > 1:
        for s in range(1, target // 2 + 1):
            for i in range(max(start, ends[s - 1]), ends[s]):
                for rest in _pick(parts, ends, i + 1, target - s, room - 1):
                    yield (parts[i],) + rest


def enumerate_terms(spec: EnumSpec) -> Iterator[Term]:
    """All CCSf terms within the spec, smallest first, lazily.

    Terms come out in increasing node count (then canonical order), so a
    truncated consumer sees the simplest candidates first and deep specs
    stay affordable as long as the consumer stops early.
    """
    guards = spec.guards()
    atoms: list[Term] = [NIL]
    if spec.allow_unit:
        atoms.append(UNIT)
    if spec.allow_div:
        atoms.append(DIV)
    # the terms of the last size, each with its prefix depth
    level = {t: 0 for t in sorted(atoms, key=term_key)}
    yield from level
    # every sum part (a term that is neither 0 nor a sum) with its prefix
    # depth, by increasing size; the first ends[s] parts have size <= s
    parts = [(t, 0) for t in atoms if t is not NIL]
    ends = [0, len(parts)]

    for n in range(2, _max_size(spec) + 1):
        fresh = [(Prefix(g, t), d + 1) for t, d in level.items() if d < spec.max_depth
                 for g in guards]
        sums = [(mk_sum(t for t, _ in chosen), max(d for _, d in chosen))
                for chosen in _pick(parts, ends, 0, n - 1, spec.max_width) if len(chosen) > 1]
        parts.extend(fresh)
        ends.append(len(parts))
        level = dict(fresh + sums)
        yield from sorted(level, key=term_key)


def count_terms(spec: EnumSpec) -> int:
    return sum(1 for _ in enumerate_terms(spec))


def sample_terms(spec: EnumSpec, n: int, seed: int) -> list[Term]:
    pool = list(enumerate_terms(spec))
    rng = random.Random(seed)
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def det_stable_servers(alphabet: Iterable[Action], max_depth: int, max_width: int) -> Iterator[Term]:
    """Tau-free deterministic sums of distinct prefixes: the canonical shape
    of satisfying servers, used by the bounded usability oracle."""
    acts = sorted(alphabet, key=label_key)
    level: set[Term] = {NIL}
    for _ in range(max_depth):
        level = {NIL} | {mk_sum(map(Prefix, chosen, conts))
                         for k in range(1, max_width + 1)
                         for chosen in combinations(acts, k)
                         for conts in product(level, repeat=k)}
    yield from sorted(level, key=term_key)


def search_satisfying_server(r: Term, env: Env = EMPTY_ENV,
                             max_depth: Optional[int] = None) -> Optional[Term]:
    """First enumerated deterministic stable server that must-satisfies `r`.

    A server branch nested below the client's visible depth can never be
    engaged, so truncating the search there keeps it exhaustive for finite
    clients while the enumeration stays desk-sized.
    """
    lts = cached_lts(r, env)
    co_alpha = sorted({a.complement() for a in lts.alphabet()}, key=label_key)
    if max_depth is None:
        max_depth = min(4, visible_depth(r)) if is_ccsf(r) else 4
    if all(lts.ok[i] + len(lts.taus[i]) + sum(map(len, lts.vis[i].values())) <= 1
           for i in lts.states):
        # a chain client meets one stable state per run; a second server
        # branch can never fire
        max_width = 1
    else:
        max_width = min(2, len(co_alpha)) if co_alpha else 1
    for server in det_stable_servers(co_alpha, max_depth, max_width):
        if not fails(cached_lts(server, env), lts):
            return server
    return None


def refute_by_search(kind: str, p: Term, q: Term, env: Env = EMPTY_ENV,
                     limit: Optional[int] = None) -> Optional[Term]:
    """First enumerated test passed with p but not q, else None.

    Tests are as deep as the subjects plus room for the success and
    divergence guards the standard witness shapes use.  `limit` truncates
    the candidate list (smallest terms first); absence of a witness is then
    evidence only up to that bound.
    """
    alphabet = cached_lts(p, env).alphabet() | cached_lts(q, env).alphabet()
    names = tuple(sorted({a.name for a in alphabet}))
    if is_ccsf(p) and is_ccsf(q):
        depth = min(max(visible_depth(p), visible_depth(q)) + 2, 3)
    else:
        depth = 3
    spec = EnumSpec(alphabet=names, max_depth=depth, allow_unit=True, allow_div=True, max_width=2)
    for t in islice(enumerate_terms(spec), limit):
        if check_witness(kind, p, q, t, env):
            return t
    return None


@dataclass
class SweepRecord:
    kind: str
    left: Term
    right: Term
    holds: bool
    witness: Optional[Term]
    agree: bool

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "left": pretty(self.left),
            "right": pretty(self.right),
            "decided": self.holds,
            "agree": self.agree,
        }
        if self.witness is not None:
            out["witness"] = pretty(self.witness)
        return out


@dataclass
class SweepReport:
    records: list[SweepRecord] = field(default_factory=list)

    @property
    def disagreements(self) -> list[SweepRecord]:
        return [r for r in self.records if not r.agree]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def pass_table(kind: str, terms: list[Term], tests: list[Term],
               env: Env = EMPTY_ENV) -> dict[Term, int]:
    """Bitmask per term: which tests it passes in the role fixed by `kind`.

    Row inclusion over the test set is exactly the defining quantification of
    the preorder, restricted to that finite set of tests.  Each graph is
    looked up once per table, not once per cell.
    """
    test_graphs = [cached_lts(t, env) for t in tests]
    rows: dict[Term, int] = {}
    for term in terms:
        graph = cached_lts(term, env)
        bits = 0
        for i, test in enumerate(test_graphs):
            if passes_graph(kind, graph, test):
                bits |= 1 << i
        rows[term] = bits
    return rows


def cross_validate(kind: str, corpus: Iterable[Term], env: Env = EMPTY_ENV, test_limit: int = 1500,
                   pair_cap: Optional[int] = None, seed: int = 0) -> SweepReport:
    """Check every ordered corpus pair against the bounded definitional oracle.

    The pool holds the `test_limit` smallest tests over the corpus alphabet,
    two levels deeper than the corpus (at most 3).  A positive semantic
    verdict must leave no distinguishing test in the pool; a refutation must
    produce a verified witness, synthesized from the failing clause where
    covered and pulled from the pool otherwise.  Corpus terms must be
    finite (`ModeError` otherwise).
    """
    terms = list(dict.fromkeys(corpus))
    if not all(is_ccsf(t) for t in terms):
        raise ModeError("cross-validation requires finite corpus terms")
    names = tuple(sorted({a.name for t in terms for a in cached_lts(t, env).alphabet()}))
    depth = min(3, max((visible_depth(t) for t in terms), default=0) + 2)
    test_spec = EnumSpec(alphabet=names or ("a",), max_depth=depth,
                         allow_unit=True, allow_div=True, max_width=2)
    tests = list(islice(enumerate_terms(test_spec), test_limit))
    rows = pass_table(kind, terms, tests, env)
    pairs = [(a, b) for a in terms for b in terms]
    if pair_cap is not None and len(pairs) > pair_cap:
        rng = random.Random(seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(pair_cap)]
    report = SweepReport()
    for a, b in pairs:
        verdict = leq(kind, a, b, env)
        distinguishing = rows[a] & ~rows[b]
        witness: Optional[Term] = None
        if verdict.holds:
            agree = distinguishing == 0
            if not agree:
                witness = tests[(distinguishing & -distinguishing).bit_length() - 1]
        else:
            try:
                witness = synthesize_witness(kind, a, b, env, verdict)
            except SynthesisGap:
                witness = None
            if witness is None and distinguishing:
                witness = tests[(distinguishing & -distinguishing).bit_length() - 1]
            # verified either way: synthesize_witness checks its test, and a
            # pool test in rows[a] & ~rows[b] passes with a and fails with b
            agree = witness is not None
        report.records.append(SweepRecord(kind, a, b, verdict.holds, witness, agree))
    return report
