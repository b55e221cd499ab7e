"""Must testing of composed pairs: verdicts with machine-checkable evidence.

A composition fails a test when some maximal run of tau steps never touches a
state whose tested component can report success.  On finite graphs those runs
are exactly paths to deadlocks and lassos inside the success-free region, so
the check is a reachability/cycle search rather than run enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lts import Lts, Product, StateCapExceeded, cached_lts, moves, on_cycle
from .syntax import EMPTY_ENV, Env, Term

#: longest maximal computation the enumeration oracle walks
STEP_BOUND = 64


class NotAcyclic(RuntimeError):
    """The product graph has a cycle; exhaustive run enumeration refused."""


class BoundExceeded(RuntimeError):
    """A maximal run is longer than the enumeration bound."""


@dataclass(frozen=True)
class Counterexample:
    """A maximal unsuccessful computation, as product-state evidence.

    `path` lists product state codes from the root; a Lasso repeats the state
    at `loop_start` as its final element, a DeadlockEnd stops at a stable state.
    """

    product: Product
    path: tuple[int, ...]
    shape: str  # "deadlock" | "lasso"
    loop_start: Optional[int] = None

    def pretty_path(self) -> list[tuple[str, str]]:
        return [self.product.pretty_state(k) for k in self.path]

    def to_json(self) -> dict:
        out: dict = {
            "shape": self.shape,
            "states": [list(self.product.pretty_state(k)) for k in self.path],
        }
        if self.loop_start is not None:
            out["loop_start"] = self.loop_start
        return out


@dataclass(frozen=True)
class Verdict:
    holds: bool
    evidence: Optional[Counterexample] = None

    def to_json(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json()
        return out


def _path(parent, k: int) -> list[int]:
    """The BFS tree path to `k`, where `parent[start] == start`."""
    path = [k]
    while parent[path[-1]] != path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]


def find_unsuccessful_maximal(product: Product, side: str) -> Optional[Counterexample]:
    """Shortest evidence that some maximal computation never lets `side` succeed.

    One breadth-first search over the states where `side` has not succeeded
    expands each once, keeping by visit position its parent and its region
    successors.  It stops at the nearest deadlock; without one, the lasso
    entry c is the first cyclic position, and a search from c finds the loop."""
    left, right, w = product.left_lts, product.right_lts, product.width
    won = product.succeeded(side)
    if won(product.root):
        return None
    pos = {product.root: 0}  # -1 for a state where `side` has succeeded
    order, parent, rows = [product.root], [0], []
    for p, k in enumerate(order):  # the order grows as states are found
        nxt = product.build(moves(left, right, k, w))
        if not nxt:
            return Counterexample(product, tuple(order[q] for q in _path(parent, p)), "deadlock")
        row = []
        for k2 in nxt:
            q = pos.get(k2)
            if q is None:
                q = pos[k2] = -1 if won(k2) else len(order)
                if q > 0:
                    order.append(k2)
                    parent.append(p)
            if q >= 0:
                row.append(q)
        rows.append(row)
    cyclic = on_cycle(range(len(order)), rows.__getitem__)
    if not cyclic:
        return None
    c = min(cyclic)
    # the shortest loop: a path from c inside the cyclic states to a state with c as a successor
    back, queue = {c: c}, [c]
    for q in queue:  # the queue grows as states are found
        if c in rows[q]:
            break
        for q2 in rows[q]:
            if q2 not in back and q2 in cyclic:
                back[q2] = q
                queue.append(q2)
    entry = _path(parent, c)
    path = entry + _path(back, q)[1:] + [c]
    return Counterexample(product, tuple(order[q] for q in path), "lasso", loop_start=len(entry) - 1)


def has_unsuccessful_maximal(server: Lts, client: Lts) -> bool:
    """`find_unsuccessful_maximal(Product(server, client), "right") is not
    None`, decided without evidence.  The left side's question is this one
    with the graphs swapped, since composition is symmetric.

    One depth-first search over the pairs of the two graphs, entering only
    pairs where the client has not succeeded, answers at the first stable
    pair or the first move back to a pair still on its stack: either is a
    maximal unsuccessful computation.  It keeps no product, parent map or
    path.  The pairs it enters count against the smaller of the two graphs'
    caps."""
    ok, w = client.ok, len(client.terms)  # `Product.succeeded`, inlined: a call per edge was 20-25% slower
    if ok[client.root]:
        return False
    cap = min(server.cap, client.cap)
    root = server.root * w + client.root
    nxt = moves(server, client, root, w)
    if not nxt:
        return True
    entered = {root: True}  # True while the pair is on the stack
    stack = [(root, iter(nxt))]
    while stack:
        here, it = stack[-1]
        for there in it:
            if ok[there % w]:
                continue
            state = entered.get(there)
            if state is None:
                if len(entered) >= cap:
                    raise StateCapExceeded(cap)
                nxt = moves(server, client, there, w)
                if not nxt:
                    return True
                entered[there] = True
                stack.append((there, iter(nxt)))
                break
            if state:
                return True
        else:
            stack.pop()
            entered[here] = False
    return False


def fails(server: Lts, client: Lts) -> bool:
    """`has_unsuccessful_maximal`, read from or written to the server's row
    at the client's serial.  The row is a dict of 64-bit words: bits 2k and
    2k+1 of word w say that the pair with the client of serial 32w+k is
    known, and that it fails.  Known and fails go in with one store of the
    cell's word, so a concurrent update can drop a cell but never leave a
    wrong one; a dropped cell is decided again."""
    word, at = divmod(client.serial, 32)
    row = server.row
    cell = row.get(word, 0) >> 2 * at & 3
    if cell:
        return cell == 3
    bad = has_unsuccessful_maximal(server, client)
    row[word] = row.get(word, 0) | (3 if bad else 1) << 2 * at
    return bad


def must(p: Term, r: Term, env: Env = EMPTY_ENV) -> Verdict:
    """Every maximal computation of p || r lets the client r report success."""
    ce = find_unsuccessful_maximal(Product(cached_lts(p, env), cached_lts(r, env)), "right")
    return Verdict(ce is None, ce)


def must_sc(p: Term, r: Term, env: Env = EMPTY_ENV) -> Verdict:
    """Every maximal computation lets both peers report success (not
    necessarily together).  Both side searches run on one product, so its
    cap pools the states they build."""
    product = Product(cached_lts(p, env), cached_lts(r, env))
    ce = find_unsuccessful_maximal(product, "right")
    if ce is None:
        ce = find_unsuccessful_maximal(product, "left")
    return Verdict(ce is None, ce)


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive enumeration of maximal computations
# ---------------------------------------------------------------------------


def enumerate_computations(p: Term, r: Term,
                           env: Env = EMPTY_ENV) -> tuple[Product, list[tuple[int, ...]]]:
    """All maximal computations of an acyclic product, as paths of state codes."""
    product = Product(cached_lts(p, env), cached_lts(r, env))
    if on_cycle([product.root], product.succ):
        raise NotAcyclic("product graph has a cycle")
    paths: list[tuple[int, ...]] = []
    walk: list[int] = [product.root]

    def extend() -> None:
        nxt = product.succ(walk[-1])
        if not nxt:
            paths.append(tuple(walk))
            return
        if len(walk) > STEP_BOUND:
            raise BoundExceeded(f"computation longer than {STEP_BOUND} steps")
        for k2 in nxt:
            walk.append(k2)
            extend()
            walk.pop()

    extend()
    return product, paths


def client_successful(product: Product, path: tuple[int, ...]) -> bool:
    return any(product.flags(k)[1] for k in path)


def successful(product: Product, path: tuple[int, ...]) -> bool:
    return client_successful(product, path) and any(product.flags(k)[0] for k in path)


def must_by_enumeration(p: Term, r: Term, env: Env = EMPTY_ENV) -> bool:
    product, paths = enumerate_computations(p, r, env)
    return all(client_successful(product, path) for path in paths)


def must_sc_by_enumeration(p: Term, r: Term, env: Env = EMPTY_ENV) -> bool:
    product, paths = enumerate_computations(p, r, env)
    return all(successful(product, path) for path in paths)
