"""Outside-in span recorder for the traced run.

The recorder wraps public ccswb functions where the calling modules bind
them, plus the `Lts` and `Product` constructors, without touching the
program's source.  Spans are aggregated in memory per layer name (calls,
total time, self time) and turned into the per-layer metrics at the end.
Self time is a span's duration minus the time its child spans cover.  A call
that re-enters the span already open on top of the stack (a recursive call,
or one closure method calling another) is folded into that span.
"""
from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Optional

MODULES = ("syntax", "lts", "testing", "usability", "preorders", "equations", "oracle", "cli")

_clock = time.perf_counter


class Recorder:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child_time]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.top_s = 0.0  # time covered by spans with no parent
        self._patches: list[tuple[Any, str, Any]] = []

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, name: str, frame: list, dt: float) -> None:
        st = self.spans.get(name)
        if st is None:
            st = self.spans[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[1]
        if self.stack:
            self.stack[-1][1] += dt
        else:
            self.top_s += dt

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        """A span around `fn`; `post(args, result, error)` records counts."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = _clock() - t0
                stack.pop()
                self._close(name, frame, dt)
                if post is not None:
                    post(args, result, error)

        return wrapper

    def wrap_generator(self, name: str, fn: Callable, per_item: str) -> Callable:
        """Spans around each resumption of the generator `fn` returns."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = _clock() - t0
                    stack.pop()
                    self._close(name, frame, dt)
                self.add(per_item)
                yield item

        return wrapper

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_everywhere(self, name: str, defining: str, attr: str, post=None, sites=None) -> None:
        """Replace `defining.attr` in every ccswb module that binds it (or only
        in `sites`) with one wrapper."""
        pkg = importlib.import_module("ccswb")
        orig = getattr(importlib.import_module(f"ccswb.{defining}"), attr)
        wrapper = self.wrap(name, orig, post)
        owners = [pkg] + [importlib.import_module(f"ccswb.{m}") for m in MODULES]
        if sites is not None:
            owners = [importlib.import_module(f"ccswb.{m}") for m in sites]
        for mod in owners:
            if getattr(mod, attr, None) is orig:
                self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


def install() -> Recorder:
    """Instrument the ccswb layers; returns the recorder collecting spans."""
    from ccswb import lts, oracle, preorders

    rec = Recorder()
    add = rec.add

    # syntax
    def parsed(args, result, error):
        add("syntax.parse.chars", len(args[0]))

    rec.patch_everywhere("syntax.parse", "syntax", "parse_term", parsed)
    rec.patch_everywhere("syntax.parse", "syntax", "parse_defs", parsed)
    rec.patch_everywhere("syntax.pretty", "syntax", "pretty")

    # lts: constructors, the shared cache and the closure methods
    def lts_built(args, result, error):
        if error is None:
            add("lts.Lts.states", len(args[0]))
            add("lts.Lts.edges", args[0].n_edges())
        if rec.stack and rec.stack[-1][0] == "lts.cached_lts":
            add("lts.cached_lts.misses")

    def product_built(args, result, error):
        if error is None:
            add("lts.Product.states", len(args[0]))

    rec.patch(lts.Lts, "__init__", rec.wrap("lts.Lts", lts.Lts.__init__, lts_built))
    rec.patch(lts.Product, "__init__", rec.wrap("lts.Product", lts.Product.__init__, product_built))
    for method in ("tau_closure", "unsuccessful_closure", "step", "converges_state_set"):
        rec.patch(lts.Lts, method, rec.wrap("lts.closure", getattr(lts.Lts, method)))

    rec.patch_everywhere("lts.cached_lts", "lts", "cached_lts")

    # testing
    def searched(args, result, error):
        if result is not None:
            add(f"testing.evidence.{result.shape}")
            add("testing.evidence.states", len(result.path))

    rec.patch_everywhere("testing.must", "testing", "must")
    rec.patch_everywhere("testing.must_sc", "testing", "must_sc")
    rec.patch_everywhere("testing.search", "testing", "find_unsuccessful_maximal", searched)

    # usability; usable_set counts the calls the preorder walk makes
    rec.patch_everywhere("usability.usable", "usability", "usable")
    rec.patch_everywhere("usability.usable_set", "usability", "usable_set", sites=("preorders",))

    # preorders
    def decided(args, result, error):
        if result is not None and not result.holds:
            add("preorders.refuted")

    def synthesized(args, result, error):
        if isinstance(error, preorders.SynthesisGap):
            add("preorders.synthesis_gaps")

    rec.patch_everywhere("preorders.leq", "preorders", "leq", decided)
    rec.patch_everywhere("preorders.leq_plus", "preorders", "leq_plus", decided)
    rec.patch_everywhere("preorders.synthesize", "preorders", "synthesize_witness", synthesized)
    rec.patch_everywhere("preorders.check_witness", "preorders", "check_witness")

    # equations
    def normalized_info(args, result, error):
        if result is not None:
            add("equations.normalized_info")
            if not result[1]:
                add("equations.shielded")

    rec.patch_everywhere("equations.normalize", "equations", "normalize_pnf_info", normalized_info)
    for attr in ("normalize_pnf", "normalize_cnf", "normalize_snf"):
        rec.patch_everywhere("equations.normalize", "equations", attr)
    for attr in ("pnf_to_term", "cnf_to_term"):
        rec.patch_everywhere("equations.render", "equations", attr)
    for attr in ("check_pnf", "check_cnf"):
        rec.patch_everywhere("equations.check", "equations", attr)

    # oracle
    def tabled(args, result, error):
        add("oracle.pass_table.cells", len(args[1]) * len(args[2]))

    enum = rec.wrap_generator("oracle.enumerate", oracle.enumerate_terms, "oracle.enumerate.terms")
    for mod in (importlib.import_module("ccswb"), oracle):
        rec.patch(mod, "enumerate_terms", enum)
    rec.patch_everywhere("oracle.cross_validate", "oracle", "cross_validate")
    rec.patch_everywhere("oracle.pass_table", "oracle", "pass_table", tabled)

    # cli
    rec.patch_everywhere("cli.run", "cli", "run")
    return rec


#: every per-layer metric as (name, unit, better), in report order
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("syntax.parse.calls", "count", "lower"),
    ("syntax.parse.self_s", "s", "lower"),
    ("syntax.parse.chars", "count", "lower"),
    ("syntax.pretty.calls", "count", "lower"),
    ("syntax.pretty.self_s", "s", "lower"),
    ("lts.Lts.builds", "count", "lower"),
    ("lts.Lts.self_s", "s", "lower"),
    ("lts.Lts.states", "count", "lower"),
    ("lts.Lts.edges", "count", "lower"),
    ("lts.cached_lts.calls", "count", "lower"),
    ("lts.cached_lts.hit_ratio", "ratio", "higher"),
    ("lts.Product.builds", "count", "lower"),
    ("lts.Product.self_s", "s", "lower"),
    ("lts.Product.states", "count", "lower"),
    ("lts.closure.calls", "count", "lower"),
    ("lts.closure.self_s", "s", "lower"),
    ("testing.must.calls", "count", "lower"),
    ("testing.must.self_s", "s", "lower"),
    ("testing.must_sc.calls", "count", "lower"),
    ("testing.must_sc.self_s", "s", "lower"),
    ("testing.search.calls", "count", "lower"),
    ("testing.search.self_s", "s", "lower"),
    ("testing.evidence.deadlock", "count", "lower"),
    ("testing.evidence.lasso", "count", "lower"),
    ("testing.evidence.states", "count", "lower"),
    ("usability.usable.calls", "count", "lower"),
    ("usability.usable.self_s", "s", "lower"),
    ("usability.usable_set.calls", "count", "lower"),
    ("usability.usable_set.self_s", "s", "lower"),
    ("preorders.leq.calls", "count", "lower"),
    ("preorders.leq.self_s", "s", "lower"),
    ("preorders.leq_plus.calls", "count", "lower"),
    ("preorders.leq_plus.self_s", "s", "lower"),
    ("preorders.refuted_ratio", "ratio", "lower"),
    ("preorders.synthesize.calls", "count", "lower"),
    ("preorders.synthesize.self_s", "s", "lower"),
    ("preorders.synthesis_gap_ratio", "ratio", "lower"),
    ("preorders.check_witness.calls", "count", "lower"),
    ("preorders.check_witness.self_s", "s", "lower"),
    ("equations.normalize.calls", "count", "lower"),
    ("equations.normalize.self_s", "s", "lower"),
    ("equations.render.self_s", "s", "lower"),
    ("equations.check.self_s", "s", "lower"),
    ("equations.shielded_ratio", "ratio", "lower"),
    ("oracle.enumerate.terms", "count", "higher"),
    ("oracle.enumerate.self_s", "s", "lower"),
    ("oracle.cross_validate.self_s", "s", "lower"),
    ("oracle.pass_table.cells", "count", "lower"),
    ("oracle.pass_table.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def raw(rec: Recorder, phase_s: float) -> dict[str, float]:
    """The additive totals of one traced process; `phase_s` is the wall time
    of its timed phase."""
    out: dict[str, float] = dict(rec.counts)
    for name, (calls, _total, self_s) in rec.spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["trace.unattributed_s"] = phase_s - rec.top_s
    return out


def layer_metrics(totals: dict[str, float], traced_s: float, untraced_s: float) -> dict[str, float]:
    """Every per-layer metric from additive totals summed over processes."""

    def get(key: str) -> float:
        return totals.get(key, 0)

    def ratio(num: str, base: float) -> float:
        return get(num) / base if base else 0.0

    derived = {
        "syntax.parse.chars": get("syntax.parse.chars"),
        "lts.Lts.builds": get("lts.Lts.calls"),
        "lts.Product.builds": get("lts.Product.calls"),
        "lts.cached_lts.hit_ratio": 1 - ratio("lts.cached_lts.misses", get("lts.cached_lts.calls"))
        if get("lts.cached_lts.calls") else 0.0,
        "preorders.refuted_ratio": ratio(
            "preorders.refuted", get("preorders.leq.calls") + get("preorders.leq_plus.calls")),
        "preorders.synthesis_gap_ratio": ratio(
            "preorders.synthesis_gaps", get("preorders.synthesize.calls")),
        "equations.shielded_ratio": ratio("equations.shielded", get("equations.normalized_info")),
        "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }
    return {name: derived[name] if name in derived else get(name) for name, _, _ in PER_LAYER}
