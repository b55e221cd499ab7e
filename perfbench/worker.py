"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py '<request as JSON>'

`run.py` starts one of these per repetition, so every repetition pays cold
caches the way a CLI call or a pytest run does.  The worker is a
single-threaded closed loop: it issues the next operation only when the
previous one has returned.  It prints one JSON line: when set-up ended, the
time spent inside the program, the operations done and failed, per-operation
latencies where operations are issued one at a time, its peak RSS and, when
traced, the per-layer totals.

Request keys: `workload`, `seed`, `unit`, `trace`, `setup_only`.  A unit is
a fixed amount of work: both enum specs, one xval sweep, or the unit-th slice
of the seed's nf or protocols operation stream.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402

clock = time.perf_counter

# enum: fixed specs and their pinned term counts
ENUM_SPECS = (
    # ({a}, depth 2, width 2, div): pinned in tests/test_oracle.py
    (("a",), 2, 2, True, 51361),
    # ({a,b}, depth 2, width 2): the ROADMAP baseline
    (("a", "b"), 2, 2, False, 56617),
)

# xval: the criterion-4 sweep plus a seeded deep sample
XVAL_KINDS = ("svr", "clt", "p2p")
XVAL_TESTS = 700
XVAL_DEEP_POOL = 4000
XVAL_DEEP = 24
XVAL_PAIR_CAP = 200

# nf and protocols: operations per repetition (one fixed slice of the stream)
NF_UNIT = 1000
PROTOCOLS_UNIT = 4 * len(gen.COMMANDS)

EXPECTED_PROTOCOLS = os.path.join(HERE, "expected_protocols.json")

# Host speed.  The CPU a worker gets runs at a speed that changes by up to
# 1.5x within seconds to minutes (shared cores).  Workers sample it on an
# interval timer; `run.py` scales measured times to a host on which one
# sample's reference loop takes PROBE_REF_S.
PROBE_REF_S = 2.0e-4
PROBE_EVERY_S = 0.02
PROBE_BURST = 25  # extra samples right after set-up

# ---------------------------------------------------------------------------
# correctness gates (pure functions of the outputs, tested on their own)
# ---------------------------------------------------------------------------


def enum_gate(terms: list, pinned: int, size) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): the count must equal the pinned value,
    terms must be unique and sizes must never decrease.  A count off by n
    fails n operations."""
    problems = []
    dups = len(terms) - len(set(terms))
    if dups:
        problems.append(f"{dups} duplicate terms")
    sizes = [size(t) for t in terms]
    drops = sum(1 for x, y in zip(sizes, sizes[1:]) if y < x)
    if drops:
        problems.append(f"term size decreases {drops} times")
    if len(terms) != pinned:
        problems.append(f"enumerated {len(terms)} terms, pinned count is {pinned}")
    attempted = max(len(terms), pinned)
    return attempted, min(attempted, dups + drops + abs(len(terms) - pinned)), problems


def xval_gate(reports: list) -> tuple[int, int, list[str]]:
    """Every sweep record agrees, and every refutation carries a witness."""
    records = [r for rep in reports for r in rep.records]
    bad = [r for r in records if not r.agree or (not r.holds and r.witness is None)]
    return len(records), len(bad), [f"disagreement: {json.dumps(r.to_json(), sort_keys=True)}" for r in bad]


def output_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:20]


def protocol_gate(case: int, rc: int, stdout: str, expected: list[dict]) -> list[str]:
    """Exit code 0, byte-identical `--json` output to the recorded one, and a
    replayable counterexample for every must/mustsc refutation."""
    from replay import replay
    from ccswb.syntax import parse_defs

    if rc != 0:
        return [f"case {case}: exit code {rc}"]
    problems = []
    want = expected[case]
    if output_digest(stdout) != want["sha"]:
        problems.append(f"case {case}: output differs from the recorded one ({want['verdict']})")
    text, args = gen.protocol_case(case)
    if args[0] in ("must", "mustsc"):
        try:
            out = json.loads(stdout)
        except ValueError:
            return problems + [f"case {case}: output is not JSON"]
        if not out["holds"]:
            env, _ = parse_defs(text)
            found = replay(out.get("evidence", {}), env.lookup(args[2]), env.lookup(args[4]), env,
                           symmetric=args[0] == "mustsc")
            problems += [f"case {case}: evidence: {p}" for p in found]
    return problems


def load_expected() -> list[dict]:
    with open(EXPECTED_PROTOCOLS, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def nf_op(text: str) -> list[str]:
    """Parse, normalize to PNF and CNF, check, render, then verify the
    normal forms by precongruence: both ways for p2p and clt, or one way
    (source below its PNF) when the normalizer reports a shielded merge."""
    from ccswb import equations, preorders, syntax

    term = syntax.parse_term(text)
    pnf, exact = equations.normalize_pnf_info(term)
    problems = equations.check_pnf(pnf)
    cnf = equations.normalize_cnf(term)
    problems += equations.check_cnf(cnf)
    rendered = equations.pnf_to_term(pnf)
    crendered = equations.cnf_to_term(cnf)
    syntax.pretty(rendered)
    syntax.pretty(crendered)
    checks = [("p2p", term, rendered, "source <= pnf")]
    if exact:
        checks += [("p2p", rendered, term, "pnf <= source"),
                   ("clt", term, crendered, "source <= cnf"),
                   ("clt", crendered, term, "cnf <= source")]
    for kind, left, right, what in checks:
        if not preorders.leq_plus(kind, left, right).holds:
            problems.append(f"{kind}+ {what} fails")
    return [f"{text!r}: {p}" for p in problems]


class HostSampler:
    """Samples the host's speed every PROBE_EVERY_S of wall time from a
    SIGALRM handler, which runs in the worker's only thread between
    bytecodes.  A sample times a fixed loop over a preallocated dict, so it
    allocates nothing the garbage collector tracks and the program's heap
    cannot slow it.  `spent` is the wall time sampling took; callers subtract
    it from what they time."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)
        self.spent = 0.0
        self._table = dict.fromkeys(range(256), 0)

    def sample(self, *_signal) -> None:
        t0 = clock()
        d = self._table
        for i in range(256):  # touch the table so the timed loop runs on hot data
            d[i] += 1
        t1 = clock()
        for i in range(2000):
            d[i & 255] += i
        t2 = clock()
        self.samples.append((t1, t2 - t1))
        self.spent += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean loop time of the samples in [start, end)."""
        window = [x for when, x in self.samples if start <= when < end]
        return PROBE_REF_S / statistics.fmean(window or [x for _, x in self.samples])


SAMPLER = HostSampler()


def stopwatch() -> tuple[float, float]:
    return clock(), SAMPLER.spent


def since(mark: tuple[float, float]) -> float:
    """Wall time since `mark`, less the time spent sampling the host."""
    return clock() - mark[0] - (SAMPLER.spent - mark[1])


MAX_PROBLEMS = 3


class Result:
    def __init__(self) -> None:
        self.phase_s = 0.0
        self.ops = 0
        self.failed = 0
        self.lat: list[float] = []
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:MAX_PROBLEMS]


@contextlib.contextmanager
def timed(res: Result):
    mark = stopwatch()
    yield
    res.phase_s += since(mark)


def _ops(res: Result, op, indices: range) -> None:
    """Closed loop over operations: `op(i)` returns the latency and the
    problems of operation i of the seed's stream."""
    for i in indices:
        dt, problems = op(i)
        res.lat.append(dt)
        res.phase_s += dt
        res.ops += 1
        res.fail(problems)


def setup_enum(req: dict):
    from ccswb import oracle

    specs = [(oracle.EnumSpec(alphabet, depth, allow_div=div, max_width=width), pinned)
             for alphabet, depth, width, div, pinned in ENUM_SPECS]

    def phase(res: Result):
        outputs = []
        for spec, pinned in specs:
            with timed(res):
                terms = list(oracle.enumerate_terms(spec))
            outputs.append((terms, pinned))

        def check() -> None:
            for terms, pinned in outputs:
                attempted, failed, problems = enum_gate(terms, pinned, oracle.term_size)
                res.ops += attempted
                res.failed += failed
                res.problems = (res.problems + problems)[:MAX_PROBLEMS]

        return check

    return phase


def xval_inputs(seed: int) -> tuple[list, list]:
    """The 117-term criterion-4 universe (depth <= 1 width <= 2, plus chains
    of depth <= 2) and the seed's deep sample of depth-3 terms."""
    from ccswb import oracle

    wide = oracle.enumerate_terms(oracle.EnumSpec(("a", "b"), 1, max_width=2))
    chains = oracle.enumerate_terms(oracle.EnumSpec(("a", "b"), 2, max_width=1))
    corpus = list(dict.fromkeys(itertools.chain(wide, chains)))
    pool = list(itertools.islice(
        oracle.enumerate_terms(oracle.EnumSpec(("a", "b"), 3, max_width=2)), XVAL_DEEP_POOL))
    rng = random.Random(f"xval:{seed}")
    return corpus, [pool[rng.randrange(len(pool))] for _ in range(XVAL_DEEP)]


def setup_xval(req: dict):
    from ccswb import oracle

    corpus, deep = xval_inputs(req["seed"])

    def phase(res: Result):
        reports = []
        for kind in XVAL_KINDS:
            for terms, cap in ((corpus, None), (deep, XVAL_PAIR_CAP)):
                with timed(res):
                    reports.append(oracle.cross_validate(kind, terms, test_limit=XVAL_TESTS,
                                                         pair_cap=cap, seed=req["seed"]))

        def check() -> None:
            res.ops, res.failed, problems = xval_gate(reports)
            res.problems = problems[:MAX_PROBLEMS]

        return check

    return phase


def setup_nf(req: dict):
    import ccswb.equations  # noqa: F401  (import cost belongs to set-up)
    import ccswb.preorders  # noqa: F401

    def op(i: int):
        text = gen.nf_term_text(req["seed"], i)
        mark = stopwatch()
        try:
            problems = nf_op(text)
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{text!r}: {type(exc).__name__}: {exc}"]
        return since(mark), problems

    def phase(res: Result):
        _ops(res, op, range(req["unit"] * NF_UNIT, (req["unit"] + 1) * NF_UNIT))
        return lambda: None

    return phase


def setup_protocols(req: dict):
    from ccswb import cli

    expected = load_expected()
    outputs: list[tuple[int, int, str]] = []

    def op(work: str, i: int):
        case = gen.protocol_schedule(req["seed"], i)
        text, args = gen.protocol_case(case)
        path = os.path.join(work, f"case{case}.ccs")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        mark = stopwatch()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(["--json", args[0], path] + args[1:])
            except Exception as exc:  # an escaped exception is a failed operation
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        dt = since(mark)
        outputs.append((case, rc, out.getvalue()))
        return dt, []

    def phase(res: Result):
        # definition files live in the checkout, one per operation
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
            _ops(res, functools.partial(op, work),
                 range(req["unit"] * PROTOCOLS_UNIT, (req["unit"] + 1) * PROTOCOLS_UNIT))

        def check() -> None:
            for case, rc, stdout in outputs:
                res.fail(protocol_gate(case, rc, stdout, expected))

        return check

    return phase


SETUPS = {"enum": setup_enum, "xval": setup_xval, "nf": setup_nf, "protocols": setup_protocols}


def main() -> None:
    req = json.loads(sys.argv[1])
    SAMPLER.start()
    phase = SETUPS[req["workload"]](req)
    t_ready = clock()
    out: dict = {"t_ready": t_ready, "setup_spent": SAMPLER.spent}
    for _ in range(PROBE_BURST):
        SAMPLER.sample()
    out["setup_scale"] = SAMPLER.scale(0, clock())
    res = Result()
    if not req.get("setup_only"):
        if req.get("trace"):
            import tracer

            rec = tracer.install()
        t0 = clock()
        check = phase(res)
        t1 = clock()
        if req.get("trace"):
            rec.uninstall()
            out["trace"] = tracer.raw(rec, t1 - t0)
        out["scale"] = SAMPLER.scale(t0, t1)
        check()
    SAMPLER.stop()
    out.update(phase_s=res.phase_s, ops=res.ops, failed=res.failed, lat=res.lat, problems=res.problems,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
