"""ccswb benchmark: seeded workloads timed end to end, or traced by layer.

    python3 perfbench/run.py --workload {enum,xval,nf,protocols,all} --seed N \
        --seconds S --trace {0,1}

Every repetition is a fixed unit of work in a fresh interpreter
(`worker.py`), one after the other.  With `--trace 0` the run starts units
while the next one is expected to end within `--seconds`, and reports the
end-to-end metrics; with `--trace 1` it runs a fixed number of units once
untraced and once traced, and reports the per-layer metrics.
Comment lines (`#`) come first; the last line is the JSON result (`all`
prints one such block per workload).
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("enum", "xval", "nf", "protocols")
BATCHED = ("enum", "xval")  # the program batches the work; no per-op latency
SETUP_SAMPLES = 5  # set-up is measured at least this often per run
TAIL_PERCENTILES = (99, 90, 75)
RUN_LIMIT_S = 170  # a run ends within this many seconds or fails

# units of work a traced run does, untraced and traced
TRACE_UNITS = {"enum": 1, "xval": 1, "nf": 2, "protocols": 2}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def spawn(self, **req) -> dict:
        """Run one worker to completion; returns its result plus `setup_s`
        (from spawning it to its first operation, less host sampling) and
        `wall_s`."""
        req.update(workload=self.workload, seed=self.seed)
        timeout = RUN_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(req)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {req} did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {req} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        res["setup_s"] = res["t_ready"] - t0 - res["setup_spent"]
        res["wall_s"] = time.perf_counter() - t0
        return res


def tail(lat: list[float]) -> tuple[int, float]:
    """Highest of p99, p90, p75 with at least 10 operations beyond it
    (nearest rank) and its value; the median when none has."""
    lat = sorted(lat)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(lat))
        if len(lat) - rank >= 10:
            return p, lat[rank - 1]
    return 50, statistics.median(lat)


def timed(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    # whole units of work while the next one is expected to end in time
    reps: list[dict] = []
    while not reps or runner.elapsed() + reps[-1]["wall_s"] <= seconds:
        reps.append(runner.spawn(unit=len(reps)))
    probes = [runner.spawn(unit=0, setup_only=True) for _ in range(SETUP_SAMPLES - len(reps))]
    ops = sum(r["ops"] for r in reps)
    phase_s = sum(r["phase_s"] * r["scale"] for r in reps)
    if runner.workload in BATCHED:
        # only the mean is observable when the program batches the work
        p50 = tail_ms = 1000 * phase_s / ops
        note = f"op_ms_p50 = op_ms_tail = mean over {ops} batched ops"
    else:
        lat = [x * r["scale"] for r in reps for x in r["lat"]]
        p, tail_s = tail(lat)
        p50, tail_ms = 1000 * statistics.median(lat), 1000 * tail_s
        note = f"op_ms_tail is p{p} of {len(lat)} ops"
    setups = [r["setup_s"] for r in reps + probes]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * r["setup_scale"] for r in reps + probes), "s"),
        "ops_per_s": (ops / phase_s, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MiB"),
    }
    raw = (f"unscaled: setup_s={statistics.median(setups):.4f} "
           f"ops_per_s={ops / sum(r['phase_s'] for r in reps):.4f}; "
           f"host speed factor {statistics.median(r['scale'] for r in reps):.3f}")
    return metrics, reps, [note, raw]


def traced(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    totals: dict[str, float] = {}
    traced_s = untraced_s = 0.0
    reps = []
    for unit in range(TRACE_UNITS[runner.workload]):
        plain = runner.spawn(unit=unit)
        spans = runner.spawn(unit=unit, trace=True)
        untraced_s += plain["phase_s"] * plain["scale"]
        traced_s += spans["phase_s"] * spans["scale"]
        for key, value in spans["trace"].items():
            totals[key] = totals.get(key, 0) + value
        reps += [plain, spans]
    import tracer

    unit_of = {name: unit for name, unit, _ in tracer.PER_LAYER}
    values = tracer.layer_metrics(totals, traced_s, untraced_s)
    metrics = {name: (value, unit_of[name]) for name, value in values.items()}
    return metrics, reps, [f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s of scaled program time"]


def provenance() -> str:
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ccswb", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return (f"python={platform.python_version()} commit={commit} "
            f"src_sha256={digest.hexdigest()[:16]}")


def report(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run one workload and print its `#` lines and JSON result."""
    runner = Runner(workload, seed)
    try:
        metrics, reps, notes = traced(runner) if trace else timed(runner, seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    print(f"# workload={workload} seed={seed} trace={trace} {provenance()}")
    print(f"# {len(reps)} repetitions in {runner.elapsed():.1f} s; {'; '.join(notes)}")
    print(f"# failed_share={failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    for p in problems[:5]:
        print(f"# failure: {p}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ccswb", "__init__.py")):
        print(f"error: no ccswb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(report(w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
