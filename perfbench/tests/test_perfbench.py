"""Tests of the benchmark itself: seeded inputs, counterexample replay, the
correctness gates and the traced metric set.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from replay import replay  # noqa: E402
from ccswb import cli, oracle  # noqa: E402
from ccswb.syntax import parse_defs  # noqa: E402
from ccswb.testing import must, must_sc  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

INPUTS_DIGEST = """
import hashlib, sys
sys.path[:0] = [{bench!r}, {src!r}]
import gen, worker
from ccswb.syntax import pretty
h = hashlib.sha256()
for i in range(300):
    h.update(gen.nf_term_text(5, i).encode())
for i in range(60):
    text, args = gen.protocol_case(gen.protocol_schedule(5, i))
    h.update(text.encode() + " ".join(args).encode())
for t in worker.xval_inputs(5)[1]:
    h.update(pretty(t).encode())
print(h.hexdigest())
"""


def test_same_seed_gives_byte_identical_inputs():
    script = INPUTS_DIGEST.format(bench=BENCH, src=os.path.join(ROOT, "src"))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert gen.nf_term_text(5, 7) != gen.nf_term_text(6, 7)
    assert [gen.protocol_schedule(5, i) for i in range(12)] != \
        [gen.protocol_schedule(6, i) for i in range(12)]


def test_protocol_schedule_rotates_commands_without_repeats():
    cases = [gen.protocol_schedule(9, i) for i in range(6 * 40)]
    assert [c % len(gen.COMMANDS) for c in cases[:12]] == list(range(6)) * 2
    assert len(set(cases)) == len(cases)
    assert all(0 <= c < gen.POOL for c in cases)


DEFS = """
def P = a.0
def R = ~a.0 + tau.1
def L = a.L
def M = ~a.M
"""


def _env():
    return parse_defs(DEFS)[0]


def test_replay_accepts_program_evidence():
    env = _env()
    p, r = env.lookup("P"), env.lookup("R")
    ev = must(p, r, env).to_json()["evidence"]
    assert ev["shape"] == "deadlock"
    assert replay(ev, p, r, env, symmetric=False) == []
    lp, lm = env.lookup("L"), env.lookup("M")
    ev = must_sc(lp, lm, env).to_json()["evidence"]
    assert ev["shape"] == "lasso"
    assert replay(ev, lp, lm, env, symmetric=True) == []


def test_replay_rejects_a_wrong_step():
    env = _env()
    p, r = env.lookup("P"), env.lookup("R")
    ev = must(p, r, env).to_json()["evidence"]
    bad = copy.deepcopy(ev)
    bad["states"][1] = ["0", "~a.0 + tau.1"]  # left moves on a alone
    problems = replay(bad, p, r, env, symmetric=False)
    assert any("no tau or synchronisation step" in x for x in problems)


def test_replay_rejects_a_success_state_on_the_path():
    env = _env()
    p, r = env.lookup("P"), env.lookup("R")
    # a genuine right tau step into a stable state where the client succeeds
    ev = {"shape": "deadlock", "states": [["a.0", "~a.0 + tau.1"], ["a.0", "1"]]}
    assert replay(ev, p, r, env, symmetric=False) == ["the client can succeed at state 1"]


def test_replay_rejects_a_lasso_that_does_not_close():
    env = _env()
    lp, lm = env.lookup("L"), env.lookup("M")
    ev = must(lp, lm, env).to_json()["evidence"]
    assert replay(ev, lp, lm, env, symmetric=False) == []
    ev["loop_start"] = 0  # the root is not on the loop
    assert replay(ev, lp, lm, env, symmetric=False) != []


def test_enum_gate_flags_a_wrong_count_and_duplicates():
    terms = list(oracle.enumerate_terms(oracle.EnumSpec(("a",), 1, max_width=2)))
    assert worker.enum_gate(terms, 29, oracle.term_size) == (29, 0, [])
    attempted, failed, problems = worker.enum_gate(terms[:-2], 29, oracle.term_size)
    assert (attempted, failed) == (29, 2) and "pinned count is 29" in problems[0]
    attempted, failed, _ = worker.enum_gate(terms + terms[:1], 29, oracle.term_size)
    assert failed == 3  # one duplicate, one size drop, one extra term


def _protocol_output(case: int, tmp_path) -> tuple[int, str]:
    text, args = gen.protocol_case(case)
    path = tmp_path / f"case{case}.ccs"
    path.write_text(text, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["--json", args[0], str(path)] + args[1:])
    return rc, out.getvalue()


@pytest.mark.parametrize("case", [0, 1, 2, 5])
def test_protocol_gate_accepts_the_recorded_output(case, tmp_path):
    rc, stdout = _protocol_output(case, tmp_path)
    assert worker.protocol_gate(case, rc, stdout, worker.load_expected()) == []


def test_protocol_gate_flags_a_flipped_verdict(tmp_path):
    expected = worker.load_expected()
    case = next(c for c in range(0, gen.POOL, len(gen.COMMANDS)) if expected[c]["verdict"] == "holds")
    rc, stdout = _protocol_output(case, tmp_path)
    flipped = json.dumps(dict(json.loads(stdout), holds=False), indent=2, sort_keys=True) + "\n"
    problems = worker.protocol_gate(case, rc, flipped, expected)
    assert any("differs from the recorded" in x for x in problems)
    assert worker.protocol_gate(case, 2, stdout, expected) == [f"case {case}: exit code 2"]


def test_protocol_gate_flags_evidence_that_does_not_replay(tmp_path):
    expected = worker.load_expected()
    case = next(c for c in range(0, gen.POOL, len(gen.COMMANDS)) if expected[c]["verdict"].startswith("fails"))
    rc, stdout = _protocol_output(case, tmp_path)
    out = json.loads(stdout)
    out["evidence"]["states"] = out["evidence"]["states"][:1] * 2
    problems = worker.protocol_gate(case, rc, json.dumps(out), expected)
    assert any("evidence" in x for x in problems)


@pytest.mark.xfail(strict=True, reason="normalize_pnf_info claims an exact merge for sums that mix "
                                      "1 and div; nf generates without div until this passes")
def test_nf_with_div_leaves_passes_every_check():
    texts = ["tau.(1 + div)"] + [gen.nf_term_text(1, i, gen.NF_LEAVES_WITH_DIV) for i in range(300)]
    assert [p for text in texts for p in worker.nf_op(text)] == []


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90, 90.0)
    assert run.tail(lat * 10)[0] == 99
    assert run.tail(lat[:40]) == (75, 30.0)


def test_per_layer_metrics_match_the_benchmark_definition():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


def _traced(workload: str) -> dict:
    req = {"workload": workload, "seed": 1, "unit": 0, "trace": True}
    out = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), json.dumps(req)],
                         capture_output=True, text=True, timeout=300, check=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONHASHSEED="0"))
    res = json.loads(out.stdout.splitlines()[-1])
    return tracer.layer_metrics(res["trace"], res["phase_s"], res["phase_s"])


def test_every_per_layer_metric_appears_in_the_traced_output():
    names = [m["name"] for m in SPEC["per_layer"]]
    nf = _traced("nf")
    protocols = _traced("protocols")
    for metrics in (nf, protocols):
        assert list(metrics) == names
    # nf builds no product and runs no test; protocols never normalizes
    assert nf["lts.Product.builds"] == nf["testing.must.calls"] == 0
    assert nf["equations.normalize.calls"] == 2 * worker.NF_UNIT
    assert nf["syntax.parse.calls"] == worker.NF_UNIT
    assert protocols["equations.normalize.calls"] == 0
    assert protocols["cli.run.calls"] == worker.PROTOCOLS_UNIT
    assert protocols["lts.Product.builds"] >= worker.PROTOCOLS_UNIT // 3


def test_end_to_end_metrics_match_a_timed_run():
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "nf",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= worker.NF_UNIT
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable] + SPEC["command"][1:] + [
        "--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
