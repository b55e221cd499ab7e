import json
import os
import re
import subprocess
import sys

import pytest

from ccswb.cli import run
from ccswb.equations import (check_cnf, check_pnf, cnf_to_term, erase_units, normalize_cnf,
                             normalize_pnf_info, normalize_snf, pnf_to_term)
from ccswb.lts import Lts
from ccswb.preorders import KINDS, leq, leq_plus
from ccswb.syntax import Action, parse_defs, pretty
from ccswb.testing import must
from ccswb.usability import usable

DEFS = """
# fixtures from the running examples
def P = tau.a.(b.0 + c.0) + tau.a.c.0
def Q = tau.a.b.0 + tau.a.c.0
def Rtest = ~a.~c.1
def R1 = b.a.1
def R2 = b.(c.0 + 1)
def Ex71 = a.(b.0 (+) c.1) + a.(b.1 (+) c.0)
"""


@pytest.fixture()
def defs_file(tmp_path):
    path = tmp_path / "defs.ccs"
    path.write_text(DEFS)
    return str(path)


def test_parse_command(defs_file, capsys):
    assert run(["parse", defs_file]) == 0
    out = capsys.readouterr().out
    assert "def P" in out and "def Ex71" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ccs"
    path.write_text("def P = a.$")
    assert run(["parse", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["parse"], ["lts", "-p", "0"]])
def test_parse_error_names_the_file(command, tmp_path, capsys):
    path = tmp_path / "bad.ccs"
    path.write_text("def P = a.0\ndef Q = a.$")
    loop = tmp_path / "loop.ccs"  # an error with no position
    loop.write_text("def P = Q\ndef Q = P")
    assert run([command[0], str(path)] + command[1:]) == 1
    assert capsys.readouterr().err == f"error: {path}:2:11: unexpected character '$'\n"
    assert run([command[0], str(loop)] + command[1:]) == 1
    assert capsys.readouterr().err == f"error: {loop}: unguarded recursion through P\n"


def test_must_command_json(defs_file, capsys):
    assert run(["--json", "must", defs_file, "-s", "Q", "-c", "Rtest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["evidence"]["shape"] == "deadlock"
    assert payload["evidence"]["states"][0] == ["tau.a.b.0 + tau.a.c.0", "~a.~c.1"]


def test_mustsc_command(defs_file, capsys):
    assert run(["mustsc", defs_file, "-s", "1 + b.0", "-c", "~b.1"]) == 0
    assert "holds" in capsys.readouterr().out


def test_refines_command(defs_file, capsys):
    assert run(["refines", defs_file, "--kind", "clt", "-l", "R1", "-r", "R2"]) == 0
    assert "holds (exact)" in capsys.readouterr().out
    assert run(["refines", defs_file, "--kind", "svr", "-l", "P", "-r", "Q",
                "--witness"]) == 0
    out = capsys.readouterr().out
    assert "fails (exact)" in out and "witness test" in out


def test_refines_precongruence(defs_file, capsys):
    assert run(["refines", defs_file, "--kind", "p2p", "-l", "0", "-r", "b.0",
                "--precongruence"]) == 0
    assert "fails" in capsys.readouterr().out


def test_lts_and_dot(defs_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert run(["lts", defs_file, "-p", "P", "--dot", str(dot)]) == 0
    assert "states" in capsys.readouterr().out
    assert dot.read_text().startswith("digraph")


def test_usable_command_json(defs_file, capsys):
    assert run(["--json", "usable", defs_file, "-c", "b.d.0 + b.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"usable": False, "mode": "exact"}


def test_accsets_command(defs_file, capsys):
    assert run(["accsets", defs_file, "-p", "c.(a.1 + b.0)", "--trace", "c",
                "--unsuccessful"]) == 0
    assert "{a, b}" in capsys.readouterr().out


def test_normalize_command(defs_file, capsys):
    assert run(["--json", "normalize", defs_file, "-p", "Ex71", "--theory", "p2p"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and "tau.0 + tau.1" in payload["normal_form"]
    assert payload["exact"] is True


EX71_CLT = ("a.(tau.b.(tau.0 + tau.1) + tau.c.(tau.0 + tau.1) "
            "+ tau.(b.(tau.0 + tau.1) + c.(tau.0 + tau.1)))")


@pytest.mark.parametrize("process, theory, form", [
    ("Ex71", "clt", EX71_CLT),
    ("Ex71", "svr", "a.(tau.b.0 + tau.c.0 + tau.(b.0 + c.0))"),
    ("tau.(1 + a.1) + tau.b.0", "clt", "tau.1 + tau.b.0 + tau.(a.1 + b.0)"),
], ids=["ex71-clt", "ex71-svr", "absorbed-sibling-clt"])
def test_normalize_client_and_server_forms(defs_file, capsys, process, theory, form):
    assert run(["--json", "normalize", defs_file, "-p", process, "--theory", theory]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal_form"] == form
    assert payload["valid"] is True and payload["exact"] is True


def test_normalize_reports_a_shielded_merge(defs_file, capsys):
    shielded = "a.(b.0 + tau.1) + b.(a.0 + tau.1)"
    assert run(["--json", "normalize", defs_file, "-p", shielded]) == 0
    assert json.loads(capsys.readouterr().out)["exact"] is False
    assert run(["normalize", defs_file, "-p", shielded]) == 0
    assert "shielded" in capsys.readouterr().out
    assert run(["normalize", defs_file, "-p", "Ex71"]) == 0
    assert "shielded" not in capsys.readouterr().out


def test_check_axioms_command(capsys):
    assert run(["check-axioms", "--theory", "clt", "--samples", "3", "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_sweep_command(capsys):
    assert run(["sweep", "--kind", "clt", "--depth", "0", "--test-limit", "120"]) == 0
    assert "0 disagreements" in capsys.readouterr().out


def test_state_cap_exit_code(defs_file, capsys):
    assert run(["--state-cap", "2", "lts", defs_file, "-p", "P"]) == 2


def test_state_cap_env_var(defs_file, capsys, monkeypatch):
    monkeypatch.setenv("CCSWB_STATE_CAP", "2")
    assert run(["lts", defs_file, "-p", "P"]) == 2


def test_check_axioms_honours_the_state_cap(capsys):
    assert run(["--state-cap", "1", "check-axioms", "--theory", "svr", "--samples", "1",
                "--depth", "1"]) == 2
    assert "exceeds cap of 1" in capsys.readouterr().err


def test_every_command_has_stable_json(defs_file, capsys):
    """Golden schema check: the key set of each command's JSON payload."""
    golden = {
        ("parse", defs_file): {"defs"},
        ("lts", defs_file, "-p", "P"): {"process", "states", "edges", "converges",
                                        "alphabet"},
        ("must", defs_file, "-s", "P", "-c", "Rtest"): {"holds"},
        ("mustsc", defs_file, "-s", "1 + b.0", "-c", "~b.1"): {"holds"},
        ("usable", defs_file, "-c", "1"): {"usable", "mode", "witness_server"},
        ("accsets", defs_file, "-p", "Q", "--trace", "a"): {"process", "trace",
                                                            "family"},
        ("refines", defs_file, "--kind", "clt", "-l", "R1", "-r", "R2"):
            {"kind", "holds", "mode"},
        ("normalize", defs_file, "-p", "Ex71"): {"theory", "input", "normal_form",
                                                 "valid", "exact"},
        ("check-axioms", "--theory", "svr", "--samples", "2", "--depth", "1"):
            {"theory", "reports", "sound"},
        ("sweep", "--kind", "svr", "--depth", "0", "--test-limit", "40"):
            {"kind", "corpus", "pairs", "disagreements"},
    }
    for argv, keys in golden.items():
        assert run(["--json", *argv]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == keys, (argv, set(payload))


def test_refines_bounded_mode_reported(tmp_path, capsys):
    path = tmp_path / "rec.ccs"
    path.write_text("def A = ~a.A\ndef B = ~a.~a.B\n")
    assert run(["refines", str(path), "--kind", "svr", "-l", "A", "-r", "B",
                "--bound", "3"]) == 0
    assert "bounded" in capsys.readouterr().out
    assert run(["refines", str(path), "--kind", "svr", "-l", "A", "-r", "B"]) == 1


@pytest.mark.parametrize("argv, env", [
    (["accsets", "{defs}", "-p", "P", "--trace", "~"], {}),
    (["accsets", "{defs}", "-p", "P", "--trace", "a.b"], {}),
    (["accsets", "{defs}", "-p", "P", "--trace", "tau"], {}),
    (["--state-cap", "0", "lts", "{defs}", "-p", "P"], {}),
    (["--state-cap", "-3", "lts", "{defs}", "-p", "P"], {}),
    (["lts", "{defs}", "-p", "P"], {"CCSWB_STATE_CAP": "abc"}),
    (["lts", "{deep}", "-p", "P"], {}),
    (["must", "{deep}", "-s", "P", "-c", "1"], {}),
    (["must", "{defs}", "-s", "a", "-c", "1"], {}),
    (["usable", "{defs}", "-c", "R1", "--bound", "-1"], {}),
    (["refines", "{defs}", "--kind", "clt", "-l", "R1", "-r", "R2", "--bound", "-1"], {}),
    (["refines", "{defs}", "--kind", "clt", "-l", "R1", "-r", "R2", "--precongruence", "--witness"], {}),
    (["parse", "{defs}"], {"CCSWB_STATE_CAP": "0"}),
    (["check-axioms", "--theory", "clt", "--samples", "0"], {}),
    (["check-axioms", "--theory", "clt", "--alphabet", "A"], {}),
    (["check-axioms", "--theory", "clt", "--alphabet", "div"], {}),
    (["check-axioms", "--theory", "clt", "--depth", "-1"], {}),
    (["sweep", "--kind", "clt", "--alphabet", "a,,b"], {}),
    (["sweep", "--kind", "svr", "--alphabet", "tau"], {}),
    (["sweep", "--kind", "clt", "--depth", "-1"], {}),
    (["sweep", "--kind", "clt", "--pairs-cap", "-3"], {}),
    (["sweep", "--kind", "clt", "--test-limit", "0"], {}),
    (["sweep", "--kind", "clt", "--width", "0"], {}),
    (["lts", "{empty}"], {}),
    (["lts", "{dir}", "-p", "0"], {}),
    (["must", "{defs}", "-s", "P", "-c", "1", "--dot", "{dir}"], {}),
    (["lts", "{latin}", "-p", "0"], {}),
    (["lts", "{defs}", "-p", ""], {}),
], ids=["trace-bare-tilde", "trace-dotted", "trace-keyword", "cap-zero", "cap-negative",
        "cap-env-text", "lts-deep-chain", "must-deep-chain", "must-truncated-term", "usable-bound-negative",
        "refines-bound-negative", "refines-precongruence-witness", "parse-cap-env-zero", "axioms-samples-zero",
        "axioms-alphabet-bad-name", "axioms-alphabet-keyword", "axioms-depth-negative",
        "sweep-alphabet-empty-name", "sweep-alphabet-keyword",
        "sweep-depth-negative", "sweep-pairs-cap-negative", "sweep-test-limit-zero",
        "sweep-width-zero", "lts-no-process", "file-is-directory", "must-dot-directory",
        "file-not-utf8", "lts-empty-process"])
def test_bad_input_is_a_usage_error(argv, env, defs_file, tmp_path, capsys, monkeypatch):
    # ordering two chains that share a prefix past the recursion limit
    # compares nested order keys
    deep = tmp_path / "deep.ccs"
    deep.write_text("def P = " + "a." * 3000 + "b.0 + " + "a." * 3000 + "c.0\n")
    empty = tmp_path / "empty.ccs"
    empty.write_text("# no definitions\n")
    latin = tmp_path / "latin.ccs"
    latin.write_bytes("def P = caf\u00e9.0\n".encode("latin-1"))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [arg.format(defs=defs_file, deep=deep, empty=empty, dir=tmp_path, latin=latin)
            for arg in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    # argparse names the subcommand whose argument it rejects ("ccswb usable: error:")
    assert any(re.match(r"(ccswb( [a-z-]+)?: )?error:", line) for line in err.splitlines()), err
    assert "Traceback" not in err
    if str(latin) in argv:
        assert f"error: 1:12: {latin} is not UTF-8 text" in err


def test_deep_chains_run_end_to_end(tmp_path, capsys):
    depth = 10_000
    text = "def P = " + "a." * depth + "1\ndef C = " + "~a." * depth + "1\n"
    env, _ = parse_defs(text)
    p, c = env.lookup("P"), env.lookup("C")
    assert len(Lts(p, env)) == depth + 2
    assert must(p, c, env).holds
    assert leq("clt", p, p, env, bound=3).holds
    assert not leq("svr", p, c, env, bound=3).holds
    assert pretty(p) == "a." * depth + "1"
    # usability and the exact walks keep their own stacks; bounded usability
    # memoizes per set and depth, so its bound stays small
    assert usable(p, env).usable
    for kind in KINDS:
        assert leq(kind, p, p, env).holds
    assert leq_plus("clt", p, p, env).holds
    env2, _ = parse_defs("def B = " + "a." * depth + "b.0\ndef C = " + "a." * depth + "c.0\n")
    fail = leq("svr", env2.lookup("B"), env2.lookup("C"), env2).failing_clause
    assert fail.clause == "acceptance_match" and fail.trace == (Action("a"),) * depth
    assert fail.ready_set == {Action("c")}
    path = tmp_path / "deep.ccs"
    path.write_text(text)
    assert run(["lts", str(path), "-p", "P"]) == 0
    assert run(["must", str(path), "-s", "P", "-c", "C"]) == 0
    assert run(["usable", str(path), "-c", "P"]) == 0
    assert run(["refines", str(path), "--kind", "p2p", "-l", "P", "-r", "P"]) == 0
    # normalization folds, converts, checks and renders on explicit stacks
    pnf, exact = normalize_pnf_info(p)
    cnf = normalize_cnf(p)
    assert exact and check_pnf(pnf) == [] and check_cnf(cnf) == []
    assert pnf_to_term(pnf) is p and cnf_to_term(cnf) is p
    assert pnf_to_term(normalize_snf(p)) is erase_units(p)
    assert pretty(erase_units(p)) == "a." * depth + "0"
    capsys.readouterr()
    for theory in ("svr", "clt", "p2p"):
        assert run(["--json", "normalize", str(path), "-p", "P", "--theory", theory]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] and out["exact"]
        assert out["normal_form"] == "a." * depth + ("0" if theory == "svr" else "1")
    # ordering two chains that share a prefix past the recursion limit
    # compares nested order keys
    shared = tmp_path / "shared.ccs"
    shared.write_text("def P = " + "a." * depth + "b.0 + " + "a." * depth + "c.0\n")
    capsys.readouterr()
    for argv in (["lts", str(shared), "-p", "P"], ["must", str(shared), "-s", "P", "-c", "1"]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: term nested too deeply") and "Traceback" not in err


@pytest.mark.parametrize("link, edges", [("A{i} = A{j}", 2), ("A{i} = A{j} + b.0", 3)],
                         ids=["aliases", "aliases-with-summands"])
def test_long_alias_chains_run_end_to_end(link, edges, tmp_path, capsys):
    # A0 unfolds through 5,000 constants before it reaches a prefix
    n = 5000
    lines = ["def " + link.format(i=i, j=i + 1) for i in range(n)] + [f"def A{n} = a.1"]
    path = tmp_path / "aliases.ccs"
    path.write_text("\n".join(lines) + "\n")
    assert run(["lts", str(path), "-p", "A0"]) == 0
    assert f": 3 states, {edges} edges, convergent" in capsys.readouterr().out
    assert run(["must", str(path), "-s", "A0", "-c", "~a.1"]) == 0
    assert capsys.readouterr().out.endswith(": holds\n")


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Prints the CLI's output for protocols pool cases, a verbose sweep and
# normalization of seeded nf terms with `div` under every theory.  With
# argument `1`, every command starts with a sweep of the unique table, and
# the table is swept again whenever its entries double from a few dozen, so
# terms are freed and rebuilt at other addresses.
_OUTPUTS_SCRIPT = """
import contextlib, importlib.util, io, os, sys
from ccswb import cli, syntax

root, work, sweeps = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
if sweeps:
    syntax._MIN_SWEEP = 32
spec = importlib.util.spec_from_file_location("gen", os.path.join(root, "perfbench", "gen.py"))
gen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen)

def show(argv):
    if sweeps:
        syntax._limit = 0  # the command's first new term sweeps
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.run(argv)
    print(rc, argv[:2], out.getvalue())

for case in range(12):
    text, args = gen.protocol_case(case)
    path = os.path.join(work, "case.ccs")
    with open(path, "w") as fh:
        fh.write(text)
    show(["--json", args[0], path] + args[1:])
show(["sweep", "--kind", "p2p", "--depth", "1", "--test-limit", "300", "--verbose"])
empty = os.path.join(work, "empty.ccs")
open(empty, "w").close()
for i in range(40):
    term = gen.nf_term_text(11, i, gen.NF_LEAVES_WITH_DIV)
    for theory in ("svr", "clt", "p2p"):
        show(["--json", "normalize", empty, "-p", term, "--theory", theory])
"""


def test_outputs_do_not_depend_on_hashing(tmp_path):
    """Labels and terms hash by identity, so set order differs between
    processes; the output must not."""
    outputs = []
    for hash_seed, sweeps in (("0", "0"), ("1", "1")):
        work = tmp_path / hash_seed
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _OUTPUTS_SCRIPT, _ROOT, str(work), sweeps],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert sum(line.startswith("0 ") for line in lines) == 12 + 1 + 120
    assert '"normal_form"' in outputs[0] and '"agree": true' in outputs[0]
