"""The benchmark (`perfbench/`) drives ccswb from outside: its tracer wraps
functions and methods by name, and its worker calls the library and the CLI
with fixed arguments and compares `--json` output byte for byte with a
recording.  A rename, a signature change or a changed byte of output breaks
every benchmark run; these tests make such a change fail the suite instead."""
import importlib
import importlib.util
import os

import pytest

import ccswb
from ccswb import cli, oracle
from ccswb.lts import Lts, Product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _load_tracer():
    return _load("tracer")


@pytest.fixture()
def worker(monkeypatch):
    # the worker imports its sibling modules (`gen`, `replay`) by plain name
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    return _load("worker")


def _bindings(modules) -> dict:
    owners = [ccswb, Lts, Product] + [importlib.import_module(f"ccswb.{m}") for m in modules]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


def test_tracer_wraps_its_bindings_and_restores_them():
    tracer = _load_tracer()
    from ccswb import equations, preorders, testing

    before = _bindings(tracer.MODULES)
    rec = tracer.install()
    try:
        for method in ("__init__", "tau_closure", "unsuccessful_closure", "step",
                       "converges_state_set"):
            assert vars(Lts)[method] is not before[(id(Lts), method)], method
        assert testing.find_unsuccessful_maximal is not before[
            (id(testing), "find_unsuccessful_maximal")]
        assert preorders.usable_set is not before[(id(preorders), "usable_set")]
        assert equations.normalize_pnf_info is not before[(id(equations), "normalize_pnf_info")]
    finally:
        rec.uninstall()
    after = _bindings(tracer.MODULES)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_nf_operations_pass_their_checks(worker):
    for i in range(20):
        assert worker.nf_op(worker.gen.nf_term_text(1, i)) == []


def test_xval_sweep_call_shape(worker):
    _, deep = worker.xval_inputs(7)
    reports = [oracle.cross_validate(kind, deep[:8], test_limit=worker.XVAL_TESTS,
                                     pair_cap=20, seed=7)
               for kind in worker.XVAL_KINDS]
    attempted, failed, problems = worker.xval_gate(reports)
    assert attempted == 20 * len(worker.XVAL_KINDS) and failed == 0, problems


def test_protocol_commands_match_the_recorded_json(worker, tmp_path, capsys):
    expected = worker.load_expected()
    # one case per command, then every recorded lasso: the loop search on large products
    lassos = [case for case, want in enumerate(expected) if want["verdict"] == "fails (lasso)"]
    assert len(lassos) == 102
    for case in dict.fromkeys([*range(len(worker.gen.COMMANDS)), *lassos]):
        text, args = worker.gen.protocol_case(case)
        path = tmp_path / f"case{case}.ccs"
        path.write_text(text)
        rc = cli.run(["--json", args[0], str(path)] + args[1:])
        assert worker.protocol_gate(case, rc, capsys.readouterr().out, expected) == [], args
