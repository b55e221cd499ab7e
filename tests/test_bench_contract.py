"""The benchmark's tracer (`perfbench/tracer.py`) wraps ccswb functions and
methods by name from outside.  Renaming or removing one of them breaks every
traced benchmark run; this test makes such a change fail the suite instead."""
import importlib
import importlib.util
import os

import ccswb
from ccswb.lts import Lts, Product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
