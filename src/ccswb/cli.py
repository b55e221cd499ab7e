"""Command-line surface: parse, lts, must, mustsc, usable, accsets, refines,
normalize, check-axioms, sweep.

Exit codes: 0 = query answered (the verdict itself may be "fails"),
1 = usage or parse error, 2 = resource cap exceeded, 3 = internal
disagreement between the semantic decision and the brute-force oracle.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Callable, Optional

from . import equations, oracle, preorders, testing, usability
from .lts import Product, StateCapExceeded, cached_lts
from .syntax import DEFAULT_STATE_CAP, Action, Env, SyntaxErr, Term, parse_defs, parse_term, pretty

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_DISAGREE = 3


def _load(args) -> tuple[Env, list[str]]:
    """The definitions of `args.file`, under the run's state cap."""
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            lines = exc.object[:exc.start].decode("utf-8").split("\n")
            raise SyntaxErr(f"{args.file} is not UTF-8 text ({exc.reason})",
                            len(lines), len(lines[-1]) + 1) from None
    try:
        env, names = parse_defs(text)
    except SyntaxErr as exc:
        raise SyntaxErr(f"{args.file}{':' if exc.line else ': '}{exc}") from None
    return replace(env, state_cap=args.state_cap), names


def _term(env: Env, name_or_term: str) -> Term:
    if name_or_term in env:
        return env.lookup(name_or_term)
    return parse_term(name_or_term, env)


def _trace(text: str) -> tuple[Action, ...]:
    try:
        return tuple(Action(tok[1:], co=True) if tok.startswith("~") else Action(tok)
                     for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise SyntaxErr(f"--trace: {exc}") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _at_least(low: int, what: str) -> Callable[[str], int]:
    """An argument type: an integer no smaller than `low` (0 or 1)."""
    rule = f"{what} must be a {'positive' if low else 'non-negative'} integer"

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return n

    return parse


_positive = _at_least(1, "state cap")
_bound = _at_least(0, "bound")
_depth = _at_least(0, "depth")


def _alphabet(text: str) -> tuple[str, ...]:
    """An argument type: comma-separated action names."""
    try:
        return tuple(Action(name).name for name in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _state_cap(args) -> int:
    """--state-cap, else CCSWB_STATE_CAP, else the default."""
    if args.state_cap is not None:
        return args.state_cap
    env_cap = os.environ.get("CCSWB_STATE_CAP")
    try:
        return _positive(env_cap) if env_cap else DEFAULT_STATE_CAP
    except argparse.ArgumentTypeError as exc:
        raise SyntaxErr(f"CCSWB_STATE_CAP: {exc}") from None


def cmd_parse(args) -> int:
    env, names = _load(args)
    payload = {"defs": {n: pretty(env.lookup(n)) for n in names}}
    _emit(args, payload, "\n".join(f"def {n} = {pretty(env.lookup(n))}" for n in names))
    return EXIT_OK


def cmd_lts(args) -> int:
    env, names = _load(args)
    if args.process is None and not names:
        raise SyntaxErr(f"{args.file} defines no process; name one with -p")
    t = _term(env, names[-1] if args.process is None else args.process)
    lts = cached_lts(t, env)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(lts.to_dot())
    payload = {
        "process": pretty(t),
        "states": len(lts),
        "edges": lts.n_edges(),
        "converges": lts.converges(),
        "alphabet": sorted(str(a) for a in lts.alphabet()),
    }
    _emit(args, payload,
          f"{pretty(t)}: {len(lts)} states, {lts.n_edges()} edges, "
          f"{'convergent' if lts.converges() else 'divergent'}")
    return EXIT_OK


def cmd_must(args) -> int:
    env, _ = _load(args)
    server = _term(env, args.server)
    client = _term(env, args.client)
    if args.dot:
        product = Product(cached_lts(server, env), cached_lts(client, env))
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(product.to_dot())
    verdict = (testing.must_sc if args.symmetric else testing.must)(server, client, env)
    name = "mustSC" if args.symmetric else "must"
    human = f"{name}({pretty(server)}, {pretty(client)}): {'holds' if verdict.holds else 'fails'}"
    if verdict.evidence is not None:
        states = " -> ".join(f"{l} || {r}" for l, r in verdict.evidence.pretty_path())
        human += f"\n  counterexample ({verdict.evidence.shape}): {states}"
        if verdict.evidence.loop_start is not None:
            human += f"\n  loops back to position {verdict.evidence.loop_start}"
    _emit(args, verdict.to_json(), human)
    return EXIT_OK


def cmd_usable(args) -> int:
    env, _ = _load(args)
    t = _term(env, args.client)
    report = usability.usable(t, env, depth=args.bound)
    human = f"usable({pretty(t)}): {report.usable} ({report.mode})"
    if report.witness_server is not None:
        human += f", witness server {pretty(report.witness_server)}"
    _emit(args, report.to_json(), human)
    return EXIT_OK


def cmd_accsets(args) -> int:
    env, _ = _load(args)
    t = _term(env, args.process)
    s = _trace(args.trace or "")
    lts = cached_lts(t, env)
    fam = lts.acc_ut(s) if args.unsuccessful else lts.acc(s)
    kindname = "unsuccessful acceptance" if args.unsuccessful else "acceptance"
    sets = sorted(sorted(str(a) for a in rs) for rs in fam)
    payload = {"process": pretty(t), "trace": [str(a) for a in s], "family": sets}
    _emit(args, payload,
          f"{kindname} set of {pretty(t)} after '{' '.join(map(str, s))}': "
          + ("{" + ", ".join("{" + ", ".join(rs) + "}" for rs in sets) + "}"))
    return EXIT_OK


def cmd_refines(args) -> int:
    env, _ = _load(args)
    left = _term(env, args.left)
    right = _term(env, args.right)
    fn = preorders.leq_plus if args.precongruence else preorders.leq
    verdict = fn(args.kind, left, right, env, bound=args.bound)
    rel = f"{args.kind}{'+' if args.precongruence else ''}"
    human = (f"{pretty(left)} <={rel} {pretty(right)}: "
             f"{'holds' if verdict.holds else 'fails'} ({verdict.mode})")
    payload = verdict.to_json()
    if not verdict.holds and verdict.failing_clause is not None:
        human += f"\n  clause: {verdict.failing_clause.to_json()}"
        if args.witness:
            try:
                w = preorders.synthesize_witness(args.kind, left, right, env, verdict)
            except preorders.SynthesisGap:
                w = oracle.refute_by_search(args.kind, left, right, env, limit=2000)
            if w is not None:
                payload["witness_test"] = pretty(w)
                human += f"\n  witness test: {pretty(w)}"
    _emit(args, payload, human)
    return EXIT_OK


def cmd_normalize(args) -> int:
    env, _ = _load(args)
    t = _term(env, args.process)
    # the server form is the peer form of the success-free term and the client
    # form is derived from the peer form, so the peer flag speaks for all three
    pnf, exact = equations.normalize_pnf_info(
        equations.erase_units(t) if args.theory == "svr" else t)
    client = args.theory == "clt"
    nf = equations.pnf_to_cnf(pnf) if client else pnf
    term = equations.pnf_to_term(nf)
    errors = (equations.check_cnf if client else equations.check_pnf)(nf)
    payload = {"theory": args.theory, "input": pretty(t), "normal_form": pretty(term),
               "valid": not errors, "exact": exact}
    _emit(args, payload, f"{pretty(t)}  --[{args.theory}]-->  {pretty(term)}"
          + ("" if exact else "  (shielded: the normal form may sit above the input)"))
    return EXIT_OK


def cmd_check_axioms(args) -> int:
    env = Env(state_cap=args.state_cap)
    reports = []
    bad = 0
    for name in (args.theory.upper(), "Derived"):
        if name == "Derived" and args.theory == "svr":
            continue
        insts = equations.instantiate_axioms(name, args.alphabet, depth=args.depth,
                                             samples=args.samples, seed=args.seed)
        failures = equations.check_instances(args.theory, insts, env)
        bad += len(failures)
        reports.append({"axioms": name, "instances": len(insts), "violations":
                        [dict(inst.to_json(), direction=d) for inst, d in failures]})
    payload = {"theory": args.theory, "reports": reports, "sound": bad == 0}
    human = "\n".join(
        f"{r['axioms']}: {r['instances']} instances, {len(r['violations'])} violations"
        for r in reports)
    _emit(args, payload, human)
    return EXIT_OK if bad == 0 else EXIT_DISAGREE


def cmd_sweep(args) -> int:
    spec = oracle.EnumSpec(alphabet=args.alphabet, max_depth=args.depth, max_width=args.width)
    corpus = list(oracle.enumerate_terms(spec))
    report = oracle.cross_validate(args.kind, corpus, Env(state_cap=args.state_cap),
                                   test_limit=args.test_limit, pair_cap=args.pairs_cap,
                                   seed=args.seed)
    payload = {
        "kind": args.kind,
        "corpus": len(corpus),
        "pairs": len(report.records),
        "disagreements": [r.to_json() for r in report.disagreements],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in report.records if args.verbose else []:
            print(json.dumps(r.to_json(), sort_keys=True))
        print(f"{args.kind}: {len(report.records)} pairs checked, "
              f"{len(report.disagreements)} disagreements")
        for r in report.disagreements:
            print("  DISAGREE:", json.dumps(r.to_json(), sort_keys=True))
    return EXIT_OK if report.ok else EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ccswb",
                                 description="Workbench for must-testing of servers, "
                                             "clients and peers")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--state-cap", type=_positive, default=None,
                    help="max reachable states per graph (env CCSWB_STATE_CAP)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a definition file and echo it back")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("lts", help="build the transition graph of a process")
    p.add_argument("file")
    p.add_argument("-p", "--process", help="definition name or inline term")
    p.add_argument("--dot", help="write DOT to this path")
    p.set_defaults(fn=cmd_lts)

    for name in ("must", "mustsc"):
        p = sub.add_parser(name, help=f"decide {name} for a server/client pair")
        p.add_argument("file")
        p.add_argument("-s", "--server", required=True)
        p.add_argument("-c", "--client", required=True)
        p.add_argument("--dot", help="write the product graph to this path")
        p.set_defaults(fn=cmd_must, symmetric=name == "mustsc")

    p = sub.add_parser("usable", help="decide client/peer usability")
    p.add_argument("file")
    p.add_argument("-c", "--client", required=True)
    p.add_argument("--bound", type=_bound, default=None, help="force a bounded verdict")
    p.set_defaults(fn=cmd_usable)

    p = sub.add_parser("accsets", help="acceptance sets after a trace")
    p.add_argument("file")
    p.add_argument("-p", "--process", required=True)
    p.add_argument("--trace", default="", help="space-separated actions, ~ for co")
    p.add_argument("--unsuccessful", action="store_true")
    p.set_defaults(fn=cmd_accsets)

    p = sub.add_parser("refines", help="decide a refinement preorder")
    p.add_argument("file")
    p.add_argument("--kind", choices=preorders.KINDS, required=True)
    p.add_argument("-l", "--left", required=True)
    p.add_argument("-r", "--right", required=True)
    p.add_argument("--bound", type=_bound, default=None, help="force a bounded verdict")
    # a witness test is synthesized for the preorder, not for its precongruence
    either = p.add_mutually_exclusive_group()
    either.add_argument("--precongruence", action="store_true",
                        help="decide under a fresh success summand")
    either.add_argument("--witness", action="store_true",
                        help="attach a distinguishing test to refutations")
    p.set_defaults(fn=cmd_refines)

    p = sub.add_parser("normalize", help="normal form under a theory")
    p.add_argument("file")
    p.add_argument("-p", "--process", required=True)
    p.add_argument("--theory", choices=("svr", "clt", "p2p"), default="p2p")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("check-axioms", help="seeded axiom soundness sweep")
    p.add_argument("--theory", choices=("svr", "clt", "p2p"), required=True)
    p.add_argument("--alphabet", type=_alphabet, default="a,b")
    p.add_argument("--depth", type=_depth, default=2)
    p.add_argument("--samples", type=_at_least(1, "samples"), default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_axioms)

    p = sub.add_parser("sweep", help="cross-validate a preorder against search")
    p.add_argument("--kind", choices=preorders.KINDS, required=True)
    p.add_argument("--alphabet", type=_alphabet, default="a,b")
    p.add_argument("--depth", type=_depth, default=1)
    p.add_argument("--width", type=_at_least(1, "width"), default=2)
    p.add_argument("--test-limit", type=_at_least(1, "test limit"), default=600)
    p.add_argument("--pairs-cap", type=_at_least(1, "pairs cap"), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    return ap


def run(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        args.state_cap = _state_cap(args)
        return args.fn(args)
    except (SyntaxErr, OSError, preorders.ModeError, usability.VisibleCycle,
            equations.NotCCSf) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RecursionError:
        print("error: term nested too deeply (Python recursion limit reached)", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
