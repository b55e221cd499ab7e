"""Record the expected `--json` output of every protocols pool case.

    python3 perfbench/record_expected.py

Each case runs as its own `python3 -m ccswb.cli` process, exactly as a user
would call it.  The table stores a digest of each output and a one-line
verdict; recording stops if a case exits non-zero or a counterexample does
not replay.  Re-record only when the case generator changes, never to make a
changed program pass.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from worker import EXPECTED_PROTOCOLS, ROOT, output_digest  # puts src/ on the path

import gen  # noqa: E402
from ccswb.syntax import parse_defs  # noqa: E402
from replay import replay  # noqa: E402


def verdict_summary(command: str, out: dict) -> str:
    if command in ("must", "mustsc"):
        return "holds" if out["holds"] else f"fails ({out['evidence']['shape']})"
    if command == "usable":
        return f"usable={out['usable']} ({out['mode']})"
    clause = out.get("failing_clause", {}).get("clause")
    return f"holds ({out['mode']})" if out["holds"] else f"fails {clause} ({out['mode']})"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cases = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        for case in range(gen.POOL):
            text, args = gen.protocol_case(case)
            path = os.path.join(work, "case.ccs")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            proc = subprocess.run([sys.executable, "-m", "ccswb.cli", "--json", args[0], path] + args[1:],
                                  capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"case {case}: exit code {proc.returncode}: {proc.stderr}", file=sys.stderr)
                return 1
            out = json.loads(proc.stdout)
            if args[0] in ("must", "mustsc") and not out["holds"]:
                defs, _ = parse_defs(text)
                problems = replay(out["evidence"], defs.lookup(args[2]), defs.lookup(args[4]), defs,
                                  symmetric=args[0] == "mustsc")
                if problems:
                    print(f"case {case}: evidence does not replay: {problems}", file=sys.stderr)
                    return 1
            cases.append({"sha": output_digest(proc.stdout), "verdict": verdict_summary(args[0], out)})
            print(case, " ".join(args), cases[-1]["verdict"], flush=True)
    with open(EXPECTED_PROTOCOLS, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
