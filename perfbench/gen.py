"""Seeded input generation.  Every input is a pure function of its seed and
index, so any slice of a workload's input stream can be rebuilt on its own."""
from __future__ import annotations

import random

ACTIONS = ("a", "b", "c")


def _rng(*key: object) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


# ---------------------------------------------------------------------------
# nf: finite term text over {a, b}
# ---------------------------------------------------------------------------

# Leaves of nf terms: the div-free grammar of the criterion-3 corpus.  With
# `div` as a leaf, about 0.7% of terms mix `1` and `div` in one sum and hit a
# known normalizer defect (`normalize_pnf_info` claims an exact merge that
# is not; smallest case `tau.(1 + div)`).  The benchmark's tests keep that
# defect visible as a strict xfail over `NF_LEAVES_WITH_DIV`; once it is
# fixed, nf should generate with those leaves.
NF_LEAVES = ("0", "1")
NF_LEAVES_WITH_DIV = ("0", "1", "div")


def _nf_term(rng: random.Random, depth: int, leaves: tuple[str, ...]) -> str:
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(leaves)
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            parts.append(rng.choice(leaves))
            continue
        guard = rng.choice(("tau", "a", "~a", "b", "~b"))
        body = _nf_term(rng, depth - 1, leaves)
        if " " in body:
            body = f"({body})"
        parts.append(f"{guard}.{body}")
    if len(parts) >= 2 and rng.random() < 0.25:
        return " (+) ".join(parts[:2]) + "".join(f" + {p}" for p in parts[2:])
    return " + ".join(parts)


def nf_term_text(seed: int, index: int, leaves: tuple[str, ...] = NF_LEAVES) -> str:
    rng = _rng("nf", seed, index)
    return _nf_term(rng, rng.randint(2, 3), leaves)


# ---------------------------------------------------------------------------
# protocols: recursive definition files plus one ccswb command each
# ---------------------------------------------------------------------------


def _server(rng: random.Random, name: str, k: int) -> list[str]:
    dead = rng.randrange(1, k) if rng.random() < 0.4 else None
    lines = []
    for i in range(k):
        if i == dead:
            lines.append(f"def {name}{i} = 0")
            continue
        parts = []
        for act in rng.sample(ACTIONS, rng.randint(1, 3)):
            for _ in range(2 if rng.random() < 0.3 else 1):
                parts.append(f"{act}.{name}{rng.randrange(k)}")
        if rng.random() < 0.1:
            parts.append(f"tau.{name}{rng.randrange(k)}")
        if rng.random() < 0.1:
            parts.append("1")
        lines.append(f"def {name}{i} = " + " + ".join(parts))
    return lines


def _client(rng: random.Random, name: str, m: int) -> list[str]:
    lines = []
    for i in range(m):
        parts = [f"~{act}.{name}{rng.randrange(m)}" for act in ACTIONS]
        if rng.random() < 0.15:
            parts.append(f"tau.{name}{rng.randrange(m)}")
        if rng.random() < 0.2:
            parts.append("1")
        lines.append(f"def {name}{i} = " + " + ".join(parts))
    return lines


def _mutate(rng: random.Random, lines: list[str], src: str, dst: str, edits: int) -> list[str]:
    out = [line.replace(src, dst) for line in lines]
    n = len(out)
    for _ in range(edits):
        i = rng.randrange(n)
        head, body = out[i].split(" = ", 1)
        parts = body.split(" + ")
        j = rng.randrange(len(parts))
        if "." in parts[j]:
            guard = parts[j].split(".", 1)[0]
            parts[j] = f"{guard}.{dst}{rng.randrange(n)}"
        elif len(parts) > 1:
            del parts[j]
        out[i] = f"{head} = " + " + ".join(parts)
    return out


COMMANDS = ("must", "mustsc", "usable", "refines-svr", "refines-clt", "refines-p2p")


def protocol_case(case: int) -> tuple[str, list[str]]:
    """Definition-file text and ccswb arguments (file path excluded) of a case."""
    rng = _rng("protocols", case)
    k = rng.randint(200, 250)
    m = rng.randint(30, 45)
    server = _server(rng, "S", k)
    client = _client(rng, "C", m)
    lines = (server + _mutate(rng, server, "S", "T", rng.randint(1, 3))
             + client + _mutate(rng, client, "C", "D", rng.randint(1, 2)))
    text = f"# protocols case {case}: K={k} M={m}\n" + "\n".join(lines) + "\n"
    command = COMMANDS[case % len(COMMANDS)]
    if command in ("must", "mustsc"):
        args = [command, "-s", "S0", "-c", "C0"]
    elif command == "usable":
        args = ["usable", "-c", "C0", "--bound", "5"]
    else:
        kind = command.split("-")[1]
        left, right = ("C0", "D0") if kind == "clt" else ("S0", "T0")
        args = ["refines", "--kind", kind, "-l", left, "-r", right, "--bound", "4" if kind == "clt" else "5"]
    return text, args


POOL_PER_COMMAND = 100
POOL = POOL_PER_COMMAND * len(COMMANDS)


def protocol_schedule(seed: int, index: int) -> int:
    """Case run as the `index`-th protocols operation of a seed.  Commands
    rotate so every stretch of the stream holds the same mix; within one
    command the seed draws cases from the pool without repeats."""
    rnd, cmd = divmod(index, len(COMMANDS))
    order = list(range(POOL_PER_COMMAND))
    _rng("schedule", seed, cmd).shuffle(order)
    return cmd + len(COMMANDS) * order[rnd % POOL_PER_COMMAND]
