"""Make one workload's inputs from its seed; the timed set-up step.

Usage: python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Runs with the staged ``bolforge`` on ``PYTHONPATH``.  Its whole wall
time, interpreter start and import included, is one ``setup_s`` sample.
For ``corpus`` it builds the fixed source loops, writes each as a
seeded random relabeling (the identity lands anywhere, so files carry
an ``identity=k`` header) and writes a shuffled manifest.  ``hunt``
has no inputs, so its set-up is the import alone.  ``inputs.json`` in
DIR records what was made.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from bolforge.catalog import cyclic, direct_product, symmetric_3
from bolforge.search import construct_bruck_from_group
from bolforge.table import LoopTable

#: Each corpus source is written this many times, relabeled independently.
CORPUS_COPIES = 2

#: A nonassociative loop of order 5.  Bol loops of prime order are groups,
#: so this loop and its direct products are not left Bol.
NON_BOL_5 = LoopTable(
    ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
)


def semidirect(p: int, q: int, r: int) -> LoopTable:
    """Z_p x| Z_q with the generator of Z_q acting as a -> r*a (r^q = 1 mod p)."""
    n = p * q
    rows = [[0] * n for _ in range(n)]
    for a1 in range(p):
        for b1 in range(q):
            twist = pow(r, b1, p)
            for a2 in range(p):
                for b2 in range(q):
                    rows[a1 * q + b1][a2 * q + b2] = ((a1 + twist * a2) % p) * q + (b1 + b2) % q
    return LoopTable(tuple(map(tuple, rows)))


def chein_double(g: LoopTable) -> LoopTable:
    """Chein's M(G, 2) on G u Gu: a Moufang loop, nonassociative for nonabelian G."""
    n = g.order
    mul = g.rows
    inv = [g.inverse(x) for x in range(n)]
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            rows[a][b] = mul[a][b]
            rows[a][n + b] = n + mul[b][a]
            rows[n + a][b] = n + mul[a][inv[b]]
            rows[n + a][n + b] = mul[inv[b]][a]
    return LoopTable(tuple(map(tuple, rows)))


def corpus_sources() -> tuple[list[tuple[str, LoopTable, bool]], float]:
    """(name, table, is left Bol) for every corpus source, and the seconds spent in construct."""
    s3 = symmetric_3()
    groups = {
        21: semidirect(7, 3, 2),
        39: semidirect(13, 3, 3),
        55: semidirect(11, 5, 3),
        57: semidirect(19, 3, 7),
        63: semidirect(7, 9, 2),
    }
    t0 = time.perf_counter()
    bruck = {n: construct_bruck_from_group(g) for n, g in groups.items()}
    construct_s = time.perf_counter() - t0
    sources = [(f"bruck{n}", loop, True) for n, loop in bruck.items()]
    sources += [
        ("bruck21xS3", direct_product(bruck[21], s3), True),
        ("group21", groups[21], True),
        ("group39", groups[39], True),
        ("S3xZ5", direct_product(s3, cyclic(5)), True),
        ("chein_S3", chein_double(s3), True),
        ("chein_group21", chein_double(groups[21]), True),
        ("nonbol5xZ7", direct_product(NON_BOL_5, cyclic(7)), False),
        ("nonbol5xgroup21", direct_product(NON_BOL_5, groups[21]), False),
    ]
    return sources, construct_s


def make_corpus(out: Path, seed: int) -> dict:
    rng = random.Random(seed)
    sources, construct_s = corpus_sources()
    files = []
    left_bol = 0
    for name, table, is_left_bol in sources:
        for copy in range(CORPUS_COPIES):
            perm = list(range(table.order))
            rng.shuffle(perm)
            path = f"{name}-{copy}.loop"
            (out / path).write_text(table.relabel(perm).serialize())
            files.append(path)
            left_bol += is_left_bol
    rng.shuffle(files)
    (out / "manifest.txt").write_text("".join(f"{f}\n" for f in files))
    return {
        "manifest": "manifest.txt",
        "loops": len(files),
        "left_bol_share": left_bol / len(files),
        "construct_s": construct_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = make_corpus(out, args.seed) if args.workload == "corpus" else {}
    (out / "inputs.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
