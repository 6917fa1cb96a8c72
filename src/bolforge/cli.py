"""Command-line interface.

Exit codes: 0 success; 1 a verification claim was REFUTED; 2 bad input
(parse errors, bad flags, missing files, an empty claim selection, an
``--out`` file that cannot be written); 3 a search budget was
exhausted before the tree was covered; 4 find mode exhausted the space
without a witness.

Search outputs are content-addressed: each representative is written as
a canonical-format loop file named by the hash of its table, so
identical runs produce byte-identical files; volatile data (timings,
timestamps) goes only to the stats sidecar.  A search refuses an output
directory that already holds loop files or a stats sidecar, so outputs
of two runs never mix.  Neither the loop files nor the search counts in
the sidecar depend on ``--jobs``.  Invalid search settings (``--order 0``,
``--jobs 0``, a budget that is not positive and finite) are bad input: one
``error:`` line and exit 2, before anything is written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .claims import CLAIM_IDS, run_corpus
from .errors import LoopError, ManifestNotFound
from .props import (
    bol_elements,
    center,
    commutant,
    property_report,
)
from .search import (
    SearchResult,
    SearchSpec,
    canonical_form,
    construct_bruck_from_group,
    enumerate_loops,
    find_first,
)
from .search.engine import CONSTRAINT_IDS, DEFAULT_NODE_BUDGET, DEFAULT_WALL_BUDGET, TARGET_CHECKS
from .table import LoopTable, parse_loop

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_NOT_FOUND = 4


def _load_loop(path: str) -> LoopTable:
    try:
        return parse_loop(Path(path).read_text())
    except OSError as exc:
        raise LoopError(f"cannot read {path}: {exc}")


def _check_out_file(out: str) -> None:
    """Refuse, before any work is done, an --out path that cannot be a file."""
    path = Path(out)
    if path.is_dir():
        raise LoopError(f"cannot write {out}: it is a directory")
    if not path.parent.is_dir():
        raise LoopError(f"cannot write {out}: {path.parent} is not a directory")


@contextmanager
def _writing(out):
    """Turn an OSError raised while writing ``out`` into one bad-input error."""
    try:
        yield
    except OSError as exc:
        raise LoopError(f"cannot write {out}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with _writing(out):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    table = _load_loop(args.file)
    report = property_report(table, loop_id=args.file)
    print(f"{args.file}: valid loop of order {table.order}, identity {table.identity}")
    for name, verdict in report.verdicts.items():
        if verdict.holds:
            print(f"  {name}: holds")
        else:
            wit = ", ".join(str(tuple(w)) for w in verdict.witnesses)
            print(f"  {name}: fails  [{wit}]")
    print(f"  commutant: {' '.join(map(str, commutant(table)))}")
    print(f"  center: {' '.join(map(str, center(table)))}")
    print(f"  bol-elements: {' '.join(map(str, bol_elements(table)))}")
    return EXIT_OK


def cmd_props(args) -> int:
    table = _load_loop(args.file)
    report = property_report(table, loop_id=args.file)
    _emit(report.to_json(), args.out)
    return EXIT_OK


def cmd_commutant(args) -> int:
    table = _load_loop(args.file)
    print(" ".join(map(str, commutant(table))))
    return EXIT_OK


def cmd_center(args) -> int:
    table = _load_loop(args.file)
    print(" ".join(map(str, center(table))))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.out:
        _check_out_file(args.out)
    claims = None
    if args.claims is not None:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    try:
        report = run_corpus(args.manifest, claims=claims)
    except (ManifestNotFound, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _emit(report.to_json(), args.out)
    return EXIT_REFUTED if report.refuted else EXIT_OK


def _refuse_used_out_dir(out_dir: str) -> None:
    """Keep runs from mixing: an --out directory must hold no search output yet.

    Also refuse, before any search time is spent, an --out path that is
    or lies under something other than a directory.
    """
    out = Path(out_dir)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise LoopError(f"{blocker} is not a directory; --out needs a directory")
    if (out / "stats.json").exists() or any(out.glob("*.loop")):
        raise LoopError(f"{out_dir} already holds search output; choose an empty directory")


def _write_search_output(result: SearchResult, out_dir: str, elapsed: float) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for table in result.representatives:
        name = f"{table.content_hash()[:16]}.loop"
        (out / name).write_text(table.serialize())
        names.append(name)
    stats = {
        "spec": {
            "order": result.spec.order,
            "class": result.spec.constraint,
            "mode": "find-first" if result.spec.target else "enumerate",
            "target": result.spec.target,
            "jobs": result.spec.jobs,
            "node_budget": result.spec.node_budget,
            "wall_budget_s": result.spec.wall_budget_s,
        },
        "backend": result.backend,
        "representatives": names,
        "witnesses": [
            {"file": names[i], "target": w.target, "data": w.data}
            for i, w in enumerate(result.witnesses)
        ],
        "exhausted": result.exhausted,
        "found": result.found,
        "search": result.stats.to_json_dict(),
        "elapsed_s": round(elapsed, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    return names


def cmd_enumerate(args) -> int:
    spec = SearchSpec(
        order=args.order,
        constraint=args.constraint,
        node_budget=args.budget_nodes,
        wall_budget_s=args.budget_seconds,
        jobs=args.jobs,
        nonassociative_only=args.nonassociative,
    )
    _refuse_used_out_dir(args.out)
    t0 = time.monotonic()
    result = enumerate_loops(spec)
    names = _write_search_output(result, args.out, time.monotonic() - t0)
    print(f"{len(names)} representatives written to {args.out}")
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def cmd_find(args) -> int:
    spec = SearchSpec(
        order=args.order,
        constraint=args.constraint,
        target=args.find,
        node_budget=args.budget_nodes,
        wall_budget_s=args.budget_seconds,
        jobs=args.jobs,
    )
    _refuse_used_out_dir(args.out)
    t0 = time.monotonic()
    result = find_first(spec)
    names = _write_search_output(result, args.out, time.monotonic() - t0)
    if result.found:
        print(f"witness written to {args.out}/{names[0]}")
        print(json.dumps(result.witnesses[0].data, indent=2))
        return EXIT_OK
    if result.exhausted:
        print(f"no witness: search space exhausted for order {args.order}")
        return EXIT_NOT_FOUND
    print("no witness found within budgets (search incomplete)")
    return EXIT_BUDGET


def cmd_construct(args) -> int:
    group = _load_loop(args.group)
    loop = construct_bruck_from_group(group)
    out = Path(args.out)
    if not out.suffix:  # a directory: the file is named by the table's hash
        out = out / f"{loop.content_hash()[:16]}.loop"
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(loop.serialize())
    print(str(out))
    return EXIT_OK


def cmd_canon(args) -> int:
    table = _load_loop(args.file)
    form = canonical_form(table, method=args.method)
    _emit(form.serialize(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bolforge",
        description="Finite loop workbench: Cayley tables, Bol identities, commutant structure, search.",
    )
    parser.add_argument("--version", action="version", version=f"bolforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a loop file and print all property verdicts")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("props", help="emit the property report as JSON")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_props)

    p = sub.add_parser("commutant", help="print the commutant element indices")
    p.add_argument("file")
    p.set_defaults(fn=cmd_commutant)

    p = sub.add_parser("center", help="print the center element indices")
    p.add_argument("file")
    p.set_defaults(fn=cmd_center)

    p = sub.add_parser("verify", help="run claim checks over a corpus manifest")
    p.add_argument("manifest")
    p.add_argument("--claims", help=f"comma-separated subset of: {','.join(CLAIM_IDS)}")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    def search_flags(p, find: bool):
        p.add_argument("--order", type=int, required=True)
        p.add_argument(
            "--class",
            dest="constraint",
            choices=sorted(CONSTRAINT_IDS),
            default="none",
            help="class constraint applied during search",
        )
        if find:
            p.add_argument(
                "--find",
                required=True,
                choices=sorted(TARGET_CHECKS),
                help="target predicate to hunt for",
            )
        else:
            p.add_argument(
                "--nonassociative",
                action="store_true",
                help="keep only nonassociative representatives",
            )
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--budget-seconds", type=float, default=DEFAULT_WALL_BUDGET)

    p = sub.add_parser("enumerate", help="enumerate isomorphism classes of a given order")
    search_flags(p, find=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("find", help="search for the first loop matching a target predicate")
    search_flags(p, find=True)
    p.set_defaults(fn=cmd_find)

    p = sub.add_parser("construct", help="build an odd-order left Bol loop from a group file")
    p.add_argument("--group", required=True)
    p.add_argument("--out", required=True, help="output directory or .loop file path")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("canon", help="print the canonical form of a loop file")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--method", choices=("exact", "auto", "heuristic"), default="auto")
    p.set_defaults(fn=cmd_canon)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except LoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
