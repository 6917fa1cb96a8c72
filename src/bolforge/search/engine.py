"""Search driver: enumeration and targeted hunts over small-order loops.

The cell-fill kernel (compiled when available, pure Python otherwise)
explores normalized tables and emits canonical class representatives.
A spec with a ``target`` is a hunt: ``find_first`` hands the kernel a
leaf callback that evaluates the target, and the kernel stops at the
first canonical leaf it accepts.  ``enumerate_loops`` drops any target.
This module splits the tree into independent subtrees at the row-1
boundary, runs them sequentially or on a process pool, merges results,
and re-verifies every emitted table with the property checkers - the
kernel's incremental pruning is never trusted for final verdicts.

Determinism: one loop consumes the subtree results in lexicographic
order of their row-1 prefix, from the builtin ``map`` for one worker or
a process pool's ``map`` for more, and candidate values ascend, so the
representative list, any witness and every search counter are identical
for every worker count.  A find-first search stops at the first subtree
with a witness and cancels the subtrees not yet started; subtrees after
it add nothing to the counters, whether or not a worker ran them.  The
node budget applies to each subtree independently (and to the prefix
scan), which keeps budget-limited runs reproducible across worker
counts as well.

Right Bol is searched as the mirror of left Bol: a loop is right Bol
exactly when its opposite loop, whose table is the transpose, is left
Bol.  A right Bol search runs the kernel's left Bol search, replaces
each emitted table by the canonical form of its transpose, and sorts;
node counts are those of the left Bol search.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Callable

from ..errors import InvalidSearchSpec, OrderTooLargeForExact, SearchSelfCheckError
from ..props import (
    Verdict,
    commutant,
    is_associative,
    is_left_bol,
    is_moufang,
    is_right_bol,
    is_subloop,
    is_uniquely_2_divisible,
    square_roots,
)
from ..table import LoopTable
from . import _kernel_py, get_kernel
from .canon import EXACT_ORDER_LIMIT

#: Kernel constraint id of each class; right Bol runs the left Bol search
#: and mirrors its output.
CONSTRAINT_IDS = {
    "none": _kernel_py.CONSTRAINT_NONE,
    "left-bol": _kernel_py.CONSTRAINT_LEFT_BOL,
    "right-bol": _kernel_py.CONSTRAINT_LEFT_BOL,
    "moufang": _kernel_py.CONSTRAINT_MOUFANG,
    "associative": _kernel_py.CONSTRAINT_ASSOC,
}

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_WALL_BUDGET = 600.0


@dataclass(frozen=True)
class SearchSpec:
    """What to search: order, class constraint, target, budgets.

    A spec with a ``target`` is a hunt for the first loop that meets it;
    one without enumerates the classes.  ``BOLFORGE_KERNEL`` chooses the
    kernel (``get_kernel``).
    """

    order: int
    constraint: str = "none"
    target: str | None = None
    node_budget: int = DEFAULT_NODE_BUDGET
    wall_budget_s: float = DEFAULT_WALL_BUDGET
    jobs: int = 1
    nonassociative_only: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise InvalidSearchSpec(f"order must be >= 1, got {self.order}")
        if self.constraint not in CONSTRAINT_IDS:
            raise InvalidSearchSpec(f"unknown class constraint {self.constraint!r}")
        if self.target is not None and self.target not in TARGET_CHECKS:
            raise InvalidSearchSpec(
                f"unknown target {self.target!r}; known: {', '.join(sorted(TARGET_CHECKS))}"
            )
        if self.node_budget < 1 or not 0 < self.wall_budget_s < math.inf:
            raise InvalidSearchSpec("budgets must be positive and finite")
        if self.jobs < 1:
            raise InvalidSearchSpec(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    latin_prunes: int = 0
    identity_prunes: int = 0
    iso_prunes: int = 0
    leaves: int = 0
    canonical: int = 0
    subtrees: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SearchWitness:
    """A loop satisfying a find-first target, with the concrete evidence."""

    table: LoopTable
    target: str
    data: dict


@dataclass(frozen=True)
class SearchResult:
    spec: SearchSpec
    representatives: tuple[LoopTable, ...]
    witnesses: tuple[SearchWitness, ...]
    stats: SearchStats
    exhausted: bool
    found: bool
    backend: str  # BACKEND of the kernel module that ran the search


# -- find-first targets ------------------------------------------------------


def target_commutant_not_subloop(table: LoopTable) -> dict | None:
    """Commutant fails closure under product or a division."""
    members = commutant(table)
    verdict = is_subloop(table, members)
    if verdict.holds:
        return None
    op, a, b = verdict.witnesses[0]
    return {
        "commutant": list(members),
        "operation": op,
        "pair": [a, b],
    }


def target_conjecture_witness(table: LoopTable) -> dict | None:
    """Uniquely 2-divisible with a commutant element whose root is outside.

    On a finite uniquely 2-divisible loop the squaring map is a
    bijection, so each commutant element has exactly one square root;
    the target asks for one whose root is not in the commutant.
    """
    if not is_uniquely_2_divisible(table).holds:
        return None
    members = set(commutant(table))
    for a in sorted(members):
        root = square_roots(table, a)[0]
        if root not in members:
            return {"element": a, "square_root": root, "commutant": sorted(members)}
    return None


TARGET_CHECKS: dict[str, Callable[[LoopTable], dict | None]] = {
    "commutant-not-subloop": target_commutant_not_subloop,
    "conjecture-witness": target_conjecture_witness,
}

CONSTRAINT_VERDICTS: dict[str, Callable[[LoopTable], Verdict]] = {
    "left-bol": is_left_bol,
    "right-bol": is_right_bol,
    "moufang": is_moufang,
    "associative": is_associative,
}


# -- subtree execution ---------------------------------------------------------


def _make_leaf_cb(target: str, n: int):
    check = TARGET_CHECKS[target]
    return lambda flat: check(LoopTable.from_flat(flat, n)) is not None


def _subtree_task(backend: str, spec: SearchSpec, deadline: float, prefix: bytes) -> dict:
    return get_kernel(backend).run(
        spec.order,
        CONSTRAINT_IDS[spec.constraint],
        prefix=prefix,
        leaf_cb=_make_leaf_cb(spec.target, spec.order) if spec.target else None,
        node_budget=spec.node_budget,
        deadline=deadline,
    )


def _merge_stats(parts: list[dict], subtrees: int) -> SearchStats:
    counters = [f.name for f in fields(SearchStats) if f.name != "subtrees"]
    return SearchStats(**{c: sum(p[c] for p in parts) for c in counters}, subtrees=subtrees)


def _mirror(flat: bytes, n: int, kernel) -> bytes:
    """Canonical form of the opposite loop, whose table is the transpose."""
    return kernel.canonical_form_bytes(b"".join(flat[i::n] for i in range(n)), n)


def _reverify(table: LoopTable, spec: SearchSpec, kernel) -> None:
    """Independent check of an emitted representative (bug trap)."""
    if spec.constraint != "none":
        verdict = CONSTRAINT_VERDICTS[spec.constraint](table)
        if not verdict.holds:
            raise SearchSelfCheckError(
                f"emitted table violates {spec.constraint}: witness {verdict.witnesses[:1]}"
            )
    flat = table.flat_bytes()
    if kernel.canonical_form_bytes(flat, table.order) != flat:
        raise SearchSelfCheckError("emitted table is not in canonical form")


def _run_search(spec: SearchSpec) -> SearchResult:
    n = spec.order
    if n > EXACT_ORDER_LIMIT:
        raise OrderTooLargeForExact(
            f"search relies on exact isomorph rejection, available for order <= {EXACT_ORDER_LIMIT}"
        )
    kernel = get_kernel()
    mirror = spec.constraint == "right-bol"
    hunt = spec.target is not None
    deadline = time.monotonic() + spec.wall_budget_s

    pre = kernel.collect_prefixes(
        n, CONSTRAINT_IDS[spec.constraint], node_budget=spec.node_budget, deadline=deadline
    )
    prefixes: list[bytes] = pre["tables"]
    parts: list[dict] = [pre]

    pool = None
    if spec.jobs > 1 and len(prefixes) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(spec.jobs, len(prefixes)))
    found_table: bytes | None = None
    try:
        task = partial(_subtree_task, kernel.BACKEND, spec, deadline)
        for out in (pool.map if pool else map)(task, prefixes):
            parts.append(out)
            if hunt and out["found"]:
                found_table = out["tables"][0]
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    stats = _merge_stats(parts, subtrees=len(prefixes))
    exhausted = all(p["exhausted"] for p in parts)

    if hunt:
        if found_table is None:
            return SearchResult(
                spec, (), (), stats, exhausted, found=False, backend=kernel.BACKEND
            )
        if mirror:
            found_table = _mirror(found_table, n, kernel)
        table = LoopTable.from_flat(found_table, n)
        _reverify(table, spec, kernel)
        data = TARGET_CHECKS[spec.target](table)
        if data is None:
            raise SearchSelfCheckError("found table does not satisfy the target predicate")
        witness = SearchWitness(table, spec.target, data)
        return SearchResult(
            spec, (table,), (witness,), stats, exhausted=False, found=True, backend=kernel.BACKEND
        )

    flats = [flat for out in parts[1:] for flat in out["tables"]]
    if mirror:
        flats = [_mirror(flat, n, kernel) for flat in flats]
    flats.sort()
    tables = []
    for flat in flats:
        table = LoopTable.from_flat(flat, n)
        _reverify(table, spec, kernel)
        tables.append(table)
    if spec.nonassociative_only:
        tables = [t for t in tables if not is_associative(t).holds]
    return SearchResult(
        spec, tuple(tables), (), stats, exhausted, found=False, backend=kernel.BACKEND
    )


def enumerate_loops(spec: SearchSpec) -> SearchResult:
    """All isomorphism classes of order-n loops satisfying the constraint.

    A target in ``spec`` is ignored.
    """
    return _run_search(replace(spec, target=None))


def find_first(spec: SearchSpec) -> SearchResult:
    """First (in canonical order) loop satisfying the constraint and target.

    Both targets hold on a loop exactly when they hold on its opposite,
    so a right Bol hunt runs the left Bol hunt and returns the mirror of
    the first left Bol witness in left Bol canonical order.  That need
    not be the right Bol witness that comes first in canonical order.
    """
    if spec.target is None:
        raise ValueError("find_first requires a SearchSpec with a target")
    return _run_search(spec)
