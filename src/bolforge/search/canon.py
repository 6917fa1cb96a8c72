"""Canonical labeling of loop tables.

Two loops are isomorphic exactly when they have equal canonical forms
(exact mode).  Loop isomorphisms always map identity to identity, so
after normalizing the identity to element 0 only the (n-1)! relabelings
fixing 0 need to be considered; the canonical form is the
lexicographically least row-major table among those images.

Exact mode finds that least image with the kernel's least-image walk,
a branch and bound over the labelings of image row 1 that never lists
the relabelings, and is limited to order 10.  Larger orders fall back to a refinement
heuristic whose guarantee is one-sided: equal forms imply isomorphic,
but isomorphic tables may produce different forms.
"""

from __future__ import annotations

from ..errors import OrderTooLargeForExact
from ..table import LoopTable
from . import get_kernel

#: Largest order with exact canonical labeling, hence exact isomorph
#: rejection and exact search.
EXACT_ORDER_LIMIT = 10


def canonical_form(table: LoopTable, method: str = "exact") -> LoopTable:
    """Canonical relabeling of a loop.

    ``method="exact"`` raises OrderTooLargeForExact beyond order 10;
    ``method="auto"`` switches to the one-sided heuristic there;
    ``method="heuristic"`` forces the heuristic at any order.
    """
    if method not in ("exact", "auto", "heuristic"):
        raise ValueError(f"unknown canonicalization method {method!r}")
    n = table.order
    normal = table.normalized()
    if method == "heuristic" or (method == "auto" and n > EXACT_ORDER_LIMIT):
        return _heuristic_form(normal)
    if n > EXACT_ORDER_LIMIT:
        raise OrderTooLargeForExact(
            f"exact canonical labeling supports order <= {EXACT_ORDER_LIMIT}, got {n}"
        )
    flat = get_kernel().canonical_form_bytes(normal.flat_bytes(), n)
    return LoopTable.from_flat(flat, n)


def _heuristic_form(table: LoopTable) -> LoopTable:
    """Deterministic relabeling from iterated invariant refinement.

    Elements are partitioned by isomorphism-invariant signatures
    (element order, squaring fan-in, commuting count), then the
    partition is refined against itself until stable, and the final
    labeling orders elements by (class, original index).  The last
    tie-break is not isomorphism-invariant, hence the one-sided
    guarantee.
    """
    n = table.order
    rows = table.rows
    sq_fan = [0] * n
    for x in range(n):
        sq_fan[rows[x][x]] += 1
    base = []
    for x in range(n):
        commuting = sum(1 for y in range(n) if rows[x][y] == rows[y][x])
        base.append((x != table.identity, table.element_order(x), sq_fan[x], commuting))
    classes = _index_by_rank(base)
    for _ in range(n):
        sig = []
        for x in range(n):
            profile = sorted(
                (classes[y], classes[rows[x][y]], classes[rows[y][x]]) for y in range(n)
            )
            sig.append((classes[x], tuple(profile)))
        refined = _index_by_rank(sig)
        if refined == classes:
            break
        classes = refined
    order = sorted(range(n), key=lambda x: (classes[x], x))
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return table.relabel(perm)


def _index_by_rank(keys: list) -> list[int]:
    ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [ranking[key] for key in keys]
