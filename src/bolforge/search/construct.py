"""Odd-order left Bol loops built from groups.

On a group of odd order the squaring map is a bijection, so every
element has a unique square root.  Twisting the group product into
x o y := sqrt(x * y^2 * x) yields a left Bol loop with two-sided
inverses on the same carrier (nonassociative whenever the group is
nonabelian).  The construction output is never trusted: the result is
re-validated as a left Bol loop before being returned.
"""

from __future__ import annotations

from ..errors import EvenOrder, LoopError, NotAGroup, PostConstructionCheckFailed
from ..props import has_two_sided_inverses, is_associative, is_left_bol
from ..table import LoopTable


def construct_bruck_from_group(group: LoopTable) -> LoopTable:
    """Left Bol loop on the carrier of an odd-order group."""
    verdict = is_associative(group)
    if not verdict.holds:
        raise NotAGroup(f"table is not associative: witness {list(verdict.witnesses[0])}")
    n = group.order
    if n % 2 == 0:
        raise EvenOrder(f"construction needs an odd-order group, got order {n}")

    rows = group.rows
    sqrt = [-1] * n
    for x in range(n):
        sqrt[rows[x][x]] = x
    if -1 in sqrt:
        raise NotAGroup("squaring is not a bijection; table is not an odd-order group")

    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[x][y] = sqrt[rows[rows[x][rows[y][y]]][x]]

    try:
        loop = LoopTable(tuple(tuple(r) for r in out), group.identity)
    except LoopError as exc:
        raise PostConstructionCheckFailed(f"constructed table is not a loop: {exc}")
    bol = is_left_bol(loop)
    if not bol.holds:
        raise PostConstructionCheckFailed(
            f"constructed table is not left Bol: witness {list(bol.witnesses[0])}"
        )
    if not has_two_sided_inverses(loop).holds:
        raise PostConstructionCheckFailed("constructed table lacks two-sided inverses")
    return loop
