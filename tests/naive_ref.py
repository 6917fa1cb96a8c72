"""Independent reference implementations used only as test oracles.

Everything here is deliberately written without the package's search
machinery: brute-force generation, pairwise isomorphism and canonical
form by permutation trial, the left Bol identity over all triples,
normality and the center by their set definitions, and bracketing
enumeration.  Keep it that
way - these functions exist to cross-check the fast paths, so they must
not share code with them.
"""

from __future__ import annotations

from itertools import permutations


def naive_normalized_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All order-n tables with identity 0, by row-wise brute force."""
    if n == 1:
        return [((0,),)]
    first = tuple(range(n))
    results: list[tuple[tuple[int, ...], ...]] = []

    def extend(rows: list[tuple[int, ...]]):
        r = len(rows)
        if r == n:
            results.append(tuple(rows))
            return
        used_cols = [{row[j] for row in rows} for j in range(n)]
        for tail in permutations([v for v in range(n) if v != r]):
            row = (r,) + tail
            if all(row[j] not in used_cols[j] for j in range(1, n)):
                rows.append(row)
                extend(rows)
                rows.pop()

    extend([first])
    return results


def relabel_rows(rows: tuple[tuple[int, ...], ...], perm: tuple[int, ...]):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[rows[i][j]]
    return tuple(tuple(r) for r in out)


def are_isomorphic(a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]) -> bool:
    """Isomorphism of normalized tables by trying every identity-fixing map."""
    n = len(a)
    if len(b) != n:
        return False
    for tail in permutations(range(1, n)):
        if relabel_rows(a, (0,) + tail) == b:
            return True
    return False


def naive_canonical_form(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Least image of a normalized table over every identity-fixing map."""
    n = len(rows)
    return min(relabel_rows(rows, (0,) + tail) for tail in permutations(range(1, n)))


def left_bol_failures(rows: tuple[tuple[int, ...], ...]) -> list[tuple[int, int, int]]:
    """Every (x, y, z) with x(y(xz)) != (x(yx))z, in lexicographic order."""
    n = len(rows)
    return [
        (x, y, z)
        for x in range(n)
        for y in range(n)
        for z in range(n)
        if rows[x][rows[y][rows[x][z]]] != rows[rows[x][rows[y][x]]][z]
    ]


def naive_is_normal(rows: tuple[tuple[int, ...], ...], sub) -> tuple[bool, tuple[tuple, ...], str]:
    """(holds, first three witnesses, note) of xS = Sx, x(yS) = (xy)S, (Sx)y = S(xy).

    Witnesses come in the order the identities are listed: every failing
    ("xS=Sx", x) by x, then the failing pairs (x, y) in lexicographic
    order, the x(yS) identity before the (Sx)y one for each pair.
    """
    n = len(rows)
    members = set(sub)
    failures: list[tuple] = []
    for x in range(n):
        if {rows[x][s] for s in members} != {rows[s][x] for s in members}:
            failures.append(("xS=Sx", x))
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            if {rows[x][rows[y][s]] for s in members} != {rows[xy][s] for s in members}:
                failures.append(("x(yS)=(xy)S", x, y))
            if {rows[rows[s][x]][y] for s in members} != {rows[s][xy] for s in members}:
                failures.append(("(Sx)y=S(xy)", x, y))
    return (not failures, tuple(failures[:3]), "")


def naive_center(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Elements a commuting with every x and associating in all three positions."""
    n = len(rows)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    return tuple(
        a
        for a in range(n)
        if all(rows[a][x] == rows[x][a] for x in range(n))
        and all(rows[a][rows[x][y]] == rows[rows[a][x]][y] for x, y in pairs)
        and all(rows[x][rows[a][y]] == rows[rows[x][a]][y] for x, y in pairs)
        and all(rows[rows[x][y]][a] == rows[x][rows[y][a]] for x, y in pairs)
    )


def iso_classes(tables) -> list[tuple[tuple[int, ...], ...]]:
    """Partition normalized tables into isomorphism classes; one rep per class."""
    reps: list[tuple[tuple[int, ...], ...]] = []
    for rows in tables:
        if not any(are_isomorphic(rows, rep) for rep in reps):
            reps.append(rows)
    return reps


def all_bracketings(rows: tuple[tuple[int, ...], ...], x: int, k: int) -> set[int]:
    """Values of every bracketing of the k-fold product of x with itself."""
    if k == 1:
        return {x}
    out: set[int] = set()
    for split in range(1, k):
        for a in all_bracketings(rows, x, split):
            for b in all_bracketings(rows, x, k - split):
                out.add(rows[a][b])
    return out
