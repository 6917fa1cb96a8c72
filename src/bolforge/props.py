"""Decision procedures for loop identities, commutant structure, and closures.

Every identity check is an exhaustive loop over element tuples (the
target orders are small, at most a few tens of thousands of triples) so
verdicts are exact and deterministic.  Failed verdicts carry the
lexicographically first violating tuples, at most three, each of which
re-evaluates to a violation on the table it was produced from.

The left Bol identity is scanned once per table: one pass records the
witnesses and the Bol elements, and ``LoopTable`` keeps the result, so
``is_left_bol`` and ``bol_elements`` read the same scan however often
they are called.  The mirror (``LoopTable.transpose``) is also built
once per table, so ``is_right_bol`` and ``is_moufang`` share one scan of
it.

The Bol scan and ``center`` compare whole rows as bytes, mapping a row
through another with ``bytes.translate`` (``_pad`` builds its 256-entry
tables).  ``is_normal`` labels each element with its left coset and
decides normality by comparing the labelled rows and columns of the
table; only a subloop that this rejects goes through the exhaustive
coset scan, which is what produces the witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .errors import MultipleSquareRoots, NotASubloop, NoTwoSidedInverse
from .table import LoopTable

MAX_WITNESSES = 3


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check: holds, or fails with witnesses."""

    holds: bool
    witnesses: tuple[tuple, ...] = ()
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _fails(witnesses: list[tuple], note: str = "") -> Verdict:
    return Verdict(False, tuple(witnesses[:MAX_WITNESSES]), note)


def _pad(row: bytes) -> bytes:
    """The 256-entry table ``bytes.translate`` takes, mapping v to row[v] for v < n."""
    return row + bytes(256 - len(row))


# -- identities ------------------------------------------------------------


@dataclass(frozen=True)
class _LeftBolScan:
    witnesses: tuple[tuple[int, int, int], ...]
    bol_elements: tuple[int, ...]


def _scan_left_bol(rows: tuple[tuple[int, ...], ...]) -> _LeftBolScan:
    """One pass of x(y * xz) = (x * yx)z over all (x, y, z) in lexicographic order.

    Records the first MAX_WITNESSES failing triples and the Bol
    elements, the x with no failing (y, z).  Once the witness quota is
    full, each x is scanned only up to its first failure.  For fixed x
    and y the z column runs inside ``bytes.translate``: row x mapped
    through row y and then row x again is x(y * xz) for z = 0..n-1.
    ``LoopTable._left_bol_scan`` runs this once per table.
    """
    n = len(rows)
    flat = [bytes(r) for r in rows]
    maps = [_pad(r) for r in flat]
    witnesses: list[tuple[int, int, int]] = []
    bol = []
    for x, rx in enumerate(rows):
        holds = True
        for y, ry in enumerate(rows):
            lhs = flat[x].translate(maps[y]).translate(maps[x])
            rhs = flat[rx[ry[x]]]
            if lhs == rhs:
                continue
            holds = False
            failing = [(x, y, z) for z in range(n) if lhs[z] != rhs[z]]
            witnesses += failing[: MAX_WITNESSES - len(witnesses)]
            if len(witnesses) == MAX_WITNESSES:
                break
        if holds:
            bol.append(x)
    return _LeftBolScan(tuple(witnesses), tuple(bol))


def is_left_bol(table: LoopTable) -> Verdict:
    """x(y * xz) = (x * yx)z for all x, y, z."""
    witnesses = table._left_bol_scan.witnesses
    return Verdict(True) if not witnesses else _fails(witnesses)


def is_right_bol(table: LoopTable) -> Verdict:
    """((zx)y)x = z((xy)x) for all x, y, z.

    This is the left Bol identity of the opposite loop (the transposed
    table) with the same (x, y, z), so the witnesses are those of
    ``is_left_bol`` on the transpose, which the table builds once.
    """
    return is_left_bol(table.transpose())


def is_moufang(table: LoopTable) -> Verdict:
    """Both the left and right Bol identities."""
    left = is_left_bol(table)
    right = is_right_bol(table)
    if left.holds and right.holds:
        return Verdict(True)
    sides = []
    if not left.holds:
        sides.append("left")
    if not right.holds:
        sides.append("right")
    wit = list(left.witnesses) + list(right.witnesses)
    return _fails(wit, note=f"fails {' and '.join(sides)} Bol")


def is_associative(table: LoopTable) -> Verdict:
    """(xy)z = x(yz) for all x, y, z."""
    rows = table.rows
    n = len(rows)
    wit: list[tuple] = []
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            rxy = rows[rx[y]]
            for z in range(n):
                if rxy[z] != rx[ry[z]]:
                    wit.append((x, y, z))
                    if len(wit) == MAX_WITNESSES:
                        return _fails(wit)
    return Verdict(True) if not wit else _fails(wit)


def has_lip(table: LoopTable) -> Verdict:
    """Left inverse property: x'(xy) = x(x'y) = y with x' the two-sided inverse."""
    rows = table.rows
    n = len(rows)
    wit: list[tuple] = []
    note = ""
    for x in range(n):
        try:
            xi = table.inverse(x)
        except NoTwoSidedInverse:
            wit.append((x,))
            note = "some element has no two-sided inverse"
            if len(wit) == MAX_WITNESSES:
                return _fails(wit, note)
            continue
        ri, rx = rows[xi], rows[x]
        for y in range(n):
            if ri[rx[y]] != y or rx[ri[y]] != y:
                wit.append((x, y))
                if len(wit) == MAX_WITNESSES:
                    return _fails(wit, note)
    return Verdict(True) if not wit else _fails(wit, note)


def has_lap(table: LoopTable) -> Verdict:
    """Left alternative property: x(xy) = (xx)y."""
    rows = table.rows
    n = len(rows)
    wit: list[tuple] = []
    for x in range(n):
        rx = rows[x]
        rxx = rows[rx[x]]
        for y in range(n):
            if rx[rx[y]] != rxx[y]:
                wit.append((x, y))
                if len(wit) == MAX_WITNESSES:
                    return _fails(wit)
    return Verdict(True) if not wit else _fails(wit)


def is_power_associative(table: LoopTable) -> Verdict:
    """Each single element generates an associative subloop.

    Checked directly on the restricted table of the generated subloop;
    a failure witness is an associativity violation (a, b, c) inside
    some generated subloop, reported in the coordinates of the parent.
    """
    wit: list[tuple] = []
    for x in table.elements:
        members = generated_subloop(table, (x,))
        sub = table.restricted(members)
        verdict = is_associative(sub)
        if not verdict.holds:
            for a, b, c in verdict.witnesses:
                wit.append((members[a], members[b], members[c]))
                if len(wit) == MAX_WITNESSES:
                    return _fails(wit)
    return Verdict(True) if not wit else _fails(wit)


def has_two_sided_inverses(table: LoopTable) -> Verdict:
    wit = [(x,) for x in table.elements if table.left_inverse(x) != table.right_inverse(x)]
    return Verdict(True) if not wit else _fails(wit)


# -- element sets ------------------------------------------------------------


def commutant(table: LoopTable) -> tuple[int, ...]:
    """All elements commuting with every element; always contains the identity."""
    rows = table.rows
    n = len(rows)
    return tuple(a for a in range(n) if all(rows[a][x] == rows[x][a] for x in range(n)))


def center(table: LoopTable) -> tuple[int, ...]:
    """Commutant elements that associate with all pairs in all three positions.

    For a commutant element a and each x, two whole-row comparisons
    decide a(xy) = (ax)y and x(ay) = (xa)y for every y.  The third
    position follows from these, because a commutes with every element:
    (xy)a = a(xy) = (ax)y = (xa)y = x(ay) = x(ya).
    """
    rows = table.rows
    flat = [bytes(r) for r in rows]
    maps = [_pad(r) for r in flat]
    out = []
    for a in commutant(table):
        ra, rowa, mapa = rows[a], flat[a], maps[a]
        if all(
            flat[x].translate(mapa) == flat[ra[x]] and rowa.translate(maps[x]) == flat[rows[x][a]]
            for x in range(len(rows))
        ):
            out.append(a)
    return tuple(out)


def bol_elements(table: LoopTable) -> tuple[int, ...]:
    """Elements a with a(x * ay) = (a * xa)y for all x, y: the x = a slice of the left Bol scan."""
    return table._left_bol_scan.bol_elements


def generated_subloop(table: LoopTable, seed: Iterable[int] = ()) -> tuple[int, ...]:
    """Least superset of the seed and the identity closed under * and both divisions.

    Product closure alone suffices on a finite loop, but closing under
    the divisions as well is cheap and correct without any finiteness
    argument, so all three operations are applied.
    """
    members = {table.identity}
    members.update(seed)
    for x in members:
        table._check_index(x)
    work = sorted(members)
    while work:
        a = work.pop()
        current = tuple(sorted(members))
        for b in current:
            for v in (
                table.rows[a][b],
                table.rows[b][a],
                table.ldiv(a, b),
                table.ldiv(b, a),
                table.rdiv(a, b),
                table.rdiv(b, a),
            ):
                if v not in members:
                    members.add(v)
                    work.append(v)
    return tuple(sorted(members))


# -- subset predicates --------------------------------------------------------


def is_subloop(table: LoopTable, members: Iterable[int]) -> Verdict:
    """Contains the identity and is closed under * and both divisions.

    Failure witnesses name the operation and the violating pair.
    """
    sub = set(members)
    if table.identity not in sub:
        return _fails([("identity",)], note="identity not a member")
    wit: list[tuple] = []
    for a in sorted(sub):
        for b in sorted(sub):
            for op, v in (
                ("mul", table.rows[a][b]),
                ("ldiv", table.ldiv(a, b)),
                ("rdiv", table.rdiv(a, b)),
            ):
                if v not in sub:
                    wit.append((op, a, b))
                    if len(wit) == MAX_WITNESSES:
                        return _fails(wit)
    return Verdict(True) if not wit else _fails(wit)


def _normal_by_labels(rows: tuple[tuple[int, ...], ...], sub: list[int]) -> bool:
    """Whether the subloop S = ``sub`` is normal, decided on left coset labels.

    Label each v with lab[v], the least w such that v is in wS, and
    require for all x, y and s in S:

    (A) lab[x(ys)] = lab[xy]: columns ys and y of the table agree under lab;
    (B) lab[(sx)y] = lab[xy]: rows sx and x of the table agree under lab.

    These hold exactly when S is normal.  (A) at x = e says lab is
    constant on every left coset; then the label classes are the left
    cosets, which partition the loop into classes of |S| elements, vS
    being the class of v.  (B) at y = e gives Sx inside xS, (A) gives
    x(yS) inside (xy)S, and (B) gives (Sx)y inside (xy)S, which is S(xy)
    by the first.  Each left side has |S| distinct elements, so each
    inclusion is the equality normality asks for.  Conversely, the left
    cosets of a normal S partition the loop (v = xs gives vS = x(sS) =
    xS), and the three identities give (A) and (B).

    The partition and xS = Sx are thus the x = e and y = e cases of (A)
    and (B), and need no check of their own.
    """
    n = len(rows)
    lab = [0] * n
    for w in reversed(range(n)):  # the least w writes last
        for s in sub:
            lab[rows[w][s]] = w
    labelled = b"".join(bytes(r) for r in rows).translate(_pad(bytes(lab)))
    lrow = [labelled[i * n : (i + 1) * n] for i in range(n)]
    lcol = [labelled[j::n] for j in range(n)]
    return all(lcol[rows[y][s]] == lcol[y] for y in range(n) for s in sub) and all(
        lrow[rows[s][x]] == lrow[x] for s in sub for x in range(n)
    )


def is_normal(table: LoopTable, members: Iterable[int]) -> Verdict:
    """Normality of a subloop: xS = Sx, x(yS) = (xy)S, (Sx)y = S(xy) as sets.

    Decided on left coset labels (``_normal_by_labels``), with two byte
    comparisons per (element, member) pair and one ``bytes.translate``
    of the table.  A subloop the labels reject falls through to the
    exhaustive scan over coset sets, which yields the lexicographically
    first witnesses; no set is built for a normal subloop.
    """
    sub = sorted(set(members))
    if not is_subloop(table, sub).holds:
        raise NotASubloop(f"{sub} is not a subloop")
    rows = table.rows
    if _normal_by_labels(rows, sub):
        return Verdict(True)
    n = len(rows)
    wit: list[tuple] = []
    cosets_left = [frozenset(rows[x][s] for s in sub) for x in range(n)]   # xS
    cosets_right = [frozenset(rows[s][x] for s in sub) for x in range(n)]  # Sx
    for x in range(n):
        if cosets_left[x] != cosets_right[x]:
            wit.append(("xS=Sx", x))
            if len(wit) == MAX_WITNESSES:
                return _fails(wit)
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            if frozenset(rx[v] for v in cosets_left[y]) != cosets_left[rx[y]]:
                wit.append(("x(yS)=(xy)S", x, y))
                if len(wit) == MAX_WITNESSES:
                    return _fails(wit)
            if frozenset(rows[v][y] for v in cosets_right[x]) != cosets_right[rows[x][y]]:
                wit.append(("(Sx)y=S(xy)", x, y))
                if len(wit) == MAX_WITNESSES:
                    return _fails(wit)
    return Verdict(True) if not wit else _fails(wit)


def is_uniquely_2_divisible(table: LoopTable) -> Verdict:
    """The squaring map is injective (hence bijective on a finite carrier)."""
    rows = table.rows
    n = len(rows)
    seen: dict[int, int] = {}
    wit: list[tuple] = []
    for x in range(n):
        sq = rows[x][x]
        if sq in seen:
            wit.append((seen[sq], x))
            if len(wit) == MAX_WITNESSES:
                return _fails(wit)
        else:
            seen[sq] = x
    return Verdict(True) if not wit else _fails(wit)


def square_roots(table: LoopTable, a: int) -> tuple[int, ...]:
    table._check_index(a)
    return tuple(c for c in table.elements if table.rows[c][c] == a)


def square_root(table: LoopTable, a: int) -> int | None:
    """The unique c with c*c = a; None when there is no root.

    Raises MultipleSquareRoots when several elements square to a.
    """
    roots = square_roots(table, a)
    if len(roots) > 1:
        raise MultipleSquareRoots(a, roots)
    return roots[0] if roots else None


def is_twisted_closed(table: LoopTable, members: Iterable[int]) -> Verdict:
    """Contains the identity, closed under inverses and (x, y) -> x * yx.

    The defining product is read as x*(y*x); the note records whether
    the other bracketing (x*y)*x is also closed, since the two differ
    in loops without flexibility.
    """
    sub = set(members)
    rows = table.rows
    wit: list[tuple] = []
    if table.identity not in sub:
        wit.append(("identity",))
    for x in sorted(sub):
        try:
            xi = table.inverse(x)
        except NoTwoSidedInverse:
            wit.append(("inverse", x))
            continue
        if xi not in sub:
            wit.append(("inverse", x))
    alt_closed = True
    for x in sorted(sub):
        for y in sorted(sub):
            if rows[x][rows[y][x]] not in sub:
                wit.append(("x(yx)", x, y))
            if rows[rows[x][y]][x] not in sub:
                alt_closed = False
    note = f"(xy)x-closure={'holds' if alt_closed else 'fails'}"
    if wit:
        return _fails(wit, note)
    return Verdict(True, note=note)


# -- aggregate report ----------------------------------------------------------

PROPERTY_ORDER = (
    "left-bol",
    "right-bol",
    "moufang",
    "lip",
    "lap",
    "power-associative",
    "associative",
    "two-sided-inverses",
    "uniquely-2-divisible",
    "commutant-is-subloop",
)


@dataclass
class PropertyReport:
    """All property verdicts for one loop, serializable to stable JSON."""

    loop_id: str
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        props = {}
        for name in PROPERTY_ORDER:
            v = self.verdicts[name]
            props[name] = "holds" if v.holds else {"fails": [list(w) for w in v.witnesses]}
        return {"loop": self.loop_id, "properties": props}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def property_report(table: LoopTable, loop_id: str = "") -> PropertyReport:
    report = PropertyReport(loop_id)
    report.verdicts["left-bol"] = is_left_bol(table)
    report.verdicts["right-bol"] = is_right_bol(table)
    report.verdicts["moufang"] = is_moufang(table)
    report.verdicts["lip"] = has_lip(table)
    report.verdicts["lap"] = has_lap(table)
    report.verdicts["power-associative"] = is_power_associative(table)
    report.verdicts["associative"] = is_associative(table)
    report.verdicts["two-sided-inverses"] = has_two_sided_inverses(table)
    report.verdicts["uniquely-2-divisible"] = is_uniquely_2_divisible(table)
    report.verdicts["commutant-is-subloop"] = is_subloop(table, commutant(table))
    return report
