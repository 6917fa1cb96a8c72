"""Cayley tables of finite loops: validation, element arithmetic, text I/O.

A loop of order n is stored as an n x n table of element indices in
0..n-1, entry (i, j) being the product i*j, together with the index of
the two-sided neutral element.  Every row and column must be a
permutation of 0..n-1 (the Latin property), which is equivalent to both
division equations a*x = b and y*a = b having unique solutions.

Tables are immutable; all operations are pure functions, safe to share
between workers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    IndexOutOfRange,
    MalformedInput,
    NoIdentity,
    NotLatinSquare,
    NoTwoSidedInverse,
)

#: Largest supported order; cells must fit in one byte for compact search tables.
MAX_ORDER = 255


@dataclass(frozen=True)
class LoopTable:
    """Immutable Cayley table with a designated two-sided identity.

    Neutral elements of a loop are unique (if e and f are both neutral
    then e = e*f = f), so there is never an ambiguity in which element
    ``identity`` names; the constructor only verifies the given one.
    """

    rows: tuple[tuple[int, ...], ...]
    identity: int = 0

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n < 1:
            raise MalformedInput("table must have at least one row")
        if n > MAX_ORDER:
            raise MalformedInput(f"order {n} exceeds the supported maximum {MAX_ORDER}")
        full = frozenset(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise MalformedInput(f"row {i} has {len(row)} cells, expected {n}")
            if not set(row) <= full:
                bad = next(v for v in row if v not in full)
                raise MalformedInput(f"row {i} contains {bad}, outside 0..{n - 1}")
            if len(set(row)) != n:
                raise NotLatinSquare("row", i)
        for j in range(n):
            if len({row[j] for row in rows}) != n:
                raise NotLatinSquare("column", j)
        e = self.identity
        if not 0 <= e < n:
            raise NoIdentity(f"identity index {e} outside 0..{n - 1}")
        if rows[e] != tuple(range(n)) or any(rows[i][e] != i for i in range(n)):
            raise NoIdentity(f"element {e} is not a two-sided neutral element")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], identity: int | None = None) -> "LoopTable":
        """Build a table, auto-detecting the identity when not given."""
        if identity is None:
            identity = _detect_identity(rows)
        return cls(tuple(tuple(r) for r in rows), identity)

    @classmethod
    def from_flat(cls, data: Sequence[int] | bytes, n: int, identity: int = 0) -> "LoopTable":
        """Build from a row-major flat buffer of n*n cells."""
        if len(data) != n * n:
            raise MalformedInput(f"flat table has {len(data)} cells, expected {n * n}")
        rows = tuple(tuple(data[i * n : (i + 1) * n]) for i in range(n))
        return cls(rows, identity)

    # -- basic queries ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def elements(self) -> range:
        return range(len(self.rows))

    def _check_index(self, x: int) -> None:
        if not 0 <= x < len(self.rows):
            raise IndexOutOfRange(f"element {x} outside 0..{len(self.rows) - 1}")

    def mul(self, a: int, b: int) -> int:
        """Product a*b."""
        self._check_index(a)
        self._check_index(b)
        return self.rows[a][b]

    @cached_property
    def _ldiv_rows(self) -> tuple[tuple[int, ...], ...]:
        # _ldiv_rows[a][b] = the unique x with a*x = b
        n = len(self.rows)
        out = [[0] * n for _ in range(n)]
        for a, row in enumerate(self.rows):
            for x, b in enumerate(row):
                out[a][b] = x
        return tuple(tuple(r) for r in out)

    @cached_property
    def _rdiv_rows(self) -> tuple[tuple[int, ...], ...]:
        # _rdiv_rows[a][b] = the unique y with y*a = b
        n = len(self.rows)
        out = [[0] * n for _ in range(n)]
        for y, row in enumerate(self.rows):
            for a, b in enumerate(row):
                out[a][b] = y
        return tuple(tuple(r) for r in out)

    @cached_property
    def _left_bol_scan(self):
        # the table's one left Bol scan, read by props.is_left_bol and
        # props.bol_elements; imported here because props imports this module
        from .props import _scan_left_bol

        return _scan_left_bol(self.rows)

    def ldiv(self, a: int, b: int) -> int:
        """The unique x with a*x = b."""
        self._check_index(a)
        self._check_index(b)
        return self._ldiv_rows[a][b]

    def rdiv(self, b: int, a: int) -> int:
        """The unique y with y*a = b."""
        self._check_index(a)
        self._check_index(b)
        return self._rdiv_rows[a][b]

    # -- inverses and powers ----------------------------------------------

    def left_inverse(self, x: int) -> int:
        """The solution of x*? = identity."""
        return self.ldiv(x, self.identity)

    def right_inverse(self, x: int) -> int:
        """The solution of ?*x = identity."""
        return self.rdiv(self.identity, x)

    def inverse(self, x: int) -> int:
        """Two-sided inverse of x; raises NoTwoSidedInverse if the sides differ."""
        li = self.left_inverse(x)
        ri = self.right_inverse(x)
        if li != ri:
            raise NoTwoSidedInverse(x, li, ri)
        return li

    def power(self, x: int, k: int) -> int:
        """k-th left-bracketed power of x.

        Powers follow the recursion x^0 = e, x^(k+1) = x * x^k and, for
        negative exponents, x^(-k-1) = x^(-1) * x^(-k).  Iterated left
        multiplication keeps the definition meaningful even in loops
        that are not power-associative, where other bracketings of the
        same power may disagree.
        """
        self._check_index(x)
        base = x if k >= 0 else self.inverse(x)
        steps = abs(k)
        if steps > len(self.rows):
            # left powers of the base walk a cycle through the identity
            steps %= self.element_order(base)
        acc = self.identity
        row = self.rows[base]
        for _ in range(steps):
            acc = row[acc]
        return acc

    def element_order(self, x: int) -> int:
        """Least k >= 1 with x^k = identity (left powers).

        The sequence e, x, x*x, ... walks the cycle of the left
        translation by x through e, so the order is at most n.  In a
        loop that is not power-associative this is specifically the
        left-power order.
        """
        self._check_index(x)
        row = self.rows[x]
        acc = row[self.identity]
        k = 1
        while acc != self.identity:
            acc = row[acc]
            k += 1
        return k

    # -- table-level transforms -------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "LoopTable":
        """Apply the bijection i -> perm[i] to the carrier."""
        n = len(self.rows)
        if sorted(perm) != list(range(n)):
            raise MalformedInput("relabeling is not a permutation of 0..n-1")
        new = [[0] * n for _ in range(n)]
        for i, row in enumerate(self.rows):
            pi = perm[i]
            for j, v in enumerate(row):
                new[pi][perm[j]] = perm[v]
        return LoopTable(tuple(tuple(r) for r in new), perm[self.identity])

    def normalized(self) -> "LoopTable":
        """Relabel so the identity is element 0 (swap 0 and the identity)."""
        e = self.identity
        if e == 0:
            return self
        perm = list(range(len(self.rows)))
        perm[0], perm[e] = e, 0
        return self.relabel(perm)

    def transpose(self) -> "LoopTable":
        """The mirror loop with the opposite product a*b := b*a, built once per table."""
        return self._transpose

    @cached_property
    def _transpose(self) -> "LoopTable":
        return LoopTable(tuple(zip(*self.rows)), self.identity)

    def restricted(self, members: Iterable[int]) -> "LoopTable":
        """Subloop table on a product-closed member set, reindexed to 0..k-1."""
        sub = sorted(set(members))
        pos = {v: i for i, v in enumerate(sub)}
        rows = []
        for a in sub:
            row = []
            for b in sub:
                v = self.rows[a][b]
                if v not in pos:
                    raise MalformedInput(f"subset is not closed: {a}*{b} = {v}")
                row.append(pos[v])
            rows.append(tuple(row))
        return LoopTable(tuple(rows), pos[self.identity])

    # -- serialization ------------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form; parse_loop inverts this exactly."""
        lines = []
        if self.identity != 0:
            lines.append(f"identity={self.identity}")
        lines.append(str(len(self.rows)))
        for row in self.rows:
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    def flat_bytes(self) -> bytes:
        return bytes(v for row in self.rows for v in row)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()

    def __repr__(self) -> str:
        return f"LoopTable(order={len(self.rows)}, identity={self.identity})"


def _detect_identity(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    ident = tuple(range(n))
    for e in range(n):
        if tuple(rows[e]) == ident and all(rows[i][e] == i for i in range(n)):
            return e
    raise NoIdentity("no two-sided neutral element found")


def parse_loop(text: str) -> LoopTable:
    """Parse the canonical table format (or its CSV variant).

    Format: optional '#' comment lines, an optional ``identity=k``
    header, a line holding the order n, then n lines of n
    whitespace-separated cells.  In the CSV variant cells are
    comma-separated and the order is inferred from the row count (no
    dimension line).  ``.normalized()`` relabels the identity to 0.
    """
    header_identity: int | None = None
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line and not line[0].isdigit() and not line.startswith("-"):
            key, _, value = line.partition("=")
            if key.strip() != "identity":
                raise MalformedInput(f"unknown header {key.strip()!r}", lineno)
            if header_identity is not None:
                raise MalformedInput("duplicate identity header", lineno)
            try:
                header_identity = int(value)
            except ValueError:
                raise MalformedInput(f"bad identity value {value.strip()!r}", lineno)
            continue
        data.append((lineno, line))

    if not data:
        raise MalformedInput("no table data found")

    csv_mode = "," in data[0][1]
    if csv_mode:
        n = len(data)
        row_lines = data
    else:
        lineno, first = data[0]
        try:
            n = int(first)
        except ValueError:
            raise MalformedInput(f"expected the order, found {first!r}", lineno)
        row_lines = data[1:]

    if n < 1:
        raise MalformedInput(f"order must be positive, got {n}")
    if n > MAX_ORDER:
        raise MalformedInput(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    if len(row_lines) != n:
        raise MalformedInput(f"expected {n} table rows, found {len(row_lines)}")

    rows = []
    for lineno, line in row_lines:
        cells = line.split(",") if csv_mode else line.split()
        if len(cells) != n:
            raise MalformedInput(f"expected {n} cells, found {len(cells)}", lineno)
        row = []
        for cell in cells:
            try:
                v = int(cell)
            except ValueError:
                raise MalformedInput(f"non-integer cell {cell.strip()!r}", lineno)
            if not 0 <= v < n:
                raise MalformedInput(f"cell value {v} outside 0..{n - 1}", lineno)
            row.append(v)
        rows.append(tuple(row))

    if header_identity is not None and not 0 <= header_identity < n:
        raise NoIdentity(f"identity header {header_identity} outside 0..{n - 1}")
    identity = header_identity if header_identity is not None else _detect_identity(rows)
    return LoopTable(tuple(rows), identity)
