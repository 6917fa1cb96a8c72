"""Pure-Python backtracking kernel for normalized Cayley-table search.

This is the fallback twin of the C kernel in ``_kernel_c.c`` and the
reference the C kernel is parity-tested against; the two must stay in
lockstep and produce identical output, counters included.  Tables are
flat row-major ``bytearray`` buffers with 255 marking an empty cell.
Row 0 and column 0 are pinned to the identity maps up front; the
remaining cells are filled row-major with candidate values tried in
ascending order, so leaves are visited in lexicographic table order.

Pruning:

* Latin masks - a value already used in the row or column is skipped.
* Identity scan - after each assignment, every identity instance whose
  product chain is fully determined is evaluated; any violation cuts
  the branch.  An instance that extends to a valid table can never
  evaluate to a violation on a partial table, so the pruning is safe.
  Every write to the table ``T`` also goes to its transpose ``Tt``, the
  table of the opposite loop.  A loop is right Bol exactly when its
  opposite is left Bol, so the one left Bol scan checks Moufang (left
  and right Bol) as a scan of ``T`` and a scan of ``Tt``.  Right Bol has
  no constraint id: the search engine runs it as a left Bol search and
  mirrors the output.
* Minimality - at row boundaries (and always at leaves) the partial
  table is compared against its images under identity-fixing
  relabelings; if some image is lexicographically smaller on the
  determined prefix, no completion of the branch can be the canonical
  class representative, so the branch is cut.  Leaves that survive the
  full comparison are exactly the canonical representatives, hence no
  deduplication set is needed and subtree results merge by
  concatenation.
"""

from __future__ import annotations

import time
from itertools import permutations

BACKEND = "python"

EMPTY = 255

CONSTRAINT_NONE = 0
CONSTRAINT_LEFT_BOL = 1
CONSTRAINT_MOUFANG = 3
CONSTRAINT_ASSOC = 4
_CONSTRAINTS = (CONSTRAINT_NONE, CONSTRAINT_LEFT_BOL, CONSTRAINT_MOUFANG, CONSTRAINT_ASSOC)

_PERM_CACHE: dict[int, list[list[tuple[tuple[int, ...], tuple[int, ...]]]]] = {}


def _perm_groups(n: int) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Non-identity relabelings fixing 0, as (perm, inverse) pairs.

    Group k holds the perms whose inverse maps 1 to k, i.e. those whose
    image row 1 is sourced from row k; a partial table filled through
    row r can only be compared against groups k <= r.
    """
    cached = _PERM_CACHE.get(n)
    if cached is not None:
        return cached
    groups: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [[] for _ in range(n)]
    ident = tuple(range(n))
    for tail in permutations(range(1, n)):
        perm = (0,) + tail
        if perm == ident:
            continue
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        groups[inv[1]].append((perm, tuple(inv)))
    _PERM_CACHE[n] = groups
    return groups


class _Search:
    def __init__(
        self,
        n: int,
        constraint: int,
        prefix: bytes | None = None,
        find_mode: bool = False,
        leaf_cb=None,
        node_budget: int = 10**8,
        deadline: float = 0.0,
        debug_leaf: bool = False,
        prefix_only: bool = False,
    ):
        if constraint not in _CONSTRAINTS:
            raise ValueError(f"unknown constraint id {constraint}")
        self.n = n
        self.constraint = constraint
        self.find_mode = find_mode
        self.leaf_cb = leaf_cb
        self.node_budget = node_budget
        self.deadline = deadline
        self.debug_leaf = debug_leaf
        self.prefix_only = prefix_only

        self.T = bytearray([EMPTY]) * (n * n)
        for j in range(n):
            self.T[j] = j
            self.T[j * n] = j
        self.Tt = bytearray(self.T)  # transpose of T, written alongside it
        full = (1 << n) - 1
        self.full_mask = full
        self.row_used = [full] + [1 << i for i in range(1, n)]
        self.col_used = [full] + [1 << j for j in range(1, n)]

        last_row = 2 if prefix_only else n
        self.cells = [(r, c) for r in range(1, last_row) for c in range(1, n)]
        self.start_idx = 0
        if prefix is not None:
            for i, v in enumerate(prefix):
                r, c = self.cells[i]
                self.T[r * n + c] = self.Tt[c * n + r] = v
                self.row_used[r] |= 1 << v
                self.col_used[c] |= 1 << v
            self.start_idx = len(prefix)

        self.perm_groups = _perm_groups(n)
        self.tables: list[bytes] = []
        self.found = False
        self.nodes = 0
        self.latin_prunes = 0
        self.identity_prunes = 0
        self.iso_prunes = 0
        self.leaves = 0
        self.canonical = 0
        self.exhausted = True

    # -- identity instance scans ------------------------------------------

    def _check_left_bol(self, T: bytearray) -> bool:
        # x(y * xz) = (x * yx)z on T; instances with x = 0 or z = 0 hold
        # trivially.  On Tt this is the right Bol identity ((zx)y)x = z((xy)x).
        n = self.n
        for x in range(1, n):
            xn = x * n
            for z in range(1, n):
                t1 = T[xn + z]
                if t1 == EMPTY:
                    continue
                for y in range(n):
                    yn = y * n
                    u1 = T[yn + x]
                    if u1 == EMPTY:
                        continue
                    t2 = T[yn + t1]
                    if t2 == EMPTY:
                        continue
                    u2 = T[xn + u1]
                    if u2 == EMPTY:
                        continue
                    lhs = T[xn + t2]
                    if lhs == EMPTY:
                        continue
                    rhs = T[u2 * n + z]
                    if rhs == EMPTY:
                        continue
                    if lhs != rhs:
                        return False
        return True

    def _check_assoc(self) -> bool:
        # (xy)z = x(yz); instances with any variable 0 hold trivially.
        T = self.T
        n = self.n
        for x in range(1, n):
            xn = x * n
            for y in range(1, n):
                yn = y * n
                t1 = T[xn + y]
                if t1 == EMPTY:
                    continue
                t1n = t1 * n
                for z in range(1, n):
                    lhs = T[t1n + z]
                    if lhs == EMPTY:
                        continue
                    u1 = T[yn + z]
                    if u1 == EMPTY:
                        continue
                    rhs = T[xn + u1]
                    if rhs == EMPTY:
                        continue
                    if lhs != rhs:
                        return False
        return True

    def _identity_ok(self) -> bool:
        c = self.constraint
        if c == CONSTRAINT_NONE:
            return True
        if c == CONSTRAINT_LEFT_BOL:
            return self._check_left_bol(self.T)
        if c == CONSTRAINT_MOUFANG:
            return self._check_left_bol(self.T) and self._check_left_bol(self.Tt)
        return self._check_assoc()

    # -- minimality rejection -----------------------------------------------

    def _image_smaller(self, perm, inv) -> bool:
        """True if the relabeled table is lex-smaller on the determined prefix."""
        T = self.T
        n = self.n
        for i in range(1, n):
            row = i * n
            src = inv[i] * n
            for j in range(1, n):
                pv = T[row + j]
                if pv == EMPTY:
                    return False
                qsrc = T[src + inv[j]]
                if qsrc == EMPTY:
                    return False
                qv = perm[qsrc]
                if qv != pv:
                    return qv < pv
        return False

    def _min_reject(self, rows_filled: int) -> bool:
        groups = self.perm_groups
        for k in range(1, rows_filled + 1):
            for perm, inv in groups[k]:
                if self._image_smaller(perm, inv):
                    return True
        return False

    # -- leaves ----------------------------------------------------------------

    def _leaf(self) -> int:
        if self.prefix_only:
            n = self.n
            self.tables.append(bytes(self.T[n + 1 : n + n]))
            return 0
        self.leaves += 1
        if self.debug_leaf and not self._identity_ok():
            raise RuntimeError("incremental identity check missed a violation")
        if self._min_reject(self.n - 1):
            return 0
        self.canonical += 1
        tb = bytes(self.T)
        if self.find_mode:
            if self.leaf_cb(tb):
                self.tables.append(tb)
                self.found = True
                return 1
            return 0
        self.tables.append(tb)
        return 0

    # -- depth-first fill ---------------------------------------------------------

    def _dfs(self, idx: int) -> int:
        # returns 0 to keep searching, 1 on find-stop, 2 on budget/deadline stop
        if idx == len(self.cells):
            return self._leaf()
        n = self.n
        T = self.T
        Tt = self.Tt
        r, c = self.cells[idx]
        pos = r * n + c
        tpos = c * n + r
        row_used = self.row_used
        col_used = self.col_used
        avail = self.full_mask & ~(row_used[r] | col_used[c])
        self.latin_prunes += n - bin(avail).count("1")
        boundary = c == n - 1 and r < n - 1
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            self.nodes += 1
            if self.nodes >= self.node_budget:
                self.exhausted = False
                return 2
            if self.deadline and self.nodes % 1024 == 0 and time.monotonic() > self.deadline:
                self.exhausted = False
                return 2
            T[pos] = Tt[tpos] = v
            row_used[r] |= bit
            col_used[c] |= bit
            if self._identity_ok():
                if boundary and self._min_reject(r):
                    self.iso_prunes += 1
                else:
                    rc = self._dfs(idx + 1)
                    if rc:
                        return rc
            else:
                self.identity_prunes += 1
            T[pos] = Tt[tpos] = EMPTY
            row_used[r] ^= bit
            col_used[c] ^= bit
        return 0

    def run(self) -> dict:
        rc = self._dfs(self.start_idx)
        if rc == 1:
            self.exhausted = False
        return {
            "tables": self.tables,
            "found": self.found,
            "nodes": self.nodes,
            "latin_prunes": self.latin_prunes,
            "identity_prunes": self.identity_prunes,
            "iso_prunes": self.iso_prunes,
            "leaves": self.leaves,
            "canonical": self.canonical,
            "exhausted": self.exhausted,
        }


def run(
    n: int,
    constraint: int,
    prefix: bytes | None = None,
    find_mode: bool = False,
    leaf_cb=None,
    node_budget: int = 10**8,
    deadline: float = 0.0,
    debug_leaf: bool = False,
) -> dict:
    """Search the (sub)tree of normalized order-n tables; see module docs."""
    search = _Search(
        n,
        constraint,
        prefix=prefix,
        find_mode=find_mode,
        leaf_cb=leaf_cb,
        node_budget=node_budget,
        deadline=deadline,
        debug_leaf=debug_leaf,
    )
    return search.run()


def collect_prefixes(
    n: int,
    constraint: int,
    node_budget: int = 10**8,
    deadline: float = 0.0,
) -> dict:
    """Enumerate valid completions of row 1, the per-subtree split points."""
    search = _Search(
        n,
        constraint,
        node_budget=node_budget,
        deadline=deadline,
        prefix_only=True,
    )
    return search.run()


def canonical_form_bytes(flat: bytes, n: int, /) -> bytes:
    """Lex-least relabeling of a full normalized table, fixing element 0."""
    groups = _perm_groups(n)
    best = bytes(flat)
    for k in range(1, n):
        for perm, inv in groups[k]:
            smaller = False
            for i in range(1, n):
                row = i * n
                src = inv[i] * n
                done = False
                for j in range(1, n):
                    qv = perm[flat[src + inv[j]]]
                    bv = best[row + j]
                    if qv != bv:
                        smaller = qv < bv
                        done = True
                        break
                if done:
                    break
            if smaller:
                out = bytearray(n * n)
                for i in range(n):
                    src = inv[i] * n
                    row = i * n
                    for j in range(n):
                        out[row + j] = perm[flat[src + inv[j]]]
                best = bytes(out)
    return best
