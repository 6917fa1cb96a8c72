"""Pure-Python backtracking kernel for normalized Cayley-table search.

This is the fallback twin of the C kernel in ``_kernel_c.c`` and the
reference the C kernel is parity-tested against; the two must stay in
lockstep and produce identical output, counters included.  Tables are
flat row-major ``bytearray`` buffers with 255 marking an empty cell.
Row 0 and column 0 are pinned to the identity maps up front; the
remaining cells are filled row-major with candidate values tried in
ascending order, so leaves are visited in lexicographic table order.
A ``leaf_cb`` makes the search a hunt: each canonical leaf is passed to
it, and the search stops at the first one it accepts.  Without one,
every canonical leaf is kept.

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
  table is compared with its images under identity-fixing relabelings;
  if some image is lexicographically smaller on the determined prefix,
  no completion of the branch can be the canonical class
  representative, so the branch is cut.  Leaves that survive the full
  comparison are exactly the canonical representatives, hence no
  deduplication set is needed and subtree results merge by
  concatenation.

The least-image walk (``_least_image``) answers both minimality and the
canonical form without listing the (n-1)! relabelings.  Image cell
(i, j) under a relabeling p with p(0) = 0 is p(T[q(i)][q(j)]), with
q = p^-1, and images are compared on rows and columns 1..n-1.  For each
source k = q(1) of image row 1, the walk fills that row left to right.
A column j with no source yet branches over every unlabeled s as q(j).
A product with no label takes the least free label; any other label
only makes that cell larger, so no relabeling outside the walk has a
smaller image.  After row 1 every column has a source, so p is complete
and the other rows follow without branching.  A branch is cut at its
first cell larger than the bound.  A cell of the table or the bound
met EMPTY before a decision counts as not smaller.  On a table filled
through row r, the walk over sources 1..r with the table as its own
bound finds whether a smaller image exists; row 1 of each such source
is full, so every row-1 cell is decided.
"""

from __future__ import annotations

import time

BACKEND = "python"

EMPTY = 255

CONSTRAINT_NONE = 0
CONSTRAINT_LEFT_BOL = 1
CONSTRAINT_MOUFANG = 3
CONSTRAINT_ASSOC = 4
_CONSTRAINTS = (CONSTRAINT_NONE, CONSTRAINT_LEFT_BOL, CONSTRAINT_MOUFANG, CONSTRAINT_ASSOC)


def _least_image(T, bound: bytearray, n: int, last: int, first: bool) -> bool:
    """True if the image of some relabeling with q(1) <= last is below ``bound``.

    With ``first`` it stops there; without, ``bound`` ends as the least
    image.  Rows 1..last of T and row 1 of ``bound`` must be full.  See
    the module docs for the walk.
    """
    p = [EMPTY] * n  # p[s] is EMPTY while s is unlabeled
    q = [0] * n
    p[0] = 0

    def rest(below: bool) -> bool:
        for i in range(2, n):
            if below:
                break
            src = q[i] * n
            for j in range(1, n):
                b = bound[i * n + j]
                v = T[src + q[j]]
                if b == EMPTY or v == EMPTY or p[v] > b:
                    return False
                if p[v] < b:
                    below = True
                    break
        if below and not first:
            bound[:] = bytes(p[T[q[i] * n + q[j]]] for i in range(n) for j in range(n))
        return below

    def row1(j: int, nl: int, below: bool) -> bool:
        # image row 1 from column j on, with labels 0..nl-1 in use
        if j == n:
            return rest(below)
        hit = False
        for s in (q[j],) if j < nl else range(1, n):
            m = nl
            if j == nl:
                if p[s] != EMPTY:
                    continue
                p[s] = m
                q[m] = s
                m += 1
            v = T[k * n + s]
            if p[v] == EMPTY:
                p[v] = m
                q[m] = v
                m += 1
            found = False
            if below or p[v] < bound[n + j]:
                found = first or row1(j + 1, m, True)
            elif p[v] == bound[n + j]:
                found = row1(j + 1, m, False)
            for label in range(nl, m):
                p[q[label]] = EMPTY
            if found:
                if first:
                    return True
                # bound now extends this branch, so later ones compare afresh
                hit = True
                below = False
        return hit

    hit = False
    for k in range(1, last + 1):
        p[k] = 1
        q[1] = k
        hit = row1(1, 2, False) or hit
        p[k] = EMPTY
        if hit and first:
            break
    return hit


class _Search:
    def __init__(
        self,
        n: int,
        constraint: int,
        prefix: bytes | None = None,
        leaf_cb=None,
        node_budget: int = 10**8,
        deadline: float = 0.0,
        prefix_only: bool = False,
    ):
        if constraint not in _CONSTRAINTS:
            raise ValueError(f"unknown constraint id {constraint}")
        self.n = n
        self.constraint = constraint
        self.leaf_cb = leaf_cb
        self.node_budget = node_budget
        self.deadline = deadline
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

    def _min_reject(self, rows_filled: int) -> bool:
        return _least_image(self.T, self.T, self.n, rows_filled, True)

    # -- leaves ----------------------------------------------------------------

    def _leaf(self) -> int:
        if self.prefix_only:
            n = self.n
            self.tables.append(bytes(self.T[n + 1 : n + n]))
            return 0
        self.leaves += 1
        if self._min_reject(self.n - 1):
            return 0
        self.canonical += 1
        tb = bytes(self.T)
        if self.leaf_cb is not None:
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
    leaf_cb=None,
    node_budget: int = 10**8,
    deadline: float = 0.0,
) -> dict:
    """Search the (sub)tree of normalized order-n tables; see module docs."""
    search = _Search(
        n,
        constraint,
        prefix=prefix,
        leaf_cb=leaf_cb,
        node_budget=node_budget,
        deadline=deadline,
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
    if len(flat) != n * n:
        raise ValueError("flat table has wrong size")
    if any(v >= n for v in flat):
        raise ValueError("flat table holds a value outside 0..n-1")
    best = bytearray(flat)
    _least_image(flat, best, n, n - 1, False)
    return bytes(best)
