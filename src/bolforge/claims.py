"""Executable checks for the verified claims about commutants of Bol loops.

Each registered claim maps to a check of the form hypothesis =>
conclusion on one finite table.  A claim whose hypothesis fails reports
``hypothesis-not-met`` (naming the failed hypothesis) rather than being
skipped, so corpus runs make vacuous coverage visible.  ``REFUTED`` is
reserved for conclusions that fail although the hypotheses hold; every
registered claim is a theorem, so a REFUTED verdict on a valid table
means an implementation bug and must fail the build.

Claim registry:

* LEMMA1 - in a left Bol loop, the commutant contains a*a, the inverse
  of each member, and (a*a)*b for all members a, b.
* LEMMA2 - in a left Bol loop, the subloop generated by a commutant
  element stays inside the commutant.
* THEOREM1 - in a left Bol loop whose commutant elements all have odd
  order, the commutant is a subloop; re-enacted via half-power square
  roots (see check_theorem1).
* COROLLARY - a left Bol loop of odd order has all-odd element orders
  and a commutant that is a subloop; an even-order left Bol loop has an
  element of even order.
* GLAUBERMAN_PARITY - a finite left Bol loop has odd order exactly when
  every element has odd order (both directions).
* REMARK1_EXT - a left Bol loop whose commutant has odd cardinality and
  is closed under inverses and x*yx has a commutant that is a subloop.
* REMARK2_EXT - in any loop, if every member of the intersection of the
  Bol elements with the commutant has odd order, that intersection is a
  subloop.
* CENTER_NORMAL - the center is a normal subloop, in every loop.
* GROUP_COINCIDENCE - in an associative loop, commutant and center are
  the same set.
* MOUFANG_COMMUTANT - the commutant of a Moufang loop is a subloop.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import LoopError, ManifestNotFound
from .props import (
    bol_elements,
    center,
    commutant,
    generated_subloop,
    is_associative,
    is_left_bol,
    is_moufang,
    is_normal,
    is_subloop,
    is_twisted_closed,
)
from .table import LoopTable, parse_loop

VERIFIED = "verified"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
REFUTED = "REFUTED"


@dataclass(frozen=True)
class ClaimVerdict:
    claim: str
    status: str
    detail: str = ""
    witness: tuple = ()

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness:
            out["witness"] = list(self.witness)
        return out


def _verified(claim: str, detail: str = "") -> ClaimVerdict:
    return ClaimVerdict(claim, VERIFIED, detail)


def _not_met(claim: str, hypothesis: str, witness: tuple = ()) -> ClaimVerdict:
    return ClaimVerdict(claim, HYPOTHESIS_NOT_MET, hypothesis, witness)


def _refuted(claim: str, detail: str, witness: tuple) -> ClaimVerdict:
    return ClaimVerdict(claim, REFUTED, detail, witness)


def check_lemma1(table: LoopTable) -> ClaimVerdict:
    """Squares, inverses, and square-times-member closure of the commutant."""
    claim = "LEMMA1"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    members = commutant(table)
    cset = set(members)
    rows = table.rows
    for a in members:
        if rows[a][a] not in cset:
            return _refuted(claim, "square left the commutant", ("square", a))
        if table.inverse(a) not in cset:
            return _refuted(claim, "inverse left the commutant", ("inverse", a))
    for a in members:
        sq = rows[a][a]
        for b in members:
            if rows[sq][b] not in cset:
                return _refuted(
                    claim, "square-times-member left the commutant", ("square-mul", a, b)
                )
    return _verified(claim)


def check_lemma2(table: LoopTable) -> ClaimVerdict:
    """Generated subloops of commutant elements stay inside the commutant."""
    claim = "LEMMA2"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    cset = set(commutant(table))
    for a in sorted(cset):
        for v in generated_subloop(table, (a,)):
            if v not in cset:
                return _refuted(claim, "generated subloop left the commutant", (a, v))
    return _verified(claim)


def check_theorem1(table: LoopTable) -> ClaimVerdict:
    """Odd-order commutant of a left Bol loop is a subloop, with proof re-enactment.

    The re-enactment computes, for each commutant member a of order k,
    the half power c = a^((k+1)/2) and verifies that c*c = a, that c is
    a commutant member, and that c is the only commutant member squaring
    to a.  Uniqueness is scoped to the commutant: elements outside it
    may square to a as well (in a symmetric group every transposition
    squares to the identity), and the subloop argument only consumes a
    root inside the commutant.
    """
    claim = "THEOREM1"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    members = commutant(table)
    orders = {a: table.element_order(a) for a in members}
    for a in members:
        if orders[a] % 2 == 0:
            return _not_met(claim, "even-order commutant element", (a,))
    closure = is_subloop(table, members)
    if not closure.holds:
        return _refuted(claim, "commutant is not a subloop", closure.witnesses[0])
    cset = set(members)
    rows = table.rows
    for a in members:
        k = orders[a]
        c = table.power(a, (k + 1) // 2)
        if rows[c][c] != a:
            return _refuted(claim, "half power does not square back", (a, c))
        if c not in cset:
            return _refuted(claim, "square root left the commutant", (a, c))
        others = [d for d in members if rows[d][d] == a and d != c]
        if others:
            return _refuted(claim, "square root not unique in the commutant", (a, c, others[0]))
    return _verified(claim)


def check_corollary(table: LoopTable) -> ClaimVerdict:
    """Odd-order left Bol loops: all-odd element orders and commutant subloop."""
    claim = "COROLLARY"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    n = table.order
    if n % 2 == 1:
        for x in table.elements:
            if table.element_order(x) % 2 == 0:
                return _refuted(claim, "even-order element in an odd-order loop", (x,))
        closure = is_subloop(table, commutant(table))
        if not closure.holds:
            return _refuted(claim, "commutant is not a subloop", closure.witnesses[0])
        return _verified(claim, "odd order")
    for x in table.elements:
        if table.element_order(x) % 2 == 0:
            return _verified(claim, "even order: an even-order element exists")
    return _refuted(claim, "even-order loop with all element orders odd", ())


def check_glauberman_parity(table: LoopTable) -> ClaimVerdict:
    """Odd loop order iff every element order is odd, on left Bol loops."""
    claim = "GLAUBERMAN_PARITY"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    evens = [x for x in table.elements if table.element_order(x) % 2 == 0]
    if table.order % 2 == 1:
        if evens:
            return _refuted(claim, "even-order element in an odd-order loop", (evens[0],))
        return _verified(claim, "odd order, all element orders odd")
    if not evens:
        return _refuted(claim, "even-order loop with all element orders odd", ())
    return _verified(claim, "even order, an even-order element exists")


def check_remark1_extension(table: LoopTable) -> ClaimVerdict:
    """Odd-cardinality, inverse-and-x*yx-closed commutant is a subloop.

    The hypothesis reads the commutant's "order" as its cardinality, and
    additionally checks the closure that reading relies on; the
    interpretation is flagged in the verdict detail.
    """
    claim = "REMARK1_EXT"
    note = "commutant order read as cardinality"
    if not is_left_bol(table).holds:
        return _not_met(claim, "not left Bol")
    members = commutant(table)
    twisted = is_twisted_closed(table, members)
    if not twisted.holds:
        return _not_met(
            claim, "commutant not closed under inverses and x*yx", twisted.witnesses[0]
        )
    if len(members) % 2 == 0:
        return _not_met(claim, f"commutant has even cardinality ({note})")
    closure = is_subloop(table, members)
    if not closure.holds:
        return _refuted(claim, "commutant is not a subloop", closure.witnesses[0])
    return _verified(claim, note)


def check_remark2_extension(table: LoopTable) -> ClaimVerdict:
    """Bol-elements-intersect-commutant with all-odd orders is a subloop.

    No Bol hypothesis on the loop itself; applies to arbitrary loops.
    """
    claim = "REMARK2_EXT"
    members = tuple(sorted(set(bol_elements(table)) & set(commutant(table))))
    for a in members:
        if table.element_order(a) % 2 == 0:
            return _not_met(claim, "even-order member of the Bol-commutant intersection", (a,))
    closure = is_subloop(table, members)
    if not closure.holds:
        return _refuted(claim, "Bol-commutant intersection is not a subloop", closure.witnesses[0])
    return _verified(claim)


def check_center_normal(table: LoopTable) -> ClaimVerdict:
    """The center is a normal subloop of every loop."""
    claim = "CENTER_NORMAL"
    members = center(table)
    closure = is_subloop(table, members)
    if not closure.holds:
        return _refuted(claim, "center is not a subloop", closure.witnesses[0])
    normal = is_normal(table, members)
    if not normal.holds:
        return _refuted(claim, "center is not normal", normal.witnesses[0])
    return _verified(claim)


def check_group_coincidence(table: LoopTable) -> ClaimVerdict:
    """Commutant equals center on associative loops."""
    claim = "GROUP_COINCIDENCE"
    if not is_associative(table).holds:
        return _not_met(claim, "not associative")
    c = commutant(table)
    z = center(table)
    if c != z:
        diff = sorted(set(c) ^ set(z))
        return _refuted(claim, "commutant and center differ", (diff[0],))
    return _verified(claim)


def check_moufang_commutant(table: LoopTable) -> ClaimVerdict:
    """The commutant of a Moufang loop is a subloop."""
    claim = "MOUFANG_COMMUTANT"
    if not is_moufang(table).holds:
        return _not_met(claim, "not Moufang")
    closure = is_subloop(table, commutant(table))
    if not closure.holds:
        return _refuted(claim, "commutant is not a subloop", closure.witnesses[0])
    return _verified(claim)


CLAIM_CHECKS: dict[str, Callable[[LoopTable], ClaimVerdict]] = {
    "LEMMA1": check_lemma1,
    "LEMMA2": check_lemma2,
    "THEOREM1": check_theorem1,
    "COROLLARY": check_corollary,
    "GLAUBERMAN_PARITY": check_glauberman_parity,
    "REMARK1_EXT": check_remark1_extension,
    "REMARK2_EXT": check_remark2_extension,
    "CENTER_NORMAL": check_center_normal,
    "GROUP_COINCIDENCE": check_group_coincidence,
    "MOUFANG_COMMUTANT": check_moufang_commutant,
}

CLAIM_IDS = tuple(CLAIM_CHECKS)


def check_all(table: LoopTable) -> list[ClaimVerdict]:
    return [CLAIM_CHECKS[claim](table) for claim in CLAIM_IDS]


# -- corpus runs ----------------------------------------------------------------


def read_manifest(path: str | Path) -> list[tuple[str, Path]]:
    """Manifest format: one loop-file path per line, '#' comments, blank lines ok.

    Paths are resolved relative to the manifest's directory; the id of
    each loop is the path string as written.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestNotFound(str(path))
    base = path.parent
    entries = []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries.append((line, base / line))
    return entries


@dataclass
class CorpusReport:
    """All claim verdicts over a manifest, plus collected per-file parse errors."""

    verdicts: dict[str, dict[str, ClaimVerdict]] = field(default_factory=dict)
    parse_errors: dict[str, str] = field(default_factory=dict)

    @property
    def totals(self) -> Counter:
        counts: Counter = Counter()
        for per_loop in self.verdicts.values():
            counts.update(v.status for v in per_loop.values())
        return counts

    @property
    def refuted(self) -> int:
        return self.totals[REFUTED]

    def to_json_dict(self) -> dict:
        loops = {}
        for loop_id in sorted(self.verdicts):
            loops[loop_id] = {
                claim: self.verdicts[loop_id][claim].to_json_dict()
                for claim in sorted(self.verdicts[loop_id])
            }
        totals = self.totals
        return {
            "loops": loops,
            "errors": {k: self.parse_errors[k] for k in sorted(self.parse_errors)},
            "totals": {status: totals[status] for status in (VERIFIED, HYPOTHESIS_NOT_MET, REFUTED)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _parse_entries(
    entries: Iterable[tuple[str, Path]], errors: dict[str, str]
) -> Iterator[tuple[str, LoopTable]]:
    """Parse manifest entries one at a time, recording failures in ``errors``."""
    for loop_id, file_path in entries:
        try:
            table = parse_loop(file_path.read_text())
        except (OSError, LoopError) as exc:
            errors[loop_id] = str(exc)
            continue
        yield loop_id, table


def run_corpus(
    manifest: str | Path | None,
    claims: Sequence[str] | None = None,
    tables: Iterable[tuple[str, LoopTable]] | None = None,
) -> CorpusReport:
    """Run the selected claims (default: all) over every loop of a corpus.

    A corpus is either a manifest file or an explicit iterable of
    (loop id, table) pairs.  A manifest is streamed: each file is
    parsed, checked and dropped before the next is read, so one table
    (with the mirror and scans it keeps) is in memory at a time.
    Per-file parse failures are collected in the report instead of
    aborting the run.  An empty or unknown claim selection is refused
    before any loop is read.  Verdicts do not depend on iteration
    order; report entries are sorted by loop id on emission.
    """
    selected = list(claims) if claims is not None else list(CLAIM_IDS)
    if not selected:
        raise ValueError(f"no claim selected; known: {', '.join(CLAIM_IDS)}")
    for claim in selected:
        if claim not in CLAIM_CHECKS:
            raise ValueError(f"unknown claim {claim!r}; known: {', '.join(CLAIM_IDS)}")
    report = CorpusReport()
    if tables is None:
        tables = _parse_entries(read_manifest(manifest), report.parse_errors)
    for loop_id, table in tables:
        report.verdicts[loop_id] = {claim: CLAIM_CHECKS[claim](table) for claim in selected}
    return report
