"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with a
stated runtime bound re-run their searches from scratch (single
worker); the others reuse the session corpus.

Criterion 4 is an exhaustive hunt over the order-8 right Bol loops for
one whose commutant is not a subloop; it must exhaust the space and
report no witness.  The negative is cross-checked by the property layer:
all 11 right Bol classes of order 8 (Burn's count) are re-verified as
right Bol and each has a subloop commutant.  An order-6 control hunt,
where such loops do exist, must return a witness whose pair re-evaluates
outside the commutant, so a hunt that always answers "none" fails too.
"""

import time
from itertools import permutations

from bolforge import (
    SearchSpec,
    canonical_form,
    center,
    check_theorem1,
    commutant,
    enumerate_loops,
    find_first,
    generated_subloop,
    is_left_bol,
    is_moufang,
    is_right_bol,
    is_subloop,
)
from bolforge.cli import main
from bolforge.table import LoopTable

from frozen import LEFT_BOL_COUNTS, LOOP_COUNTS
from naive_ref import iso_classes, naive_normalized_tables


def _report(num: int, label: str, ok: bool, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\n[acceptance] criterion {num} ({label}): {status}{timing}")


def test_criterion_1_squares_inverses_products_stay_in_commutant():
    t0 = time.monotonic()
    failures = []
    for n in range(1, 9):
        result = enumerate_loops(SearchSpec(order=n, constraint="left-bol", jobs=1))
        assert result.exhausted
        for table in result.representatives:
            members = commutant(table)
            cset = set(members)
            for a in members:
                sq = table.mul(a, a)
                if sq not in cset:
                    failures.append((n, table, "square", a))
                if table.inverse(a) not in cset:
                    failures.append((n, table, "inverse", a))
                for b in members:
                    if table.mul(sq, b) not in cset:
                        failures.append((n, table, "square-mul", a, b))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 60.0
    _report(1, "commutant closed under squares, inverses, square-products", ok, elapsed)
    assert not failures, failures[:3]
    assert elapsed <= 60.0, f"suite took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_generated_subloops_stay_in_commutant(corpus):
    failures = []
    checked = 0
    for loop_id, table in corpus:
        if not is_left_bol(table).holds:
            continue
        checked += 1
        cset = set(commutant(table))
        for a in sorted(cset):
            if not set(generated_subloop(table, (a,))) <= cset:
                failures.append((loop_id, a))
    ok = not failures and checked > 0
    _report(2, "generated subloops of commutant elements stay inside", ok)
    assert checked > 0
    assert not failures, failures[:3]


def test_criterion_3_odd_commutant_orders_make_commutant_a_subloop(corpus, bruck21):
    refuted = []
    verified_ids = []
    for loop_id, table in corpus:
        verdict = check_theorem1(table)
        if verdict.status == "REFUTED":
            refuted.append((loop_id, verdict))
        elif verdict.status == "verified":
            verified_ids.append(loop_id)
    bruck_verdict = check_theorem1(bruck21)
    ok = not refuted and bruck_verdict.status == "verified" and "bruck-n21" in verified_ids
    _report(3, "odd-order commutant is a subloop, with half-power square roots", ok)
    assert bruck_verdict.status == "verified"
    assert "bruck-n21" in verified_ids
    assert not refuted, refuted


def _reevaluate(table: LoopTable, op: str, a: int, b: int) -> int:
    """a*b, a\\b or a/b read straight off the rows, without the division caches."""
    rows = table.rows
    if op == "mul":
        return rows[a][b]
    if op == "ldiv":
        return rows[a].index(b)
    return next(y for y in table.elements if rows[y][b] == a)


def _escapes_commutant(witness) -> bool:
    """The witness pair lies in the commutant and its result lies outside."""
    data = witness.data
    members = set(data["commutant"])
    a, b = data["pair"]
    return {a, b} <= members and _reevaluate(witness.table, data["operation"], a, b) not in members


def test_criterion_4_order8_right_bol_commutant_counterexample(right_bol_8):
    t0 = time.monotonic()
    result = find_first(
        SearchSpec(
            order=8,
            constraint="right-bol",
            target="commutant-not-subloop",
            jobs=1,
        )
    )
    elapsed = time.monotonic() - t0
    hunt_ok = not result.found and result.exhausted and elapsed <= 600.0
    # the answer "none" checked by the property layer, not the kernel's target
    bad_classes = [
        i
        for i, t in enumerate(right_bol_8)
        if not (is_right_bol(t).holds and is_subloop(t, commutant(t)).holds)
    ]
    classes_ok = len(right_bol_8) == LEFT_BOL_COUNTS[8] and not bad_classes
    # positive control: the same hunt does find a witness where one exists
    control = find_first(
        SearchSpec(order=6, target="commutant-not-subloop", jobs=1)
    )
    control_ok = control.found and _escapes_commutant(control.witnesses[0])
    ok = hunt_ok and classes_ok and control_ok
    _report(4, "no order-8 right Bol loop has a non-subloop commutant", ok, elapsed)
    assert elapsed <= 600.0, f"hunt took {elapsed:.1f}s, budget is 600s"
    assert result.found is False, result.witnesses[:1]
    assert result.exhausted is True
    assert len(right_bol_8) == LEFT_BOL_COUNTS[8]
    assert not bad_classes, f"classes not right Bol or with a non-subloop commutant: {bad_classes}"
    assert control.found, "the order-6 control hunt found no witness"
    assert _escapes_commutant(control.witnesses[0]), control.witnesses[0].data


def test_criterion_5_odd_order_iff_all_element_orders_odd(left_bol_upto_8, right_bol_8, bruck21):
    loops = [t for reps in left_bol_upto_8.values() for t in reps]
    loops += [t.transpose() for t in right_bol_8]  # mirrors are left Bol
    loops.append(bruck21)
    failures = []
    for table in loops:
        all_odd = all(table.element_order(x) % 2 == 1 for x in table.elements)
        if (table.order % 2 == 1) != all_odd:
            failures.append(table)
    ok = not failures
    _report(5, "loop order parity matches element order parity on Bol loops", ok)
    assert not failures


def test_criterion_6_group_coincidence_and_moufang_closure(corpus):
    failures = []
    groups = 0
    for n in range(1, 9):
        result = enumerate_loops(SearchSpec(order=n, constraint="associative"))
        for table in result.representatives:
            groups += 1
            if commutant(table) != center(table):
                failures.append(("coincidence", n, table))
    moufang = 0
    for loop_id, table in corpus:
        if is_moufang(table).holds:
            moufang += 1
            if not is_subloop(table, commutant(table)).holds:
                failures.append(("moufang", loop_id))
    ok = not failures and groups >= 14 and moufang > 0
    _report(6, "groups: commutant = center; Moufang: commutant is a subloop", ok)
    assert groups >= 14 and moufang > 0
    assert not failures, failures[:3]


def test_criterion_7_no_finite_conjecture_witness_upto_9():
    outcomes = {}
    for n in range(1, 10):
        result = find_first(
            SearchSpec(
                order=n,
                constraint="left-bol",
                target="conjecture-witness",
                jobs=1,
            )
        )
        outcomes[n] = (result.found, result.exhausted)
    ok = all(not found and exhausted for found, exhausted in outcomes.values())
    _report(7, "no uniquely 2-divisible Bol loop of order <= 9 has a root escape", ok)
    assert ok, outcomes


def test_criterion_8_oracle_equivalence_and_canonical_invariance():
    counts = {}
    for n in range(1, 6):
        oracle = iso_classes(naive_normalized_tables(n))
        result = enumerate_loops(SearchSpec(order=n))
        counts[n] = (len(oracle), len(result.representatives))
    counts_ok = all(a == b == LOOP_COUNTS[n] for n, (a, b) in counts.items())
    canon_ok = True
    for n in range(1, 6):
        for rows in naive_normalized_tables(n):
            table = LoopTable(rows)
            base = canonical_form(table)
            if canonical_form(base) != base:
                canon_ok = False
            for tail in permutations(range(1, n)):
                if canonical_form(table.relabel([0] + list(tail))) != base:
                    canon_ok = False
    ok = counts_ok and canon_ok
    _report(8, "enumeration matches the naive oracle; canonical form invariant", ok)
    assert counts_ok, counts
    assert canon_ok


def test_criterion_9_worker_count_does_not_change_outputs(tmp_path):
    identical = True
    for n in (5, 6):
        dirs = []
        for jobs in (1, 8):
            out = tmp_path / f"n{n}-j{jobs}"
            code = main(["enumerate", "--order", str(n), "--jobs", str(jobs), "--out", str(out)])
            assert code == 0
            dirs.append({p.name: p.read_bytes() for p in out.glob("*.loop")})
        if dirs[0] != dirs[1]:
            identical = False
    _report(9, "jobs=1 and jobs=8 produce byte-identical representative files", identical)
    assert identical
