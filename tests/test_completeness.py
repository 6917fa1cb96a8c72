"""Cross-route checks that constrained search never drops a class.

The unconstrained enumeration uses no identity propagation at all, so
filtering its output through the property checkers and canonicalizing
is an independent route to the constrained class lists.
"""

import pytest

from bolforge import SearchSpec, canonical_form, enumerate_loops, is_normal, is_subloop
from bolforge.catalog import symmetric_3
from bolforge.search.engine import CONSTRAINT_VERDICTS


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("constraint", sorted(CONSTRAINT_VERDICTS))
def test_constrained_search_equals_filtered_enumeration(n, constraint, all_loops_upto_6):
    check = CONSTRAINT_VERDICTS[constraint]
    filtered = sorted(
        canonical_form(t).flat_bytes() for t in all_loops_upto_6[n] if check(t).holds
    )
    constrained = enumerate_loops(SearchSpec(order=n, constraint=constraint))
    assert [t.flat_bytes() for t in constrained.representatives] == filtered
    assert constrained.exhausted


def test_wall_budget_stops_search():
    result = enumerate_loops(SearchSpec(order=7, wall_budget_s=1e-9))
    assert not result.exhausted


def test_tiny_orders_with_many_jobs():
    for n in (1, 2, 3):
        a = enumerate_loops(SearchSpec(order=n, jobs=8))
        assert len(a.representatives) == 1
        assert a.exhausted


def test_non_normal_subloop_detected():
    s3 = symmetric_3()
    assert is_subloop(s3, (0, 2)).holds
    verdict = is_normal(s3, (0, 2))
    assert not verdict.holds
    kind, x = verdict.witnesses[0]
    assert kind == "xS=Sx"
    assert {s3.mul(x, s) for s in (0, 2)} != {s3.mul(s, x) for s in (0, 2)}
