import pytest
from hypothesis import HealthCheck, settings

from bolforge import SearchSpec, construct_bruck_from_group, enumerate_loops
from bolforge.catalog import cyclic, frobenius_21, klein_four, symmetric_3
from bolforge.search import get_kernel

settings.register_profile(
    "ci", derandomize=True, max_examples=50, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def pytest_report_header(config):
    return f"bolforge kernel: {get_kernel().BACKEND}"


@pytest.fixture(scope="session")
def all_loops_upto_6():
    """order -> tuple of canonical representatives, unconstrained, orders 1..6."""
    return {n: enumerate_loops(SearchSpec(order=n)).representatives for n in range(1, 7)}


@pytest.fixture(scope="session")
def left_bol_upto_8():
    return {
        n: enumerate_loops(SearchSpec(order=n, constraint="left-bol")).representatives
        for n in range(1, 9)
    }


@pytest.fixture(scope="session")
def left_bol_9():
    """The whole SearchResult, so tests can read its counters as well."""
    return enumerate_loops(SearchSpec(order=9, constraint="left-bol"))


@pytest.fixture(scope="session")
def right_bol_8():
    return enumerate_loops(SearchSpec(order=8, constraint="right-bol")).representatives


@pytest.fixture(scope="session")
def bruck21():
    return construct_bruck_from_group(frobenius_21())


@pytest.fixture(scope="session")
def corpus(all_loops_upto_6, left_bol_upto_8, right_bol_8, bruck21):
    """The regression corpus: (loop id, table) pairs, ids unique and stable."""
    entries = []
    for n, reps in sorted(all_loops_upto_6.items()):
        entries.extend((f"all-n{n}-{i}", t) for i, t in enumerate(reps))
    for n, reps in sorted(left_bol_upto_8.items()):
        if n >= 7:  # smaller orders already covered by the unconstrained sweep
            entries.extend((f"lbol-n{n}-{i}", t) for i, t in enumerate(reps))
    entries.extend((f"rbol-n8-{i}", t) for i, t in enumerate(right_bol_8))
    entries.append(("bruck-n21", bruck21))
    entries.append(("group-s3", symmetric_3()))
    entries.append(("group-z7", cyclic(7)))
    entries.append(("group-z9", cyclic(9)))
    entries.append(("group-k4", klein_four()))
    entries.append(("group-f21", frobenius_21()))
    return entries
