import hashlib
import inspect
import random
from dataclasses import fields, replace
from itertools import permutations

import pytest

from bolforge import (
    EvenOrder,
    LoopTable,
    NotAGroup,
    OrderTooLargeForExact,
    PostConstructionCheckFailed,
    SearchSelfCheckError,
    SearchSpec,
    canonical_form,
    commutant,
    construct_bruck_from_group,
    enumerate_loops,
    find_first,
    has_two_sided_inverses,
    is_associative,
    is_left_bol,
    is_moufang,
    is_right_bol,
    is_subloop,
    parse_loop,
)
from bolforge.catalog import cyclic, direct_product, frobenius_21
from bolforge.search import _kernel_py, get_kernel

from frozen import (
    GROUP_COUNTS,
    LEFT_BOL_8_NONASSOC,
    LEFT_BOL_9_COUNT,
    LEFT_BOL_COUNTS,
    LOOP5_FIRST,
    LOOP_COUNTS,
    MOUFANG_8_COUNT,
    OUTPUT_PINS,
)
from naive_ref import iso_classes, naive_canonical_form, naive_normalized_tables, relabel_rows

try:
    get_kernel("c")
    HAS_C = True
except ImportError:
    HAS_C = False

needs_c = pytest.mark.skipif(
    not HAS_C, reason="compiled kernel not built; run `python setup.py build_ext --inplace`"
)
BACKENDS = ["python", pytest.param("c", marks=needs_c)]


def constraint_ids(kernel) -> dict[str, int]:
    return {k: v for k, v in vars(kernel).items() if k.startswith("CONSTRAINT_")}


KERNEL_CONSTRAINT_IDS = sorted(constraint_ids(get_kernel("python")).values())


def output_pin(reps) -> tuple[int, str]:
    """Class count and SHA-256 of the sorted representative tables."""
    flats = sorted(t.flat_bytes() for t in reps)
    return len(flats), hashlib.sha256(b"".join(flats)).hexdigest()


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_unconstrained_counts_match_naive_oracle(self, n):
        tables = naive_normalized_tables(n)
        oracle_reps = iso_classes(tables)
        result = enumerate_loops(SearchSpec(order=n))
        assert len(result.representatives) == len(oracle_reps) == LOOP_COUNTS[n]
        assert result.exhausted

    @pytest.mark.parametrize("constraint", ["left-bol", "right-bol", "moufang", "associative"])
    def test_constrained_counts_match_naive_oracle(self, constraint):
        from bolforge.search.engine import CONSTRAINT_VERDICTS

        check = CONSTRAINT_VERDICTS[constraint]
        for n in (4, 5):
            tables = [
                rows
                for rows in naive_normalized_tables(n)
                if check(LoopTable(rows)).holds
            ]
            oracle_reps = iso_classes(tables)
            result = enumerate_loops(SearchSpec(order=n, constraint=constraint))
            assert len(result.representatives) == len(oracle_reps)

    def test_representative_tables_are_oracle_classes(self):
        # each canonical rep is isomorphic to exactly one oracle class
        oracle_reps = iso_classes(naive_normalized_tables(5))
        ours = enumerate_loops(SearchSpec(order=5)).representatives
        from naive_ref import are_isomorphic

        for t in ours:
            matches = [r for r in oracle_reps if are_isomorphic(t.rows, r)]
            assert len(matches) == 1


class TestEnumerationRegressions:
    def test_order6_count(self, all_loops_upto_6):
        assert len(all_loops_upto_6[6]) == LOOP_COUNTS[6]

    @pytest.mark.parametrize("n", sorted(GROUP_COUNTS))
    def test_group_counts(self, n):
        result = enumerate_loops(SearchSpec(order=n, constraint="associative"))
        assert len(result.representatives) == GROUP_COUNTS[n]

    def test_left_bol_counts(self, left_bol_upto_8):
        for n, reps in left_bol_upto_8.items():
            assert len(reps) == LEFT_BOL_COUNTS[n], n

    def test_left_bol_8_nonassociative(self, left_bol_upto_8):
        nonassoc = [t for t in left_bol_upto_8[8] if not is_associative(t).holds]
        assert len(nonassoc) == LEFT_BOL_8_NONASSOC

    def test_nonassociative_filter(self):
        result = enumerate_loops(
            SearchSpec(order=8, constraint="left-bol", nonassociative_only=True)
        )
        assert len(result.representatives) == LEFT_BOL_8_NONASSOC
        assert all(not is_associative(t).holds for t in result.representatives)

    def test_moufang_8(self):
        result = enumerate_loops(SearchSpec(order=8, constraint="moufang"))
        assert len(result.representatives) == MOUFANG_8_COUNT
        assert all(is_moufang(t).holds for t in result.representatives)
        assert output_pin(result.representatives) == OUTPUT_PINS["moufang", 8]
        assert result.stats.nodes == 7697

    def test_left_bol_9(self, left_bol_9):
        assert len(left_bol_9.representatives) == LEFT_BOL_9_COUNT
        assert all(is_associative(t).holds for t in left_bol_9.representatives)
        assert (left_bol_9.stats.nodes, left_bol_9.stats.iso_prunes) == (44354, 13261)

    @needs_c
    def test_order7_loop_count_anchor(self):
        # the published order-7 count; the counters pin the search tree
        kc = get_kernel("c")
        out = kc.run(7, kc.CONSTRAINT_NONE)
        assert len(out["tables"]) == LOOP_COUNTS[7]
        assert (out["nodes"], out["iso_prunes"], out["leaves"]) == (1162323, 38086, 31372)

    def test_right_bol_8_output_pinned(self, right_bol_8):
        assert output_pin(right_bol_8) == OUTPUT_PINS["right-bol", 8]

    def test_right_bol_9_output_pinned_and_transposed_left_bol(self, left_bol_9):
        result = enumerate_loops(SearchSpec(order=9, constraint="right-bol"))
        assert result.exhausted
        assert output_pin(result.representatives) == OUTPUT_PINS["right-bol", 9]
        transposed = sorted(
            canonical_form(t.transpose()).flat_bytes() for t in left_bol_9.representatives
        )
        assert transposed == [t.flat_bytes() for t in result.representatives]

    def test_right_bol_8_is_transposed_left_bol(self, left_bol_upto_8, right_bol_8):
        transposed = sorted(
            canonical_form(t.transpose()).flat_bytes() for t in left_bol_upto_8[8]
        )
        assert transposed == [t.flat_bytes() for t in right_bol_8]

    def test_every_representative_satisfies_constraint(self, left_bol_upto_8, right_bol_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert is_left_bol(t).holds
        for t in right_bol_8:
            assert is_right_bol(t).holds

    def test_representatives_pairwise_non_isomorphic(self, all_loops_upto_6):
        for reps in (all_loops_upto_6[5], all_loops_upto_6[6][:25]):
            forms = [canonical_form(t).flat_bytes() for t in reps]
            assert len(set(forms)) == len(forms)


@pytest.fixture(scope="module")
def brute_force_forms(all_loops_upto_6, left_bol_upto_8):
    """(seeded random relabeling, order, brute-force canonical form) triples.

    Every order-6 class and every order-8 left Bol class, plus Z2^3 and
    Z2 x Z4 under three relabelings each: they have the widest row-1 ties
    at order 8, so the least-image walk branches most on them.
    """
    rng = random.Random(2007)
    z2 = cyclic(2)
    wide = [direct_product(z2, direct_product(z2, z2)), direct_product(z2, cyclic(4))]
    tables = [*all_loops_upto_6[6], *left_bol_upto_8[8], *wide, *wide, *wide]
    cases = []
    for t in tables:
        n = t.order
        relabeled = t.normalized().relabel([0] + rng.sample(range(1, n), n - 1))
        form = naive_canonical_form(relabeled.rows)
        cases.append((relabeled.flat_bytes(), n, bytes(v for row in form for v in row)))
    return cases


class TestCanonicalForm:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_forms_match_brute_force(self, backend, brute_force_forms):
        kernel = get_kernel(backend)
        for flat, n, form in brute_force_forms:
            assert kernel.canonical_form_bytes(flat, n) == form

    def test_z3_already_minimal(self):
        z3 = cyclic(3)
        assert canonical_form(z3) == z3

    def test_relabelings_of_z3(self):
        z3 = cyclic(3)
        for tail in permutations(range(1, 3)):
            relabeled = z3.relabel([0] + list(tail))
            assert canonical_form(relabeled) == canonical_form(z3)

    def test_idempotent_and_relabel_invariant_exhaustive(self):
        # every normalized table of order <= 5, every identity-fixing relabeling
        for n in range(1, 6):
            for rows in naive_normalized_tables(n):
                t = LoopTable(rows)
                base = canonical_form(t)
                assert canonical_form(base) == base
                for tail in permutations(range(1, n)):
                    relabeled = t.relabel([0] + list(tail))
                    assert canonical_form(relabeled) == base

    def test_nonzero_identity_normalized_first(self):
        z3 = cyclic(3)
        shifted = z3.relabel([1, 0, 2])  # identity becomes element 1
        assert shifted.identity == 1
        assert canonical_form(shifted) == canonical_form(z3)

    def test_distinct_order8_reps_have_distinct_forms(self, left_bol_upto_8):
        forms = {canonical_form(t).flat_bytes() for t in left_bol_upto_8[8]}
        assert len(forms) == len(left_bol_upto_8[8])

    def test_exact_mode_order_limit(self, bruck21):
        with pytest.raises(OrderTooLargeForExact):
            canonical_form(bruck21, method="exact")

    def test_heuristic_mode_is_relabeling(self, bruck21):
        form = canonical_form(bruck21, method="auto")
        assert form.order == bruck21.order
        assert is_left_bol(form).holds
        # deterministic
        assert canonical_form(bruck21, method="auto") == form

    def test_heuristic_equal_forms_imply_isomorphic(self):
        # heuristic on isomorphic small tables where it happens to agree
        z5 = cyclic(5)
        a = canonical_form(z5, method="heuristic")
        b = canonical_form(z5.relabel([0, 2, 4, 1, 3]), method="heuristic")
        if a == b:
            assert canonical_form(a) == canonical_form(b)


class TestDeterminismAndBudgets:
    def test_jobs_do_not_change_results(self):
        base = enumerate_loops(SearchSpec(order=5))
        for jobs in (2, 4, 8):
            result = enumerate_loops(SearchSpec(order=5, jobs=jobs))
            assert [t.rows for t in result.representatives] == [
                t.rows for t in base.representatives
            ]
            assert result.exhausted == base.exhausted
            assert result.stats == base.stats

    @pytest.mark.parametrize("n, nodes, iso_prunes, leaves", [(5, 195, 16, 6), (6, 5462, 336, 163)])
    def test_unconstrained_counters_pinned(self, n, nodes, iso_prunes, leaves):
        # iso_prunes > 0: minimality rejection cuts branches at row boundaries,
        # before they reach a leaf
        stats = enumerate_loops(SearchSpec(order=n)).stats
        assert (stats.nodes, stats.iso_prunes, stats.leaves) == (nodes, iso_prunes, leaves)

    def test_node_budget_exhaustion(self):
        result = enumerate_loops(SearchSpec(order=6, node_budget=50))
        assert not result.exhausted
        full = enumerate_loops(SearchSpec(order=6))
        assert len(result.representatives) <= len(full.representatives)

    def test_budget_exhaustion_same_across_jobs(self):
        a = enumerate_loops(SearchSpec(order=5, node_budget=40, jobs=1))
        b = enumerate_loops(SearchSpec(order=5, node_budget=40, jobs=4))
        assert [t.rows for t in a.representatives] == [t.rows for t in b.representatives]
        assert a.exhausted == b.exhausted

    def test_repeat_runs_identical(self):
        a = enumerate_loops(SearchSpec(order=6, constraint="left-bol"))
        b = enumerate_loops(SearchSpec(order=6, constraint="left-bol"))
        assert [t.rows for t in a.representatives] == [t.rows for t in b.representatives]
        assert a.stats == b.stats

    def test_result_names_the_backend_that_ran(self, monkeypatch):
        assert enumerate_loops(SearchSpec(order=4)).backend == get_kernel().BACKEND
        monkeypatch.setenv("BOLFORGE_KERNEL", "python")
        assert enumerate_loops(SearchSpec(order=4)).backend == "python"

    def test_order_too_large(self):
        with pytest.raises(OrderTooLargeForExact):
            enumerate_loops(SearchSpec(order=11))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_canonical_form_refuses_bad_tables(self, backend):
        kernel = get_kernel(backend)
        with pytest.raises(ValueError, match="wrong size"):
            kernel.canonical_form_bytes(bytes(5), 2)
        with pytest.raises(ValueError, match="outside"):
            kernel.canonical_form_bytes(bytes([0, 1, 1, 9]), 2)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_refuses_unknown_constraint_id(self, backend):
        # 2 was the right Bol id; running it as another search would be silent
        kernel = get_kernel(backend)
        for bad in (2, 5, -1):
            with pytest.raises(ValueError, match=f"unknown constraint id {bad}"):
                kernel.run(4, bad)
            with pytest.raises(ValueError, match=f"unknown constraint id {bad}"):
                kernel.collect_prefixes(4, bad)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            SearchSpec(order=0)
        with pytest.raises(ValueError):
            SearchSpec(order=5, constraint="flexible")
        with pytest.raises(ValueError):
            SearchSpec(order=5, target="anything")
        with pytest.raises(ValueError, match="target"):
            find_first(SearchSpec(order=5))
        with pytest.raises(ValueError):
            SearchSpec(order=5, node_budget=0)
        with pytest.raises(ValueError):
            SearchSpec(order=5, jobs=0)

    def test_settings_surface_pinned(self):
        # one source per setting: a new search knob has to change this pin
        assert [f.name for f in fields(SearchSpec)] == [
            "order",
            "constraint",
            "target",
            "node_budget",
            "wall_budget_s",
            "jobs",
            "nonassociative_only",
        ]
        params = inspect.signature(get_kernel("python").run).parameters
        assert list(params) == ["n", "constraint", "prefix", "leaf_cb", "node_budget", "deadline"]


class TestSelfCheckTraps:
    """The engine's re-verification of emitted tables catches a faulty kernel."""

    def test_missed_identity_violation_raises(self, monkeypatch):
        monkeypatch.setenv("BOLFORGE_KERNEL", "python")
        monkeypatch.setattr(_kernel_py._Search, "_check_left_bol", lambda self, T: True)
        with pytest.raises(SearchSelfCheckError, match="violates left-bol"):
            enumerate_loops(SearchSpec(order=6, constraint="left-bol"))

    def test_missed_minimality_rejection_raises(self, monkeypatch):
        monkeypatch.setenv("BOLFORGE_KERNEL", "python")
        monkeypatch.setattr(_kernel_py._Search, "_min_reject", lambda self, rows_filled: False)
        with pytest.raises(SearchSelfCheckError, match="not in canonical form"):
            enumerate_loops(SearchSpec(order=5))


class TestFindFirst:
    def test_not_found_small_orders(self):
        # derived: no loop of order <= 5 has a non-subloop commutant
        for n in (4, 5):
            result = find_first(
                SearchSpec(order=n, target="commutant-not-subloop")
            )
            assert not result.found
            assert result.exhausted

    def test_found_at_order6(self, all_loops_upto_6):
        result = find_first(
            SearchSpec(order=6, target="commutant-not-subloop")
        )
        assert result.found and not result.exhausted
        witness = result.witnesses[0]
        members = commutant(witness.table)
        assert list(members) == witness.data["commutant"]
        assert not is_subloop(witness.table, members).holds
        # first in canonical order: matches the scan of the full enumeration
        first_bad = next(
            t for t in all_loops_upto_6[6] if not is_subloop(t, commutant(t)).holds
        )
        assert witness.table.rows == first_bad.rows

    def test_found_witness_pair_reevaluates(self):
        result = find_first(
            SearchSpec(order=6, target="commutant-not-subloop")
        )
        data = result.witnesses[0].data
        t = result.witnesses[0].table
        a, b = data["pair"]
        op = {"mul": t.mul, "ldiv": t.ldiv, "rdiv": t.rdiv}[data["operation"]]
        assert op(a, b) not in data["commutant"]

    def test_find_jobs_deterministic(self):
        # every worker count stops at the first subtree with a witness, so the
        # counters cover the same subtrees; a pool that ran all 5 counted 1,751 nodes
        spec = SearchSpec(order=6, target="commutant-not-subloop")
        a = find_first(spec)
        assert (a.stats.nodes, a.stats.subtrees) == (402, 5)
        for jobs in (2, 4):
            b = find_first(replace(spec, jobs=jobs))
            assert b.witnesses[0].table.rows == a.witnesses[0].table.rows
            assert b.stats == a.stats

    def test_right_bol_hunt_returns_mirror_of_first_left_bol_witness(self, monkeypatch):
        # no right Bol loop of order <= 10 meets a real target; stand in one
        # that the first nonassociative left Bol loop meets
        from bolforge.search import engine

        def nonassociative(t):
            return None if is_associative(t).holds else {"table": t.flat_bytes().hex()}

        monkeypatch.setitem(engine.TARGET_CHECKS, "commutant-not-subloop", nonassociative)
        spec = SearchSpec(order=8, target="commutant-not-subloop")
        left = find_first(replace(spec, constraint="left-bol"))
        right = find_first(replace(spec, constraint="right-bol"))
        assert left.found and right.found
        mirror = canonical_form(left.witnesses[0].table.transpose())
        assert right.representatives == (mirror,)
        assert right.witnesses[0].table == mirror
        assert right.witnesses[0].data == nonassociative(mirror) != left.witnesses[0].data
        assert is_right_bol(mirror).holds and not is_left_bol(mirror).holds

    @pytest.mark.parametrize("n", range(1, 8))
    def test_conjecture_witness_absent_small_orders(self, n):
        result = find_first(
            SearchSpec(order=n, constraint="left-bol", target="conjecture-witness")
        )
        assert not result.found
        assert result.exhausted


@needs_c
class TestKernelParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("constraint", KERNEL_CONSTRAINT_IDS)
    def test_run_outputs_identical(self, n, constraint):
        kc = get_kernel("c")
        kp = get_kernel("python")
        assert kc.run(n, constraint) == kp.run(n, constraint)
        assert kc.collect_prefixes(n, constraint) == kp.collect_prefixes(n, constraint)

    def test_budgets_prefixes_and_find_mode_identical(self):
        kc = get_kernel("c")
        kp = get_kernel("python")
        for budget in (7, 300):
            assert kc.run(5, 0, node_budget=budget) == kp.run(5, 0, node_budget=budget)
        # Moufang scans both the table and its transpose, which prefixes fill too
        moufang = kp.CONSTRAINT_MOUFANG
        for prefix in kp.collect_prefixes(6, moufang)["tables"]:
            assert kc.run(6, moufang, prefix=prefix) == kp.run(6, moufang, prefix=prefix)

        def fifth_leaf_hits():
            seen = []
            return lambda tb: seen.append(tb) or len(seen) == 5

        c_out, p_out = (k.run(5, 0, leaf_cb=fifth_leaf_hits()) for k in (kc, kp))
        assert c_out == p_out
        assert c_out["found"] and not c_out["exhausted"] and len(c_out["tables"]) == 1

    def test_constraint_ids_equal(self):
        assert constraint_ids(get_kernel("c")) == constraint_ids(get_kernel("python"))

    @pytest.mark.parametrize("name", ["run", "collect_prefixes", "canonical_form_bytes"])
    def test_signatures_equal(self, name):
        def params(kernel):
            sig = inspect.signature(getattr(kernel, name))
            return [(p.name, p.kind, p.default) for p in sig.parameters.values()]

        assert params(get_kernel("c")) == params(get_kernel("python"))

    def test_leaf_cb_errors_propagate_and_bad_input_is_refused(self):
        kc = get_kernel("c")

        def broken(tb):
            raise KeyError("leaf")

        with pytest.raises(KeyError):
            kc.run(4, 0, leaf_cb=broken)
        with pytest.raises(ValueError, match=r"kernel supports orders 1\.\.10, got 11"):
            kc.run(11, 0)
        with pytest.raises(ValueError, match=r"kernel supports orders 1\.\.10, got 11"):
            kc.canonical_form_bytes(bytes(121), 11)
        # out-of-range values would index past the table in C
        with pytest.raises(ValueError, match="out of range"):
            kc.run(3, 0, prefix=b"\x05")
        with pytest.raises(ValueError, match="exceeds"):
            kc.run(3, 0, prefix=bytes(5))
        with pytest.raises(ValueError, match="outside"):
            kc.canonical_form_bytes(bytes([0, 1, 1, 9]), 2)

    def test_canonical_bytes_identical(self):
        kc = get_kernel("c")
        kp = get_kernel("python")
        for rows in naive_normalized_tables(5):
            flat = bytes(v for row in rows for v in row)
            assert kc.canonical_form_bytes(flat, 5) == kp.canonical_form_bytes(flat, 5)

    def test_engine_results_identical_across_backends(self, monkeypatch):
        spec = SearchSpec(order=6, constraint="left-bol")
        monkeypatch.setenv("BOLFORGE_KERNEL", "c")
        a = enumerate_loops(spec)
        monkeypatch.setenv("BOLFORGE_KERNEL", "python")
        b = enumerate_loops(spec)
        assert [t.rows for t in a.representatives] == [t.rows for t in b.representatives]
        assert a.stats == b.stats
        assert (a.backend, b.backend) == ("c", "python")


class TestBruckConstruction:
    def test_abelian_group_is_fixed(self):
        # x * y^2 * x has square root x*y in an abelian group
        assert construct_bruck_from_group(cyclic(3)) == cyclic(3)
        assert construct_bruck_from_group(cyclic(9)) == cyclic(9)

    def test_order21(self, bruck21):
        assert bruck21.order == 21
        assert is_left_bol(bruck21).holds
        assert not is_associative(bruck21).holds
        assert has_two_sided_inverses(bruck21).holds

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            construct_bruck_from_group(cyclic(4))

    def test_non_group_rejected(self):
        with pytest.raises(NotAGroup):
            construct_bruck_from_group(parse_loop(LOOP5_FIRST))

    def test_output_revalidated(self, monkeypatch, bruck21):
        import bolforge.search.construct as construct_mod

        monkeypatch.setattr(
            construct_mod, "is_left_bol", lambda t: construct_mod.is_associative(t)
        )
        with pytest.raises(PostConstructionCheckFailed):
            construct_mod.construct_bruck_from_group(frobenius_21())
