import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bolforge import (
    MultipleSquareRoots,
    NotASubloop,
    bol_elements,
    center,
    commutant,
    generated_subloop,
    has_lap,
    has_lip,
    has_two_sided_inverses,
    is_associative,
    is_left_bol,
    is_moufang,
    is_normal,
    is_power_associative,
    is_right_bol,
    is_subloop,
    is_twisted_closed,
    is_uniquely_2_divisible,
    parse_loop,
    property_report,
    square_root,
    square_roots,
)
from bolforge.catalog import cyclic, direct_product, klein_four, symmetric_3
from bolforge.props import MAX_WITNESSES, PROPERTY_ORDER

from frozen import LOOP5_FIRST, LOOP6_NON_PA, LOOP8_NUCLEAR_INVOLUTION
from naive_ref import all_bracketings, left_bol_failures, naive_center, naive_is_normal


@pytest.fixture(scope="module")
def loop5():
    return parse_loop(LOOP5_FIRST)


@pytest.fixture(scope="module")
def loop6_non_pa():
    return parse_loop(LOOP6_NON_PA)


class TestBolIdentities:
    def test_groups_are_bol(self):
        for t in (cyclic(3), klein_four(), symmetric_3()):
            assert is_left_bol(t).holds
            assert is_right_bol(t).holds
            assert is_moufang(t).holds

    def test_first_nonassociative_order5_violation(self, loop5):
        assert not is_associative(loop5).holds
        verdict = is_left_bol(loop5)
        assert not verdict.holds
        assert verdict.witnesses[0] == (1, 0, 2)
        # brute-force oracle: the witness is the lexicographically first violation
        first = next(
            (x, y, z)
            for x in loop5.elements
            for y in loop5.elements
            for z in loop5.elements
            if loop5.mul(x, loop5.mul(y, loop5.mul(x, z)))
            != loop5.mul(loop5.mul(x, loop5.mul(y, x)), z)
        )
        assert first == verdict.witnesses[0]

    def test_enumerated_left_bol_loops_pass_checker(self, left_bol_upto_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert is_left_bol(t).holds

    def test_left_bol_only_loop_and_its_transpose(self, left_bol_upto_8):
        only_left = [t for t in left_bol_upto_8[8] if not is_right_bol(t).holds]
        assert only_left, "order 8 must contain non-Moufang left Bol loops"
        for t in only_left:
            assert is_right_bol(t.transpose()).holds
            assert not is_moufang(t).holds

    def test_right_bol_is_left_bol_of_transpose(self, all_loops_upto_6, left_bol_upto_8):
        for t in all_loops_upto_6[6] + left_bol_upto_8[8]:
            verdict = is_right_bol(t)
            assert verdict == is_left_bol(t.transpose())
            # brute-force oracle: ((zx)y)x = z((xy)x), violations in lexicographic order
            violations = [
                (x, y, z)
                for x in t.elements
                for y in t.elements
                for z in t.elements
                if t.mul(t.mul(t.mul(z, x), y), x) != t.mul(z, t.mul(t.mul(x, y), x))
            ]
            assert verdict.holds == (not violations)
            assert list(verdict.witnesses) == violations[:MAX_WITNESSES]

    def test_one_scan_matches_brute_force(self, all_loops_upto_6, left_bol_upto_8, loop5):
        tables = [t for reps in all_loops_upto_6.values() for t in reps]
        tables += [t for reps in left_bol_upto_8.values() for t in reps]
        tables.append(loop5)
        # seeded relabelings that move the identity off 0, as in corpus files
        rng = random.Random(8)
        for t in (loop5, all_loops_upto_6[6][-1], left_bol_upto_8[8][-1], symmetric_3()):
            perm = list(range(t.order))
            while perm[t.identity] == 0:
                rng.shuffle(perm)
            relabeled = t.relabel(perm)
            assert relabeled.identity != 0
            tables.append(relabeled)
        for t in tables:
            failures = left_bol_failures(t.rows)
            assert is_left_bol(t).holds == (not failures)
            assert is_left_bol(t).witnesses == tuple(failures[:MAX_WITNESSES])
            assert bol_elements(t) == tuple(x for x in t.elements if x not in {f[0] for f in failures})
            mirrored = left_bol_failures(tuple(zip(*t.rows)))
            assert is_right_bol(t).holds == (not mirrored)
            assert is_right_bol(t).witnesses == tuple(mirrored[:MAX_WITNESSES])

    def test_bol_witness_reevaluates(self, loop5):
        x, y, z = is_left_bol(loop5).witnesses[0]
        lhs = loop5.mul(x, loop5.mul(y, loop5.mul(x, z)))
        rhs = loop5.mul(loop5.mul(x, loop5.mul(y, x)), z)
        assert lhs != rhs


class TestInverseAndAlternative:
    def test_z3_has_lip_lap(self):
        assert has_lip(cyclic(3)).holds
        assert has_lap(cyclic(3)).holds

    def test_bol_loops_have_lip_lap_and_inverses(self, left_bol_upto_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert has_lip(t).holds
                assert has_lap(t).holds
                assert has_two_sided_inverses(t).holds

    def test_order5_lip_failure(self, loop5):
        verdict = has_lip(loop5)
        assert not verdict.holds
        x, y = verdict.witnesses[0]
        assert (x, y) == (1, 2)
        xi = loop5.inverse(x)
        assert loop5.mul(xi, loop5.mul(x, y)) != y or loop5.mul(x, loop5.mul(xi, y)) != y


class TestPowerAssociativity:
    def test_groups_power_associative(self):
        assert is_power_associative(cyclic(4)).holds
        assert is_power_associative(symmetric_3()).holds

    def test_bol_corpus_power_associative(self, left_bol_upto_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert is_power_associative(t).holds

    def test_order6_failure_matches_bracketing_oracle(self, loop6_non_pa, all_loops_upto_6):
        verdict = is_power_associative(loop6_non_pa)
        assert not verdict.holds
        # bracketing oracle: two bracketings of the fourth power of 2 differ
        assert all_bracketings(loop6_non_pa.rows, 2, 4) == {2, 3}
        # and it is the first such loop in enumeration order
        for t in all_loops_upto_6[6]:
            pa = is_power_associative(t).holds
            oracle_pa = all(
                len(all_bracketings(t.rows, x, k)) == 1 for x in t.elements for k in range(1, 5)
            )
            if not oracle_pa:
                assert t == loop6_non_pa
                break
            assert pa
        wit = verdict.witnesses[0]
        a, b, c = wit
        assert loop6_non_pa.mul(loop6_non_pa.mul(a, b), c) != loop6_non_pa.mul(
            a, loop6_non_pa.mul(b, c)
        )

    def test_pa_agrees_with_bracketing_oracle_upto_5(self, all_loops_upto_6):
        for n in range(1, 6):
            for t in all_loops_upto_6[n]:
                oracle = all(
                    len(all_bracketings(t.rows, x, k)) == 1
                    for x in t.elements
                    for k in range(1, n + 1)
                )
                assert is_power_associative(t).holds == oracle


class TestElementSets:
    def test_commutant_examples(self):
        assert commutant(cyclic(3)) == (0, 1, 2)
        assert commutant(symmetric_3()) == (0,)

    def test_center_examples(self):
        assert center(cyclic(3)) == (0, 1, 2)
        assert center(symmetric_3()) == (0,)

    def test_center_inside_commutant(self, left_bol_upto_8, all_loops_upto_6):
        for reps in list(left_bol_upto_8.values()) + list(all_loops_upto_6.values()):
            for t in reps:
                c = set(commutant(t))
                z = set(center(t))
                assert t.identity in c
                assert z <= c

    def test_group_commutant_equals_center(self, all_loops_upto_6):
        for reps in all_loops_upto_6.values():
            for t in reps:
                if is_associative(t).holds:
                    assert commutant(t) == center(t)

    def test_bol_elements_examples(self, loop5, left_bol_upto_8):
        assert bol_elements(cyclic(3)) == (0, 1, 2)
        for t in left_bol_upto_8[8]:
            assert bol_elements(t) == tuple(t.elements)
        b5 = bol_elements(loop5)
        assert loop5.identity in b5
        assert len(b5) < loop5.order

    def test_bol_elements_full_iff_left_bol(self, all_loops_upto_6):
        for reps in all_loops_upto_6.values():
            for t in reps:
                assert (bol_elements(t) == tuple(t.elements)) == is_left_bol(t).holds


class TestGeneratedSubloop:
    def test_examples(self):
        z6 = cyclic(6)
        assert generated_subloop(z6, (2,)) == (0, 2, 4)
        assert generated_subloop(z6) == (0,)
        assert generated_subloop(cyclic(3), (1,)) == (0, 1, 2)

    def test_closure_operator_laws(self, all_loops_upto_6):
        for t in all_loops_upto_6[5] + all_loops_upto_6[6][:20]:
            singletons = [generated_subloop(t, (x,)) for x in t.elements]
            for s in singletons:
                # idempotent and extensive
                assert generated_subloop(t, s) == s
                assert set(s) >= {t.identity}
            # monotone
            for x in t.elements:
                for y in t.elements:
                    a = set(generated_subloop(t, (x,)))
                    ab = set(generated_subloop(t, (x, y)))
                    assert a <= ab

    @given(seed=st.sets(st.integers(0, 5), max_size=3))
    def test_generated_subloop_is_subloop_z6(self, seed):
        z6 = cyclic(6)
        assert is_subloop(z6, generated_subloop(z6, seed)).holds


class TestSubsetPredicates:
    def test_subloop_examples(self):
        assert is_subloop(cyclic(6), (0, 2, 4)).holds
        z3 = cyclic(3)
        verdict = is_subloop(z3, (0, 1))
        assert not verdict.holds
        # the product 1*1 = 2 escapes the subset; the lex-first witness is the
        # division pair that precedes it in the (pair, op) scan
        assert z3.mul(1, 1) == 2
        assert verdict.witnesses[0] == ("rdiv", 0, 1)

    def test_subloop_witness_reevaluates(self):
        z3 = cyclic(3)
        for op, a, b in is_subloop(z3, (0, 1)).witnesses:
            value = {"mul": z3.mul, "ldiv": z3.ldiv, "rdiv": z3.rdiv}[op](a, b)
            assert value not in {0, 1}

    def test_normal_examples(self, left_bol_upto_8):
        assert is_normal(cyclic(6), (0, 2, 4)).holds
        for t in left_bol_upto_8[8]:
            assert is_normal(t, (t.identity,)).holds
            assert is_normal(t, center(t)).holds

    def test_normal_and_center_match_brute_force(
        self, all_loops_upto_6, left_bol_upto_8, loop5, loop6_non_pa
    ):
        tables = [t for reps in all_loops_upto_6.values() for t in reps]
        tables += [t for reps in left_bol_upto_8.values() for t in reps]  # with the 5 groups of order 8
        tables.append(direct_product(symmetric_3(), symmetric_3()))
        tables.append(parse_loop(LOOP8_NUCLEAR_INVOLUTION))
        # seeded relabelings that move the identity off 0, as in corpus files
        rng = random.Random(9)
        for t in (loop5, loop6_non_pa, all_loops_upto_6[6][-1], left_bol_upto_8[8][-1], symmetric_3()):
            perm = list(range(t.order))
            while perm[t.identity] == 0:
                rng.shuffle(perm)
            tables.append(t.relabel(perm))
        checked = non_normal = 0
        for t in tables:
            assert center(t) == naive_center(t.rows)
            subloops = {generated_subloop(t, (a, b)) for a in t.elements for b in t.elements if a <= b}
            for sub in sorted(subloops):
                verdict = is_normal(t, sub)
                assert (verdict.holds, verdict.witnesses, verdict.note) == naive_is_normal(t.rows, sub)
                checked += 1
                non_normal += not verdict.holds
        assert (checked, non_normal) == (602, 214)

    def test_normal_requires_subloop(self):
        with pytest.raises(NotASubloop):
            is_normal(cyclic(3), (0, 1))

    def test_uniquely_2_divisible(self):
        assert is_uniquely_2_divisible(cyclic(3)).holds
        verdict = is_uniquely_2_divisible(cyclic(4))
        assert not verdict.holds
        assert verdict.witnesses[0] == (0, 2)

    def test_odd_bol_loops_uniquely_2_divisible(self, left_bol_upto_8, bruck21):
        for n, reps in left_bol_upto_8.items():
            if n % 2 == 1:
                for t in reps:
                    assert is_uniquely_2_divisible(t).holds
        assert is_uniquely_2_divisible(bruck21).holds

    def test_square_root_examples(self):
        assert square_root(cyclic(3), 1) == 2
        assert square_root(cyclic(4), 1) is None
        with pytest.raises(MultipleSquareRoots) as err:
            square_root(cyclic(4), 0)
        assert set(err.value.roots) == {0, 2}

    def test_square_root_consistency(self, all_loops_upto_6):
        for t in all_loops_upto_6[6][:30]:
            for a in t.elements:
                roots = square_roots(t, a)
                for c in roots:
                    assert t.mul(c, c) == a
                if is_uniquely_2_divisible(t).holds:
                    assert len(roots) == 1

    def test_twisted_closure(self, left_bol_upto_8):
        # subloops are twisted-closed
        assert is_twisted_closed(cyclic(6), (0, 2, 4)).holds
        # commutants of enumerated left Bol loops are twisted-closed
        for t in left_bol_upto_8[8]:
            assert is_twisted_closed(t, commutant(t)).holds
        # a non-subloop subset missing an inverse
        verdict = is_twisted_closed(cyclic(3), (0, 1))
        assert not verdict.holds
        assert ("inverse", 1) in verdict.witnesses

    def test_subloop_implies_twisted_closed(self, all_loops_upto_6):
        for t in all_loops_upto_6[6][:30]:
            for x in t.elements:
                s = generated_subloop(t, (x,))
                if is_subloop(t, s).holds and all(
                    t.left_inverse(v) == t.right_inverse(v) for v in s
                ):
                    assert is_twisted_closed(t, s).holds

    def test_half_power_is_unique_commutant_square_root(self, left_bol_upto_8, bruck21):
        # on left Bol loops whose commutant members all have odd order
        loops = [t for reps in left_bol_upto_8.values() for t in reps] + [bruck21]
        checked = 0
        for t in loops:
            members = commutant(t)
            if any(t.element_order(a) % 2 == 0 for a in members):
                continue
            checked += 1
            for a in members:
                k = t.element_order(a)
                c = t.power(a, (k + 1) // 2)
                assert t.mul(c, c) == a
                assert c in members
                assert [d for d in members if t.mul(d, d) == a] == [c]
        assert checked > 0


class TestReport:
    def test_report_shape(self, loop5):
        report = property_report(loop5, loop_id="first-5")
        data = json.loads(report.to_json())
        assert data["loop"] == "first-5"
        assert set(data["properties"]) == set(PROPERTY_ORDER)
        assert data["properties"]["left-bol"]["fails"][0] == [1, 0, 2]
        for value in data["properties"].values():
            assert value == "holds" or (set(value) == {"fails"} and value["fails"])

    def test_report_deterministic(self, loop5):
        a = property_report(loop5, "x").to_json()
        b = property_report(loop5, "x").to_json()
        assert a == b

    def test_failed_properties_carry_witnesses(self, all_loops_upto_6):
        for t in all_loops_upto_6[5]:
            report = property_report(t, "t")
            for name, verdict in report.verdicts.items():
                if not verdict.holds:
                    assert verdict.witnesses, name
