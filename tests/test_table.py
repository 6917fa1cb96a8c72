import pytest
from hypothesis import given
from hypothesis import strategies as st

from bolforge import (
    IndexOutOfRange,
    LoopTable,
    MalformedInput,
    NoIdentity,
    NotLatinSquare,
    NoTwoSidedInverse,
    has_two_sided_inverses,
    is_power_associative,
    parse_loop,
)
from bolforge.catalog import cyclic, klein_four

from frozen import LOOP5_FIRST

Z3_TEXT = "3\n0 1 2\n1 2 0\n2 0 1"
KLEIN_RELABELED = "4\n1 0 3 2\n0 1 2 3\n3 2 1 0\n2 3 0 1"


class TestParse:
    def test_z3(self):
        t = parse_loop(Z3_TEXT)
        assert t == cyclic(3)
        assert t.identity == 0

    def test_repeated_symbol(self):
        with pytest.raises(NotLatinSquare) as err:
            parse_loop("2\n0 1\n1 1")
        assert err.value.axis == "row"
        assert err.value.index == 1

    def test_identity_autodetected_nonzero(self):
        t = parse_loop(KLEIN_RELABELED)
        assert t.identity == 1
        assert t.rows[1] == (0, 1, 2, 3)

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            parse_loop("3\n0 2 1\n2 1 0\n1 0 2")

    def test_identity_header_override(self):
        t = parse_loop("identity=1\n" + KLEIN_RELABELED)
        assert t.identity == 1

    def test_identity_header_wrong(self):
        with pytest.raises(NoIdentity):
            parse_loop("identity=0\n" + KLEIN_RELABELED)

    def test_comments_and_blank_lines(self):
        t = parse_loop("# a comment\n\n3\n0 1 2\n1 2 0\n\n# trailing\n2 0 1\n")
        assert t == cyclic(3)

    def test_csv_variant(self):
        t = parse_loop("0,1,2\n1,2,0\n2,0,1")
        assert t == cyclic(3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n0 1\n1 0",
            "2\n0 1",
            "2\n0 1\n1 0\n0 1",
            "2\n0 1 1\n1 0 0",
            "2\n0 9\n9 0",
            "2\n0 a\na 0",
            "color=red\n2\n0 1\n1 0",
            "identity=1\nidentity=0\n2\n0 1\n1 0",
            "0",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedInput):
            parse_loop(text)

    def test_normalize_relabels_identity_to_zero(self):
        t = parse_loop(KLEIN_RELABELED).normalized()
        assert t.identity == 0
        assert t.rows[0] == (0, 1, 2, 3)

    def test_order_bound(self):
        n = 256
        rows = "\n".join(" ".join(str((i + j) % n) for j in range(n)) for i in range(n))
        with pytest.raises(MalformedInput):
            parse_loop(f"{n}\n{rows}")

    @given(text=st.text(max_size=200))
    def test_arbitrary_text_parses_or_raises_loop_errors(self, text):
        from bolforge import LoopError

        try:
            parse_loop(text)
        except LoopError:
            pass


class TestRoundTrip:
    @pytest.mark.parametrize("table", [cyclic(3), klein_four(), parse_loop(KLEIN_RELABELED)])
    def test_simple(self, table):
        assert parse_loop(table.serialize()) == table

    def test_enumerated_bol_loop(self, left_bol_upto_8):
        for t in left_bol_upto_8[8]:
            assert parse_loop(t.serialize()) == t

    @given(data=st.data())
    def test_roundtrip_after_relabeling(self, data):
        t = cyclic(6)
        perm = data.draw(st.permutations(range(6)))
        relabeled = t.relabel(list(perm))
        assert parse_loop(relabeled.serialize()) == relabeled


class TestArithmetic:
    def test_mul_examples(self):
        z3 = cyclic(3)
        assert z3.mul(1, 2) == 0
        for x in z3.elements:
            assert z3.mul(z3.identity, x) == x
            assert z3.mul(x, z3.identity) == x

    def test_mul_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            cyclic(3).mul(0, 3)

    def test_div_examples(self):
        z3 = cyclic(3)
        assert z3.ldiv(1, 0) == 2
        for a in z3.elements:
            assert z3.ldiv(a, a) == 0
            assert z3.rdiv(a, a) == 0

    def test_div_cancellation_exhaustive(self, all_loops_upto_6, bruck21):
        tables = [t for reps in all_loops_upto_6.values() for t in reps] + [bruck21]
        for t in tables:
            for a in t.elements:
                for b in t.elements:
                    assert t.mul(a, t.ldiv(a, b)) == b
                    assert t.mul(t.rdiv(b, a), a) == b

    def test_inverse_examples(self):
        z3 = cyclic(3)
        assert z3.inverse(1) == 2
        assert z3.inverse(0) == 0

    def test_no_two_sided_inverse(self):
        t = parse_loop(LOOP5_FIRST)
        with pytest.raises(NoTwoSidedInverse) as err:
            t.inverse(2)
        assert (err.value.left, err.value.right) == (3, 4)
        assert not has_two_sided_inverses(t).holds

    def test_first_order5_loop_has_inverse_mismatch(self, all_loops_upto_6):
        # the frozen table really is the first order-5 representative
        first = enumerate_first_order5()
        assert first == parse_loop(LOOP5_FIRST)
        assert any(first.left_inverse(x) != first.right_inverse(x) for x in first.elements)

    def test_power_examples(self):
        z3 = cyclic(3)
        assert z3.power(2, 2) == 1
        assert z3.power(1, -1) == 2
        for x in z3.elements:
            assert z3.power(x, 0) == 0

    def test_power_negative_needs_inverse(self):
        t = parse_loop(LOOP5_FIRST)
        with pytest.raises(NoTwoSidedInverse):
            t.power(2, -1)

    def test_element_order_examples(self):
        assert cyclic(4).element_order(1) == 4
        assert cyclic(6).element_order(2) == 3
        for t in (cyclic(4), cyclic(6), klein_four()):
            assert t.element_order(t.identity) == 1

    def test_element_order_minimality(self, all_loops_upto_6):
        for t in all_loops_upto_6[5] + all_loops_upto_6[6]:
            for x in t.elements:
                k = t.element_order(x)
                assert t.power(x, k) == t.identity
                assert all(t.power(x, j) != t.identity for j in range(1, k))

    def test_power_addition_law_on_power_associative_loops(self, all_loops_upto_6):
        for t in all_loops_upto_6[4] + all_loops_upto_6[5]:
            if not is_power_associative(t).holds:
                continue
            n = t.order
            for x in t.elements:
                for m in range(-2 * n, 2 * n + 1):
                    for k in range(-2 * n, 2 * n + 1):
                        assert t.mul(t.power(x, m), t.power(x, k)) == t.power(x, m + k)

    @given(x=st.integers(0, 5), m=st.integers(-12, 12), k=st.integers(-12, 12))
    def test_power_addition_law_z6(self, x, m, k):
        z6 = cyclic(6)
        assert z6.mul(z6.power(x, m), z6.power(x, k)) == z6.power(x, m + k)


class TestTransforms:
    def test_relabel_requires_permutation(self):
        with pytest.raises(MalformedInput):
            cyclic(3).relabel([0, 0, 1])

    def test_transpose_is_opposite_product(self):
        t = parse_loop(LOOP5_FIRST)
        tt = t.transpose()
        for a in t.elements:
            for b in t.elements:
                assert tt.mul(a, b) == t.mul(b, a)

    def test_restricted_subtable(self):
        z6 = cyclic(6)
        sub = z6.restricted((0, 2, 4))
        assert sub.order == 3
        assert sub == cyclic(3)

    def test_restricted_rejects_unclosed(self):
        with pytest.raises(MalformedInput):
            cyclic(6).restricted((0, 1))

    def test_content_hash_stable(self):
        assert cyclic(3).content_hash() == cyclic(3).content_hash()
        assert cyclic(3).content_hash() != cyclic(4).content_hash()


def enumerate_first_order5():
    from bolforge import SearchSpec, enumerate_loops

    return enumerate_loops(SearchSpec(order=5)).representatives[0]
