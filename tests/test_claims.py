import hashlib
import json

import pytest

from bolforge import (
    CLAIM_IDS,
    LoopTable,
    ManifestNotFound,
    check_all,
    check_corollary,
    check_glauberman_parity,
    check_lemma1,
    check_lemma2,
    check_remark1_extension,
    check_remark2_extension,
    check_theorem1,
    commutant,
    is_moufang,
    is_right_bol,
    parse_loop,
    property_report,
    run_corpus,
)
from bolforge import claims, props
from bolforge.catalog import cyclic, klein_four, symmetric_3
from bolforge.claims import CLAIM_CHECKS, HYPOTHESIS_NOT_MET, REFUTED, VERIFIED

from frozen import LOOP5_FIRST

PROVED_CLAIMS = set(CLAIM_IDS)


class TestLemma1:
    def test_group(self):
        assert check_lemma1(cyclic(3)).status == VERIFIED

    def test_left_bol_corpus(self, left_bol_upto_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert check_lemma1(t).status == VERIFIED

    def test_right_bol_only_loop(self, right_bol_8):
        only_right = [t for t in right_bol_8 if not is_moufang(t).holds]
        assert only_right
        for t in only_right:
            verdict = check_lemma1(t)
            assert verdict.status == HYPOTHESIS_NOT_MET
            assert verdict.detail == "not left Bol"


class TestLemma2:
    def test_group(self):
        assert check_lemma2(cyclic(6)).status == VERIFIED

    def test_left_bol_corpus(self, left_bol_upto_8):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert check_lemma2(t).status == VERIFIED

    def test_non_bol(self):
        assert check_lemma2(parse_loop(LOOP5_FIRST)).status == HYPOTHESIS_NOT_MET


class TestTheorem1:
    def test_z5(self):
        assert check_theorem1(cyclic(5)).status == VERIFIED

    def test_bruck21(self, bruck21):
        assert check_theorem1(bruck21).status == VERIFIED

    def test_even_order_commutant_element(self, left_bol_upto_8):
        # every order-8 left Bol loop has an order-2 commutant element
        for t in left_bol_upto_8[8]:
            verdict = check_theorem1(t)
            assert verdict.status == HYPOTHESIS_NOT_MET
            assert verdict.detail == "even-order commutant element"
            (a,) = verdict.witness
            assert a in commutant(t) and t.element_order(a) % 2 == 0

    def test_hypothesis_satisfying_corpus(self, corpus):
        checked = 0
        for loop_id, t in corpus:
            verdict = check_theorem1(t)
            assert verdict.status != REFUTED, (loop_id, verdict)
            if verdict.status == VERIFIED:
                checked += 1
        assert checked > 0

    def test_s3_trivial_commutant_verifies(self):
        # the commutant is {identity}; re-enactment must scope square-root
        # uniqueness to the commutant (transpositions also square to identity)
        assert check_theorem1(symmetric_3()).status == VERIFIED

    def test_half_power_agrees_with_global_root_when_unique(self, corpus):
        # wherever the whole loop has a single root, it is the half power
        from bolforge import is_left_bol, square_roots

        for loop_id, t in corpus:
            if not is_left_bol(t).holds:
                continue
            members = commutant(t)
            if any(t.element_order(a) % 2 == 0 for a in members):
                continue
            for a in members:
                k = t.element_order(a)
                half = t.power(a, (k + 1) // 2)
                roots = square_roots(t, a)
                assert half in roots
                if len(roots) == 1:
                    assert roots[0] == half


class TestCorollaryAndParity:
    def test_z7(self):
        assert check_corollary(cyclic(7)).status == VERIFIED

    def test_bruck21(self, bruck21):
        assert check_corollary(bruck21).status == VERIFIED

    def test_even_order_loops(self, left_bol_upto_8):
        for t in left_bol_upto_8[8]:
            verdict = check_corollary(t)
            assert verdict.status == VERIFIED
            assert "even order" in verdict.detail

    def test_non_bol(self):
        assert check_corollary(parse_loop(LOOP5_FIRST)).status == HYPOTHESIS_NOT_MET

    def test_parity_both_directions(self, left_bol_upto_8, bruck21):
        for reps in left_bol_upto_8.values():
            for t in reps:
                assert check_glauberman_parity(t).status == VERIFIED
        assert check_glauberman_parity(bruck21).status == VERIFIED
        assert check_glauberman_parity(parse_loop(LOOP5_FIRST)).status == HYPOTHESIS_NOT_MET


class TestRemark1:
    def test_z3(self):
        verdict = check_remark1_extension(cyclic(3))
        assert verdict.status == VERIFIED
        assert "cardinality" in verdict.detail

    def test_odd_order_bol_corpus(self, left_bol_upto_8, bruck21):
        for n, reps in left_bol_upto_8.items():
            for t in reps:
                if len(commutant(t)) % 2 == 1:
                    assert check_remark1_extension(t).status == VERIFIED
        assert check_remark1_extension(bruck21).status == VERIFIED

    def test_even_commutant(self, left_bol_upto_8):
        hit = 0
        for t in left_bol_upto_8[8]:
            verdict = check_remark1_extension(t)
            if len(commutant(t)) % 2 == 0:
                assert verdict.status == HYPOTHESIS_NOT_MET
                assert "cardinality" in verdict.detail
                hit += 1
        assert hit > 0


class TestRemark2:
    def test_z3(self):
        assert check_remark2_extension(cyclic(3)).status == VERIFIED

    def test_corpus_sweep(self, corpus):
        # applies to arbitrary loops, Bol or not; never REFUTED
        statuses = set()
        for loop_id, t in corpus:
            verdict = check_remark2_extension(t)
            assert verdict.status != REFUTED, (loop_id, verdict)
            statuses.add(verdict.status)
        assert VERIFIED in statuses
        assert HYPOTHESIS_NOT_MET in statuses  # even-order members occur in the corpus

    def test_even_member(self, left_bol_upto_8):
        verdict = check_remark2_extension(left_bol_upto_8[8][0])
        assert verdict.status == HYPOTHESIS_NOT_MET
        assert "even-order member" in verdict.detail


class TestStaticClaims:
    """The three per-loop structural claims that need no order hypotheses."""

    def test_s3_and_klein(self):
        for t in (symmetric_3(), klein_four()):
            for claim in ("CENTER_NORMAL", "GROUP_COINCIDENCE", "MOUFANG_COMMUTANT"):
                assert CLAIM_CHECKS[claim](t).status == VERIFIED

    def test_left_bol_non_moufang(self, left_bol_upto_8):
        non_moufang = [t for t in left_bol_upto_8[8] if not is_moufang(t).holds]
        assert non_moufang
        for t in non_moufang:
            assert CLAIM_CHECKS["CENTER_NORMAL"](t).status == VERIFIED
            assert CLAIM_CHECKS["GROUP_COINCIDENCE"](t).status == HYPOTHESIS_NOT_MET
            assert CLAIM_CHECKS["MOUFANG_COMMUTANT"](t).status == HYPOTHESIS_NOT_MET

    def test_center_normal_everywhere(self, corpus):
        for loop_id, t in corpus:
            assert CLAIM_CHECKS["CENTER_NORMAL"](t).status == VERIFIED, loop_id


class TestCheckAll:
    def test_covers_registry(self, bruck21):
        verdicts = check_all(bruck21)
        assert [v.claim for v in verdicts] == list(CLAIM_IDS)

    def test_one_left_bol_scan_per_table_and_mirror(self, bruck21, monkeypatch):
        table = LoopTable(bruck21.rows, bruck21.identity)  # no scan kept from other tests
        scanned = []
        scan = props._scan_left_bol

        def counting_scan(rows):
            scanned.append(rows)
            return scan(rows)

        monkeypatch.setattr(props, "_scan_left_bol", counting_scan)
        check_all(table)
        property_report(table)
        assert table.transpose() is table.transpose()
        assert scanned == [table.rows, table.transpose().rows]

    def test_corpus_report_pinned(self, corpus):
        # golden digest of the whole claim report, taken at commit d0e4060:
        # a claim-layer change cannot move a verdict or witness silently
        report = run_corpus(None, tables=corpus)
        assert len(report.verdicts) == 149
        assert [report.totals[s] for s in (VERIFIED, HYPOTHESIS_NOT_MET, REFUTED)] == [461, 1029, 0]
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        assert digest == "d35e1095d095a722e34b18eb17a495868589849b780b64bc1bbb71a91e008dc1"

    def test_no_refutations_on_corpus(self, corpus):
        for loop_id, t in corpus:
            for verdict in check_all(t):
                assert verdict.status != REFUTED, (loop_id, verdict)


class TestCorpusRuns:
    def _write_corpus(self, tmp_path, tables, manifest="manifest.txt"):
        lines = []
        for name, t in tables:
            (tmp_path / name).write_text(t.serialize())
            lines.append(name)
        path = tmp_path / manifest
        path.write_text("# corpus\n" + "\n".join(lines) + "\n")
        return path

    def test_small_corpus_no_refuted(self, tmp_path, all_loops_upto_6):
        tables = [(f"l{n}_{i}.loop", t) for n in range(1, 6) for i, t in enumerate(all_loops_upto_6[n])]
        path = self._write_corpus(tmp_path, tables)
        report = run_corpus(path)
        assert report.refuted == 0
        assert not report.parse_errors
        assert set(report.verdicts) == {name for name, _ in tables}

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        report = run_corpus(path)
        assert report.verdicts == {} and report.parse_errors == {}
        assert report.totals[REFUTED] == 0

    def test_corrupted_file_collected(self, tmp_path):
        path = self._write_corpus(tmp_path, [("good.loop", cyclic(3))])
        (tmp_path / "bad.loop").write_text("2\n0 1\n1 1\n")
        path.write_text("good.loop\nbad.loop\n")
        report = run_corpus(path)
        assert list(report.parse_errors) == ["bad.loop"]
        assert "good.loop" in report.verdicts

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestNotFound):
            run_corpus(tmp_path / "nope.txt")

    def test_unknown_claim(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            run_corpus(path, claims=["LEMMA3"])

    def test_empty_claim_selection(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="no claim selected"):
            run_corpus(path, claims=[])

    def test_manifest_streamed_one_loop_at_a_time(self, tmp_path, monkeypatch):
        path = self._write_corpus(tmp_path, [("z3.loop", cyclic(3)), ("s3.loop", symmetric_3())])
        (tmp_path / "bad.loop").write_text("junk")
        path.write_text("z3.loop\nbad.loop\ns3.loop\n")
        events = []

        def parse(text):
            events.append("parse")
            return parse_loop(text)

        def check(table):
            events.append(f"check {table.order}")
            return check_lemma1(table)

        monkeypatch.setattr(claims, "parse_loop", parse)
        monkeypatch.setitem(claims.CLAIM_CHECKS, "LEMMA1", check)
        report = run_corpus(path, claims=["LEMMA1"])
        assert events == ["parse", "check 3", "parse", "parse", "check 6"]
        assert list(report.parse_errors) == ["bad.loop"]

    def test_claim_subset(self, tmp_path):
        path = self._write_corpus(tmp_path, [("z5.loop", cyclic(5))])
        report = run_corpus(path, claims=["THEOREM1", "LEMMA1"])
        assert set(report.verdicts["z5.loop"]) == {"THEOREM1", "LEMMA1"}

    def test_order_insensitive(self, tmp_path, all_loops_upto_6):
        tables = [(f"t{i}.loop", t) for i, t in enumerate(all_loops_upto_6[5])]
        fwd = self._write_corpus(tmp_path, tables, "fwd.txt")
        report_fwd = run_corpus(fwd)
        rev = tmp_path / "rev.txt"
        rev.write_text("\n".join(name for name, _ in reversed(tables)) + "\n")
        report_rev = run_corpus(rev)
        assert report_fwd.to_json() == report_rev.to_json()

    def test_json_shape(self, tmp_path):
        path = self._write_corpus(tmp_path, [("z3.loop", cyclic(3))])
        data = json.loads(run_corpus(path).to_json())
        assert set(data) == {"loops", "errors", "totals"}
        assert set(data["loops"]["z3.loop"]) == set(CLAIM_IDS)
        assert data["totals"][REFUTED] == 0
        assert data["loops"]["z3.loop"]["THEOREM1"] == {"status": "verified"}

    def test_in_memory_tables(self):
        report = run_corpus(None, tables=[("z3", cyclic(3)), ("s3", symmetric_3())])
        assert set(report.verdicts) == {"z3", "s3"}
