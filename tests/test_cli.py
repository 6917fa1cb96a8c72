import json
import os
import subprocess
import sys

import pytest

from bolforge import parse_loop
from bolforge.catalog import cyclic, frobenius_21, symmetric_3
from bolforge.claims import ClaimVerdict
from bolforge.cli import main
from bolforge.search import get_kernel

from frozen import LOOP5_FIRST


@pytest.fixture()
def z3_file(tmp_path):
    path = tmp_path / "z3.loop"
    path.write_text(cyclic(3).serialize())
    return path


@pytest.fixture()
def manifest(tmp_path, z3_file):
    s3 = tmp_path / "s3.loop"
    s3.write_text(symmetric_3().serialize())
    m = tmp_path / "manifest.txt"
    m.write_text(f"{z3_file.name}\n{s3.name}\n")
    return m


class TestCheck:
    def test_valid_loop(self, z3_file, capsys):
        assert main(["check", str(z3_file)]) == 0
        out = capsys.readouterr().out
        assert "left-bol: holds" in out
        assert "commutant: 0 1 2" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("2\n0 1\n1 1\n")
        assert main(["check", str(bad)]) == 2
        assert "row 1" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.loop")]) == 2

    def test_line_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("2\n0 1\n1 x\n")
        assert main(["check", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_property_failures_reported(self, tmp_path, capsys):
        path = tmp_path / "l5.loop"
        path.write_text(LOOP5_FIRST)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "left-bol: fails" in out and "(1, 0, 2)" in out


class TestProps:
    def test_json_to_stdout(self, z3_file, capsys):
        assert main(["props", str(z3_file)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["properties"]["moufang"] == "holds"

    def test_json_to_file(self, z3_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["props", str(z3_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["loop"] == str(z3_file)

    def test_out_directory_exit_2(self, z3_file, tmp_path, capsys):
        assert main(["props", str(z3_file), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1


class TestSets:
    def test_commutant(self, tmp_path, capsys):
        path = tmp_path / "s3.loop"
        path.write_text(symmetric_3().serialize())
        assert main(["commutant", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_center(self, z3_file, capsys):
        assert main(["center", str(z3_file)]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2"


class TestVerify:
    def test_clean_corpus_exit_0(self, manifest, capsys):
        assert main(["verify", str(manifest)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["totals"]["REFUTED"] == 0

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "none.txt")]) == 2

    def test_empty_manifest_exit_0(self, tmp_path, capsys):
        m = tmp_path / "empty.txt"
        m.write_text("")
        assert main(["verify", str(m)]) == 0
        assert json.loads(capsys.readouterr().out)["loops"] == {}

    def test_corrupt_file_collected(self, tmp_path, z3_file, capsys):
        (tmp_path / "bad.loop").write_text("junk")
        m = tmp_path / "m.txt"
        m.write_text(f"{z3_file.name}\nbad.loop\n")
        assert main(["verify", str(m)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "bad.loop" in data["errors"]
        assert str(z3_file.name) in data["loops"]

    def test_claims_subset(self, manifest, capsys):
        assert main(["verify", str(manifest), "--claims", "LEMMA1,LEMMA2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["loops"][list(data["loops"])[0]]) == {"LEMMA1", "LEMMA2"}

    def test_unknown_claim_exit_2(self, manifest):
        assert main(["verify", str(manifest), "--claims", "LEMMA9"]) == 2

    @pytest.mark.parametrize("claims", [",", ""])
    def test_empty_claim_selection_exit_2(self, manifest, capsys, claims):
        assert main(["verify", str(manifest), "--claims", claims]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: no claim selected") and err.count("\n") == 1

    @pytest.mark.parametrize("out", [".", "missing/report.json"], ids=["directory", "missing-parent"])
    def test_unwritable_out_exit_2_before_run(self, manifest, monkeypatch, capsys, out):
        # exit 1 would mean a claim was REFUTED; the corpus must not even run
        import bolforge.cli as cli_mod

        def not_run(*args, **kwargs):
            raise AssertionError("corpus ran although --out cannot be written")

        monkeypatch.setattr(cli_mod, "run_corpus", not_run)
        target = manifest.parent / out
        assert main(["verify", str(manifest), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1
        assert not (manifest.parent / "missing").exists()

    def test_refuted_exit_1(self, manifest, monkeypatch, capsys):
        # fault injection: a corrupted checker must fail the run
        import bolforge.claims as claims_mod

        def broken(table):
            return ClaimVerdict("LEMMA1", "REFUTED", "injected fault", (0,))

        monkeypatch.setitem(claims_mod.CLAIM_CHECKS, "LEMMA1", broken)
        assert main(["verify", str(manifest)]) == 1
        assert json.loads(capsys.readouterr().out)["totals"]["REFUTED"] == 2


class TestEnumerate:
    def test_order5_writes_six_files(self, tmp_path, capsys):
        out = tmp_path / "enum5"
        assert main(["enumerate", "--order", "5", "--out", str(out)]) == 0
        files = {p.name for p in out.glob("*.loop")}
        assert len(files) == 6
        stats = json.loads((out / "stats.json").read_text())
        assert stats["exhausted"] is True
        assert stats["spec"]["mode"] == "enumerate"
        assert stats["backend"] == get_kernel().BACKEND
        assert set(stats["representatives"]) == files
        for p in out.glob("*.loop"):
            parse_loop(p.read_text())  # all outputs are valid loop files

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["enumerate", "--order", "5", "--out", str(a)]) == 0
        assert main(["enumerate", "--order", "5", "--out", str(b)]) == 0
        fa = {p.name: p.read_bytes() for p in a.glob("*.loop")}
        fb = {p.name: p.read_bytes() for p in b.glob("*.loop")}
        assert fa == fb

    def test_class_flag(self, tmp_path):
        out = tmp_path / "lbol8"
        code = main(
            ["enumerate", "--order", "8", "--class", "left-bol", "--nonassociative",
             "--out", str(out)]
        )
        assert code == 0
        assert len(list(out.glob("*.loop"))) == 6

    def test_budget_exit_3(self, tmp_path):
        out = tmp_path / "budget"
        code = main(["enumerate", "--order", "6", "--budget-nodes", "40", "--out", str(out)])
        assert code == 3

    def test_bad_flags_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["enumerate", "--order", "5", "--class", "nope", "--out", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--order", "3", "--jobs", "0"],
            ["enumerate", "--order", "0"],
            ["enumerate", "--order", "3", "--budget-nodes", "0"],
            ["find", "--order", "5", "--find", "commutant-not-subloop", "--budget-seconds", "-1"],
            ["enumerate", "--order", "3", "--budget-seconds", "nan"],
            ["find", "--order", "5", "--find", "commutant-not-subloop", "--budget-seconds", "inf"],
        ],
    )
    def test_bad_search_settings_exit_2_before_writing(self, tmp_path, capsys, argv):
        # used to escape main as a bare ValueError, i.e. a traceback and exit 1
        out = tmp_path / "never"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_used_out_dir_refused_and_unchanged(self, tmp_path, capsys):
        # a second run into the same directory used to leave 9 files, with
        # stats.json listing only the second run's 2 representatives
        out = tmp_path / "mixed"
        assert main(["enumerate", "--order", "5", "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["enumerate", "--order", "4", "--out", str(out)]) == 2
        assert "already holds search output" in capsys.readouterr().err
        assert main(
            ["find", "--order", "5", "--find", "commutant-not-subloop", "--out", str(out)]
        ) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_dir_without_search_output_accepted(self, tmp_path):
        out = tmp_path / "other"
        out.mkdir()
        (out / "notes.txt").write_text("not search output\n")
        assert main(["enumerate", "--order", "4", "--out", str(out)]) == 0
        assert len(list(out.glob("*.loop"))) == 2

    def test_out_path_through_a_file_refused_before_search(self, tmp_path, capsys):
        # used to die with FileExistsError (exit 1) after the whole search
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        for out in (afile, afile / "sub"):
            assert main(["enumerate", "--order", "3", "--out", str(out)]) == 2
            assert main(
                ["find", "--order", "5", "--find", "commutant-not-subloop", "--out", str(out)]
            ) == 2
            assert "error: " in capsys.readouterr().err
        assert afile.read_text() == "not a directory\n"


class TestFind:
    def test_witness_written_exit_0(self, tmp_path, capsys):
        out = tmp_path / "find6"
        code = main(
            ["find", "--order", "6", "--find", "commutant-not-subloop", "--out", str(out)]
        )
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["found"] is True
        assert stats["spec"]["mode"] == "find-first"
        assert len(stats["witnesses"]) == 1
        witness_file = out / stats["witnesses"][0]["file"]
        parse_loop(witness_file.read_text())
        assert "pair" in stats["witnesses"][0]["data"]

    def test_not_found_exit_4(self, tmp_path):
        out = tmp_path / "find5"
        code = main(
            ["find", "--order", "5", "--find", "commutant-not-subloop", "--out", str(out)]
        )
        assert code == 4
        stats = json.loads((out / "stats.json").read_text())
        assert stats["found"] is False and stats["exhausted"] is True

    def test_conjecture_not_found_exit_4(self, tmp_path):
        out = tmp_path / "conj"
        code = main(
            ["find", "--order", "7", "--class", "left-bol", "--find", "conjecture-witness",
             "--out", str(out)]
        )
        assert code == 4


class TestConstructAndCanon:
    def test_construct_from_group_file(self, tmp_path, capsys):
        from pathlib import Path

        group_file = tmp_path / "f21.loop"
        group_file.write_text(frobenius_21().serialize())
        out = tmp_path / "bruck"
        assert main(["construct", "--group", str(group_file), "--out", str(out)]) == 0
        written = Path(capsys.readouterr().out.strip())
        loop = parse_loop(written.read_text())
        assert loop.order == 21

    def test_construct_even_order_exit_2(self, tmp_path):
        group_file = tmp_path / "z4.loop"
        group_file.write_text(cyclic(4).serialize())
        assert main(["construct", "--group", str(group_file), "--out", str(tmp_path / "o.loop")]) == 2

    @pytest.mark.parametrize("under", ["x.loop", "sub"])
    def test_construct_out_under_a_file_exit_2(self, z3_file, capsys, under):
        # x.loop: the parent is a file (FileExistsError); sub: a directory
        # to create below a file (NotADirectoryError)
        out = z3_file / under
        assert main(["construct", "--group", str(z3_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1

    def test_canon_roundtrip(self, tmp_path, capsys):
        shifted = cyclic(3).relabel([1, 0, 2])
        path = tmp_path / "shifted.loop"
        path.write_text(shifted.serialize())
        assert main(["canon", str(path)]) == 0
        assert parse_loop(capsys.readouterr().out) == cyclic(3)

    def test_canon_out_file(self, z3_file, tmp_path):
        out = tmp_path / "canon.loop"
        assert main(["canon", str(z3_file), "--out", str(out)]) == 0
        assert parse_loop(out.read_text()) == cyclic(3)

    def test_canon_out_under_missing_directory_exit_2(self, z3_file, tmp_path, capsys):
        out = tmp_path / "missing" / "canon.loop"
        assert main(["canon", str(z3_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


def test_cli_import_leaves_process_pool_unloaded():
    # the pool is only needed for --jobs > 1; importing it costs every CLI op
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bolforge.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
