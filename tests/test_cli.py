"""End-to-end checks of the command-line interface."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bks5 import catalog, cli, geometry
from bks5.cli import main

VERIFY_CHECKS = ["ray_table", "magic_parity", "maximal_bases",
                 "coloring_proof_bases", "coloring_all_bases",
                 "unique_partition", "distance_spectra", "geometry",
                 "symmetry", "search_regression"]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out)] + list(argv))
    return code, out


def assert_no_added_import(module, tmp_path, *argv):
    """Run ``main(['--out', tmp_path, *argv])`` in a fresh process that has
    already imported numpy, and fail if the command fails or if it imports
    ``module``.

    Only an import that the package or the command adds counts, so the
    check does not depend on what numpy itself imports.
    """
    script = ("import sys\n"
              "import numpy\n"
              "module = sys.argv[1]\n"
              "before = module in sys.modules\n"
              "from bks5.cli import main\n"
              "code = main(['--out'] + sys.argv[2:])\n"
              "sys.exit(code or (module in sys.modules and not before\n"
              "                  and 'the command imported ' + module))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", script, module, str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def sha256s(out, names):
    """The SHA-256 of each named file in ``out``, keyed by name."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


class TestRaysCommand:
    """``rays`` rebuilds the table and the operator parity report."""

    def test_writes_table_artifacts(self, tmp_path, capsys):
        code, out = run(tmp_path, "rays")
        assert code == 0
        assert (out / "rays.csv").read_text().count("\n") == 161
        data = json.loads((out / "rays.json").read_text())
        assert len(data["rays"]) == 160
        assert "rays: 160" in capsys.readouterr().out

    def test_magic_configuration_report(self, tmp_path, capsys):
        code, out = run(tmp_path, "rays", "--config", "magic")
        assert code == 0
        report = json.loads((out / "magic.json").read_text())
        assert report["operator_count"] == 14
        assert report["sign_product"] == -1
        assert report["parity_contradiction"] is True
        assert "contradiction=True" in capsys.readouterr().out

    ARTIFACT_SHA256 = {
        "rays.csv": "bf61c34fb92fae2b8bd616800fac382a"
                    "93120a24f4fb703a96feeb6aa1ffa765",
        "rays.json": "0ab2619eb4a127029940f2aeb32c793f"
                     "5ad4b4db56c4d84e590ae383e9570863",
        "magic.json": "192c183f340cf2971a83de2e3b507fba"
                      "31153a78d0bf719bd5c774ab065f5046",
    }

    def test_artifact_bytes_are_pinned(self, tmp_path, capsys):
        code, out = run(tmp_path, "rays", "--config", "magic")
        assert code == 0
        assert sha256s(out, self.ARTIFACT_SHA256) == self.ARTIFACT_SHA256

    def test_corrupt_reference_exits_nonzero(self, tmp_path, monkeypatch,
                                             capsys):
        tampered = list(catalog.RAYS)
        tampered[40] = catalog.RAYS[0]  # a ray from the wrong block
        monkeypatch.setattr(catalog, "RAYS", tuple(tampered))
        code, _ = run(tmp_path, "rays")
        assert code == 1
        assert "error: RayTableError:" in capsys.readouterr().err


class TestBasesCommand:
    """``bases`` enumerates, serializes and cross-checks the catalogue."""

    def test_enumerates_and_verifies(self, tmp_path, capsys):
        code, out = run(tmp_path, "bases")
        assert code == 0
        lines = (out / "bases.txt").read_text().splitlines()
        assert len(lines) == 661
        assert lines[0] == " ".join(str(i) for i in range(1, 33))
        data = json.loads((out / "bases.json").read_text())
        assert data["count"] == 661
        assert len(data["bases"]) == 661
        assert "661 enumerated, census verified" in capsys.readouterr().out

    ARTIFACT_SHA256 = {
        "bases.txt": "cb8c8bb91db57a2d9a634ca2b5f21074"
                     "74680255170f0e860253e87bc9677cc2",
        "bases.json": "17f4d8fce4a6277b4bc1b8151f462bec"
                      "4df246577e5ec0672399fb896b14cfc8",
    }

    def test_artifact_bytes_are_pinned(self, tmp_path, capsys):
        code, out = run(tmp_path, "bases")
        assert code == 0
        assert sha256s(out, self.ARTIFACT_SHA256) == self.ARTIFACT_SHA256

    def test_census_mismatch_exits_nonzero(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(cli, "enumerate_maximal_bases",
                            lambda graph: catalog.proof_bases())
        code, out = run(tmp_path, "bases")
        assert code == 1
        assert len((out / "bases.txt").read_text().splitlines()) == 21
        assert "21 enumerated, census MISMATCH" in capsys.readouterr().out


class TestColorCommand:
    """``color`` writes a DIMACS instance plus a machine-checked verdict."""

    def test_reference_selection(self, tmp_path, capsys):
        code, out = run(tmp_path, "color", "--bases", "proof")
        assert code == 0
        cert = json.loads((out / "certificate-proof.json").read_text())
        assert cert["status"] == "non_colorable"
        assert cert["witness"] is None
        assert cert["solvers_agree"] is True
        assert cert["dimacs_cross_check"]["satisfiable"] is False
        cnf = (out / "instance-proof.cnf").read_text()
        assert "p cnf 160 9541" in cnf
        assert "cross-check agrees" in capsys.readouterr().out

    def test_block_selection(self, tmp_path, capsys):
        code, out = run(tmp_path, "color", "--bases", "blocks")
        assert code == 0
        cert = json.loads((out / "certificate-blocks.json").read_text())
        assert cert["status"] == "non_colorable"
        assert cert["solvers_agree"] is True

    def test_process_does_not_load_openssl(self, tmp_path):
        """``hashlib`` maps OpenSSL's libcrypto through ``_hashlib``, about
        3.6 MB resident; only the commands that digest the 661 bases
        (``bases`` and ``verify``) may load it."""
        assert_no_added_import("_hashlib", tmp_path,
                               "color", "--bases", "proof")

    def test_unknown_selection_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(tmp_path, "color", "--bases", "everything")

    @pytest.mark.parametrize("selection, digest", [
        ("proof", "76cee887d0dfc7721deace7e10dd4bf6"
                  "b3d13b98c6599843c1198f7683ea6c30"),
        ("blocks", "1452b727397e6e4c4a77d59f33cc1156"
                   "7b62e30a1ca8526f61c295e76c18044a"),
        ("all", "b101499e21a697b77aa0b749e06d6de4"
                "a1bffac6d4a42ea849f3e180bc1232a9"),
    ])
    def test_certificate_bytes_are_pinned(self, selection, digest, tmp_path,
                                          capsys):
        code, out = run(tmp_path, "color", "--bases", selection)
        assert code == 0
        name = "certificate-%s.json" % selection
        assert sha256s(out, [name]) == {name: digest}


class TestSearchCommand:
    """``search`` is reproducible from its seed."""

    def test_pinned_seed_reproduces_golden(self, tmp_path, capsys):
        code, out = run(tmp_path, "search", "--seed", "0")
        assert code == 0
        data = json.loads((out / "search.json").read_text())
        assert data["status"] == "found"
        assert data["restart"] == 0
        assert data["size"] == len(data["bases"]) == 5
        assert data["basis_indices"] == list(catalog.SEARCH_GOLDEN["bases"])
        assert "found, size 5" in capsys.readouterr().out

    def test_zero_budget_is_reported(self, tmp_path, capsys):
        code, out = run(tmp_path, "search", "--budget", "0")
        assert code == 0
        data = json.loads((out / "search.json").read_text())
        assert data["status"] == "budget_exhausted"
        assert data["basis_indices"] == []
        assert data["attempts"] == 0

    @pytest.mark.parametrize("argv, digest", [
        (("--seed", "0"), "42c2f0b00b2ec6bb1653e59a9dc075d0"
                          "a870a2fb7cd94c8eb4cc69407cec0e56"),
        (("--budget", "0"), "0da5b920661ae8af9b07fc6cf77044bb"
                            "5a3402ea7d3d4e9e89cdc55c7e2a5acd"),
    ])
    def test_artifact_bytes_are_pinned(self, argv, digest, tmp_path, capsys):
        code, out = run(tmp_path, "search", *argv)
        assert code == 0
        assert sha256s(out, ["search.json"]) == {"search.json": digest}


class TestDistancesCommand:
    """``distances`` emits exact-spectrum histograms."""

    def test_reference_spectrum_csv_and_svg(self, tmp_path, capsys):
        code, out = run(tmp_path, "distances", "--format", "csv,svg")
        assert code == 0
        lines = (out / "histogram-proof.csv").read_text().splitlines()
        assert lines[0] == "D,D2_num,D2_den,count"
        assert len(lines) == 55
        svg = (out / "histogram-proof.svg").read_text()
        assert svg.count("<rect") == 55
        assert "54 distinct values" in capsys.readouterr().out

    def test_svg_bytes_are_pinned(self, tmp_path, capsys):
        code, out = run(tmp_path, "distances", "--format", "svg")
        assert code == 0
        assert sha256s(out, ["histogram-proof.svg"]) == {
            "histogram-proof.svg": "76d5c3748a68784fa43d6d1978d6d3ea"
                                   "daf91f6669b4b71b853592f3d3fcbdb7"}

    ALL_SHA256 = {
        "histogram-all.csv": "38232112c7dabb419c38d51f26082e19"
                             "8375333028e21983524eca52f1179fb0",
        "histogram-all.svg": "811481b0f33851b8fff08e0d45d37154"
                             "d01b90ce86dae2ffa2e97ad1cecfc7b9",
    }

    def test_all_bases_artifact_bytes_are_pinned(self, tmp_path, capsys):
        code, out = run(tmp_path, "distances", "--bases", "all",
                        "--format", "csv,svg")
        assert code == 0
        assert sha256s(out, self.ALL_SHA256) == self.ALL_SHA256
        assert capsys.readouterr().out == (
            "distances[all]: 661 bases, 77 distinct values; "
            "top D^2: 16/31 (x13824), 20/31 (x12352)\n")

    def test_unknown_format_exits_nonzero(self, tmp_path, capsys):
        code, _ = run(tmp_path, "distances", "--format", "png")
        assert code == 1
        assert "unknown histogram format" in capsys.readouterr().err

    def test_unknown_format_writes_nothing(self, tmp_path, capsys):
        code, out = run(tmp_path, "distances", "--format", "csv,png")
        assert code == 1
        assert "unknown histogram format 'png'" in capsys.readouterr().err
        assert not (out / "histogram-proof.csv").exists()


class TestGeometryCommand:
    """``geometry`` records the subspace invariants as JSON."""

    def test_report_artifact(self, tmp_path, capsys):
        code, out = run(tmp_path, "geometry")
        assert code == 0
        data = json.loads((out / "geometry.json").read_text())
        assert data["union_point_count"] == 129
        assert data["all_isotropic"] is True
        assert data["intersection_dims"]["A|B"] == 0
        assert data["intersection_dims"]["A'|C"] == 2
        assert {frozenset(s) for s in data["systems"]} == \
            {frozenset({"A", "B"}), frozenset({"A'", "B'", "C"})}
        assert data["distinguished"] == {"IIIIX": 1, "IIIZI": 3, "IIXZX": 3}
        assert "union 129 points" in capsys.readouterr().out

    def test_artifact_bytes_are_pinned(self, tmp_path, capsys):
        code, out = run(tmp_path, "geometry")
        assert code == 0
        assert sha256s(out, ["geometry.json"]) == {
            "geometry.json": "4542f4f6d140d7efd663ba778a4c2218"
                             "fd2c41f0e1adfa7aadb26b454cf8e8df"}


class TestSymmetryCommand:
    """``symmetry`` records the automorphism-group invariants as JSON."""

    def test_report_artifact(self, tmp_path, capsys):
        code, out = run(tmp_path, "symmetry")
        assert code == 0
        data = json.loads((out / "symmetry.json").read_text())
        assert data["order"] == 192
        assert data["weighted_order"] == 2
        assert data["normal_ea_order"] == 32
        assert data["quotient_order"] == 6
        assert data["quotient_nonabelian"] is True
        assert data["closure_verified"] is True
        text = capsys.readouterr().out
        assert "order 192" in text and "(non-abelian)" in text


class TestVerifyCommand:
    """``verify`` prints one PASS/FAIL line per check and a summary."""

    def test_all_checks_pass(self, tmp_path, capsys):
        code, _ = run(tmp_path, "verify")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == ["%-22s PASS" % name for name in VERIFY_CHECKS]
        assert re.fullmatch(r"verify: 10/10 checks passed in \d+\.\ds",
                            lines[-1])

    def test_raising_check_fails_alone(self, tmp_path, monkeypatch, capsys):
        def broken(spaces):
            raise ValueError("no generator split")

        monkeypatch.setattr(geometry, "classify_generator_systems", broken)
        code, _ = run(tmp_path, "verify")
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("verify: 9/10 checks passed")
        verdicts = [line.split() for line in lines[:-1]
                    if not line.startswith(" ")]
        assert len(verdicts) == 10
        assert all(len(v) == 2 for v in verdicts)
        assert {name for name, verdict in verdicts
                if verdict == "FAIL"} == {"geometry"}
        reason = lines[lines.index("%-22s FAIL" % "geometry") + 1]
        assert reason == "    reason: ValueError: no generator split"

    def test_wrong_ortho_pair_count_fails_maximal_bases(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setattr(catalog, "ORTHO_PAIR_COUNT",
                            catalog.ORTHO_PAIR_COUNT + 1)
        code, _ = run(tmp_path, "verify")
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("verify: 9/10 checks passed")
        at = lines.index("%-22s FAIL" % "maximal_bases")
        assert re.fullmatch(r"    reason: got \(9520, 661, .*\), "
                            r"expected \(9521, 661, .*\)", lines[at + 1])
        assert [line for line in lines[:-1] if line.endswith("PASS")] == \
            ["%-22s PASS" % name for name in VERIFY_CHECKS
             if name != "maximal_bases"]

    def test_wrong_partition_count_fails_search_regression(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(catalog, "PARTITION_COUNT",
                            catalog.PARTITION_COUNT + 1)
        code, _ = run(tmp_path, "verify")
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("verify: 9/10 checks passed")
        at = lines.index("%-22s FAIL" % "search_regression")
        assert re.fullmatch(r"    reason: got \(10328, 'found', .*\), "
                            r"expected \(10329, 'found', .*\)", lines[at + 1])
        assert [line for line in lines[:-1] if line.endswith("PASS")] == \
            ["%-22s PASS" % name for name in VERIFY_CHECKS
             if name != "search_regression"]

    def test_verify_process_does_not_import_numpy_ma(self, tmp_path):
        """On numpy 2.x a plain ``np.unique`` imports ``numpy.ma``, a few
        ms of every fresh ``verify`` process that no check needs.  Older
        numpy imports ``numpy.ma`` with ``numpy`` itself, so only an
        import that ``verify`` adds counts."""
        assert_no_added_import("numpy.ma", tmp_path, "verify")

    def test_failing_checks_say_why(self, tmp_path, monkeypatch, capsys):
        def no_bases(graph):
            raise RuntimeError("enumeration disabled")

        monkeypatch.setattr(catalog, "AUT_ORDER", 191)
        monkeypatch.setattr(cli, "enumerate_maximal_bases", no_bases)
        code, _ = run(tmp_path, "verify")
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("verify: 5/10 checks passed")
        needs_661 = {"maximal_bases", "coloring_all_bases",
                     "distance_spectra", "search_regression"}
        for name in VERIFY_CHECKS:
            if name not in needs_661 | {"symmetry"}:
                assert "%-22s PASS" % name in lines
                continue
            at = lines.index("%-22s FAIL" % name)
            reason = lines[at + 1]
            if name in needs_661:
                assert reason == \
                    "    reason: RuntimeError: enumeration disabled"
            else:
                assert re.fullmatch(r"    reason: got .*192.*, "
                                    r"expected .*191.*", reason)
