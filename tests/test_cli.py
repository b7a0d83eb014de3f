import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoidal

from groupoidal import HaarSystem, StructureBrokenError, build_linking, build_linking_haar
from groupoidal.cli import build_parser, main
from groupoidal.fileio import dump_element, dump_equivalence, dump_groupoid, write_json
from groupoidal.fixtures import (
    cyclic_group,
    cyclic_self_equivalence,
    pair_groupoid,
    pair_trivialization,
    transitive_equivalence,
)
from groupoidal.verify import SUITES
from groupoidal import AlgebraElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_equivalence(tmp_path, Z, name="equiv.json"):
    path = tmp_path / name
    write_json(
        path,
        dump_equivalence(
            Z,
            HaarSystem.counting(Z.left_groupoid),
            HaarSystem.counting(Z.right_groupoid),
        ),
    )
    return path


class TestGenFixture:
    def test_pair_family_has_square_of_arrows(self, capsys):
        code, out, _ = run(capsys, "gen-fixture", "pair", "--n", "3")
        assert code == 0
        assert len(json.loads(out)["arrows"]) == 9

    def test_generated_fixture_revalidates(self, capsys, tmp_path):
        path = tmp_path / "cyclic4.json"
        code, _, _ = run(capsys, "gen-fixture", "cyclic", "--n", "4", "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--groupoid", str(path))
        assert code == 0
        assert all(r["ok"] for r in json.loads(out)["reports"])

    def test_generated_equivalence_checks_out(self, capsys, tmp_path):
        path = tmp_path / "te.json"
        code, _, _ = run(
            capsys, "gen-fixture", "transitive-equiv", "--n", "2", "--m", "2",
            "--output", str(path),
        )
        assert code == 0
        code, _, _ = run(capsys, "validate", "--equivalence", str(path))
        assert code == 0


class TestValidateCommand:
    def test_broken_fixture_exits_one_with_diagnostics(self, capsys, tmp_path):
        g = cyclic_group(2)
        payload = dump_groupoid(g, HaarSystem.counting(g))
        payload["compose"] = [row for row in payload["compose"] if row[:2] != ["g1", "g1"]]
        path = tmp_path / "broken.json"
        write_json(path, payload)
        code, out, _ = run(capsys, "validate", "--groupoid", str(path))
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert any(v["rule"] == "compose-definedness" for v in report["violations"])

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("[1, 2", encoding="utf-8")
        code, _, err = run(capsys, "validate", "--groupoid", str(path))
        assert code == 2
        assert "error" in err

    def test_no_inputs_exits_two(self, capsys):
        code, _, _ = run(capsys, "validate")
        assert code == 2


class TestNormCommand:
    def test_reduced_norm_of_generator(self, capsys, tmp_path):
        g = cyclic_group(2)
        write_json(tmp_path / "g.json", dump_groupoid(g, HaarSystem.counting(g)))
        write_json(
            tmp_path / "f.json", dump_element(AlgebraElement("G", {"g0": 1.0, "g1": 1.0}))
        )
        code, out, _ = run(
            capsys, "norm", "--groupoid", str(tmp_path / "g.json"),
            "--element", str(tmp_path / "f.json"),
        )
        assert code == 0
        assert json.loads(out)["reduced_norm"] == pytest.approx(2.0)

    def test_single_unit_norm(self, capsys, tmp_path):
        g = cyclic_group(2)
        write_json(tmp_path / "g.json", dump_groupoid(g, HaarSystem.counting(g)))
        write_json(tmp_path / "f.json", dump_element(AlgebraElement.delta("G", "g1")))
        code, out, _ = run(
            capsys, "norm", "--groupoid", str(tmp_path / "g.json"),
            "--element", str(tmp_path / "f.json"), "--unit", "e",
        )
        assert code == 0
        assert json.loads(out)["norm"] == pytest.approx(1.0)


    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0])
    def test_unusable_weight_exits_two_before_any_matrix(self, capsys, tmp_path, bad):
        g = cyclic_group(2)
        haar = HaarSystem.counting(g)
        haar.weights["g1"] = bad
        write_json(tmp_path / "g.json", dump_groupoid(g, haar))
        write_json(tmp_path / "f.json", dump_element(AlgebraElement.delta("G", "g1")))
        code, out, err = run(
            capsys, "norm", "--groupoid", str(tmp_path / "g.json"),
            "--element", str(tmp_path / "f.json"),
        )
        assert code == 2
        assert out == ""
        assert "g1" in err

    def test_unknown_element_id_exits_two(self, capsys, tmp_path):
        g = cyclic_group(2)
        write_json(tmp_path / "g.json", dump_groupoid(g, HaarSystem.counting(g)))
        write_json(tmp_path / "f.json", dump_element(AlgebraElement("G", {"g1": 1.0, "g7": 1.0})))
        code, out, err = run(
            capsys, "norm", "--groupoid", str(tmp_path / "g.json"),
            "--element", str(tmp_path / "f.json"),
        )
        assert code == 2
        assert out == ""
        assert "g7" in err


class TestKernelDimCommand:
    def test_zero_kernel(self, capsys, tmp_path):
        g = cyclic_group(3)
        write_json(tmp_path / "g.json", dump_groupoid(g, HaarSystem.counting(g)))
        code, out, _ = run(capsys, "kernel-dim", "--groupoid", str(tmp_path / "g.json"))
        assert code == 0
        assert json.loads(out)["kernel_dimension"] == 0


class TestGroupoidGate:
    # pair(2) without the product ((2,2),(2,2)): a reduced norm solved at one
    # unit per orbit would not notice, so both commands check the axioms first
    @pytest.mark.parametrize("command", ["norm", "kernel-dim"])
    def test_broken_composition_exits_two(self, capsys, tmp_path, command):
        g = pair_groupoid(2)
        tables = dump_groupoid(g, HaarSystem.counting(g))
        tables["compose"].remove(["(2,2)", "(2,2)", "(2,2)"])
        write_json(tmp_path / "g.json", tables)
        write_json(tmp_path / "f.json", dump_element(AlgebraElement.delta("G", "(1,1)")))
        argv = [command, "--groupoid", str(tmp_path / "g.json")]
        if command == "norm":
            argv += ["--element", str(tmp_path / "f.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "[compose-definedness] composable pair ('(2,2)', '(2,2)') missing" in err


class TestBuildLinkingCommand:
    def test_emits_sectors_and_revalidates(self, capsys, tmp_path):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        out_path = tmp_path / "linking.json"
        code, _, _ = run(
            capsys, "build-linking", "--equivalence", str(path), "--output", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["arrows"]) == 9
        assert {a["sector"] for a in payload["arrows"]} == {"GG", "GZ", "ZG", "HH"}
        code, _, _ = run(capsys, "validate", "--groupoid", str(out_path))
        assert code == 0


    def test_non_invariant_haar_aborts_with_exit_two(self, capsys, tmp_path):
        Z = cyclic_self_equivalence(2)
        wl, lopsided = HaarSystem.counting(Z.left_groupoid), HaarSystem({"g0": 1.0, "g1": 2.0})
        message = "orbit measure of '~g0' depends on the representative ('~g0' vs '~g1'); Haar invariance is broken"
        with pytest.raises(StructureBrokenError) as caught:
            build_linking_haar(build_linking(Z), wl, lopsided)
        assert str(caught.value) == message
        path = tmp_path / "lopsided.json"
        write_json(path, dump_equivalence(Z, wl, lopsided))
        code, out, err = run(capsys, "build-linking", "--equivalence", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCheckCommand:
    def test_full_run_exits_zero(self, capsys, tmp_path):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        code, out, _ = run(
            capsys, "check", "--equivalence", str(path), "--all",
            "--tol", "1e-9", "--samples", "10",
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_single_suite(self, capsys, tmp_path):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        code, out, _ = run(
            capsys, "check", "--equivalence", str(path), "--suite", "main1",
            "--samples", "10",
        )
        assert code == 0
        assert json.loads(out)["suite"] == "theorem-main1"

    def test_output_is_byte_stable(self, capsys, tmp_path):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        args = ("check", "--equivalence", str(path), "--all", "--samples", "5")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_human_rendering(self, capsys, tmp_path):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        code, out, _ = run(
            capsys, "check", "--equivalence", str(path), "--all", "--samples", "5",
            "--human",
        )
        assert code == 0
        assert "status: pass" in out
        assert "suite theorem-main1" in out

    @pytest.mark.parametrize("suite,samples", [("main1", "0"), ("imprimitivity", "-3")])
    def test_fewer_than_one_sample_exits_two(self, capsys, tmp_path, suite, samples):
        path = write_equivalence(tmp_path, pair_trivialization(2))
        code, out, err = run(
            capsys, "check", "--equivalence", str(path), "--suite", suite,
            "--samples", samples,
        )
        assert code == 2
        assert out == ""
        assert "--samples must be at least 1" in err


def suite_choices():
    check = build_parser()._subparsers._group_actions[0].choices["check"]
    return next(a.choices for a in check._actions if a.dest == "suite")


class TestSuiteRegistry:
    def test_choices_registry_and_report_agree(self, capsys, tmp_path):
        assert tuple(suite_choices()) == tuple(SUITES)
        path = write_equivalence(tmp_path, pair_trivialization(2))
        common = ("--equivalence", str(path), "--samples", "4")
        _, out, _ = run(capsys, "check", "--all", *common)
        reported = [s["suite"] for s in json.loads(out)["suites"]]
        single = []
        for name in SUITES:
            code, out, _ = run(capsys, "check", "--suite", name, *common)
            assert code == 0
            single.append(json.loads(out)["suite"])
        assert single == reported


# transitive-equiv(2,2) with one table row dropped
BREAKAGES = {
    "r-row": lambda tables: tables["r"].pop(0),
    "left-action-row": lambda tables: tables["left_action"].pop(0),
    "G-compose-row": lambda tables: tables["G"]["compose"].pop(0),
}


class TestBrokenFixtures:
    @pytest.mark.parametrize("breakage", sorted(BREAKAGES))
    @pytest.mark.parametrize(
        "command", [("check", "--suite", name) for name in SUITES] + [("build-linking",)],
        ids=lambda command: command[-1],
    )
    def test_ends_with_a_named_error(self, capsys, tmp_path, command, breakage):
        Z = transitive_equivalence(2, 2)
        tables = dump_equivalence(
            Z, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)
        )
        BREAKAGES[breakage](tables)
        path = tmp_path / "broken.json"
        write_json(path, tables)
        code, _, err = run(capsys, *command, "--equivalence", str(path), "--samples", "3")
        assert code in (1, 2)
        assert "Traceback" not in err
        assert err.startswith("error: ")
        if command[0] == "check":
            assert code == 2
            assert "structural stage" in err


class TestHugeWeights:
    """Finite weights whose products leave the floats end in a verdict or a named error."""

    def write(self, tmp_path, weight):
        Z = pair_trivialization(2)
        wl = HaarSystem({a.id: weight for a in Z.left_groupoid.arrows})
        path = tmp_path / "huge.json"
        write_json(path, dump_equivalence(Z, wl, HaarSystem.counting(Z.right_groupoid)))
        return path

    def test_non_finite_residual_fails(self, capsys, tmp_path):
        path = self.write(tmp_path, 1e300)
        code, out, err = run(capsys, "check", "--equivalence", str(path), "--suite", "representation")
        report = json.loads(out)
        assert code == 1
        assert report["status"] == "fail"
        assert report["max_residual"] == float("inf")
        assert err == ""

    def test_overflow_exits_two_with_a_named_error(self, capsys, tmp_path):
        path = self.write(tmp_path, 1.7e308)
        code, out, err = run(capsys, "check", "--equivalence", str(path), "--all")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestModuleEntry:
    def test_python_dash_m_runs_the_command(self, tmp_path):
        g = cyclic_group(2)
        write_json(tmp_path / "g.json", dump_groupoid(g, HaarSystem.counting(g)))
        src = str(Path(groupoidal.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "groupoidal.cli", "validate", "--groupoid", str(tmp_path / "g.json")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert [r["ok"] for r in json.loads(done.stdout)["reports"]] == [True, True]

