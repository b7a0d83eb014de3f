import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupoidal

from groupoidal import HaarSystem
from groupoidal.cli import main
from groupoidal.fileio import dump_element, dump_equivalence, dump_groupoid, write_json
from groupoidal.fixtures import cyclic_group, pair_trivialization
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

