"""Self-test of the benchmark at reduced size.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from groupoidal import representations, verify  # noqa: E402


def bench_command(directory: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(directory / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=directory.parent,
    )


def in_process(workload: str, trace: int = 0) -> tuple[dict, dict]:
    args = run.parse_args(
        ["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace), "--size", "small"]
    )
    return run.run(args, time.perf_counter())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench_command(
        BENCH, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--size", "small"
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["fail_ratio"] == 0.0
    assert report["environment"]["GROUPOIDAL_THREADS"] == "unset"
    if trace == "0":
        assert report["tail_samples_beyond"] >= 1 and 0.0 <= report["tail_percentile"] < 100.0
        assert report["host_speed_factor"] > 0.0


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_broken_reduced_norm_counts_the_ops_that_use_it_as_failed():
    with tracing.Patch({representations.reduced_norm: lambda *args, **kwargs: 0.0}):
        assert verify.reduced_norm(None, None, None) == 0.0
        outcomes = {name: in_process(name) for name in workloads.WORKLOADS}
    assert verify.reduced_norm is representations.reduced_norm is not None

    result, report = outcomes["check-all"]
    assert not result["correct"] and result["failed"] == result["attempted"]

    result, report = outcomes["build-ladder"]
    norms = report["rounds"] * sum(
        1 for n in workloads.SIZES["small"]["build-ladder"]["rungs"]
        if n <= workloads.SIZES["small"]["build-ladder"]["norm_max_n"]
    )
    assert result["failed"] == norms >= 1
    assert all(" norm: reduced norm 0.0, oracle " in line for line in report["failures"])

    result, _ = outcomes["bimodule-laws"]  # never takes a reduced norm
    assert result["correct"] and result["failed"] == 0


def test_patch_restores_attributes_and_defaults():
    rip, imprimitivity = verify.rip, verify.verify_imprimitivity
    defaults = imprimitivity.__defaults__
    patch, absent = tracing.Tracer().patch()
    assert absent == []
    with patch:
        assert verify.rip is not rip and verify.verify_imprimitivity is not imprimitivity
        assert verify.rip in imprimitivity.__defaults__
    assert verify.rip is rip and verify.verify_imprimitivity is imprimitivity
    assert imprimitivity.__defaults__ == defaults


def test_computed_counters_repeat_exactly():
    first, _ = in_process("check-all", trace=1)
    second, _ = in_process("check-all", trace=1)
    for name in tracing.COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["numerics.eig.n3"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench_command(tmp_path / "bench", "--workload", "check-all", "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
