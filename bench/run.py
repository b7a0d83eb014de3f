"""Benchmark of groupoidal: one workload, timed end to end or layer by layer.

    python3 bench/run.py --workload check-all [--seed 0x5EED] [--seconds 10] [--trace 0]

Runs whole rounds of the workload's op cycle in one closed loop (one
client, no think time) until the ops have been busy for ``--seconds``,
checks every op's output outside the timed region, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced rounds alternate and the metrics are the per-layer
ones.  End-to-end times are scaled by the host's speed over the run
(see ``hostspeed``).  The line before it is a JSON report with the
details (failure reasons, latency percentile and sample counts, the
scale factor, environment).

The program is imported from ``src/`` next to this directory and never
modified; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from tracing import COMPUTED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = BENCH / ".run"

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("numerics.eig.calls", "count"),
    ("numerics.eig.busy_s", "s"),
    ("numerics.eig.max_n", "count"),
    ("numerics.eig.n3", "count"),
    ("numerics.spectral.calls", "count"),
    ("numerics.spectral.self_s", "s"),
    ("numerics.rank.calls", "count"),
    ("numerics.rank.busy_s", "s"),
    ("numerics.rank.cells", "count"),
    ("representations.ind_delta.calls", "count"),
    ("representations.ind_delta.self_s", "s"),
    ("representations.entries", "count"),
    ("representations.reduced_norm.self_s", "s"),
    ("representations.kernel_dim.self_s", "s"),
    ("representations.gram.self_s", "s"),
    ("algebra.convolve.calls", "count"),
    ("algebra.convolve.busy_s", "s"),
    ("algebra.action.calls", "count"),
    ("algebra.action.busy_s", "s"),
    ("algebra.inner.calls", "count"),
    ("algebra.inner.busy_s", "s"),
    ("algebra.blockwise.self_s", "s"),
    ("groupoid.validate.calls", "count"),
    ("groupoid.validate.busy_s", "s"),
    ("groupoid.validate.triples", "count"),
    ("equivalence.validate.busy_s", "s"),
    ("linking.build.busy_s", "s"),
    ("linking.haar.busy_s", "s"),
    ("linking.arrows", "count"),
    ("fileio.calls", "count"),
    ("fileio.busy_s", "s"),
    ("fileio.bytes", "bytes"),
    ("fixtures.busy_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("verify.main1.self_s", "s"),
    ("verify.imprimitivity.self_s", "s"),
    ("verify.full_projections.self_s", "s"),
    ("verify.universal.self_s", "s"),
    ("verify.rep_laws.self_s", "s"),
    ("verify.samples", "count"),
    ("trace.overhead_s", "s"),
)

SETUP_PROBES = {"full": 9, "small": 1}
WALL_LIMIT_S = 150.0  # start no round that would end past this, so a run stays within 180 s
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_program() -> None:
    """Import groupoidal from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "groupoidal" / "__init__.py").is_file():
        print(f"error: no groupoidal sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import groupoidal

    if Path(groupoidal.__file__).resolve().parent != SRC / "groupoidal":
        print(f"error: groupoidal was imported from {groupoidal.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


@dataclass
class OpRecord:
    label: str
    round: int
    latency: float
    failure: str | None


@dataclass
class Round:
    traced: bool
    latencies: list[float] = field(default_factory=list)
    chunks: list[float] = field(default_factory=list)  # reference chunk times, see hostspeed
    layers: dict[str, float] = field(default_factory=dict)


def run_round(workload, index: int, records: list[OpRecord], tracer=None) -> Round:
    result = Round(traced=tracer is not None)
    for op in workload.round(index):
        if tracer is not None:
            tracer.op = len(records)
        start = time.perf_counter()
        try:
            output, failure = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            output, failure = None, "traceback: " + traceback.format_exception_only(exc)[-1].strip()
        latency = time.perf_counter() - start
        result.chunks += hostspeed.sample(latency)
        if failure is None:
            try:
                failure = op.check(output)
            except Exception as exc:  # malformed output
                failure = f"unreadable output: {exc!r}"
        records.append(OpRecord(op.label, index, latency, failure))
        result.latencies.append(latency)
    if tracer is not None:
        result.layers = {name: tracer.value(name) for name, _ in PER_LAYER if name != "trace.overhead_s"}
    return result


def measure(workload, seconds: float, trace: bool, started: float):
    """Whole rounds until the ops were busy ``seconds`` and the workload's minimum rounds ran."""
    tracer = Tracer() if trace else None
    records: list[OpRecord] = []
    rounds: list[Round] = []
    absent: list[str] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        patch = nullcontext()
        if traced:
            tracer.reset()
            patch, absent = tracer.patch()
        round_start = time.perf_counter()
        with patch:
            rounds.append(run_round(workload, len(rounds), records, tracer if traced else None))
        now = time.perf_counter()
        busy = sum(sum(r.latencies) for r in rounds)
        enough = busy >= seconds and len(rounds) >= (2 if trace else workload.min_rounds)
        if enough or now - started + (now - round_start) > WALL_LIMIT_S:
            break
    for label, reason in workload.final_failures().items():
        for record in records:
            if record.label == label and record.failure is None:
                record.failure = reason
    return records, rounds, tracer, absent


def end_to_end(workload, rounds: list[Round], probes: list[tuple[float, list[float]]]) -> tuple[dict, dict]:
    scale = hostspeed.factor([x for _, c in probes for x in c] + [x for r in rounds for x in r.chunks])
    latencies = sorted(scale * x for r in rounds for x in r.latencies)
    # The tail percentile is the highest that leaves ten samples beyond it in
    # the fewest ops a run makes (its minimum rounds), so it is fixed per
    # workload however fast the code is; it is read off all ops by nearest rank.
    fewest = workload.min_rounds * len(rounds[0].latencies)
    below = max(0, fewest - 10)
    rank = max(1, -(-below * len(latencies) // fewest))
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        # each round holds the same op mix, so a median per round is robust to
        # the host's speed drifting within the run
        "op_p50_s": scale * statistics.median(statistics.median(r.latencies) for r in rounds),
        "op_tail_s": latencies[rank - 1],
        "setup_s": scale * statistics.median(ready for ready, _ in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "tail_percentile": 100.0 * below / fewest,
        "tail_samples_beyond": len(latencies) - rank,
        "host_speed_factor": scale,
    }
    return values, detail


def per_layer(rounds: list[Round]) -> tuple[dict, dict]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    first = traced[0].layers
    values = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = statistics.median(sum(r.latencies) for r in traced) - statistics.median(
                sum(r.latencies) for r in plain
            )
        elif name.endswith("_s"):
            values[name] = statistics.median(r.layers[name] for r in traced)
        else:
            values[name] = first[name]
    differ = sorted(
        {name for r in traced for name in first if not name.endswith("_s") and r.layers[name] != first[name]}
    )
    return values, {"traced_rounds": len(traced), "untraced_rounds": len(plain), "counts_differ_by_round": differ}


def git_commit() -> str | None:
    """HEAD of this checkout read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(groupoidal_threads: str | None) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "groupoidal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "GROUPOIDAL_THREADS": "unset"
        if groupoidal_threads is None
        else f"unset (dropped inherited value {groupoidal_threads!r})",
    }


def probe_setup(args) -> tuple[float, list[float]]:
    """Seconds from starting a fresh process to its workload being ready for the first op.

    Returns them with the reference chunk times sampled after the probe.
    """
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready, hostspeed.sample(ready)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check-all", "bimodule-laws", "build-ladder"))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED)
    parser.add_argument("--seconds", type=float, default=10.0, help="busy time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full", help="small: reduced inputs for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args, started: float) -> tuple[dict, dict]:
    """Run one workload in this process; returns the result line and the report."""
    import workloads

    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, workdir)
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return {}, {}
        probes = [probe_setup(args) for _ in range(0 if args.trace else SETUP_PROBES[args.size])]
        workload.setup()
        records, rounds, tracer, absent = measure(workload, args.seconds, bool(args.trace), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.failure is not None]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "rounds": len(rounds),
        "ops": len(records),
        "busy_s": sum(r.latency for r in records),
        "fail_ratio": len(failed) / len(records),
        "failures": [f"round {r.round} {r.label}: {r.failure}" for r in failed[:20]],
    }
    if args.trace:
        metrics, detail = per_layer(rounds)
        spans = RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        detail.update(absent=absent, computed=list(COMPUTED), spans=str(spans.relative_to(ROOT)))
        units = dict(PER_LAYER)
    else:
        metrics, detail = end_to_end(workload, rounds, probes)
        units = dict(END_TO_END)
    report.update(detail)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    # the serial default is what users get; a thread cap inherited from the caller is dropped
    groupoidal_threads = os.environ.pop("GROUPOIDAL_THREADS", None)
    result, report = run(args, started)
    if args.setup_probe:
        return 0
    report["environment"] = environment(groupoidal_threads)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
