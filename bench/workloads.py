"""The benchmark workloads: set-up, one round of ops, and the output checks.

A round is one pass over a workload's op cycle.  ``round`` yields ops;
the runner times ``Op.run`` and calls ``Op.check`` afterwards, outside the
timed region.  Work the generator does between yields (drawing elements,
deleting stale files, writing element files, oracle norms) is untimed.

Inputs come from the benchmark seed: the CLI ``--seed`` of round ``r``
is ``seed + r`` and element values are drawn from ``random.Random``
seeded with the seed, round and place, so no two rounds repeat an input.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from groupoidal import algebra, cli, fileio, fixtures, groupoid, linking, representations, verify

import oracle

# pinned per-suite tolerances of `check --all`; imprimitivity residuals are
# already divided by each law's own bound, so their pinned tolerance is 1
PINNED_TOL = {
    "theorem-main1": 1e-9,
    "imprimitivity": 1.0,
    "full-projections": 1e-9,
    "universal-norm-finite": 1e-9,
    "representation-laws": 1e-12,
}
BLOCK_TOL = 1e-12  # blockwise against direct product on the linking groupoid
NORM_REL_TOL = 1e-9  # library reduced norm against the oracle

SIZES = {
    "full": {
        "check-all": {
            "fixtures": (
                ("pair-trivial", 2, None),
                ("pair-trivial", 3, None),
                ("self", 2, None),
                ("transitive-equiv", 2, 2),
                ("transitive-equiv", 2, 3),
            ),
        },
        "bimodule-laws": {
            "fixtures": (
                ("transitive-equiv", 3, 3),
                ("transitive-equiv", 4, 4),
                ("pair-trivial", 6, None),
            ),
            "samples": 20,
        },
        "build-ladder": {"rungs": (3, 4, 6, 8), "m": 4, "norm_max_n": 6},
    },
    "small": {
        "check-all": {"fixtures": (("pair-trivial", 2, None), ("self", 2, None))},
        "bimodule-laws": {"fixtures": (("transitive-equiv", 2, 2),), "samples": 4},
        "build-ladder": {"rungs": (2, 3), "m": 2, "norm_max_n": 2},
    },
}

FAMILIES = {
    "pair-trivial": lambda n, m: fixtures.pair_trivialization(n),
    "self": lambda n, m: fixtures.cyclic_self_equivalence(n),
    "transitive-equiv": lambda n, m: fixtures.transitive_equivalence(n, m),
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed call; returns the output to check
    check: Callable[[object], str | None]  # failure reason, or None when correct


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """``cli.main`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_failure(result: CliResult) -> str | None:
    if result.code != 0:
        return f"exit code {result.code}: {result.err.strip()[-200:]}"
    if "Traceback" in result.err:
        return "traceback on stderr"
    return None


def reports_failure(result: CliResult) -> str | None:
    """Failure of a `validate` call: bad exit, or any report not ok."""
    failure = cli_failure(result)
    if failure:
        return failure
    bad = [r["subject"] for r in json.loads(result.out)["reports"] if not r["ok"]]
    return f"validation failed: {bad}" if bad else None


def seeded_values(ids, seed: int, place: str) -> dict[str, complex]:
    rng = random.Random(f"{seed}:{place}")
    return {key: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for key in sorted(ids)}


def fixture_label(family: str, n: int, m: int | None) -> str:
    return f"{family}({n})" if m is None else f"{family}({n},{m})"


class Workload:
    name = ""
    min_rounds = 1  # rounds a timed run makes at least; fixes the tail percentile

    def __init__(self, size: str, seed: int, workdir: Path) -> None:
        self.params = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Inputs and structures that every round reuses."""

    def round(self, index: int) -> Iterator[Op]:
        raise NotImplementedError

    def final_failures(self) -> dict[str, str]:
        """Op labels to count as failed after all rounds, with the reason."""
        return {}


class CheckAll(Workload):
    """`check --all` on the criterion-3 fixtures, written to JSON in set-up."""

    name = "check-all"
    min_rounds = 6

    def setup(self) -> None:
        self.paths = {}
        for family, n, m in self.params["fixtures"]:
            path = self.workdir / f"{family}-{n}-{m}.json"
            argv = ["gen-fixture", family, "--n", str(n), "--output", str(path)]
            result = run_cli(argv + (["--m", str(m)] if m is not None else []))
            if cli_failure(result):
                raise RuntimeError(f"gen-fixture {family} failed: {cli_failure(result)}")
            self.paths[fixture_label(family, n, m)] = path

    def round(self, index: int) -> Iterator[Op]:
        seed = str(self.seed + index)
        for label, path in self.paths.items():
            argv = ["check", "--equivalence", str(path), "--all", "--seed", seed]
            yield Op(label, lambda argv=argv: run_cli(argv), check_report)

    def final_failures(self) -> dict[str, str]:
        """Library reduced norms on each fixture's groupoids against the oracle."""
        failures = {}
        for label, path in self.paths.items():
            tables = json.loads(path.read_text(encoding="utf-8"))
            Z, w_left, w_right = fileio.load_equivalence(path)
            for side, G, haar in (("G", Z.left_groupoid, w_left), ("H", Z.right_groupoid, w_right)):
                values = seeded_values(G.arrow_ids, self.seed, f"{label}:{side}")
                element = algebra.AlgebraElement(side, values)
                got = representations.reduced_norm(element, G, haar)
                want = oracle.reduced_norm(tables[side], values)
                if not oracle.agrees(got, want, NORM_REL_TOL):
                    failures[label] = f"reduced norm on {side} is {got!r}, oracle {want!r}"
        return failures


def check_report(result: CliResult) -> str | None:
    failure = cli_failure(result)
    if failure:
        return failure
    report = json.loads(result.out)
    if report["status"] != "pass":
        return f"status {report['status']}: {report.get('error')}"
    bad = [s["stage"] for s in report["structural"] if not s["ok"]]
    if bad:
        return f"structural stages failed: {bad}"
    suites = {s["suite"]: s for s in report["suites"]}
    missing = sorted(set(PINNED_TOL) - set(suites))
    if missing:
        return f"suites missing: {missing}"
    for name, suite in suites.items():
        if suite["samples"] < 1:
            return f"suite {name} ran {suite['samples']} samples"
        tol = PINNED_TOL.get(name, suite["tol"])
        if suite["tol"] != tol:
            return f"suite {name} reports tol {suite['tol']!r}, pinned {tol!r}"
        if not suite["max_residual"] <= tol:
            return f"suite {name} residual {suite['max_residual']!r} above {tol!r}"
        if suite["status"] != "pass":
            return f"suite {name} status {suite['status']}"
    return None


class BimoduleLaws(Workload):
    """`verify_imprimitivity` plus as many blockwise-vs-direct product pairs."""

    name = "bimodule-laws"
    min_rounds = 20

    def setup(self) -> None:
        self.cases = {}
        for family, n, m in self.params["fixtures"]:
            Z = FAMILIES[family](n, m)
            w_left = groupoid.HaarSystem.counting(Z.left_groupoid)
            w_right = groupoid.HaarSystem.counting(Z.right_groupoid)
            link = linking.build_linking(Z)
            kappa = linking.build_linking_haar(link, w_left, w_right)
            self.cases[fixture_label(family, n, m)] = (Z, w_left, w_right, link, kappa)

    def round(self, index: int) -> Iterator[Op]:
        samples = self.params["samples"]
        for label, (Z, w_left, w_right, link, kappa) in self.cases.items():
            ids = link.groupoid.arrow_ids
            pairs = [
                tuple(
                    algebra.AlgebraElement("L", seeded_values(ids, self.seed, f"{index}:{label}:{i}:{k}"))
                    for k in "FK"
                )
                for i in range(samples)
            ]

            def run(Z=Z, w_left=w_left, w_right=w_right, link=link, kappa=kappa, pairs=pairs):
                report = verify.verify_imprimitivity(
                    Z, w_left, w_right, samples=samples, seed=self.seed + index
                )
                residuals = [
                    algebra.blockwise_residual(F, K, link, w_left, w_right, kappa)[1]
                    for F, K in pairs
                ]
                return report, residuals

            yield Op(label, run, check_bimodule)


def check_bimodule(output) -> str | None:
    report, residuals = output
    if report.samples < 1:
        return f"imprimitivity ran {report.samples} samples"
    pinned = PINNED_TOL["imprimitivity"]
    if report.tol != pinned:
        return f"imprimitivity reports tol {report.tol!r}, pinned {pinned!r}"
    if report.status != "pass" or not report.max_residual <= pinned:
        return f"imprimitivity {report.status}, residual {report.max_residual!r}"
    worst = max(residuals, default=0.0)
    if not worst <= BLOCK_TOL:
        return f"blockwise residual {worst!r} above {BLOCK_TOL!r}"
    return None


class BuildLadder(Workload):
    """Each rung transitive(n, m) as CLI ops: build, validate and link, then kernel-dim and norm."""

    name = "build-ladder"
    min_rounds = 7

    def round(self, index: int) -> Iterator[Op]:
        m = self.params["m"]
        seed = ["--seed", str(self.seed + index)]
        for n in self.params["rungs"]:
            paths = [self.workdir / f"{kind}{n}.json" for kind in ("eq", "lk", "el")]
            for stale in paths:
                stale.unlink(missing_ok=True)
            eq, lk, el = (str(p) for p in paths)
            steps = [
                ("gen-fixture",
                 ["gen-fixture", "transitive-equiv", "--n", str(n), "--m", str(m), "--output", eq],
                 lambda result, path=paths[0]: cli_failure(result) or (None if path.is_file() else "no fixture written")),
                ("validate-equivalence", ["validate", "--equivalence", eq], reports_failure),
                ("build-linking", ["build-linking", "--equivalence", eq, "--output", lk],
                 lambda result, n=n, path=paths[1]: check_linking(result, path, n * n * m + m + 2 * n * m)),
                ("validate-groupoid", ["validate", "--groupoid", lk], reports_failure),
            ]
            if n <= self.params["norm_max_n"]:
                steps.append(("kernel-dim", ["kernel-dim", "--groupoid", lk], check_kernel))
            label = fixture_label("transitive", n, m)
            for step, argv, check in steps:
                yield Op(f"{label} {step}", lambda argv=argv: run_cli(argv + seed), check)
            if n > self.params["norm_max_n"]:
                continue
            want = None  # the element and its oracle norm are drawn between ops, untimed
            if paths[1].is_file():
                tables = json.loads(paths[1].read_text(encoding="utf-8"))
                values = seeded_values((a["id"] for a in tables["arrows"]), self.seed, f"{index}:{n}")
                paths[2].write_text(element_json(values), encoding="utf-8")
                want = oracle.reduced_norm(tables, values)
            yield Op(
                f"{label} norm",
                lambda lk=lk, el=el: run_cli(["norm", "--groupoid", lk, "--element", el] + seed),
                lambda result, want=want: check_norm(result, want),
            )


def check_linking(result: CliResult, path: Path, arrows: int) -> str | None:
    failure = cli_failure(result)
    if failure:
        return failure
    found = len(json.loads(path.read_text(encoding="utf-8"))["arrows"])
    return None if found == arrows else f"linking groupoid has {found} arrows, expected {arrows}"


def element_json(values: dict[str, complex]) -> str:
    """An element on the linking groupoid in the CLI's element format.

    Numbers are written at a fixed width (17 significant digits, which read
    back exactly), so the file size, and the ``fileio.bytes`` counter, does
    not depend on the drawn values.
    """
    rows = ", ".join(f"[{json.dumps(k)}, {v.real: .16e}, {v.imag: .16e}]" for k, v in values.items())
    return f'{{"carrier": "L", "values": [{rows}]}}'


def check_kernel(result: CliResult) -> str | None:
    failure = cli_failure(result)
    if failure:
        return failure
    dim = json.loads(result.out)["kernel_dimension"]
    return None if dim == 0 else f"kernel dimension {dim}"


def check_norm(result: CliResult, want: float | None) -> str | None:
    failure = cli_failure(result)
    if failure:
        return failure
    if want is None:
        return "no linking groupoid to draw an element on"
    got = json.loads(result.out)["reduced_norm"]
    if not (isinstance(got, float) and math.isfinite(got) and oracle.agrees(got, want, NORM_REL_TOL)):
        return f"reduced norm {got!r}, oracle {want!r}"
    return None


WORKLOADS = {w.name: w for w in (CheckAll, BimoduleLaws, BuildLadder)}
