"""Command-line front end: validation, construction, norms, theorem suites.

All output is JSON on stdout (pass ``--human`` for a small table view);
diagnostics go to stderr.  Exit codes: 0 when every requested check
passes, 1 on a check failure, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import sys

from .errors import GroupoidalError, StructureBrokenError
from .fileio import (
    dump_equivalence,
    dump_groupoid,
    json_text,
    load_element,
    load_equivalence,
    load_groupoid,
    write_json,
)
from . import fixtures
from .groupoid import HaarSystem, validate_groupoid, validate_haar, validate_weights
from .linking import build_linking, build_linking_haar
from .representations import ind_delta, operator_norm, reduced_kernel_dimension, reduced_norm
from .verify import DEFAULT_SEED, SUITES, VerifyConfig, input_stages, run_suite, verify_all

__all__ = ["main", "entry_point"]


def _emit(payload: dict, human: bool) -> None:
    if not human:
        print(json_text(payload))
        return
    if "suites" in payload:
        print(f"status: {payload['status']}")
        for stage in payload.get("structural", []):
            print(f"  structural {stage['stage']}: {'ok' if stage['ok'] else 'FAILED'}")
        for suite in payload.get("suites", []):
            print(
                f"  suite {suite['suite']}: {suite['status']}"
                f" (max residual {suite['max_residual']:.3e}, tol {suite['tol']:.1e})"
            )
        if payload.get("error"):
            print(f"  error: {payload['error']}")
    elif "reports" in payload:
        for rep in payload["reports"]:
            mark = "ok" if rep["ok"] else "FAILED"
            print(f"{rep['subject']}: {mark}")
            for violation in rep["violations"]:
                print(f"  [{violation['rule']}] {violation['message']}")
    else:
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")


def _write_or_print(output: str | None, payload: dict) -> None:
    if output:
        write_json(output, payload)
    else:
        print(json_text(payload))


def _counting_equivalence(Z) -> dict:
    return dump_equivalence(
        Z, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)
    )


def _scaled_pair(n: int) -> dict:
    g = fixtures.pair_groupoid(n)
    haar = fixtures.source_weighted_haar(g, {str(i): float(i) for i in range(1, n + 1)})
    return dump_groupoid(g, haar)


# gen-fixture family -> payload builder taking (n, m)
_FAMILIES = {
    "pair": lambda n, m: dump_groupoid(fixtures.pair_groupoid(n)),
    "cyclic": lambda n, m: dump_groupoid(fixtures.cyclic_group(n)),
    "trivial": lambda n, m: dump_groupoid(fixtures.trivial_group()),
    "scaled-pair": lambda n, m: _scaled_pair(n),
    "transitive": lambda n, m: dump_groupoid(fixtures.transitive_groupoid(n, m)),
    "pair-trivial": lambda n, m: _counting_equivalence(fixtures.pair_trivialization(n)),
    "self": lambda n, m: _counting_equivalence(fixtures.cyclic_self_equivalence(n)),
    "transitive-equiv": lambda n, m: _counting_equivalence(fixtures.transitive_equivalence(n, m)),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="numeric tolerance")
    parser.add_argument("--samples", type=int, default=100, help="seeded samples per check")
    parser.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="sample seed (accepts hex, default 0x5EED)",
    )
    parser.add_argument("--human", action="store_true", help="tabular output instead of JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoidal",
        description="Finite-groupoid workbench: validate fixtures, build linking "
        "groupoids, compute reduced norms, and run the theorem suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check groupoid/Haar/equivalence axioms")
    p.add_argument("--groupoid", help="groupoid fixture file")
    p.add_argument("--equivalence", help="equivalence fixture file")
    _add_common(p)

    p = sub.add_parser("build-linking", help="emit the linking groupoid of an equivalence")
    p.add_argument("--equivalence", required=True)
    p.add_argument("--output", help="write here instead of stdout")
    _add_common(p)

    p = sub.add_parser("norm", help="reduced norm of an element, or one unit's norm")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--unit", help="restrict to the representation over this unit")
    _add_common(p)

    p = sub.add_parser("kernel-dim", help="joint kernel dimension of all representations")
    p.add_argument("--groupoid", required=True)
    _add_common(p)

    p = sub.add_parser("check", help="run theorem suites on an equivalence")
    p.add_argument("--equivalence", required=True)
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--suite", choices=tuple(SUITES), help="run a single suite")
    _add_common(p)

    p = sub.add_parser("gen-fixture", help="emit a fixture from a parameterized family")
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("--n", type=int, default=2, help="points or group order")
    p.add_argument("--m", type=int, default=2, help="isotropy order (transitive families)")
    p.add_argument("--output", help="write here instead of stdout")
    _add_common(p)
    return parser


def _cmd_validate(args) -> int:
    reports = []
    if args.groupoid:
        groupoid, haar = load_groupoid(args.groupoid)
        reports.append(validate_groupoid(groupoid))
        reports.append(validate_haar(groupoid, haar))
    if args.equivalence:
        Z, w_left, w_right = load_equivalence(args.equivalence)
        reports.extend(check() for _, check in input_stages(Z, w_left, w_right))
    if not reports:
        print("validate: pass --groupoid and/or --equivalence", file=sys.stderr)
        return 2
    _emit({"reports": [r.to_dict() for r in reports]}, args.human)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_build_linking(args) -> int:
    Z, w_left, w_right = load_equivalence(args.equivalence)
    link = build_linking(Z)
    kappa = build_linking_haar(link, w_left, w_right)
    _write_or_print(args.output, dump_groupoid(link.groupoid, kappa, sector=link.sector))
    return 0


def _load_checked_groupoid(path: str):
    """Load a groupoid and refuse it unless its axioms hold and its weights are usable.

    Left invariance is left to ``reduced_norm``'s own exact guard.
    """
    groupoid, haar = load_groupoid(path)
    for report in (validate_groupoid(groupoid), validate_weights(groupoid, haar)):
        if not report.ok:
            raise StructureBrokenError(report.summary())
    return groupoid, haar


def _cmd_norm(args) -> int:
    groupoid, haar = _load_checked_groupoid(args.groupoid)
    element = load_element(args.element)
    if args.unit is not None:
        value = operator_norm(ind_delta(groupoid, haar, args.unit, element))
        _emit({"unit": args.unit, "norm": value}, args.human)
    else:
        _emit({"reduced_norm": reduced_norm(element, groupoid, haar)}, args.human)
    return 0


def _cmd_kernel_dim(args) -> int:
    groupoid, haar = _load_checked_groupoid(args.groupoid)
    _emit({"kernel_dimension": reduced_kernel_dimension(groupoid, haar)}, args.human)
    return 0


def _cmd_check(args) -> int:
    Z, w_left, w_right = load_equivalence(args.equivalence)
    if args.all or args.suite is None:
        config = VerifyConfig(
            samples=args.samples, tol=args.tol, seed=args.seed, w_left=w_left, w_right=w_right
        )
        aggregate = verify_all(Z, config)
        _emit(aggregate.to_dict(), args.human)
        if aggregate.status == "error":
            return 2
        return 0 if aggregate.status == "pass" else 1
    report = run_suite(args.suite, Z, w_left, w_right, args.samples, args.tol, args.seed)
    _emit(report.to_dict(), args.human)
    return 0 if report.status == "pass" else 1


def _cmd_gen_fixture(args) -> int:
    _write_or_print(args.output, _FAMILIES[args.family](args.n, args.m))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    handlers = {
        "validate": _cmd_validate,
        "build-linking": _cmd_build_linking,
        "norm": _cmd_norm,
        "kernel-dim": _cmd_kernel_dim,
        "check": _cmd_check,
        "gen-fixture": _cmd_gen_fixture,
    }
    try:
        return handlers[args.command](args)
    except GroupoidalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:  # console script hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
