"""Command-line front end: validation, construction, norms, theorem suites.

All output is JSON on stdout (pass ``--human`` for a small table view);
diagnostics go to stderr.  Exit codes: 0 when every requested check
passes, 1 on a check failure, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .equivalence import validate_equivalence
from .errors import GroupoidalError, StructureBrokenError, UnknownIdError
from .fileio import (
    dump_equivalence,
    dump_groupoid,
    load_element,
    load_equivalence,
    load_groupoid,
    write_json,
)
from . import fixtures
from .groupoid import validate_groupoid, validate_haar, validate_weights
from .linking import build_linking, build_linking_haar
from .representations import ind_delta, operator_norm, reduced_kernel_dimension, reduced_norm
from .verify import (
    DEFAULT_SEED,
    VerifyConfig,
    verify_all,
    verify_full_projections,
    verify_imprimitivity,
    verify_theorem_main1,
    verify_universal_norm_finite,
)

__all__ = ["main", "entry_point"]

SUITES = ("main1", "imprimitivity", "fullness", "universal")


def _emit(payload: dict, human: bool) -> None:
    if not human:
        print(json.dumps(payload, sort_keys=True, indent=2))
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
    p.add_argument("--suite", choices=SUITES, help="run a single suite")
    _add_common(p)

    p = sub.add_parser("gen-fixture", help="emit a fixture from a parameterized family")
    p.add_argument(
        "family",
        choices=(
            "pair",
            "cyclic",
            "trivial",
            "scaled-pair",
            "transitive",
            "pair-trivial",
            "self",
            "transitive-equiv",
        ),
    )
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
        reports.append(validate_groupoid(Z.left_groupoid))
        reports.append(validate_haar(Z.left_groupoid, w_left))
        reports.append(validate_groupoid(Z.right_groupoid))
        reports.append(validate_haar(Z.right_groupoid, w_right))
        reports.append(validate_equivalence(Z))
    if not reports:
        print("validate: pass --groupoid and/or --equivalence", file=sys.stderr)
        return 2
    _emit({"reports": [r.to_dict() for r in reports]}, args.human)
    return 0 if all(r.ok for r in reports) else 1


def _cmd_build_linking(args) -> int:
    Z, w_left, w_right = load_equivalence(args.equivalence)
    link = build_linking(Z)
    kappa = build_linking_haar(link, w_left, w_right)
    payload = dump_groupoid(link.groupoid, kappa, sector=link.sector)
    if args.output:
        write_json(args.output, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_norm(args) -> int:
    groupoid, haar = load_groupoid(args.groupoid)
    element = load_element(args.element)
    # one pass over the arrows and the element; the full axiom check is
    # `validate`, which costs far more than a norm on large fixtures
    report = validate_weights(groupoid, haar)
    if not report.ok:
        raise StructureBrokenError(report.summary())
    unknown = sorted(key for key in element.values if not groupoid.has_arrow(key))
    if unknown:
        raise UnknownIdError(f"element has values on unknown arrow ids {unknown!r}")
    if args.unit is not None:
        value = operator_norm(ind_delta(groupoid, haar, args.unit, element))
        _emit({"unit": args.unit, "norm": value}, args.human)
    else:
        _emit({"reduced_norm": reduced_norm(element, groupoid, haar)}, args.human)
    return 0


def _cmd_kernel_dim(args) -> int:
    groupoid, haar = load_groupoid(args.groupoid)
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
    runners = {
        "main1": lambda: verify_theorem_main1(
            Z, w_left, w_right, args.samples, args.tol, args.seed
        ),
        "imprimitivity": lambda: verify_imprimitivity(
            Z, w_left, w_right, samples=args.samples, seed=args.seed
        ),
        "fullness": lambda: verify_full_projections(Z, w_left, w_right, seed=args.seed),
        "universal": lambda: verify_universal_norm_finite(
            Z, w_left, w_right, args.samples, args.tol, args.seed
        ),
    }
    report = runners[args.suite]()
    _emit(report.to_dict(), args.human)
    return 0 if report.status == "pass" else 1


def _cmd_gen_fixture(args) -> int:
    family = args.family
    if family == "pair":
        g = fixtures.pair_groupoid(args.n)
        payload = dump_groupoid(g, None)
    elif family == "cyclic":
        payload = dump_groupoid(fixtures.cyclic_group(args.n), None)
    elif family == "trivial":
        payload = dump_groupoid(fixtures.trivial_group(), None)
    elif family == "scaled-pair":
        g = fixtures.pair_groupoid(args.n)
        haar = fixtures.source_weighted_haar(
            g, {str(i): float(i) for i in range(1, args.n + 1)}
        )
        payload = dump_groupoid(g, haar)
    elif family == "transitive":
        payload = dump_groupoid(fixtures.transitive_groupoid(args.n, args.m), None)
    elif family == "pair-trivial":
        Z = fixtures.pair_trivialization(args.n)
        payload = dump_equivalence(
            Z,
            fixtures.HaarSystem.counting(Z.left_groupoid),
            fixtures.HaarSystem.counting(Z.right_groupoid),
        )
    elif family == "self":
        Z = fixtures.cyclic_self_equivalence(args.n)
        payload = dump_equivalence(
            Z,
            fixtures.HaarSystem.counting(Z.left_groupoid),
            fixtures.HaarSystem.counting(Z.right_groupoid),
        )
    else:  # transitive-equiv
        Z = fixtures.transitive_equivalence(args.n, args.m)
        payload = dump_equivalence(
            Z,
            fixtures.HaarSystem.counting(Z.left_groupoid),
            fixtures.HaarSystem.counting(Z.right_groupoid),
        )
    if args.output:
        write_json(args.output, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
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
