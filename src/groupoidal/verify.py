"""Theorem suites: each structural result becomes a named, seeded check.

Every suite samples functions with independent real and imaginary parts
uniform in [-1, 1] per arrow, driven by a fixed 32-bit linear
congruential generator, so a report is reproducible from its recorded
seed alone.  Residuals are normalized relative to ``max(1, reference)``
to avoid blowup near zero.  Structural (exact) checks always run before
numeric (tolerance) checks; a structural failure suppresses the numeric
suites entirely, since their residuals would only be noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .algebra import (
    AlgebraElement,
    blockwise_residual,
    convolve,
    involution,
    left_action,
    lip,
    op_star,
    right_action,
    rip,
)
from .equivalence import Bispace, validate_equivalence
from .errors import GroupoidalError
from .groupoid import HaarSystem, validate_groupoid, validate_haar
from .linking import LinkingGroupoid, block_compose, build_linking, build_linking_haar
from .numerics import complex_rank
from .representations import (
    gram_min_eigenvalue,
    ind_delta,
    intertwining_residual,
    r_mu_rep,
    reduced_kernel_dimension,
    reduced_norm,
    spectral_norm,
)

__all__ = [
    "DEFAULT_SEED",
    "Lcg",
    "random_element",
    "SuiteReport",
    "AggregateReport",
    "VerifyConfig",
    "verify_theorem_main1",
    "verify_imprimitivity",
    "verify_full_projections",
    "verify_universal_norm_finite",
    "verify_representation_laws",
    "verify_all",
]

DEFAULT_SEED = 0x5EED

AMENABILITY_NOTE = (
    "finite groupoids are amenable, so the universal and reduced norms coincide; "
    "this suite checks the reduced-norm consequences (norm equality, block identity, "
    "trivial kernels), which is the finite shadow of the statement, not its analytic content"
)


class Lcg:
    """Deterministic 32-bit linear congruential generator.

    Fixed constants (1664525, 1013904223) keep sample streams identical
    across platforms without pulling in any randomness library.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.state = seed & 0xFFFFFFFF

    def next_u32(self) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFFFFFF
        return self.state

    def uniform(self) -> float:
        return self.next_u32() / 4294967296.0

    def signed(self) -> float:
        return 2.0 * self.uniform() - 1.0


def random_element(carrier: str, ids: Sequence[str], rng: Lcg) -> AlgebraElement:
    """Dense sample with entries in the complex unit square, in canonical id order."""
    return AlgebraElement(
        carrier, {key: complex(rng.signed(), rng.signed()) for key in ids}
    )


@dataclass
class SuiteReport:
    suite: str
    seed: int
    samples: int
    tol: float
    max_residual: float = 0.0
    status: str = "pass"
    witness: dict | None = None
    notes: list[str] = field(default_factory=list)

    def record(self, residual: float, witness: dict) -> None:
        if residual > self.max_residual:
            self.max_residual = residual
            if residual > self.tol:
                self.witness = witness
        if residual > self.tol:
            self.status = "fail"

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _require_samples(samples: int, name: str = "samples") -> None:
    """A suite that draws no sample checks nothing, so it must not report a pass."""
    if samples < 1:
        raise ValueError(f"{name} must be at least 1, got {samples!r}")


def _zero(link: LinkingGroupoid, which: int) -> AlgebraElement:
    labels = (
        link.bispace.labels[0],
        link.bispace.labels[2],
        link.opposite.labels[2],
        link.bispace.labels[1],
    )
    return AlgebraElement.zero(labels[which])


def verify_theorem_main1(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
    link: LinkingGroupoid | None = None,
    linking_haar: HaarSystem | None = None,
) -> SuiteReport:
    """Corner norms on the linking groupoid match the standalone reduced norms.

    For sampled ``f`` on the left groupoid, the block embedding must
    have the same reduced norm; symmetrically on the right; and the two
    inner-product norms of a sampled module element must agree (the two
    candidate completions of the bimodule carry one norm).
    """
    _require_samples(samples)
    report = SuiteReport("theorem-main1", seed, samples, tol)
    G, H = Z.left_groupoid, Z.right_groupoid
    link = link if link is not None else build_linking(Z)
    kappa = (
        linking_haar
        if linking_haar is not None
        else build_linking_haar(link, w_left, w_right)
    )
    L = link.groupoid
    rng = Lcg(seed)
    for index in range(samples):
        f = random_element(Z.labels[0], G.arrow_ids, rng)
        F = block_compose(link, f, _zero(link, 1), _zero(link, 2), _zero(link, 3))
        norm_g = reduced_norm(f, G, w_left)
        norm_l = reduced_norm(F, L, kappa)
        report.record(
            abs(norm_l - norm_g) / max(1.0, norm_g),
            {"sample": index, "side": "left", "norm_corner": norm_l, "norm_alone": norm_g},
        )

        b = random_element(Z.labels[1], H.arrow_ids, rng)
        B = block_compose(link, _zero(link, 0), _zero(link, 1), _zero(link, 2), b)
        norm_h = reduced_norm(b, H, w_right)
        norm_l = reduced_norm(B, L, kappa)
        report.record(
            abs(norm_l - norm_h) / max(1.0, norm_h),
            {"sample": index, "side": "right", "norm_corner": norm_l, "norm_alone": norm_h},
        )

        phi = random_element(Z.labels[2], Z.points, rng)
        norm_right = reduced_norm(rip(phi, phi, Z, w_left), H, w_right)
        norm_left = reduced_norm(lip(phi, phi, Z, w_right), G, w_left)
        report.record(
            abs(norm_right - norm_left) / max(1.0, norm_left),
            {
                "sample": index,
                "side": "module",
                "norm_right_inner": norm_right,
                "norm_left_inner": norm_left,
            },
        )
    return report


def verify_imprimitivity(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    samples: int = 100,
    tol: float = 1e-10,
    adjoint_tol: float = 1e-12,
    gram_tol: float = 1e-10,
    seed: int = DEFAULT_SEED,
    inner_right=rip,
) -> SuiteReport:
    """Bimodule laws on sampled elements, plus Gram positivity.

    ``tol`` bounds the imprimitivity identity residual; algebraic laws
    (associativity, anti-multiplicativity, bimodule compatibility,
    adjoint relations) are held to ``adjoint_tol``; the represented Gram
    blocks may not dip below ``-gram_tol``.  The right inner product is
    injectable so fault-injection tests can flip its sign.
    """
    _require_samples(samples)
    report = SuiteReport("imprimitivity", seed, samples, 1.0)
    report.notes.append(
        "residuals are relative to each law's own bound: "
        f"identity={tol!r} algebraic={adjoint_tol!r} gram={gram_tol!r}"
    )
    G, H = Z.left_groupoid, Z.right_groupoid
    rng = Lcg(seed)

    def law(residual: float, name: str, index: int, bound: float) -> None:
        report.record(
            residual / bound, {"sample": index, "law": name, "residual": residual}
        )

    for index in range(samples):
        f1 = random_element(Z.labels[0], G.arrow_ids, rng)
        f2 = random_element(Z.labels[0], G.arrow_ids, rng)
        f3 = random_element(Z.labels[0], G.arrow_ids, rng)
        b1 = random_element(Z.labels[1], H.arrow_ids, rng)
        b2 = random_element(Z.labels[1], H.arrow_ids, rng)
        phi = random_element(Z.labels[2], Z.points, rng)
        psi = random_element(Z.labels[2], Z.points, rng)
        chi = random_element(Z.labels[2], Z.points, rng)

        assoc = convolve(convolve(f1, f2, G, w_left), f3, G, w_left).distance(
            convolve(f1, convolve(f2, f3, G, w_left), G, w_left)
        )
        law(assoc, "associativity-left", index, adjoint_tol)
        assoc_h = convolve(convolve(b1, b2, H, w_right), b2, H, w_right).distance(
            convolve(b1, convolve(b2, b2, H, w_right), H, w_right)
        )
        law(assoc_h, "associativity-right", index, adjoint_tol)
        anti = involution(convolve(f1, f2, G, w_left), G).distance(
            convolve(involution(f2, G), involution(f1, G), G, w_left)
        )
        law(anti, "involution-antimultiplicative", index, adjoint_tol)

        bimod = right_action(left_action(f1, phi, Z, w_left), b1, Z, w_right).distance(
            left_action(f1, right_action(phi, b1, Z, w_right), Z, w_left)
        )
        law(bimod, "bimodule-compatibility", index, adjoint_tol)

        adj_r = inner_right(left_action(f1, phi, Z, w_left), psi, Z, w_left).distance(
            inner_right(phi, left_action(involution(f1, G), psi, Z, w_left), Z, w_left)
        )
        law(adj_r, "right-inner-adjoint", index, adjoint_tol)
        adj_l = lip(right_action(phi, b1, Z, w_right), psi, Z, w_right).distance(
            lip(phi, right_action(psi, involution(b1, H), Z, w_right), Z, w_right)
        )
        law(adj_l, "left-inner-adjoint", index, adjoint_tol)

        imprim = right_action(phi, inner_right(psi, chi, Z, w_left), Z, w_right).distance(
            left_action(lip(phi, psi, Z, w_right), chi, Z, w_left)
        )
        law(imprim, "imprimitivity-identity", index, tol)

    gram_rounds = max(1, samples // 10)
    worst_low = 0.0
    for round_index in range(gram_rounds):
        phis = [random_element(Z.labels[2], Z.points, rng) for _ in range(3)]
        low = gram_min_eigenvalue(Z, w_left, w_right, phis, inner=inner_right)
        worst_low = min(worst_low, low)
        report.record(
            max(0.0, -low) / gram_tol,
            {"round": round_index, "law": "gram-positivity", "min_eigenvalue": low},
        )
    report.notes.append(f"gram worst min_eigenvalue={worst_low!r}")
    return report


def verify_full_projections(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    generators: int | None = None,
    pivot_tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Corner products span every carrier: ranks must equal carrier dimensions.

    Sweeps ``generators`` random factor pairs through the compressed
    product and row-reduces each family.  A deficient rank with fewer
    generators than the carrier dimension is reported as undersampled,
    not failed.
    """
    import numpy as np

    from .equivalence import opposite_space

    G, H = Z.left_groupoid, Z.right_groupoid
    zop = opposite_space(Z)
    zop_points = zop.points
    dims = {
        "G": len(G.arrows),
        "Z": len(Z.points),
        "Zop": len(Z.points),
        "H": len(H.arrows),
    }
    count = generators if generators is not None else max(dims.values()) + 4
    _require_samples(count, "generators")
    report = SuiteReport("full-projections", seed, count, float(pivot_tol))
    rng = Lcg(seed)
    families: dict[str, list[AlgebraElement]] = {"G": [], "Z": [], "Zop": [], "H": []}
    for _ in range(count):
        f11 = random_element(Z.labels[0], G.arrow_ids, rng)
        k11 = random_element(Z.labels[0], G.arrow_ids, rng)
        k12 = random_element(Z.labels[2], Z.points, rng)
        f21 = random_element(zop.labels[2], zop_points, rng)
        families["G"].append(convolve(f11, k11, G, w_left))
        families["Z"].append(left_action(f11, k12, Z, w_left))
        families["Zop"].append(right_action(f21, k11, zop, w_left))
        families["H"].append(rip(op_star(f21), k12, Z, w_left))
    ids = {
        "G": G.arrow_ids,
        "Z": Z.points,
        "Zop": zop_points,
        "H": H.arrow_ids,
    }
    ranks = {}
    for name, elements in families.items():
        order = ids[name]
        matrix = np.array(
            [[e.get(key) for key in order] for e in elements], dtype=np.complex128
        )
        ranks[name] = complex_rank(matrix, pivot_tol)
    report.notes.append(f"ranks={ranks!r} dims={dims!r}")
    deficient = {name for name in dims if ranks[name] < dims[name]}
    if deficient:
        if count < max(dims[name] for name in deficient):
            report.status = "undersampled"
        else:
            report.status = "fail"
        report.max_residual = 1.0
        report.witness = {"ranks": ranks, "dims": dims}
    return report


def verify_universal_norm_finite(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    samples: int = 100,
    tol: float = 1e-9,
    seed: int = DEFAULT_SEED,
    link: LinkingGroupoid | None = None,
    linking_haar: HaarSystem | None = None,
) -> SuiteReport:
    """The finite shadow of the universal-norm statements.

    Asserts the corner norm equality, the block against direct product
    identity on sampled pairs, and that every per-unit kernel is zero on
    both groupoids and the linking groupoid (both sides of the ideal
    correspondence vanish at finite scale).
    """
    _require_samples(samples)
    report = SuiteReport("universal-norm-finite", seed, samples, tol)
    report.notes.append(AMENABILITY_NOTE)
    link = link if link is not None else build_linking(Z)
    kappa = (
        linking_haar
        if linking_haar is not None
        else build_linking_haar(link, w_left, w_right)
    )
    L = link.groupoid

    norm_part = verify_theorem_main1(
        Z, w_left, w_right, samples=samples, tol=tol, seed=seed, link=link, linking_haar=kappa
    )
    report.max_residual = norm_part.max_residual
    if norm_part.status != "pass":
        report.status = "fail"
        report.witness = norm_part.witness

    rng = Lcg(seed)
    block_tol = 1e-12
    for index in range(samples):
        F = random_element("L", L.arrow_ids, rng)
        K = random_element("L", L.arrow_ids, rng)
        _, residual, worst = blockwise_residual(F, K, link, w_left, w_right, kappa)
        if residual > block_tol:
            report.status = "fail"
            report.max_residual = max(report.max_residual, residual)
            report.witness = {"sample": index, "law": "block-identity", "arrow": worst}

    kernels = {
        "G": reduced_kernel_dimension(Z.left_groupoid, w_left),
        "H": reduced_kernel_dimension(Z.right_groupoid, w_right),
        "L": reduced_kernel_dimension(L, kappa),
    }
    report.notes.append(f"kernel_dimensions={kernels!r}")
    if any(kernels.values()):
        report.status = "fail"
        report.witness = {"law": "kernel-triviality", "kernel_dimensions": kernels}
    return report


def verify_representation_laws(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    samples: int = 25,
    tol: float = 1e-12,
    norm_slack: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Per-unit representations are star homomorphisms; orbit models agree.

    Checks multiplicativity and adjoint compatibility of the per-unit
    matrices, the orbit-transport identity, domination of orbit norms by
    the reduced norm, and the I-norm bound.
    """
    from .groupoid import i_norm

    _require_samples(samples)
    report = SuiteReport("representation-laws", seed, samples, tol)
    G = Z.left_groupoid
    X = Z.left_space
    rng = Lcg(seed)
    full_mu = {orbit[0]: 1.0 for orbit in X.orbits()}
    for index in range(samples):
        f = random_element(Z.labels[0], G.arrow_ids, rng)
        g = random_element(Z.labels[0], G.arrow_ids, rng)
        fg = convolve(f, g, G, w_left)
        fstar = involution(f, G)
        for u in G.units:
            mf = ind_delta(G, w_left, u, f)
            mg = ind_delta(G, w_left, u, g)
            mfg = ind_delta(G, w_left, u, fg)
            hom = float(abs(mfg.entries - mf.entries @ mg.entries).max() or 0.0)
            report.record(hom, {"sample": index, "law": "multiplicative", "unit": u})
            mstar = ind_delta(G, w_left, u, fstar)
            adj = float(abs(mstar.entries - mf.entries.conj().T).max() or 0.0)
            report.record(adj, {"sample": index, "law": "star", "unit": u})
        x0 = Z.points[0]
        report.record(
            intertwining_residual(X, w_left, x0, f),
            {"sample": index, "law": "orbit-transport", "point": x0},
        )
        norm_reduced = reduced_norm(f, G, w_left)
        norm_orbit = spectral_norm(r_mu_rep(X, w_left, full_mu, f).entries)
        if norm_orbit > norm_reduced + norm_slack:
            report.record(
                abs(norm_orbit - norm_reduced),
                {"sample": index, "law": "orbit-dominated", "orbit": norm_orbit},
            )
        bound = i_norm(f, G, w_left)
        if norm_reduced > bound + 1e-10:
            report.record(
                abs(norm_reduced - bound),
                {"sample": index, "law": "i-norm-bound", "i_norm": bound},
            )
    return report


# --- aggregation ------------------------------------------------------------


@dataclass
class VerifyConfig:
    samples: int = 100
    tol: float = 1e-9
    seed: int = DEFAULT_SEED
    generators: int | None = None
    w_left: HaarSystem | None = None
    w_right: HaarSystem | None = None


@dataclass
class AggregateReport:
    status: str
    seed: int
    structural: list[dict] = field(default_factory=list)
    suites: list[SuiteReport] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "seed": self.seed,
            "structural": self.structural,
            "suites": [s.to_dict() for s in self.suites],
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def verify_all(Z: Bispace | None, config: VerifyConfig | None = None) -> AggregateReport:
    """Run the structural validators, then every theorem suite, and aggregate.

    Structural failures short-circuit the numeric suites.  An empty or
    missing bispace is a configuration error, reported as such.
    """
    config = config or VerifyConfig()
    _require_samples(config.samples)
    if Z is None or not Z.points:
        return AggregateReport(
            status="error", seed=config.seed, error="empty bispace configuration"
        )
    w_left = config.w_left or HaarSystem.counting(Z.left_groupoid)
    w_right = config.w_right or HaarSystem.counting(Z.right_groupoid)

    aggregate = AggregateReport(status="pass", seed=config.seed)
    structural = [
        ("left-groupoid", validate_groupoid(Z.left_groupoid)),
        ("left-haar", validate_haar(Z.left_groupoid, w_left)),
        ("right-groupoid", validate_groupoid(Z.right_groupoid)),
        ("right-haar", validate_haar(Z.right_groupoid, w_right)),
        ("equivalence", validate_equivalence(Z)),
    ]
    for name, rep in structural:
        entry = rep.to_dict()
        entry["stage"] = name
        aggregate.structural.append(entry)
        if not rep.ok:
            aggregate.status = "fail"
            aggregate.error = f"structural stage {name!r} failed; numeric suites skipped"
            return aggregate

    try:
        link = build_linking(Z)
        kappa = build_linking_haar(link, w_left, w_right)
    except GroupoidalError as exc:
        aggregate.status = "fail"
        aggregate.error = f"linking construction failed: {exc}"
        return aggregate
    for name, rep in (
        ("linking-groupoid", validate_groupoid(link.groupoid)),
        ("linking-haar", validate_haar(link.groupoid, kappa)),
    ):
        entry = rep.to_dict()
        entry["stage"] = name
        aggregate.structural.append(entry)
        if not rep.ok:
            aggregate.status = "fail"
            aggregate.error = f"structural stage {name!r} failed; numeric suites skipped"
            return aggregate

    aggregate.suites.append(
        verify_theorem_main1(
            Z, w_left, w_right, config.samples, config.tol, config.seed, link, kappa
        )
    )
    aggregate.suites.append(
        verify_imprimitivity(
            Z, w_left, w_right, samples=max(10, config.samples // 4), seed=config.seed
        )
    )
    aggregate.suites.append(
        verify_full_projections(
            Z, w_left, w_right, generators=config.generators, seed=config.seed
        )
    )
    aggregate.suites.append(
        verify_universal_norm_finite(
            Z,
            w_left,
            w_right,
            samples=max(10, config.samples // 4),
            tol=config.tol,
            seed=config.seed,
            link=link,
            linking_haar=kappa,
        )
    )
    aggregate.suites.append(
        verify_representation_laws(
            Z, w_left, w_right, samples=max(5, config.samples // 10), seed=config.seed
        )
    )
    if any(s.status != "pass" for s in aggregate.suites):
        aggregate.status = "fail"
    return aggregate
