"""Theorem suites: each structural result becomes a named, seeded check.

Every suite samples functions with independent real and imaginary parts
uniform in [-1, 1] per arrow, driven by a fixed 32-bit linear
congruential generator, so a report is reproducible from its recorded
seed alone.  Every suite draws its samples in blocks of up to ``BLOCK``
with one ``Lcg.signed_block`` call, in the order one sample at a time
would draw them, and evaluates each algebra map on the whole block of
dense values (the ``*_block`` maps of ``algebra``); each per-unit matrix
family of a block is assembled and solved as one stack.  Residuals are
recorded in sample order, so a report does not depend on the block
size.  Residuals are normalized relative to ``max(1, reference)`` to
avoid blowup near zero, and a NaN residual counts as infinite.
Structural (exact) checks always run before numeric (tolerance)
checks; a structural failure suppresses the numeric suites entirely,
since their residuals would only be noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    blockwise_residuals,
    convolve_block,
    entry_gaps,
    involution_block,
    left_action_block,
    lip_block,
    right_action_block,
    rip,  # noqa: F401 -- bench/tests/test_bench.py reads verify.rip
    rip_block,
)
from .equivalence import Bispace, validate_equivalence
from .errors import GroupoidalError, NonFiniteError, StructureBrokenError
from .fileio import json_text
from .groupoid import HaarSystem, ValidationReport, validate_groupoid, validate_haar
from .linking import LinkingGroupoid, build_linking, build_linking_haar
from .numerics import complex_rank
from .representations import (
    gram_min_eigenvalue,
    intertwining_residual,
    r_mu_rep,
    reduced_kernel_dimension,
    reduced_norm,  # noqa: F401 -- bench/tests/test_bench.py patches verify.reduced_norm
    reduced_norms,
    spectral_norm,
    unit_stacks,
)

__all__ = [
    "DEFAULT_SEED",
    "Lcg",
    "random_element",
    "SuiteReport",
    "AggregateReport",
    "VerifyConfig",
    "SUITES",
    "input_stages",
    "structural_gate",
    "run_suite",
    "verify_theorem_main1",
    "verify_imprimitivity",
    "verify_full_projections",
    "verify_universal_norm_finite",
    "verify_representation_laws",
    "verify_all",
]

DEFAULT_SEED = 0x5EED

# samples per block: the suites draw and evaluate a block of samples at
# once and solve each of its norm families in one batched call; the
# block bounds the memory of the arrays and stacks
BLOCK = 128

IMPRIMITIVITY_LAWS = (
    "associativity-left",
    "associativity-right",
    "involution-antimultiplicative",
    "bimodule-compatibility",
    "right-inner-adjoint",
    "left-inner-adjoint",
    "imprimitivity-identity",
)

AMENABILITY_NOTE = (
    "finite groupoids are amenable, so the universal and reduced norms coincide; "
    "this suite checks the reduced-norm consequences (the block identity, held to 1e-12, "
    "and trivial kernels), which is the finite shadow of the statement, not its analytic content"
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

    def signed_block(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``signed()``, bit for bit, as one float array.

        State ``k`` steps ahead is ``A_k * state + C_k`` modulo 2**32; the
        jump constants come from ``_jumps`` and every product stays below
        2**64, so ``uint64`` arithmetic is exact.
        """
        multipliers, increments = _jumps(count)
        states = (multipliers * np.uint64(self.state) + increments) & np.uint64(0xFFFFFFFF)
        if count:
            self.state = int(states[-1])
        return 2.0 * (states / 4294967296.0) - 1.0


def _jumps(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``A_k`` and ``C_k`` for ``k = 1 .. count``: ``k`` steps of ``Lcg`` map a state
    ``s`` to ``(A_k s + C_k) mod 2**32``."""
    a, c = _jump_table(max(0, count - 1).bit_length())
    return a[:count], c[:count]


@lru_cache(maxsize=None)
def _jump_table(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The jump constants for ``k = 1 .. 2**bits``, read-only.

    Built by doubling: ``A_{m+k} = A_k A_m`` and ``C_{m+k} = A_k C_m + C_k``.
    """
    if bits == 0:
        a = np.array([1664525], dtype=np.uint64)
        c = np.array([1013904223], dtype=np.uint64)
    else:
        half_a, half_c = _jump_table(bits - 1)
        mask = np.uint64(0xFFFFFFFF)
        a = np.concatenate([half_a, (half_a * half_a[-1]) & mask])
        c = np.concatenate([half_c, (half_a * half_c[-1] + half_c) & mask])
    a.flags.writeable = c.flags.writeable = False
    return a, c


def random_element(carrier: str, ids: Sequence[str], rng: Lcg) -> AlgebraElement:
    """Dense sample with entries in the complex unit square, in canonical id order.

    Each entry takes two draws, real part first; this is the one-element
    case of ``_draw``.
    """
    values = rng.signed_block(2 * len(ids)).view(np.complex128)
    return AlgebraElement(carrier, dict(zip(ids, values.tolist())))


def _draw(rng: Lcg, samples: int, *sizes: int) -> list[np.ndarray]:
    """``samples`` samples, each drawing one element per size in turn as
    ``random_element`` would: one ``(samples, size)`` complex block per size."""
    width = 2 * sum(sizes)
    draws = rng.signed_block(samples * width).reshape(samples, width)
    ends = np.cumsum([0, *(2 * n for n in sizes)])
    return [
        np.ascontiguousarray(draws[:, start:end]).view(np.complex128)
        for start, end in zip(ends[:-1], ends[1:])
    ]


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
        if residual != residual:  # NaN: no comparison below would see it
            residual = math.inf
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
        return json_text(self.to_dict())


def _blocks(samples: int) -> Iterator[range]:
    """The sample indices in consecutive blocks of at most ``BLOCK``."""
    return (range(start, min(samples, start + BLOCK)) for start in range(0, samples, BLOCK))


def _require_samples(samples: int, name: str = "samples") -> None:
    """A suite that draws no sample checks nothing, so it must not report a pass."""
    if samples < 1:
        raise ValueError(f"{name} must be at least 1, got {samples!r}")


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
    sizes = (len(G.arrows), len(H.arrows), len(Z.points))
    left_corner, _, _, right_corner = link.sector_positions
    for indices in _blocks(samples):
        fs, bs, phis = _draw(rng, len(indices), *sizes)
        Fs = np.zeros((len(indices), len(L.arrows)), dtype=np.complex128)
        Fs[:, left_corner] = fs
        Bs = np.zeros_like(Fs)
        Bs[:, right_corner] = bs
        norms = zip(
            indices,
            reduced_norms(fs, G, w_left),
            reduced_norms(Fs, L, kappa),
            reduced_norms(bs, H, w_right),
            reduced_norms(Bs, L, kappa),
            reduced_norms(rip_block(phis, phis, Z, w_left), H, w_right),
            reduced_norms(lip_block(phis, phis, Z, w_right), G, w_left),
        )
        for index, norm_g, norm_lf, norm_h, norm_lb, norm_right, norm_left in norms:
            report.record(
                abs(norm_lf - norm_g) / max(1.0, norm_g),
                {"sample": index, "side": "left", "norm_corner": norm_lf, "norm_alone": norm_g},
            )
            report.record(
                abs(norm_lb - norm_h) / max(1.0, norm_h),
                {"sample": index, "side": "right", "norm_corner": norm_lb, "norm_alone": norm_h},
            )
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
    inner_right=rip_block,
) -> SuiteReport:
    """Bimodule laws on sampled elements, plus Gram positivity.

    ``tol`` bounds the imprimitivity identity residual; algebraic laws
    (associativity, anti-multiplicativity, bimodule compatibility,
    adjoint relations) are held to ``adjoint_tol``; the represented Gram
    blocks may not dip below ``-gram_tol``.  The right inner product is
    injectable, with ``rip_block``'s signature, so fault-injection tests
    can flip its sign.
    """
    _require_samples(samples)
    report = SuiteReport("imprimitivity", seed, samples, 1.0)
    report.notes.append(
        "residuals are relative to each law's own bound: "
        f"identity={tol!r} algebraic={adjoint_tol!r} gram={gram_tol!r}"
    )
    G, H = Z.left_groupoid, Z.right_groupoid
    rng = Lcg(seed)
    bounds = (adjoint_tol,) * 6 + (tol,)

    def conv_g(f, g):
        return convolve_block(f, g, G, w_left)

    def conv_h(b, c):
        return convolve_block(b, c, H, w_right)

    def left(f, phi):
        return left_action_block(f, phi, Z, w_left)

    def right(phi, b):
        return right_action_block(phi, b, Z, w_right)

    for indices in _blocks(samples):
        f1, f2, f3, b1, b2, phi, psi, chi = _draw(
            rng, len(indices), *(len(G.arrows),) * 3, *(len(H.arrows),) * 2, *(len(Z.points),) * 3
        )
        star_f1, star_b1 = involution_block(f1, G), involution_block(b1, H)
        gaps = (
            entry_gaps(conv_g(conv_g(f1, f2), f3), conv_g(f1, conv_g(f2, f3))),
            entry_gaps(conv_h(conv_h(b1, b2), b2), conv_h(b1, conv_h(b2, b2))),
            entry_gaps(
                involution_block(conv_g(f1, f2), G),
                conv_g(involution_block(f2, G), star_f1),
            ),
            entry_gaps(right(left(f1, phi), b1), left(f1, right(phi, b1))),
            entry_gaps(
                inner_right(left(f1, phi), psi, Z, w_left),
                inner_right(phi, left(star_f1, psi), Z, w_left),
            ),
            entry_gaps(
                lip_block(right(phi, b1), psi, Z, w_right),
                lip_block(phi, right(psi, star_b1), Z, w_right),
            ),
            entry_gaps(
                right(phi, inner_right(psi, chi, Z, w_left)),
                left(lip_block(phi, psi, Z, w_right), chi),
            ),
        )
        residuals = np.stack([g.max(axis=1, initial=0.0) for g in gaps], axis=1).tolist()
        for index, row in zip(indices, residuals):
            for law, bound, residual in zip(IMPRIMITIVITY_LAWS, bounds, row):
                report.record(residual / bound, {"sample": index, "law": law, "residual": residual})

    gram_rounds = max(1, samples // 10)
    (phis,) = _draw(rng, 3 * gram_rounds, len(Z.points))
    worst_low = 0.0
    for round_index in range(gram_rounds):
        low = gram_min_eigenvalue(
            Z, w_left, w_right, phis[3 * round_index : 3 * round_index + 3], inner=inner_right
        )
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
    from .equivalence import opposite_space

    G, H = Z.left_groupoid, Z.right_groupoid
    zop = opposite_space(Z)
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
    families: dict[str, list[np.ndarray]] = {"G": [], "Z": [], "Zop": [], "H": []}
    for indices in _blocks(count):
        f11, k11, k12, f21 = _draw(rng, len(indices), dims["G"], dims["G"], dims["Z"], dims["Zop"])
        families["G"].append(convolve_block(f11, k11, G, w_left))
        families["Z"].append(left_action_block(f11, k12, Z, w_left))
        families["Zop"].append(right_action_block(f21, k11, zop, w_left))
        families["H"].append(rip_block(f21.conj(), k12, Z, w_left))  # op_star(f21) on Z
    ranks = {name: complex_rank(np.concatenate(blocks), pivot_tol) for name, blocks in families.items()}
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

    Asserts the block against direct product identity on sampled pairs
    (held to 1e-12, whatever ``tol`` the report states) and that every
    per-unit kernel is zero on both groupoids and the linking groupoid
    (both sides of the ideal correspondence vanish at finite scale).
    The corner norm equality is ``verify_theorem_main1``'s alone.
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

    rng = Lcg(seed)
    block_tol = 1e-12
    for indices in _blocks(samples):
        F, K = _draw(rng, len(indices), len(L.arrows), len(L.arrows))
        _, residuals, worst = blockwise_residuals(F, K, link, w_left, w_right, kappa)
        for index, residual, arrow in zip(indices, residuals, worst):
            report.max_residual = max(report.max_residual, residual)
            if residual > block_tol:
                report.status = "fail"
                report.witness = {"sample": index, "law": "block-identity", "arrow": arrow}

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
    for indices in _blocks(samples):
        fs, gs = _draw(rng, len(indices), len(G.arrows), len(G.arrows))
        products = convolve_block(fs, gs, G, w_left)
        stars = involution_block(fs, G)
        laws = []  # per unit: the multiplicative and the star residual of each sample
        for _, stack in unit_stacks(G, w_left, G.units, np.concatenate([fs, gs, products, stars])):
            mf, mg, mfg, mstar = stack.reshape(4, len(fs), *stack.shape[1:])
            # an overflow gives a non-finite residual, and that fails the suite
            with np.errstate(all="ignore"):
                hom = np.abs(mfg - mf @ mg).max(axis=(1, 2))
                adj = np.abs(mstar - mf.conj().transpose(0, 2, 1)).max(axis=(1, 2))
            laws.append((hom.tolist(), adj.tolist()))
        reduced = reduced_norms(fs, G, w_left)
        for i, (index, norm_reduced) in enumerate(zip(indices, reduced)):
            for u, (hom, adj) in zip(G.units, laws):
                report.record(hom[i], {"sample": index, "law": "multiplicative", "unit": u})
                report.record(adj[i], {"sample": index, "law": "star", "unit": u})
            f = AlgebraElement(Z.labels[0], dict(zip(G.arrow_ids, fs[i].tolist())))
            x0 = Z.points[0]
            report.record(
                intertwining_residual(X, w_left, x0, f),
                {"sample": index, "law": "orbit-transport", "point": x0},
            )
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


# --- the structural gate and the suite registry -----------------------------


def input_stages(
    Z: Bispace, w_left: HaarSystem, w_right: HaarSystem
) -> tuple[tuple[str, Callable[[], ValidationReport]], ...]:
    """The gate's input checks in order, each run only when it is called."""
    return (
        ("left-groupoid", lambda: validate_groupoid(Z.left_groupoid)),
        ("left-haar", lambda: validate_haar(Z.left_groupoid, w_left)),
        ("right-groupoid", lambda: validate_groupoid(Z.right_groupoid)),
        ("right-haar", lambda: validate_haar(Z.right_groupoid, w_right)),
        ("equivalence", lambda: validate_equivalence(Z)),
    )


def structural_gate(
    Z: Bispace, w_left: HaarSystem, w_right: HaarSystem, structural: list[dict]
) -> tuple[LinkingGroupoid, HaarSystem]:
    """Run the input stages, then build the linking groupoid and its Haar system.

    Appends one entry per stage that ran to ``structural``; the linking
    entries are the self-checks ``build_linking`` and ``build_linking_haar``
    ran.  Raises ``StructureBrokenError`` at the first failing stage.
    """
    for stage, check in input_stages(Z, w_left, w_right):
        report = check()
        structural.append({**report.to_dict(), "stage": stage})
        if not report.ok:
            raise StructureBrokenError(
                f"structural stage {stage!r} failed; numeric suites skipped\n{report.summary()}"
            )
    try:
        link = build_linking(Z)
        kappa = build_linking_haar(link, w_left, w_right)
    except GroupoidalError as exc:
        raise StructureBrokenError(f"linking construction failed: {exc}") from exc
    for stage, report in (("linking-groupoid", link.self_check), ("linking-haar", kappa.self_check)):
        structural.append({**report.to_dict(), "stage": stage})
    return link, kappa


class Suite(NamedTuple):
    """A registered suite: its runner, and the samples ``verify_all`` gives it."""

    # takes verify_theorem_main1's arguments: (Z, w_left, w_right, samples,
    # tol, seed, link, linking_haar)
    run: Callable[..., SuiteReport]
    budget: Callable[[int], int]


# CLI name -> suite, in report order.  The runners look the ``verify_*``
# functions up when called, so a patched module attribute reaches them.
SUITES: dict[str, Suite] = {
    "main1": Suite(lambda *args: verify_theorem_main1(*args), lambda n: n),
    "imprimitivity": Suite(
        lambda Z, wl, wr, n, tol, seed, *linking: verify_imprimitivity(Z, wl, wr, n, seed=seed),
        lambda n: max(10, n // 4),
    ),
    "fullness": Suite(  # sizes its own generator sweep from the carriers
        lambda Z, wl, wr, n, tol, seed, *linking: verify_full_projections(Z, wl, wr, seed=seed),
        lambda n: n,
    ),
    "universal": Suite(lambda *args: verify_universal_norm_finite(*args), lambda n: max(10, n // 4)),
    "representation": Suite(
        lambda Z, wl, wr, n, tol, seed, *linking: verify_representation_laws(Z, wl, wr, n, seed=seed),
        lambda n: max(5, n // 10),
    ),
}


def _run(name: str, *args) -> SuiteReport:
    """Run a registered suite; a float overflow ends in ``NonFiniteError``."""
    try:
        return SUITES[name].run(*args)
    except OverflowError as exc:
        raise NonFiniteError(
            f"suite {name!r} overflowed float arithmetic ({exc}); the Haar weights or values are too large"
        ) from None


def run_suite(
    name: str, Z: Bispace, w_left: HaarSystem, w_right: HaarSystem, samples: int, tol: float, seed: int
) -> SuiteReport:
    """One registered suite behind the whole gate, which raises on broken input."""
    _require_samples(samples)
    link, kappa = structural_gate(Z, w_left, w_right, [])
    return _run(name, Z, w_left, w_right, samples, tol, seed, link, kappa)


# --- aggregation ------------------------------------------------------------


@dataclass
class VerifyConfig:
    samples: int = 100
    tol: float = 1e-9
    seed: int = DEFAULT_SEED
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
        return json_text(self.to_dict())


def verify_all(Z: Bispace | None, config: VerifyConfig | None = None) -> AggregateReport:
    """Walk the structural gate, then run every registered suite, and aggregate.

    A failing stage short-circuits the numeric suites.  An empty or
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
    try:
        link, kappa = structural_gate(Z, w_left, w_right, aggregate.structural)
    except StructureBrokenError as exc:
        aggregate.status = "fail"
        aggregate.error = str(exc)
        return aggregate
    aggregate.suites = [
        _run(name, Z, w_left, w_right, suite.budget(config.samples), config.tol, config.seed, link, kappa)
        for name, suite in SUITES.items()
    ]
    if any(s.status != "pass" for s in aggregate.suites):
        aggregate.status = "fail"
    return aggregate
