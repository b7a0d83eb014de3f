"""Regular representations as explicit matrices, and the reduced norm.

The representation attached to a unit ``u`` acts by convolution on the
weighted little Hilbert space over the source fiber ``G_u``; the basis
is orthonormalized by dividing each basis vector by the square root of
its measure mass, which makes the adjoint of the represented operator a
literal conjugate transpose.  In that basis the matrix of ``f`` is::

    M[gamma, beta] = f(gamma inverse(beta)) * w(gamma inverse(beta))
                     * sqrt(w(inverse(gamma)) / w(inverse(beta)))

for ``gamma, beta`` in the source fiber.  The reduced norm is the
largest operator norm over all units; units in one orbit give unitarily
equivalent representations, so one unit per orbit reaches it whenever
the Haar system allows.  Atomic measures on the unit space induce
block-diagonal direct sums; free actions on finite spaces induce the
same matrices transported along orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement, rip
from .equivalence import Bispace, GSpace
from .errors import StructureBrokenError, UnknownIdError
from .groupoid import FiniteGroupoid, HaarSystem, ValidationReport, i_norm
from .numerics import hermitian_eigenvalues, spectral_norm

__all__ = [
    "RepMatrix",
    "ind_delta",
    "operator_norm",
    "norm_units",
    "reduced_norm",
    "ind_mu",
    "r_mu_rep",
    "reduced_kernel_dimension",
    "check_i_norm_bound",
    "gram_min_eigenvalue",
    "intertwining_residual",
]


@dataclass(frozen=True, eq=False)
class RepMatrix:
    """A convolution operator on a weighted finite fiber, in orthonormal form."""

    basis: tuple[str, ...]
    entries: np.ndarray
    weights: np.ndarray  # measure mass of each basis element

    def __post_init__(self) -> None:
        k = len(self.basis)
        if self.entries.shape != (k, k):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match basis length {k}"
            )


def ind_delta(
    groupoid: FiniteGroupoid, haar: HaarSystem, u: str, f: AlgebraElement
) -> RepMatrix:
    """Matrix of convolution by ``f`` on the weighted space over the source fiber of ``u``.

    The products ``gamma inverse(beta)`` come from ``groupoid.fiber_products(u)``,
    built on the first use of ``u``; the Haar weights are read on every call.
    """
    fiber, inverses, products = groupoid.fiber_products(u)
    weights = haar.weights
    values = f.values
    try:
        masses = np.array([weights[ib] for ib in inverses], dtype=float)
        roots = np.sqrt(masses).tolist()
        rows = []
        for root, row in zip(roots, products):
            entries = []
            for a, other in zip(row, roots):
                v = values.get(a)
                entries.append(v * weights[a] * (root / other) if v else 0j)
            rows.append(entries)
    except KeyError as exc:
        raise UnknownIdError(f"no Haar weight for arrow {exc.args[0]!r}") from None
    k = len(fiber)
    return RepMatrix(fiber, np.array(rows, dtype=np.complex128).reshape(k, k), masses)


def operator_norm(matrix: RepMatrix) -> float:
    """Largest singular value of the represented operator."""
    return spectral_norm(matrix.entries)


def norm_units(groupoid: FiniteGroupoid, haar: HaarSystem) -> tuple[str, ...]:
    """One unit per orbit when right translation keeps every source mass, else every unit."""
    representatives, pairs = groupoid.orbit_transport
    weight = haar.weight
    if all(weight(a) == weight(b) for a, b in pairs):
        return representatives
    return groupoid.units


def reduced_norm(f: AlgebraElement, groupoid: FiniteGroupoid, haar: HaarSystem) -> float:
    """Supremum over units of the per-unit representation norms.

    Only one unit per orbit is solved when the Haar masses allow it.  For
    a transport arrow ``x: v -> u`` (``FiniteGroupoid.orbit_transport``),
    right translation ``gamma -> gamma x`` carries the matrix at ``u``
    onto the matrix at ``v`` entry for entry exactly when
    ``w(inverse(gamma x)) == w(inverse(gamma))`` for every ``gamma`` in the
    source fiber of ``u``, which left invariance guarantees.  That guard is
    checked with exact float equality on every call, since a
    ``HaarSystem`` may be changed in place; if any pair differs, every
    unit is solved.  Like the matrices themselves, the shortcut trusts the
    tables to form a groupoid.
    """
    return max(
        (spectral_norm(ind_delta(groupoid, haar, u, f).entries) for u in norm_units(groupoid, haar)),
        default=0.0,
    )


def _check_atomic(mu: Mapping[str, float], known, kind: str) -> list[str]:
    atoms = []
    for key in sorted(mu):
        if not known(key):
            raise UnknownIdError(f"measure atom on unknown {kind} {key!r}")
        if mu[key] < 0:
            raise ValueError(f"measure mass for {kind} {key!r} is negative: {mu[key]!r}")
        if mu[key] > 0:
            atoms.append(key)
    return atoms


def ind_mu(
    groupoid: FiniteGroupoid,
    haar: HaarSystem,
    mu: Mapping[str, float],
    f: AlgebraElement,
) -> RepMatrix:
    """Direct sum of the per-unit representations over the atoms of ``mu``."""
    atoms = _check_atomic(mu, groupoid.has_unit, "unit")
    blocks = [ind_delta(groupoid, haar, u, f) for u in atoms]
    basis: list[str] = []
    weights: list[float] = []
    for u, block in zip(atoms, blocks):
        basis.extend(block.basis)
        weights.extend(mu[u] * block.weights)
    total = len(basis)
    entries = np.zeros((total, total), dtype=np.complex128)
    offset = 0
    for block in blocks:
        k = len(block.basis)
        entries[offset : offset + k, offset : offset + k] = block.entries
        offset += k
    return RepMatrix(tuple(basis), entries, np.array(weights, dtype=float))


def r_mu_rep(
    X: GSpace, haar: HaarSystem, mu: Mapping[str, float], f: AlgebraElement
) -> RepMatrix:
    """Convolution action on the weighted point space of a free left action.

    ``mu`` assigns nonnegative mass to orbits (keyed by any orbit
    representative); the matrix is block diagonal over the orbits with
    positive mass.
    """
    from .equivalence import rho_measure

    if not X.is_free():
        raise StructureBrokenError("the action is not free; no orbit representation exists")
    G = X.groupoid
    orbits = X.orbits()
    rep_of = {z: orbit[0] for orbit in orbits for z in orbit}
    merged: dict[str, float] = {}
    for key in sorted(mu):
        if key not in rep_of:
            raise UnknownIdError(f"measure atom on unknown point {key!r}")
        if mu[key] < 0:
            raise ValueError(f"measure mass for orbit of {key!r} is negative: {mu[key]!r}")
        merged[rep_of[key]] = merged.get(rep_of[key], 0.0) + float(mu[key])

    basis: list[str] = []
    masses: list[float] = []
    for orbit in orbits:
        m = merged.get(orbit[0], 0.0)
        if m == 0.0:
            continue
        measure = rho_measure(X, orbit[0], haar)
        for point in orbit:
            basis.append(point)
            masses.append(m * measure.weights[point])
    k = len(basis)
    weights = np.array(masses, dtype=float)
    roots = np.sqrt(weights)
    entries = np.zeros((k, k), dtype=np.complex128)
    values = f.values
    for j, y in enumerate(basis):
        for i, x in enumerate(basis):
            arrows = X.arrows_between(y, x)
            if not arrows:
                continue
            v = values.get(arrows[0])
            if v:
                entries[i, j] = v * haar.weight(arrows[0]) * (roots[i] / roots[j])
    return RepMatrix(tuple(basis), entries, weights)


def reduced_kernel_dimension(groupoid: FiniteGroupoid, haar: HaarSystem) -> int:
    """Dimension of the joint kernel of every per-unit representation.

    Stacking the matrices of all delta functions gives one linear map
    from the function space on the arrows.  Its row ``(u, gamma, beta)``
    has a single entry, in the column of ``gamma inverse(beta)``, so its
    rank is the number of columns hit by a nonzero entry: an exact count,
    with no pivot tolerance.
    """
    hit: set[str] = set()
    for u in groupoid.units:
        _, inverses, products = groupoid.fiber_products(u)
        roots = np.sqrt([haar.weight(ib) for ib in inverses])
        for i, row in enumerate(products):
            for j, a in enumerate(row):
                if haar.weight(a) * (roots[i] / roots[j]) != 0:
                    hit.add(a)
    return len(groupoid.arrows) - len(hit)


def check_i_norm_bound(
    groupoid: FiniteGroupoid,
    haar: HaarSystem,
    f: AlgebraElement,
    spaces: Sequence[tuple[GSpace, Mapping[str, float]]] = (),
    slack: float = 1e-10,
) -> ValidationReport:
    """Every regular representation norm must stay below the I-norm."""
    report = ValidationReport(subject="i-norm-bound")
    bound = i_norm(f, groupoid, haar)
    reduced = reduced_norm(f, groupoid, haar)
    report.notes.append(f"i_norm={bound!r} reduced_norm={reduced!r}")
    if reduced > bound + slack:
        report.add(
            "i-norm-bound",
            f"reduced norm {reduced!r} exceeds the I-norm {bound!r}",
        )
    for index, (X, mu) in enumerate(spaces):
        norm = spectral_norm(r_mu_rep(X, haar, mu, f).entries)
        report.notes.append(f"space[{index}] norm={norm!r}")
        if norm > bound + slack:
            report.add(
                "i-norm-bound",
                f"orbit representation norm {norm!r} exceeds the I-norm {bound!r}",
                str(index),
            )
    return report


def gram_min_eigenvalue(
    Z: Bispace,
    w_left: HaarSystem,
    w_right: HaarSystem,
    phis: Sequence[AlgebraElement],
    inner=rip,
) -> float:
    """Smallest eigenvalue over ``norm_units`` of the represented Gram blocks.

    The Gram matrix of right inner products is positive in every
    per-unit representation of the right groupoid; the minimum over all
    represented blocks certifies it (up to eigensolver accuracy).
    ``inner`` is the right inner product, replaceable for fault injection.
    """
    H = Z.right_groupoid
    n = len(phis)
    if n == 0:
        return 0.0
    grams = [[inner(phis[i], phis[j], Z, w_left) for j in range(n)] for i in range(n)]
    smallest = np.inf
    for v in norm_units(H, w_right):
        block = np.block(
            [[ind_delta(H, w_right, v, grams[i][j]).entries for j in range(n)] for i in range(n)]
        )
        smallest = min(smallest, float(hermitian_eigenvalues(block)[0]))
    return float(smallest)


def intertwining_residual(
    X: GSpace, haar: HaarSystem, x0: str, f: AlgebraElement
) -> float:
    """Entrywise gap between the orbit representation at ``x0`` and its model.

    The bijection ``gamma -> gamma * x0`` from the source fiber over the
    anchor of ``x0`` onto the orbit transports the per-unit matrix onto
    the orbit matrix; for a free action the two agree entry by entry.
    """
    u = X.anchor_of(x0)
    model = ind_delta(X.groupoid, haar, u, f)
    orbit = r_mu_rep(X, haar, {x0: 1.0}, f)
    position = {point: i for i, point in enumerate(orbit.basis)}
    transported = np.zeros_like(model.entries)
    order = []
    for gamma in model.basis:
        point = X.act(gamma, x0)
        order.append(position[point])
    for i, oi in enumerate(order):
        for j, oj in enumerate(order):
            transported[i, j] = orbit.entries[oi, oj]
    gap = np.abs(model.entries - transported)
    return float(gap.max()) if gap.size else 0.0
