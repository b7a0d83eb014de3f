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

Matrices are assembled in stacks.  ``FiniteGroupoid.fiber_products(u)``
compiles each unit's ``gamma inverse(beta)`` table once into an array
of arrow positions; ``unit_stacks`` lays the values of a list of
elements out in arrow order and gathers the matrices of all of them at
a unit in one step, ``(n, k, k)``.  ``reduced_norms`` then takes one
batched SVD per unit, and ``ind_delta`` and ``reduced_norm`` are the
one-element case of the same path.  The suites in ``verify`` stack
blocks of up to 128 samples.  Haar weights are read from the
``HaarSystem`` on every call, so a weight changed in place shows in the
next result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .algebra import AlgebraElement, rip
from .equivalence import Bispace, GSpace, rho_mu_measure
from .errors import StructureBrokenError, UnknownIdError
from .groupoid import FiberTable, FiniteGroupoid, HaarSystem, ValidationReport, i_norm
from .numerics import hermitian_eigenvalues, spectral_norm, spectral_norms

__all__ = [
    "RepMatrix",
    "ind_delta",
    "operator_norm",
    "norm_units",
    "reduced_norm",
    "reduced_norms",
    "unit_stacks",
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


def _weight_vector(groupoid: FiniteGroupoid, haar: HaarSystem) -> np.ndarray:
    """The current Haar weights in canonical arrow order."""
    weights = haar.weights
    try:
        return np.array([weights[a] for a in groupoid.arrow_ids], dtype=float)
    except KeyError as exc:
        raise UnknownIdError(f"no Haar weight for arrow {exc.args[0]!r}") from None


def _value_matrix(groupoid: FiniteGroupoid, elements: Sequence[AlgebraElement]) -> np.ndarray:
    """One row of values per element, in canonical arrow order (absent = 0)."""
    known = groupoid._positions.keys()
    ids = groupoid.arrow_ids
    rows = []
    for f in elements:
        values = f.values
        if not values.keys() <= known:
            unknown = sorted(values.keys() - known)
            raise UnknownIdError(f"element has values on unknown arrow ids {unknown!r}")
        rows.append([values.get(a, 0j) for a in ids])
    return np.array(rows, dtype=np.complex128).reshape(len(elements), len(ids))


def _unit_stack(
    table: FiberTable, weights: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Source masses of one unit, and the matrices of all value rows over its fiber.

    One gather assembles ``v(a) * w(a) * (root_i / root_j)`` with ``a``
    the product ``gamma_i inverse(beta_j)``, evaluated left to right as
    the scalar formula is; a zero value gives ``0j`` whatever the sign
    of its zeros.
    """
    masses = weights[table.inverses]
    roots = np.sqrt(masses)
    gathered = values[:, table.products]
    with np.errstate(all="ignore"):  # non-finite entries are rejected where matrices are used
        stack = gathered * weights[table.products] * (roots[:, None] / roots[None, :])
    stack[gathered == 0] = 0j
    return masses, stack


def unit_stacks(
    groupoid: FiniteGroupoid,
    haar: HaarSystem,
    units: Sequence[str],
    elements: Sequence[AlgebraElement],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per unit of ``units``, in order: its source masses, and the ``ind_delta``
    matrices of every element as one ``(n, k, k)`` stack.

    The values are laid out and the Haar weights read once per call.
    Values on ids the groupoid lacks raise ``UnknownIdError``.
    """
    values = _value_matrix(groupoid, elements)
    weights = _weight_vector(groupoid, haar)
    for u in units:
        yield _unit_stack(groupoid.fiber_products(u), weights, values)


def ind_delta(
    groupoid: FiniteGroupoid, haar: HaarSystem, u: str, f: AlgebraElement
) -> RepMatrix:
    """Matrix of convolution by ``f`` on the weighted space over the source fiber of ``u``.

    The one-element case of ``unit_stacks``: the product positions come
    from ``groupoid.fiber_products(u)``, built on the first use of ``u``;
    the Haar weights are read on every call.
    """
    masses, stack = next(unit_stacks(groupoid, haar, (u,), (f,)))
    return RepMatrix(groupoid.fiber_products(u).fiber, stack[0], masses)


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


def reduced_norms(
    elements: Sequence[AlgebraElement], groupoid: FiniteGroupoid, haar: HaarSystem
) -> list[float]:
    """``reduced_norm`` of every element, one stack and one batched SVD per unit.

    Only one unit per orbit is solved when the Haar masses allow it.  For
    a transport arrow ``x: v -> u`` (``FiniteGroupoid.orbit_transport``),
    right translation ``gamma -> gamma x`` carries the matrix at ``u``
    onto the matrix at ``v`` entry for entry exactly when
    ``w(inverse(gamma x)) == w(inverse(gamma))`` for every ``gamma`` in the
    source fiber of ``u``, which left invariance guarantees.  That guard is
    checked with exact float equality on every call, since a
    ``HaarSystem`` may be changed in place; if any pair differs, every
    unit is solved.  Like the matrices themselves, the shortcut trusts the
    tables to form a groupoid.  Values on ids the groupoid lacks raise
    ``UnknownIdError``.
    """
    best = np.zeros(len(elements))
    for _, stack in unit_stacks(groupoid, haar, norm_units(groupoid, haar), elements):
        best = np.maximum(best, spectral_norms(stack))
    return best.tolist()


def reduced_norm(f: AlgebraElement, groupoid: FiniteGroupoid, haar: HaarSystem) -> float:
    """Supremum over units of the per-unit representation norms (see ``reduced_norms``)."""
    return reduced_norms((f,), groupoid, haar)[0]


def _check_atomic(mu: Mapping[str, float], known, kind: str) -> list[str]:
    atoms = []
    for key in sorted(mu):
        if not known(key):
            raise UnknownIdError(f"measure atom on unknown {kind} {key!r}")
        if not math.isfinite(mu[key]):
            raise ValueError(f"measure mass for {kind} {key!r} is not finite: {mu[key]!r}")
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
    positive mass, and the basis masses are those of ``rho_mu_measure``.
    """
    if not X.is_free():
        raise StructureBrokenError("the action is not free; no orbit representation exists")
    mass = rho_mu_measure(X, mu, haar).weights
    basis = [z for orbit in X.orbits() for z in orbit if z in mass]
    k = len(basis)
    weights = np.array([mass[z] for z in basis], dtype=float)
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
    with no pivot tolerance.  That entry is the ``(gamma, beta)`` entry of
    the all-ones function's matrix at ``u``.
    """
    weights = _weight_vector(groupoid, haar)
    ones = np.ones((1, len(weights)), dtype=np.complex128)
    hit = np.zeros(len(weights), dtype=bool)
    for u in groupoid.units:
        table = groupoid.fiber_products(u)
        hit[table.products[_unit_stack(table, weights, ones)[1][0] != 0]] = True
    return len(groupoid.arrows) - int(hit.sum())


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
    grams = [inner(phis[i], phis[j], Z, w_left) for i in range(n) for j in range(n)]
    smallest = np.inf
    for _, stack in unit_stacks(H, w_right, norm_units(H, w_right), grams):
        k = stack.shape[-1]
        block = stack.reshape(n, n, k, k).transpose(0, 2, 1, 3).reshape(n * k, n * k)
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
