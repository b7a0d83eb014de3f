"""Convolution algebras and the bimodule structure on an equivalence.

Functions are finitely supported complex maps on the arrows of a
groupoid or the points of a bispace, tagged with a carrier label
(``G``, ``H``, ``Z``, ``Zop`` or ``L``).  All products are discrete
sums against the relevant Haar masses:

* ``(f * g)(c) = sum_{a: r(a) = r(c)} f(a) g(inverse(a) c) w(a)``
* ``f^*(a) = conj(f(inverse(a)))``
* ``(f . phi)(z) = sum_{gamma: r(gamma) = r(z)} f(gamma) phi(inverse(gamma) z) w(gamma)``
* ``(phi . b)(z) = sum_{eta: r(eta) = s(z)} phi(z eta) b(inverse(eta)) w(eta)``
* ``rip(phi, psi)(eta) = sum_gamma conj(phi(inverse(gamma) z)) psi(inverse(gamma) z eta) w(gamma)``
  for any ``z`` over ``r(eta)``,
* ``lip(phi, psi)(gamma) = sum_eta phi(gamma w eta) conj(psi(w eta)) w(eta)``
  for any ``w`` over ``s(gamma)``.

The two inner products are recomputed from every admissible base point
and must agree; a mismatch aborts because it signals a broken Haar
system, not a rounding problem.  The mirrored module operations (acting
on the opposite carrier) are these same four maps applied to
``opposite_space(Z)``; ``op_star`` transports functions between the two
carriers.

The kernels resolve no ids themselves.  They walk rows that the
groupoid and the bispace build once, on first use, from their tables:
``FiniteGroupoid.product_rows`` (``a -> ((b, ab), ...)``) for the
product, and one row format for the whole bimodule.  Each of
``Bispace.left_rows``, ``right_rows``, ``rip_rows`` and ``lip_rows``
maps a key (a point, or an arrow for the inner products) to one row per
base point, a row being a tuple of ``(weight id, x id, y id)`` terms.
One kernel, ``_row_sums``, serves both actions and both inner products:
it sums ``x(i) * y(j) * weight(w)`` in row order, and each public map
only picks its rows, the factor it conjugates and its carrier labels.
The actions have a single row per key.  Every sum runs over the same
terms in the same order as the formulas above.  Haar weights are not
part of the rows: they are read from the ``HaarSystem`` on every call,
so a weight changed in place shows in the next result.  An id missing
from a table raises ``UnknownIdError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import CarrierMismatchError, StructureBrokenError, UnknownIdError
from .equivalence import Bispace, Rows, base_point, opposite_point
from .groupoid import FiniteGroupoid, HaarSystem
from .linking import LinkingGroupoid, block_compose, block_decompose, build_linking_haar

__all__ = [
    "AlgebraElement",
    "convolve",
    "involution",
    "left_action",
    "right_action",
    "rip",
    "lip",
    "op_star",
    "blockwise_residual",
    "convolve_linking_blockwise",
]


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A finitely supported complex function on one carrier (absent key = 0)."""

    carrier: str
    values: dict[str, complex] = field(default_factory=dict)

    @classmethod
    def zero(cls, carrier: str) -> "AlgebraElement":
        return cls(carrier, {})

    @classmethod
    def delta(cls, carrier: str, key: str, value: complex = 1.0) -> "AlgebraElement":
        return cls(carrier, {key: complex(value)})

    def get(self, key: str) -> complex:
        return self.values.get(key, 0.0 + 0.0j)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.carrier != other.carrier:
            raise CarrierMismatchError(f"cannot add carriers {self.carrier!r} and {other.carrier!r}")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, 0.0) + v
        return AlgebraElement(self.carrier, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.carrier, {k: scalar * v for k, v in self.values.items()})

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def distance(self, other: "AlgebraElement") -> float:
        """Largest gap over the keys; a NaN gap, which ``max`` would drop, gives ``inf``."""
        keys = set(self.values) | set(other.values)
        gaps = [abs(self.get(k) - other.get(k)) for k in keys]
        if any(gap != gap for gap in gaps):
            return math.inf
        return max(gaps, default=0.0)

    def allclose(self, other: "AlgebraElement", tol: float = 1e-12) -> bool:
        return self.carrier == other.carrier and self.distance(other) <= tol


def _expect(element: AlgebraElement, carrier: str, role: str) -> None:
    if element.carrier != carrier:
        raise CarrierMismatchError(
            f"{role} must live on carrier {carrier!r}, got {element.carrier!r}"
        )


# --- the convolution algebra ----------------------------------------------


def _missing(exc: KeyError, table: str) -> UnknownIdError:
    return UnknownIdError(f"{exc.args[0]!r} is missing from the {table}")


def convolve(
    f: AlgebraElement, g: AlgebraElement, groupoid: FiniteGroupoid, haar: HaarSystem
) -> AlgebraElement:
    if f.carrier != g.carrier:
        raise CarrierMismatchError(
            f"cannot convolve carriers {f.carrier!r} and {g.carrier!r}"
        )
    rows = groupoid.product_rows
    weights = haar.weights
    gv = g.values
    out: dict[str, complex] = {}
    try:
        for a, fa in f.values.items():
            if fa == 0:
                continue
            wa = weights[a]
            for b, c in rows[a]:
                gb = gv.get(b)
                if not gb:
                    continue
                out[c] = out.get(c, 0.0) + fa * gb * wa
    except KeyError as exc:
        raise _missing(exc, "arrow or Haar tables") from None
    return AlgebraElement(f.carrier, out)


def involution(f: AlgebraElement, groupoid: FiniteGroupoid) -> AlgebraElement:
    return AlgebraElement(
        f.carrier, {groupoid.inv(a): v.conjugate() for a, v in f.values.items()}
    )


# --- the bimodule: both actions and both inner products -----------------------


def _row_sums(
    rows: Rows,
    xv: Mapping[str, complex],
    yv: Mapping[str, complex],
    weights: Mapping[str, float],
    haar_name: str,
    key_name: str,
) -> dict[str, complex]:
    """``key -> sum of x(i) * y(j) * weight(w)`` over the terms ``(w, i, j)`` of each row.

    Every key has one row per base point; all of them must give the same
    sum, otherwise the Haar system is broken and the call aborts.
    """
    out: dict[str, complex] = {}
    try:
        for key, base_rows in rows.items():
            value = None
            for row in base_rows:
                acc = 0.0 + 0.0j
                for w, i, j in row:
                    a = xv.get(i)
                    if a:
                        b = yv.get(j)
                        if b:
                            acc += a * b * weights[w]
                if value is None:
                    value = acc
                elif abs(acc - value) > 1e-12 * max(1.0, abs(value)):
                    raise StructureBrokenError(
                        f"inner product at {key_name} {key!r} depends on the base point "
                        f"({value!r} vs {acc!r}); Haar invariance is broken"
                    )
            if value != 0:
                out[key] = value
    except KeyError as exc:
        raise _missing(exc, haar_name) from None
    return out


def _conjugate(values: Mapping[str, complex]) -> dict[str, complex]:
    return {k: v.conjugate() for k, v in values.items()}


def left_action(
    f: AlgebraElement, phi: AlgebraElement, Z: Bispace, left_haar: HaarSystem
) -> AlgebraElement:
    _expect(f, Z.labels[0], "left factor")
    _expect(phi, Z.labels[2], "module element")
    out = _row_sums(Z.left_rows, f.values, phi.values, left_haar.weights, "left Haar system", "point")
    return AlgebraElement(phi.carrier, out)


def right_action(
    phi: AlgebraElement, b: AlgebraElement, Z: Bispace, right_haar: HaarSystem
) -> AlgebraElement:
    _expect(phi, Z.labels[2], "module element")
    _expect(b, Z.labels[1], "right factor")
    out = _row_sums(Z.right_rows, phi.values, b.values, right_haar.weights, "right Haar system", "point")
    return AlgebraElement(phi.carrier, out)


def rip(
    phi: AlgebraElement, psi: AlgebraElement, Z: Bispace, left_haar: HaarSystem
) -> AlgebraElement:
    """Right inner product, valued in functions on the right groupoid."""
    _expect(phi, Z.labels[2], "first factor")
    _expect(psi, Z.labels[2], "second factor")
    out = _row_sums(
        Z.rip_rows, _conjugate(phi.values), psi.values, left_haar.weights,
        "left Haar system", "right arrow",
    )
    return AlgebraElement(Z.labels[1], out)


def lip(
    phi: AlgebraElement, psi: AlgebraElement, Z: Bispace, right_haar: HaarSystem
) -> AlgebraElement:
    """Left inner product, valued in functions on the left groupoid."""
    _expect(phi, Z.labels[2], "first factor")
    _expect(psi, Z.labels[2], "second factor")
    out = _row_sums(
        Z.lip_rows, phi.values, _conjugate(psi.values), right_haar.weights,
        "right Haar system", "left arrow",
    )
    return AlgebraElement(Z.labels[0], out)


# --- the mirrored module ------------------------------------------------------


def op_star(psi: AlgebraElement) -> AlgebraElement:
    """Conjugate transport between a carrier and its mirror: ``psi*(z) = conj(psi(~z))``."""
    if psi.carrier == "Zop":
        return AlgebraElement(
            "Z", {base_point(k): v.conjugate() for k, v in psi.values.items()}
        )
    if psi.carrier == "Z":
        return AlgebraElement(
            "Zop", {opposite_point(k): v.conjugate() for k, v in psi.values.items()}
        )
    raise CarrierMismatchError(f"op_star expects carrier 'Z' or 'Zop', got {psi.carrier!r}")


# --- block convolution on the linking groupoid --------------------------------


def _blockwise(F, K, link: LinkingGroupoid, w_left: HaarSystem, w_right: HaarSystem):
    Z, zop = link.bispace, link.opposite
    G, H = Z.left_groupoid, Z.right_groupoid
    f11, f12, f21, f22 = block_decompose(F, link)
    k11, k12, k21, k22 = block_decompose(K, link)
    c11 = convolve(f11, k11, G, w_left) + rip(op_star(f12), k21, zop, w_right)
    c12 = left_action(f11, k12, Z, w_left) + right_action(f12, k22, Z, w_right)
    c21 = right_action(f21, k11, zop, w_left) + left_action(f22, k21, zop, w_right)
    c22 = rip(op_star(f21), k12, Z, w_left) + convolve(f22, k22, H, w_right)
    return block_compose(link, c11, c12, c21, c22)


def blockwise_residual(
    F: AlgebraElement,
    K: AlgebraElement,
    link: LinkingGroupoid,
    w_left: HaarSystem,
    w_right: HaarSystem,
    linking_haar: HaarSystem | None = None,
) -> tuple[AlgebraElement, float, str | None]:
    """Blockwise product, the worst per-arrow gap to the direct product, and where."""
    blockwise = _blockwise(F, K, link, w_left, w_right)
    haar = linking_haar if linking_haar is not None else build_linking_haar(link, w_left, w_right)
    direct = convolve(F, K, link.groupoid, haar)
    worst = None
    residual = 0.0
    for lid in set(blockwise.values) | set(direct.values):
        gap = abs(blockwise.get(lid) - direct.get(lid))
        if gap != gap:  # NaN: no comparison would see it
            gap = math.inf
        if gap > residual:
            residual, worst = gap, lid
    return blockwise, residual, worst


def convolve_linking_blockwise(
    F: AlgebraElement,
    K: AlgebraElement,
    link: LinkingGroupoid,
    w_left: HaarSystem,
    w_right: HaarSystem,
    linking_haar: HaarSystem | None = None,
    tol: float = 1e-12,
) -> AlgebraElement:
    """Convolve on the linking groupoid through the four sector blocks.

    The same product is also computed directly against the assembled
    Haar system; the two must agree within ``tol`` on every arrow,
    otherwise the deepest self-check of this module fails and the call
    aborts naming the worst offender.
    """
    blockwise, residual, worst = blockwise_residual(F, K, link, w_left, w_right, linking_haar)
    if residual > tol:
        raise StructureBrokenError(
            f"blockwise and direct products disagree by {residual:.3e} at arrow {worst!r}"
        )
    return blockwise
