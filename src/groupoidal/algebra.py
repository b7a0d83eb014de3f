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

One block kernel evaluates all five maps.  Its input is a ``(B, n)``
block of complex values per factor, one row per sample, laid out in the
canonical order of the carrier (``layout``), and it walks a
``RowTable`` of term positions that the groupoid or the bispace compiles
once, on first use, from its tables: ``FiniteGroupoid.product_table``
for the product, ``Bispace.left_table``, ``right_table``, ``rip_table``
and ``lip_table`` for the bimodule.  Every key has one row per base
point (the product and the actions have one), and a row is a list of
``(weight, x, y)`` terms.  The kernel gathers the terms, multiplies
``x(i) * y(j) * weight(w)`` with the real and imaginary parts as
separate float arrays, skips terms with a zero factor, and sums the term
columns in row order, starting from zero.  For finite values that is,
bit for bit, the sum Python's own complex arithmetic gives over the same
terms, which numpy's complex multiply is not on every build.  The
product sums ``f(a) g(b) w(a)`` over ``a`` in canonical order, whatever
order ``f`` lists its keys in.  The ``*_block`` functions are the block
maps; ``convolve``, ``involution``, the actions, ``rip``, ``lip`` and
``blockwise_residual`` are their one-element case, taking and returning
an ``AlgebraElement``.

Haar weights are not part of the tables: they are read from the
``HaarSystem`` on every call, so a weight changed in place shows in the
next result.  A value on an id its carrier lacks, or an id missing from
a table, raises ``UnknownIdError``.  A value that leaves the floats
while the sample's values and the weights are finite (an overflow)
raises ``NonFiniteError`` naming the key; non-finite values given as
input are carried through, so a suite sees them in its residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    CarrierMismatchError,
    GroupoidalError,
    NonFiniteError,
    StructureBrokenError,
    UnknownIdError,
)
from .equivalence import Bispace, base_point, opposite_point
from .groupoid import FiniteGroupoid, HaarSystem, RowTable
from .linking import LinkingGroupoid, build_linking_haar

__all__ = [
    "AlgebraElement",
    "layout",
    "haar_vector",
    "entry_gaps",
    "convolve",
    "convolve_block",
    "involution",
    "involution_block",
    "left_action",
    "left_action_block",
    "right_action",
    "right_action_block",
    "rip",
    "rip_block",
    "lip",
    "lip_block",
    "op_star",
    "blockwise_residual",
    "blockwise_residuals",
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


def _expect(element: AlgebraElement, carrier: str, role: str) -> None:
    if element.carrier != carrier:
        raise CarrierMismatchError(
            f"{role} must live on carrier {carrier!r}, got {element.carrier!r}"
        )


# --- dense layout -------------------------------------------------------------

Elements = Union[Sequence[AlgebraElement], np.ndarray]


def layout(elements: Elements, ids: Sequence[str], index: Mapping[str, int], kind: str) -> np.ndarray:
    """The elements' values as a ``(len(elements), len(ids))`` complex block.

    Columns follow ``ids`` and an absent key gives 0.  A block already
    laid out (an ``ndarray``) is returned as it is.  Values on ids that
    ``index`` lacks raise ``UnknownIdError``.
    """
    if isinstance(elements, np.ndarray):
        return elements
    rows = []
    for f in elements:
        values = f.values
        if not values.keys() <= index.keys():
            unknown = sorted(values.keys() - index.keys())
            raise UnknownIdError(f"element has values on unknown {kind} ids {unknown!r}")
        rows.append([values.get(k, 0j) for k in ids])
    return np.array(rows, dtype=np.complex128).reshape(len(rows), len(ids))


def haar_vector(groupoid: FiniteGroupoid, haar: HaarSystem, system: str = "Haar system") -> np.ndarray:
    """The current Haar weights in canonical arrow order."""
    weights = haar.weights
    try:
        return np.array([weights[a] for a in groupoid.arrow_ids], dtype=float)
    except KeyError as exc:
        raise UnknownIdError(f"{exc.args[0]!r} is missing from the {system}") from None


def entry_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b|`` entry by entry, with a NaN gap read as ``inf``.

    The modulus is ``np.hypot`` of the parts, which gives the bits of
    Python's complex ``abs``; ``np.abs`` of a complex array need not.
    """
    with np.errstate(all="ignore"):
        diff = a - b
        gaps = np.hypot(diff.real, diff.imag)
    gaps[np.isnan(gaps)] = np.inf
    return gaps


def _arrows(f: AlgebraElement, groupoid: FiniteGroupoid) -> np.ndarray:
    return layout((f,), groupoid.arrow_ids, groupoid._positions, "arrow")


def _points(phi: AlgebraElement, Z: Bispace) -> np.ndarray:
    return layout((phi,), Z.points, Z.point_index, "point")


def _element(
    carrier: str, keys: Sequence[str], row: np.ndarray, keep: np.ndarray | None = None
) -> AlgebraElement:
    """One laid-out row back as an element, keeping the nonzero entries unless told which."""
    keep = row != 0 if keep is None else keep
    return AlgebraElement(carrier, {k: v for k, v, kept in zip(keys, row.tolist(), keep.tolist()) if kept})


# --- the one kernel -----------------------------------------------------------


def _columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A ``(B, n)`` block as ``(n + 1, B)`` real and imaginary parts, and whether
    each value is nonzero; the appended row is the zero slot that the
    ``-1`` pad positions index."""
    parts = np.zeros((2, values.shape[1] + 1, values.shape[0]))
    parts[0, :-1] = values.real.T
    parts[1, :-1] = values.imag.T
    nonzero = np.zeros(parts.shape[1:], dtype=bool)
    nonzero[:-1] = (values != 0).T
    return parts, nonzero


def _kernel(
    table: RowTable, x: np.ndarray, y: np.ndarray, weights: np.ndarray, what: str, key_name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample and key, the sum of ``x(i) * y(j) * weight(w)`` over the terms of
    the key's rows, and per term and sample whether both factors are nonzero.

    ``x`` and ``y`` are ``(B, n)`` blocks and ``weights`` a vector, all in
    the orders ``table`` indexes.  Terms are laid out ``(T, R, B)``, so
    each term column is one contiguous slab.  All rows of a key must give
    the same sum, otherwise the Haar system is broken and the call
    aborts; sums that cannot be compared, because one is not finite or
    its modulus is past the float range, and a sum that overflows from
    finite inputs, end in ``NonFiniteError``.
    """
    (xr, xi), x_live = _columns(x)
    (yr, yi), y_live = _columns(y)
    live = x_live[table.x] & y_live[table.y]  # (T, R, B)
    xr, xi, yr, yi = xr[table.x], xi[table.x], yr[table.y], yi[table.y]
    w = np.append(weights, 0.0)[table.weights][:, :, None]
    sums = np.zeros((2, *live.shape[1:]))  # real and imaginary parts, (R, B)
    with np.errstate(all="ignore"):
        re = np.where(live, (xr * yr - xi * yi) * w, 0.0)
        im = np.where(live, (xr * yi + xi * yr) * w, 0.0)
        for t in range(len(live)):
            sums[0] += re[t]
            sums[1] += im[t]
        first = sums[:, table.first]  # (2, K, B)
        off = np.zeros(sums.shape[1:], dtype=bool)
        if len(table.owner) > len(table.keys):  # some key has several base points
            ref = first[:, table.owner]
            gap = np.hypot(sums[0] - ref[0], sums[1] - ref[1])
            bound = 1e-12 * np.maximum(1.0, np.hypot(ref[0], ref[1]))
            off = ~((gap <= bound) & (bound < np.inf))
            off[table.first] = False
    values = np.empty((len(x), len(table.keys)), dtype=np.complex128)
    values.real, values.imag = first[0].T, first[1].T
    overflow = ~np.isfinite(values)
    if overflow.any():
        finite_inputs = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1) & np.isfinite(weights).all()
        overflow &= finite_inputs[:, None]
    if off.any() or overflow.any():
        raise _first_error(table, values, sums, off, overflow, what, key_name)
    return values, live


def _first_error(table, values, sums, off, overflow, what: str, key_name: str) -> GroupoidalError:
    """The error a sample-by-sample, key-by-key walk meets first."""
    ends = [*table.first.tolist()[1:], len(table.owner)]
    for sample in range(len(values)):
        for k, (start, end) in enumerate(zip(table.first.tolist(), ends)):
            key, value = table.keys[k], complex(values[sample, k])
            for r in range(start, end):
                if off[r, sample]:
                    acc = complex(sums[0, r, sample], sums[1, r, sample])
                    return _base_point_error(key_name, key, value, acc)
            if overflow[sample, k]:
                return NonFiniteError(f"{what} at {key_name} {key!r} is not finite ({value!r})")
    raise AssertionError("no error to report")


def _base_point_error(key_name: str, key: str, value: complex, acc: complex) -> GroupoidalError:
    """The error for two base-point sums that failed to agree."""
    try:
        abs(acc - value), abs(value)
    except OverflowError:  # complex abs of a sum past the largest float
        return _incomparable(key_name, key, value, acc)
    if all(math.isfinite(x) for x in (acc.real, acc.imag, value.real, value.imag)):
        return StructureBrokenError(
            f"inner product at {key_name} {key!r} depends on the base point "
            f"({value!r} vs {acc!r}); Haar invariance is broken"
        )
    return _incomparable(key_name, key, value, acc)


def _incomparable(key_name: str, key: str, value: complex, acc: complex) -> NonFiniteError:
    return NonFiniteError(
        f"inner product at {key_name} {key!r} is not finite or too large to "
        f"compare across base points ({value!r} vs {acc!r})"
    )


# --- the convolution algebra ----------------------------------------------


def convolve_block(f: np.ndarray, g: np.ndarray, groupoid: FiniteGroupoid, haar: HaarSystem) -> np.ndarray:
    """``f * g`` row by row, for ``(B, n)`` blocks in canonical arrow order."""
    return _product(f, g, groupoid, haar)[0]


def _product(f: np.ndarray, g: np.ndarray, groupoid: FiniteGroupoid, haar: HaarSystem):
    table = groupoid.product_table
    return _kernel(table, f, g, haar_vector(groupoid, haar), "product", "arrow")


def convolve(
    f: AlgebraElement, g: AlgebraElement, groupoid: FiniteGroupoid, haar: HaarSystem
) -> AlgebraElement:
    """The product; it has a value at every arrow that some pair of nonzero factors reaches."""
    if f.carrier != g.carrier:
        raise CarrierMismatchError(
            f"cannot convolve carriers {f.carrier!r} and {g.carrier!r}"
        )
    values, live = _product(_arrows(f, groupoid), _arrows(g, groupoid), groupoid, haar)
    reached = live[:, :, 0].any(axis=0)
    return _element(f.carrier, groupoid.arrow_ids, values[0], reached)


def involution_block(f: np.ndarray, groupoid: FiniteGroupoid) -> np.ndarray:
    """``f^*`` row by row, for a ``(B, n)`` block in canonical arrow order."""
    return f[:, groupoid.inverse_positions].conj()


def involution(f: AlgebraElement, groupoid: FiniteGroupoid) -> AlgebraElement:
    return _element(f.carrier, groupoid.arrow_ids, involution_block(_arrows(f, groupoid), groupoid)[0])


# --- the bimodule: both actions and both inner products -----------------------
#
# Point blocks follow ``Z.points``.  The mirrored carrier lists ``~z`` in
# the order of ``z``, so ``op_star`` of a point block is its conjugate.


def left_action_block(f: np.ndarray, phi: np.ndarray, Z: Bispace, left_haar: HaarSystem) -> np.ndarray:
    weights = haar_vector(Z.left_groupoid, left_haar, "left Haar system")
    return _kernel(Z.left_table, f, phi, weights, "left action", "point")[0]


def right_action_block(phi: np.ndarray, b: np.ndarray, Z: Bispace, right_haar: HaarSystem) -> np.ndarray:
    weights = haar_vector(Z.right_groupoid, right_haar, "right Haar system")
    return _kernel(Z.right_table, phi, b, weights, "right action", "point")[0]


def rip_block(phi: np.ndarray, psi: np.ndarray, Z: Bispace, left_haar: HaarSystem) -> np.ndarray:
    weights = haar_vector(Z.left_groupoid, left_haar, "left Haar system")
    return _kernel(Z.rip_table, phi.conj(), psi, weights, "inner product", "right arrow")[0]


def lip_block(phi: np.ndarray, psi: np.ndarray, Z: Bispace, right_haar: HaarSystem) -> np.ndarray:
    weights = haar_vector(Z.right_groupoid, right_haar, "right Haar system")
    return _kernel(Z.lip_table, phi, psi.conj(), weights, "inner product", "left arrow")[0]


def left_action(
    f: AlgebraElement, phi: AlgebraElement, Z: Bispace, left_haar: HaarSystem
) -> AlgebraElement:
    _expect(f, Z.labels[0], "left factor")
    _expect(phi, Z.labels[2], "module element")
    values = left_action_block(_arrows(f, Z.left_groupoid), _points(phi, Z), Z, left_haar)
    return _element(phi.carrier, Z.points, values[0])


def right_action(
    phi: AlgebraElement, b: AlgebraElement, Z: Bispace, right_haar: HaarSystem
) -> AlgebraElement:
    _expect(phi, Z.labels[2], "module element")
    _expect(b, Z.labels[1], "right factor")
    values = right_action_block(_points(phi, Z), _arrows(b, Z.right_groupoid), Z, right_haar)
    return _element(phi.carrier, Z.points, values[0])


def rip(
    phi: AlgebraElement, psi: AlgebraElement, Z: Bispace, left_haar: HaarSystem
) -> AlgebraElement:
    """Right inner product, valued in functions on the right groupoid."""
    _expect(phi, Z.labels[2], "first factor")
    _expect(psi, Z.labels[2], "second factor")
    values = rip_block(_points(phi, Z), _points(psi, Z), Z, left_haar)
    return _element(Z.labels[1], Z.right_groupoid.arrow_ids, values[0])


def lip(
    phi: AlgebraElement, psi: AlgebraElement, Z: Bispace, right_haar: HaarSystem
) -> AlgebraElement:
    """Left inner product, valued in functions on the left groupoid."""
    _expect(phi, Z.labels[2], "first factor")
    _expect(psi, Z.labels[2], "second factor")
    values = lip_block(_points(phi, Z), _points(psi, Z), Z, right_haar)
    return _element(Z.labels[0], Z.left_groupoid.arrow_ids, values[0])


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


def _blockwise(F: np.ndarray, K: np.ndarray, link: LinkingGroupoid, w_left: HaarSystem, w_right: HaarSystem):
    Z, zop = link.bispace, link.opposite
    G, H = Z.left_groupoid, Z.right_groupoid
    positions = link.sector_positions
    f11, f12, f21, f22 = (F[:, p] for p in positions)
    k11, k12, k21, k22 = (K[:, p] for p in positions)
    blocks = (
        convolve_block(f11, k11, G, w_left) + rip_block(f12.conj(), k21, zop, w_right),
        left_action_block(f11, k12, Z, w_left) + right_action_block(f12, k22, Z, w_right),
        right_action_block(f21, k11, zop, w_left) + left_action_block(f22, k21, zop, w_right),
        rip_block(f21.conj(), k12, Z, w_left) + convolve_block(f22, k22, H, w_right),
    )
    out = np.empty_like(F)
    for p, block in zip(positions, blocks):
        out[:, p] = block
    return out


def blockwise_residuals(
    F: np.ndarray,
    K: np.ndarray,
    link: LinkingGroupoid,
    w_left: HaarSystem,
    w_right: HaarSystem,
    linking_haar: HaarSystem | None = None,
) -> tuple[np.ndarray, list[float], list[str | None]]:
    """Per row pair of two ``(B, n)`` blocks on the linking arrows: the blockwise
    product, its worst gap to the direct product, and the first arrow in
    canonical order with that gap (``None`` when every gap is zero)."""
    L = link.groupoid
    blockwise = _blockwise(F, K, link, w_left, w_right)
    haar = linking_haar if linking_haar is not None else build_linking_haar(link, w_left, w_right)
    gaps = entry_gaps(blockwise, convolve_block(F, K, L, haar))
    worst = gaps.argmax(axis=1) if gaps.size else np.zeros(len(gaps), dtype=np.intp)
    residuals = gaps[np.arange(len(gaps)), worst].tolist() if gaps.size else [0.0] * len(gaps)
    arrows = [L.arrow_ids[w] if r > 0 else None for w, r in zip(worst.tolist(), residuals)]
    return blockwise, residuals, arrows


def blockwise_residual(
    F: AlgebraElement,
    K: AlgebraElement,
    link: LinkingGroupoid,
    w_left: HaarSystem,
    w_right: HaarSystem,
    linking_haar: HaarSystem | None = None,
) -> tuple[AlgebraElement, float, str | None]:
    """Blockwise product, the worst per-arrow gap to the direct product, and where."""
    _expect(F, "L", "first factor")
    _expect(K, "L", "second factor")
    L = link.groupoid
    blockwise, residuals, arrows = blockwise_residuals(
        _arrows(F, L), _arrows(K, L), link, w_left, w_right, linking_haar
    )
    return _element("L", L.arrow_ids, blockwise[0]), residuals[0], arrows[0]


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
