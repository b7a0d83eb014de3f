"""Finite groupoids and Haar systems with exhaustive axiom validation.

A groupoid is stored as explicit finite tables: an ordered unit list, an
ordered arrow list (kept sorted by arrow id, which fixes every matrix
indexing downstream), a composition table on composable pairs, an
inverse table, and the identity arrow of each unit.  Arrows compose like
functions: ``mul(a, b)`` is defined exactly when ``s(a) == r(b)``, with
``r(ab) == r(a)`` and ``s(ab) == s(b)``.

A Haar system assigns a strictly positive mass to every arrow, read as
the mass of the singleton ``{a}`` inside the range fiber over ``r(a)``.
Left invariance takes the discrete form ``w(b) == w(ab)`` for every
composable pair; equivalently the mass depends only on the source unit.
The source-fiber measure over a unit is represented implicitly by
``w(inverse(a))``, the image of the range-fiber measure under inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from .errors import UnknownIdError

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import AlgebraElement

__all__ = [
    "Arrow",
    "FiberTable",
    "FiniteGroupoid",
    "RowTable",
    "compile_rows",
    "HaarSystem",
    "Violation",
    "ValidationReport",
    "validate_groupoid",
    "validate_haar",
    "validate_weights",
    "r_fiber",
    "s_fiber",
    "i_norm",
]


@dataclass(frozen=True)
class Arrow:
    """One arrow: ``src`` is the source unit s(a), ``dst`` the range unit r(a)."""

    id: str
    src: str
    dst: str


class FiberTable(NamedTuple):
    """One unit's source fiber, compiled to arrow positions.

    Positions index ``FiniteGroupoid.arrows`` (canonical order): the
    inverse of each ``beta`` of the fiber, and ``gamma inverse(beta)`` as
    one row per ``gamma``, one column per ``beta``.
    """

    fiber: tuple[str, ...]
    inverses: np.ndarray  # intp, shape (k,)
    products: np.ndarray  # intp, shape (k, k)


# key -> one row per base point; a row is a tuple of (weight id, x id, y id) terms
Rows = Mapping[str, tuple[tuple[tuple[str, str, str], ...], ...]]


class RowTable(NamedTuple):
    """The rows of one kernel, compiled to positions.

    A row is one sum ``x(i) * y(j) * weight(w)`` over its terms
    ``(w, i, j)``.  Each key has one row per base point, and a key's rows
    are consecutive.  ``weights``, ``x`` and ``y`` hold the term
    positions as ``(T, R)`` arrays, term-major, each row padded to the
    longest with ``-1``, which indexes the zero slot a kernel appends to
    its value and weight vectors.
    """

    keys: tuple[str, ...]
    weights: np.ndarray  # intp, shape (T, R)
    x: np.ndarray  # intp, shape (T, R)
    y: np.ndarray  # intp, shape (T, R)
    first: np.ndarray  # intp, shape (K,): the first row of each key
    owner: np.ndarray  # intp, shape (R,): the key of each row


def compile_rows(
    rows: Rows,
    w_index: Mapping[str, int],
    x_index: Mapping[str, int],
    y_index: Mapping[str, int],
) -> RowTable:
    """Compile ``key -> rows of (w, i, j) id terms`` to a ``RowTable``.

    An id missing from its index raises ``UnknownIdError``.
    """
    flat = [row for base_rows in rows.values() for row in base_rows]
    width = max(map(len, flat), default=0)
    try:
        cells = [
            [(w_index[w], x_index[i], y_index[j]) for w, i, j in row] + [(-1, -1, -1)] * (width - len(row))
            for row in flat
        ]
    except KeyError as exc:
        raise UnknownIdError(f"the tables name unknown id {exc.args[0]!r}") from None
    positions = np.array(cells, dtype=np.intp).reshape(len(flat), width, 3).transpose(2, 1, 0)
    counts = np.fromiter(map(len, rows.values()), dtype=np.intp, count=len(rows))
    first = np.zeros(len(rows), dtype=np.intp)
    np.cumsum(counts[:-1], out=first[1:])
    owner = np.repeat(np.arange(len(rows), dtype=np.intp), counts)
    return RowTable(tuple(rows), *map(np.ascontiguousarray, positions), first, owner)


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    units: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    compose: dict[tuple[str, str], str]
    inverse: dict[str, str]
    unit_arrow: dict[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(sorted(self.units)))
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows, key=lambda a: a.id)))
        by_id: dict[str, Arrow] = {}
        positions: dict[str, int] = {}
        for i, a in enumerate(self.arrows):
            by_id.setdefault(a.id, a)
            positions.setdefault(a.id, i)
        r_fibers: dict[str, list[str]] = {u: [] for u in self.units}
        s_fibers: dict[str, list[str]] = {u: [] for u in self.units}
        for a in self.arrows:
            if a.dst in r_fibers:
                r_fibers[a.dst].append(a.id)
            if a.src in s_fibers:
                s_fibers[a.src].append(a.id)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_r_fibers", {u: tuple(v) for u, v in r_fibers.items()})
        object.__setattr__(self, "_s_fibers", {u: tuple(v) for u, v in s_fibers.items()})
        object.__setattr__(self, "_fiber_products", {})

    # --- table lookups -------------------------------------------------

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self._by_id[arrow_id]
        except KeyError:
            raise UnknownIdError(f"unknown arrow id {arrow_id!r}") from None

    def r(self, arrow_id: str) -> str:
        return self.arrow(arrow_id).dst

    def s(self, arrow_id: str) -> str:
        return self.arrow(arrow_id).src

    def inv(self, arrow_id: str) -> str:
        try:
            return self.inverse[arrow_id]
        except KeyError:
            raise UnknownIdError(f"no inverse recorded for arrow {arrow_id!r}") from None

    def mul(self, a: str, b: str) -> str:
        try:
            return self.compose[(a, b)]
        except KeyError:
            raise UnknownIdError(f"no composition recorded for ({a!r}, {b!r})") from None

    def unit(self, u: str) -> str:
        """Identity arrow sitting at unit ``u``."""
        try:
            return self.unit_arrow[u]
        except KeyError:
            raise UnknownIdError(f"unknown unit id {u!r}") from None

    def has_arrow(self, arrow_id: str) -> bool:
        return arrow_id in self._by_id

    def has_unit(self, u: str) -> bool:
        return u in self._r_fibers

    @cached_property
    def arrow_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arrows)

    @cached_property
    def product_table(self) -> RowTable:
        """Per arrow ``c``, in canonical order, one row of terms ``(a, a, b)``
        over the pairs with ``ab = c``, ``a`` in canonical order.

        The convolution kernel sums ``f(a) g(b) w(a)`` over the row.  Built
        on first use.  A composable pair missing from the tables, or a
        product naming an unknown arrow, raises ``UnknownIdError``, and
        nothing is cached then, so every later use raises too.
        """
        terms: dict[str, list[tuple[str, str, str]]] = {c: [] for c in self._by_id}
        for aid, a in self._by_id.items():
            for b in r_fiber(self, a.src):
                c = self.mul(aid, b)
                if c not in terms:
                    raise UnknownIdError(f"the tables name unknown arrow {c!r}")
                terms[c].append((aid, aid, b))
        index = self._positions
        return compile_rows({c: (tuple(row),) for c, row in terms.items()}, index, index, index)

    @cached_property
    def inverse_positions(self) -> np.ndarray:
        """Position of ``inverse(a)`` for each arrow ``a``, in canonical order."""
        return self._positions_of([self.inv(a) for a in self.arrow_ids])

    def fiber_products(self, u: str) -> FiberTable:
        """The source fiber of ``u`` with its inverse and product positions.

        Each unit's table is built on its first use and cached; units
        never asked for are never built.  A product or inverse missing
        from the tables, or naming an unknown arrow, raises
        ``UnknownIdError``.
        """
        table = self._fiber_products.get(u)
        if table is None:
            fiber = tuple(s_fiber(self, u))
            inverses = [self.inv(b) for b in fiber]
            products = [self.mul(g, ib) for g in fiber for ib in inverses]
            k = len(fiber)
            table = self._fiber_products[u] = FiberTable(
                fiber,
                self._positions_of(inverses).reshape(k),
                self._positions_of(products).reshape(k, k),
            )
        return table

    def _positions_of(self, ids: list[str]) -> np.ndarray:
        try:
            return np.array([self._positions[a] for a in ids], dtype=np.intp)
        except KeyError as exc:
            raise UnknownIdError(f"the tables name unknown arrow {exc.args[0]!r}") from None

    @cached_property
    def orbit_transport(self) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
        """One unit per orbit, and the arrow pairs that right translation must keep.

        The orbit of a unit ``u`` is the set of sources of its range fiber.
        The first unit of each orbit is its representative; every other
        unit ``v`` of the orbit is reached by the first arrow ``x: v -> u``
        of that fiber, and right translation ``gamma -> gamma x`` maps the
        source fiber of ``u`` onto that of ``v``.  The pairs are
        ``(inverse(gamma), inverse(gamma x))`` over all such ``v`` and
        ``gamma``.  A unit whose transport is missing from the tables is
        its own representative.
        """
        representatives: list[str] = []
        pairs: list[tuple[str, str]] = []
        covered: set[str] = set()
        for u in self.units:
            if u in covered:
                continue
            representatives.append(u)
            covered.add(u)
            for x in self._r_fibers[u]:
                v = self._by_id[x].src
                if v in covered or v not in self._r_fibers:
                    continue
                moved = [
                    (self.inverse.get(g), self.inverse.get(self.compose.get((g, x), "")))
                    for g in self._s_fibers[u]
                ]
                if all(a is not None and b is not None for a, b in moved):
                    pairs.extend(moved)
                    covered.add(v)
        return tuple(representatives), tuple(pairs)


@dataclass(frozen=True, eq=False)
class HaarSystem:
    """Strictly positive mass per arrow, left invariant along range fibers."""

    weights: dict[str, float]
    # the validation report of the function that made and checked this
    # system (``build_linking_haar`` does); None for systems nobody checked
    self_check: ValidationReport | None = None

    @classmethod
    def counting(cls, groupoid: FiniteGroupoid) -> "HaarSystem":
        return cls({a.id: 1.0 for a in groupoid.arrows})

    def weight(self, arrow_id: str) -> float:
        try:
            return self.weights[arrow_id]
        except KeyError:
            raise UnknownIdError(f"no Haar weight for arrow {arrow_id!r}") from None

    def __getitem__(self, arrow_id: str) -> float:
        return self.weight(arrow_id)


# --- validation reports ------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    offenders: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"rule": self.rule, "message": self.message, "offenders": list(self.offenders)}


@dataclass
class ValidationReport:
    subject: str
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, message: str, *offenders: str) -> None:
        self.violations.append(Violation(rule, message, tuple(offenders)))

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        lines = [f"{self.subject}: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.rule}] {v.message}" for v in self.violations]
        return "\n".join(lines)


# --- validators --------------------------------------------------------


def validate_groupoid(groupoid: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exhaustively; empty report iff all hold.

    Malformed table references (unknown arrow or unit ids) are reported
    with their own rules rather than raised, so a single run surfaces
    every defect in a fixture.  Composable pairs and associativity are
    first screened with numpy gathers (``_product_screen``); their loops
    below then run only for the arrows the screen flags, so the report is
    the one a scan of every pair and triple gives.
    """
    rep = ValidationReport(subject="groupoid")
    seen_units: set[str] = set()
    for u in groupoid.units:
        if u in seen_units:
            rep.add("unique-ids", f"duplicate unit id {u!r}", u)
        seen_units.add(u)
    seen_arrows: set[str] = set()
    for a in groupoid.arrows:
        if a.id in seen_arrows:
            rep.add("unique-ids", f"duplicate arrow id {a.id!r}", a.id)
        seen_arrows.add(a.id)

    units = set(groupoid.units)
    known = groupoid._by_id
    for a in groupoid.arrows:
        if a.src not in units:
            rep.add("unknown-unit", f"arrow {a.id!r} has unknown source unit {a.src!r}", a.id)
        if a.dst not in units:
            rep.add("unknown-unit", f"arrow {a.id!r} has unknown range unit {a.dst!r}", a.id)

    # unit arrows
    for u in groupoid.units:
        uid = groupoid.unit_arrow.get(u)
        if uid is None:
            rep.add("unit-arrow", f"unit {u!r} has no identity arrow", u)
        elif uid not in known:
            rep.add("unknown-arrow", f"identity arrow {uid!r} of unit {u!r} is unknown", uid, u)
        else:
            a = known[uid]
            if a.src != u or a.dst != u:
                rep.add("unit-arrow", f"identity arrow {uid!r} does not sit at unit {u!r}", uid, u)
    for u in groupoid.unit_arrow:
        if u not in units:
            rep.add("unit-arrow", f"identity arrow listed for unknown unit {u!r}", u)

    # inverse table
    for a in groupoid.arrows:
        ia = groupoid.inverse.get(a.id)
        if ia is None:
            rep.add("inverse-domain", f"arrow {a.id!r} has no inverse entry", a.id)
            continue
        if ia not in known:
            rep.add("unknown-arrow", f"inverse of {a.id!r} is unknown arrow {ia!r}", a.id, ia)
            continue
        if groupoid.inverse.get(ia) != a.id:
            rep.add("inverse-involution", f"inverse(inverse({a.id!r})) != {a.id!r}", a.id, ia)
        b = known[ia]
        if b.dst != a.src or b.src != a.dst:
            rep.add(
                "inverse-endpoints",
                f"inverse of {a.id!r} must swap source and range, got {ia!r}",
                a.id,
                ia,
            )
    for aid in groupoid.inverse:
        if aid not in known:
            rep.add("inverse-domain", f"inverse listed for unknown arrow {aid!r}", aid)

    # composition table: definedness both ways, endpoint consistency
    for (a, b), c in groupoid.compose.items():
        if a not in known or b not in known:
            rep.add("unknown-arrow", f"composition entry ({a!r}, {b!r}) references unknown arrows", a, b)
            continue
        if known[a].src != known[b].dst:
            rep.add(
                "compose-definedness",
                f"composition defined for non-composable pair ({a!r}, {b!r})",
                a,
                b,
            )
        if c not in known:
            rep.add("unknown-arrow", f"composition ({a!r}, {b!r}) yields unknown arrow {c!r}", a, b, c)
            continue
        if known[c].dst != known[a].dst:
            rep.add(
                "compose-range",
                f"range of ({a!r} {b!r}) is {known[c].dst!r}, expected {known[a].dst!r}",
                a,
                b,
                c,
            )
        if known[c].src != known[b].src:
            rep.add(
                "compose-source",
                f"source of ({a!r} {b!r}) is {known[c].src!r}, expected {known[b].src!r}",
                a,
                b,
                c,
            )
    missing_pairs, failing_triples = _product_screen(groupoid)
    for a in missing_pairs:
        for b in groupoid._r_fibers.get(a.src, ()):
            if (a.id, b) not in groupoid.compose:
                rep.add(
                    "compose-definedness",
                    f"composable pair ({a.id!r}, {b!r}) missing from composition table",
                    a.id,
                    b,
                )

    def mul(a: str, b: str) -> str | None:
        return groupoid.compose.get((a, b))

    # identity and inverse laws (guarded, earlier rules cover missing refs)
    for a in groupoid.arrows:
        us = groupoid.unit_arrow.get(a.src)
        ur = groupoid.unit_arrow.get(a.dst)
        if us is not None and mul(a.id, us) != a.id:
            rep.add("unit-identity", f"{a.id!r} * unit({a.src!r}) != {a.id!r}", a.id, us)
        if ur is not None and mul(ur, a.id) != a.id:
            rep.add("unit-identity", f"unit({a.dst!r}) * {a.id!r} != {a.id!r}", ur, a.id)
        ia = groupoid.inverse.get(a.id)
        if ia is None or ia not in known:
            continue
        if ur is not None and mul(a.id, ia) != ur:
            rep.add("inverse-law", f"{a.id!r} * {ia!r} != unit({a.dst!r})", a.id, ia)
        if us is not None and mul(ia, a.id) != us:
            rep.add("inverse-law", f"{ia!r} * {a.id!r} != unit({a.src!r})", ia, a.id)

    # associativity on every composable triple of the arrows the screen flagged
    for a in failing_triples:
        for b in groupoid._r_fibers.get(a.src, ()):
            ab = mul(a.id, b)
            for c in groupoid._r_fibers.get(known[b].src, ()):
                bc = mul(b, c)
                left = mul(ab, c) if ab is not None else None
                right = mul(a.id, bc) if bc is not None else None
                if left != right or left is None:
                    rep.add(
                        "associativity",
                        f"({a.id!r} {b!r}) {c!r} != {a.id!r} ({b!r} {c!r})",
                        a.id,
                        b,
                        c,
                    )
    return rep


def _product_screen(groupoid: FiniteGroupoid) -> tuple[tuple[Arrow, ...], tuple[Arrow, ...]]:
    """The arrows ``a`` that may miss a composable pair ``(a, b)``, and those that
    may start a failing associativity triple ``(a, b, c)``.

    Arrow ids, and every other id the composition table mentions, get
    int32 indices; one more index stands for a missing product.  The
    table becomes a dense array, so a product is a gather.  The scan runs
    one unit pair ``u = s(a) = r(b)``, ``v = s(b)`` at a time, so no
    temporary outgrows ``|s_fiber(u)| x |hom(v, u)| x |r_fiber(v)|``.  The
    screen may flag an arrow that passes, never miss one that fails; when
    arrow ids repeat it flags every arrow.  Nothing outlives the call.
    """
    arrows = groupoid.arrows
    compose = groupoid.compose
    if len(groupoid._by_id) != len(arrows):
        return arrows, arrows
    index = {a.id: i for i, a in enumerate(arrows)}
    firsts, seconds = zip(*compose) if compose else ((), ())
    products = tuple(compose.values())
    for name in set(firsts).union(seconds, products).difference(index):
        index[name] = len(index)
    missing = len(index)

    def indices(names) -> np.ndarray:
        return np.fromiter(map(index.__getitem__, names), dtype=np.int32, count=len(names))

    table = np.full((missing + 1, missing + 1), missing, dtype=np.int32)
    table[indices(firsts), indices(seconds)] = indices(products)

    s_fibers = {u: indices(ids) for u, ids in groupoid._s_fibers.items()}
    r_fibers = {u: indices(ids) for u, ids in groupoid._r_fibers.items()}
    homs: dict[tuple[str, str], list[int]] = {}
    for i, b in enumerate(arrows):
        if b.dst in r_fibers:
            homs.setdefault((b.dst, b.src), []).append(i)
    pair_flags = np.zeros(len(arrows), dtype=bool)
    triple_flags = np.zeros(len(arrows), dtype=bool)
    for (u, v), hom in homs.items():
        a = s_fibers[u]
        b = np.array(hom, dtype=np.int32)
        ab = table[a[:, None], b]
        pair_flags[a[(ab == missing).any(axis=1)]] = True
        c = r_fibers.get(v)
        if c is None:  # s(b) is not a unit, so nothing composes after b
            continue
        left = table[ab[:, :, None], c]
        right = table[a[:, None, None], table[b[:, None], c]]
        failing = (left != right) | (left == missing)
        triple_flags[a[failing.any(axis=(1, 2))]] = True
    return tuple(compress(arrows, pair_flags)), tuple(compress(arrows, triple_flags))


def validate_weights(groupoid: FiniteGroupoid, haar: HaarSystem) -> ValidationReport:
    """Check that every arrow, and no unknown id, has a finite positive weight.

    This is the part of ``validate_haar`` that takes one pass over the
    arrows; it leaves out left invariance.
    """
    rep = ValidationReport(subject="haar")
    for a in groupoid.arrows:
        w = haar.weights.get(a.id)
        if w is None:
            rep.add("haar-domain", f"arrow {a.id!r} has no Haar weight", a.id)
        elif not math.isfinite(w):
            rep.add("haar-finite", f"arrow {a.id!r} has non-finite weight {w!r}", a.id)
        elif not (w > 0.0):
            rep.add("haar-support", f"arrow {a.id!r} has non-positive weight {w!r}", a.id)
    for aid in haar.weights:
        if not groupoid.has_arrow(aid):
            rep.add("haar-domain", f"Haar weight listed for unknown arrow {aid!r}", aid)
    return rep


def validate_haar(groupoid: FiniteGroupoid, haar: HaarSystem) -> ValidationReport:
    """Check finite, full support and exact left invariance of a Haar system."""
    rep = validate_weights(groupoid, haar)
    if not rep.ok:
        return rep
    # left invariance, exact: w(eta) == w(gamma * eta) on every composable pair
    for gamma in groupoid.arrows:
        for eta in groupoid._r_fibers.get(gamma.src, ()):
            prod = groupoid.compose.get((gamma.id, eta))
            if prod is None or not groupoid.has_arrow(prod):
                continue  # structural defect, validate_groupoid reports it
            if haar.weights[eta] != haar.weights[prod]:
                rep.add(
                    "haar-invariance",
                    f"w({eta!r}) = {haar.weights[eta]!r} but w({gamma.id!r} {eta!r}) = "
                    f"{haar.weights[prod]!r}",
                    gamma.id,
                    eta,
                    prod,
                )
    return rep


# --- fibers and the I-norm ----------------------------------------------


def r_fiber(groupoid: FiniteGroupoid, u: str) -> list[str]:
    """Arrows with range ``u``, in canonical order."""
    try:
        return list(groupoid._r_fibers[u])
    except KeyError:
        raise UnknownIdError(f"unknown unit id {u!r}") from None


def s_fiber(groupoid: FiniteGroupoid, u: str) -> list[str]:
    """Arrows with source ``u``, in canonical order."""
    try:
        return list(groupoid._s_fibers[u])
    except KeyError:
        raise UnknownIdError(f"unknown unit id {u!r}") from None


def i_norm(f: "AlgebraElement | Mapping[str, complex]", groupoid: FiniteGroupoid, haar: HaarSystem) -> float:
    """Hahn I-norm of a function on the arrows.

    Defined as the larger of the two fiberwise sup-of-sums::

        max( max_u sum_{r(a)=u} |f(a)| w(a),
             max_u sum_{s(a)=u} |f(a)| w(inverse(a)) )

    This is the standard convention; treat it as imported rather than
    forced by anything else in this package (other normalizations occur
    in the literature).
    """
    values: Mapping[str, complex] = getattr(f, "values", f)  # type: ignore[assignment]
    for aid in values:
        if not groupoid.has_arrow(aid):
            raise UnknownIdError(f"function value on unknown arrow {aid!r}")
    best_r = 0.0
    best_s = 0.0
    for u in groupoid.units:
        sr = sum(abs(values.get(a, 0.0)) * haar.weight(a) for a in groupoid._r_fibers[u])
        ss = sum(
            abs(values.get(a, 0.0)) * haar.weight(groupoid.inv(a))
            for a in groupoid._s_fibers[u]
        )
        best_r = max(best_r, sr)
        best_s = max(best_s, ss)
    return max(best_r, best_s)
