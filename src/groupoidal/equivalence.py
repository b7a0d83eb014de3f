"""Finite group(oid) spaces, equivalence bispaces, brackets, and fiber measures.

A bispace carries a left action of one groupoid and a right action of
another on the same finite point set, with anchor maps ``r_map`` (left)
and ``s_map`` (right).  The validator checks the full equivalence axiom
list: exact definedness of both action tables, identities, associativity
of actions, commutation, freeness, anchor surjectivity, and the two
orbit bijections (left orbits against right units and vice versa).
Properness is recorded as trivially true, every action of a finite
discrete groupoid on a finite discrete space is proper.

Bracket maps invert the actions: ``g_bracket(Z, y, z)`` is the unique
left arrow carrying ``z`` to ``y``, ``h_bracket(Z, y, z)`` the unique
right arrow with ``y * eta == z``.  Fiber measures push the Haar masses
onto orbits; they are recomputed from every representative in the fiber
and must agree, otherwise the underlying Haar system is broken and the
operation aborts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import BracketNotFoundError, StructureBrokenError, UnknownIdError
from .groupoid import FiniteGroupoid, HaarSystem, ValidationReport, r_fiber

# key -> one row per base point; a row is a tuple of (weight id, x id, y id) terms
Rows = dict[str, tuple[tuple[tuple[str, str, str], ...], ...]]

__all__ = [
    "GSpace",
    "Bispace",
    "FiberMeasure",
    "validate_equivalence",
    "g_bracket",
    "h_bracket",
    "opposite_space",
    "sigma_measure",
    "rho_measure",
    "rho_mu_measure",
]

PROPERNESS_NOTE = "properness: trivially true for finite discrete actions (recorded, not tested)"


@dataclass(frozen=True, eq=False)
class GSpace:
    """A finite left action: ``action[(arrow, point)]`` defined iff ``s(arrow) == anchor[point]``."""

    groupoid: FiniteGroupoid
    points: tuple[str, ...]
    anchor: dict[str, str]
    action: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        fibers: dict[str, list[str]] = {}
        for z in self.points:
            fibers.setdefault(self.anchor.get(z, ""), []).append(z)
        object.__setattr__(self, "_fibers", {u: tuple(v) for u, v in fibers.items()})
        between: dict[tuple[str, str], list[str]] = {}
        for (gamma, z), out in self.action.items():
            between.setdefault((z, out), []).append(gamma)
        object.__setattr__(self, "_between", {k: tuple(sorted(v)) for k, v in between.items()})

    def anchor_of(self, z: str) -> str:
        try:
            return self.anchor[z]
        except KeyError:
            raise UnknownIdError(f"unknown point id {z!r}") from None

    def act(self, gamma: str, z: str) -> str:
        try:
            return self.action[(gamma, z)]
        except KeyError:
            raise UnknownIdError(f"action undefined on ({gamma!r}, {z!r})") from None

    def fiber(self, u: str) -> tuple[str, ...]:
        return self._fibers.get(u, ())

    def arrows_between(self, src: str, dst: str) -> tuple[str, ...]:
        """All arrows carrying ``src`` to ``dst`` (at most one when free)."""
        return self._between.get((src, dst), ())

    def orbits(self) -> tuple[tuple[str, ...], ...]:
        """The orbits, each sorted, in sorted order; found once and cached."""
        return self._orbits

    @cached_property
    def _orbits(self) -> tuple[tuple[str, ...], ...]:
        parent = {z: z for z in self.points}

        def find(z: str) -> str:
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        for (_, z), out in self.action.items():
            if z in parent and out in parent:
                rz, ro = find(z), find(out)
                if rz != ro:
                    parent[ro] = rz
        groups: dict[str, list[str]] = {}
        for z in self.points:
            groups.setdefault(find(z), []).append(z)
        return tuple(sorted(tuple(sorted(g)) for g in groups.values()))

    def is_free(self) -> bool:
        for (z, out), arrows in self._between.items():
            if len(arrows) > 1:
                return False
            if z == out and arrows and arrows[0] != self.groupoid.unit_arrow.get(self.anchor.get(z, "")):
                return False
        return True


@dataclass(frozen=True, eq=False)
class Bispace:
    """A candidate equivalence: commuting free left and right actions on one point set.

    ``labels`` names the three carriers (left algebra, right algebra,
    points) for algebra elements living over this bispace; the opposite
    space swaps the first two and mirrors the third.
    """

    left_groupoid: FiniteGroupoid
    right_groupoid: FiniteGroupoid
    points: tuple[str, ...]
    r_map: dict[str, str]
    s_map: dict[str, str]
    left_action: dict[tuple[str, str], str]
    right_action: dict[tuple[str, str], str]
    labels: tuple[str, str, str] = ("G", "H", "Z")

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(sorted(self.points)))
        object.__setattr__(
            self, "_left_space", GSpace(self.left_groupoid, self.points, self.r_map, self.left_action)
        )
        # The right action keyed ``(eta, z) -> z eta``, for its fibers over
        # ``s``, brackets and orbits.  Its arrows act on the right, so
        # ``rho_measure`` and ``r_mu_rep`` do not apply to it.
        right = {(eta, z): out for (z, eta), out in self.right_action.items()}
        object.__setattr__(
            self, "_right_space", GSpace(self.right_groupoid, self.points, self.s_map, right)
        )

    @property
    def left_space(self) -> GSpace:
        return self._left_space

    def r_of(self, z: str) -> str:
        try:
            return self.r_map[z]
        except KeyError:
            raise self._no_anchor(z, "r") from None

    def s_of(self, z: str) -> str:
        try:
            return self.s_map[z]
        except KeyError:
            raise self._no_anchor(z, "s") from None

    def _no_anchor(self, z: str, anchor: str) -> UnknownIdError:
        if z in self.points:
            return UnknownIdError(f"point {z!r} has no {anchor} anchor")
        return UnknownIdError(f"unknown point id {z!r}")

    def left_act(self, gamma: str, z: str) -> str:
        try:
            return self.left_action[(gamma, z)]
        except KeyError:
            raise UnknownIdError(f"left action undefined on ({gamma!r}, {z!r})") from None

    def right_act(self, z: str, eta: str) -> str:
        try:
            return self.right_action[(z, eta)]
        except KeyError:
            raise UnknownIdError(f"right action undefined on ({z!r}, {eta!r})") from None

    def r_fiber_points(self, u: str) -> tuple[str, ...]:
        return self._left_space.fiber(u)

    def s_fiber_points(self, v: str) -> tuple[str, ...]:
        return self._right_space.fiber(v)

    # --- bimodule rows, built on first use --------------------------------
    #
    # Each table maps a key to one row per base point; a row lists the
    # terms ``(w, i, j)`` of one sum ``x(i) * y(j) * weight(w)`` of the
    # bimodule kernel in ``algebra``, with every id already resolved.  The
    # actions have a single row per key.  They hold ids only, no Haar
    # weights.  An entry missing from the tables raises ``UnknownIdError``
    # while a table is built; nothing is cached then.

    @cached_property
    def left_rows(self) -> Rows:
        """``z -> (row,)``, the row ``((gamma, gamma, inverse(gamma) z), ...)`` over ``r(z)``."""
        G = self.left_groupoid
        return {
            z: (tuple((g, g, self.left_act(G.inv(g), z)) for g in r_fiber(G, self.r_of(z))),)
            for z in self.points
        }

    @cached_property
    def right_rows(self) -> Rows:
        """``z -> (row,)``, the row ``((eta, z eta, inverse(eta)), ...)`` over ``s(z)``."""
        H = self.right_groupoid
        return {
            z: (tuple((e, self.right_act(z, e), H.inv(e)) for e in r_fiber(H, self.s_of(z))),)
            for z in self.points
        }

    @cached_property
    def rip_rows(self) -> Rows:
        """Per right arrow ``eta``, one row per base point ``z`` over ``r(eta)``.

        A row holds ``(gamma, y, y eta)`` with ``y = inverse(gamma) z``
        for each ``gamma`` over ``r(z)``.
        """
        H = self.right_groupoid
        rows = {}
        for eta in H.arrow_ids:
            base_points = self.s_fiber_points(H.r(eta))
            if not base_points:
                raise UnknownIdError(f"no point lies over right unit {H.r(eta)!r}")
            rows[eta] = tuple(
                tuple((g, y, self.right_act(y, eta)) for g, _, y in self.left_rows[z][0])
                for z in base_points
            )
        return rows

    @cached_property
    def lip_rows(self) -> Rows:
        """Per left arrow ``gamma``, one row per base point ``w`` over ``s(gamma)``.

        A row holds ``(eta, gamma w eta, w eta)`` for each ``eta`` over ``s(w)``.
        """
        G = self.left_groupoid
        rows = {}
        for gamma in G.arrow_ids:
            base_points = self.r_fiber_points(G.s(gamma))
            if not base_points:
                raise UnknownIdError(f"no point lies over left unit {G.s(gamma)!r}")
            rows[gamma] = tuple(
                tuple((e, self.left_act(gamma, we), we) for e, we, _ in self.right_rows[w][0])
                for w in base_points
            )
        return rows


@dataclass(frozen=True)
class FiberMeasure:
    """Nonnegative point masses supported on a single orbit or anchor fiber."""

    weights: dict[str, float]


def _all_integral(values) -> bool:
    return all(float(v).is_integer() for v in values)


def _measures_agree(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    """Exact agreement for integer masses, 1e-12 relative otherwise."""
    if set(a) != set(b):
        return False
    if _all_integral(a.values()) and _all_integral(b.values()):
        return all(a[k] == b[k] for k in a)
    return all(abs(a[k] - b[k]) <= 1e-12 * max(1.0, abs(a[k])) for k in a)


# --- validation ----------------------------------------------------------


def _validate_action_side(rep: ValidationReport, Z: Bispace, side: str) -> None:
    grpd = Z.left_groupoid if side == "left" else Z.right_groupoid
    anchor = Z.r_map if side == "left" else Z.s_map
    table = Z.left_action if side == "left" else Z.right_action
    points = set(Z.points)

    for z in Z.points:
        u = anchor.get(z)
        if u is None:
            rep.add("unknown-id", f"point {z!r} has no {side} anchor", z)
        elif not grpd.has_unit(u):
            rep.add("unknown-id", f"{side} anchor of {z!r} is unknown unit {u!r}", z, u)

    for key, out in table.items():
        gamma, z = key if side == "left" else (key[1], key[0])
        if not grpd.has_arrow(gamma) or z not in points or out not in points:
            rep.add("unknown-id", f"{side} action entry {key!r} -> {out!r} references unknown ids", *key)
            continue
        u = anchor.get(z)
        matches = (grpd.s(gamma) == u) if side == "left" else (grpd.r(gamma) == u)
        if not matches:
            rep.add(
                "action-definedness",
                f"{side} action defined on non-matching pair {key!r}",
                gamma,
                z,
            )
        # the moving anchor follows the arrow, the other anchor is preserved
        if side == "left":
            if Z.r_map.get(out) != grpd.r(gamma):
                rep.add("action-range", f"range anchor of {gamma!r}*{z!r} is not r({gamma!r})", gamma, z)
            if Z.s_map.get(out) != Z.s_map.get(z):
                rep.add("action-range", f"left action moved the right anchor of {z!r}", gamma, z)
        else:
            if Z.s_map.get(out) != grpd.s(gamma):
                rep.add("action-range", f"source anchor of {z!r}*{gamma!r} is not s({gamma!r})", z, gamma)
            if Z.r_map.get(out) != Z.r_map.get(z):
                rep.add("action-range", f"right action moved the left anchor of {z!r}", z, gamma)

    for z in Z.points:
        u = anchor.get(z)
        if u is None or not grpd.has_unit(u):
            continue
        for gamma in (r_fiber(grpd, u) if side == "right" else ()):
            if (z, gamma) not in table:
                rep.add("action-definedness", f"right action missing for ({z!r}, {gamma!r})", z, gamma)
        if side == "left":
            for gamma in grpd._s_fibers.get(u, ()):
                if (gamma, z) not in table:
                    rep.add("action-definedness", f"left action missing for ({gamma!r}, {z!r})", gamma, z)
        # identity acts trivially
        uid = grpd.unit_arrow.get(u)
        if uid is not None:
            got = table.get((uid, z) if side == "left" else (z, uid))
            if got != z:
                rep.add("unit-acts-trivially", f"unit arrow of {u!r} moves point {z!r}", z)

    # compatibility with composition, visiting only the points each arrow acts on
    acted_on = _points_by_arrow(Z.points, table if side == "left" else ((x, z) for z, x in table))
    for (a, b), ab in grpd.compose.items():
        if not grpd.has_arrow(a) or not grpd.has_arrow(b) or not grpd.has_arrow(ab):
            continue
        if side == "left":
            for z in acted_on.get(b, ()):
                inner = table.get((b, z))
                if inner is None:
                    continue
                if table.get((a, inner)) != table.get((ab, z)):
                    rep.add("action-compatibility", f"({a!r}{b!r})*{z!r} != {a!r}*({b!r}*{z!r})", a, b, z)
        else:
            for z in acted_on.get(a, ()):
                inner = table.get((z, a))
                if inner is None:
                    continue
                if table.get((inner, b)) != table.get((z, ab)):
                    rep.add("action-compatibility", f"{z!r}*({a!r}{b!r}) != ({z!r}*{a!r})*{b!r}", z, a, b)

    # freeness: the table entries fixing each point, in table order
    fixing: dict[str, list[str]] = {}
    for key, out in table.items():
        gamma, zz = key if side == "left" else (key[1], key[0])
        if zz == out:
            fixing.setdefault(zz, []).append(gamma)
    for z in Z.points:
        u = anchor.get(z)
        if u is None:
            continue
        uid = grpd.unit_arrow.get(u)
        for gamma in fixing.get(z, ()):
            if gamma != uid:
                rep.add("freeness", f"non-identity arrow {gamma!r} fixes point {z!r}", gamma, z)

    # anchor surjectivity (discrete stand-in for openness of the anchor map)
    hit = {anchor.get(z) for z in Z.points}
    for u in grpd.units:
        if u not in hit:
            rep.add("anchor-surjective", f"no point lies over {side} unit {u!r}", u)


def _points_by_arrow(points: tuple[str, ...], keys) -> dict[str, list[str]]:
    """``arrow -> the points z with (arrow, z) in keys``, in the order of ``points``, repeats kept."""
    arrows_at: dict[str, list[str]] = {}
    for x, z in keys:
        arrows_at.setdefault(z, []).append(x)
    acted_on: dict[str, list[str]] = {}
    for z in points:
        for x in arrows_at.get(z, ()):
            acted_on.setdefault(x, []).append(z)
    return acted_on


def validate_equivalence(Z: Bispace) -> ValidationReport:
    """Check the full equivalence axiom list; empty report iff Z is one."""
    rep = ValidationReport(subject="equivalence")
    rep.notes.append(PROPERNESS_NOTE)
    _validate_action_side(rep, Z, "left")
    _validate_action_side(rep, Z, "right")

    # the two actions commute; right rows are grouped by point, in table order
    right_rows: dict[str, list[tuple[str, str]]] = {}
    for (z, eta), ze in Z.right_action.items():
        right_rows.setdefault(z, []).append((eta, ze))
    for (gamma, z), gz in Z.left_action.items():
        for eta, ze in right_rows.get(z, ()):
            left_then_right = Z.right_action.get((gz, eta))
            right_then_left = Z.left_action.get((gamma, ze))
            if left_then_right != right_then_left or left_then_right is None:
                rep.add("actions-commute", f"({gamma!r}*{z!r})*{eta!r} != {gamma!r}*({z!r}*{eta!r})", gamma, z, eta)

    # left anchor identifies right orbits with left units, and conversely
    for name, orbits, anchor, units in (
        ("right-orbits-vs-left-units", Z._right_space.orbits(), Z.r_map, Z.left_groupoid.units),
        ("left-orbits-vs-right-units", Z.left_space.orbits(), Z.s_map, Z.right_groupoid.units),
    ):
        seen: dict[str, tuple[str, ...]] = {}
        for orbit in orbits:
            anchors = {anchor.get(z) for z in orbit}
            if len(anchors) != 1:
                rep.add("orbit-bijection", f"{name}: orbit {orbit!r} meets several anchor units")
                continue
            (u,) = anchors
            if u in seen:
                rep.add("orbit-bijection", f"{name}: unit {u!r} hit by two distinct orbits", u)
            seen[u] = orbit
        for u in units:
            if u not in seen:
                rep.add("orbit-bijection", f"{name}: unit {u!r} not hit by any orbit", u)
    return rep


# --- brackets ------------------------------------------------------------


def g_bracket(Z: Bispace, y: str, z: str) -> str:
    """The unique left arrow with ``gamma * z == y`` (requires ``s(y) == s(z)``)."""
    if Z.s_of(y) != Z.s_of(z):
        raise BracketNotFoundError(
            f"points {y!r} and {z!r} lie over different right-anchor units"
        )
    matches = Z.left_space.arrows_between(z, y)
    if not matches:
        raise BracketNotFoundError(f"no left arrow carries {z!r} to {y!r}")
    if len(matches) > 1:
        raise StructureBrokenError(
            f"left action is not free: arrows {matches!r} all carry {z!r} to {y!r}"
        )
    return matches[0]


def h_bracket(Z: Bispace, y: str, z: str) -> str:
    """The unique right arrow with ``y * eta == z`` (requires ``r(y) == r(z)``)."""
    if Z.r_of(y) != Z.r_of(z):
        raise BracketNotFoundError(
            f"points {y!r} and {z!r} lie over different left-anchor units"
        )
    matches = Z._right_space.arrows_between(y, z)
    if not matches:
        raise BracketNotFoundError(f"no right arrow carries {y!r} to {z!r}")
    if len(matches) > 1:
        raise StructureBrokenError(
            f"right action is not free: arrows {matches!r} all carry {y!r} to {z!r}"
        )
    return matches[0]


# --- the opposite space ---------------------------------------------------

OPPOSITE_MARK = "~"


def opposite_point(z: str) -> str:
    return OPPOSITE_MARK + z


def base_point(zbar: str) -> str:
    if not zbar.startswith(OPPOSITE_MARK):
        raise UnknownIdError(f"{zbar!r} is not an opposite-space point id")
    return zbar[len(OPPOSITE_MARK):]


def opposite_space(Z: Bispace) -> Bispace:
    """Mirror an equivalence: anchors swap, arrows act through their inverses.

    Point ``z`` becomes ``~z``; the left action of the (old) right
    groupoid is ``eta * ~z == ~(z * inverse(eta))`` and the right action
    of the old left groupoid is ``~z * gamma == ~(inverse(gamma) * z)``.
    Applying it twice returns the original up to the ``~~`` renaming.
    """
    G, H = Z.left_groupoid, Z.right_groupoid
    points = tuple(opposite_point(z) for z in Z.points)
    r_map = {opposite_point(z): Z.s_of(z) for z in Z.points}
    s_map = {opposite_point(z): Z.r_of(z) for z in Z.points}
    left_action: dict[tuple[str, str], str] = {}
    for (z, eta), out in Z.right_action.items():
        left_action[(H.inv(eta), opposite_point(z))] = opposite_point(out)
    right_action: dict[tuple[str, str], str] = {}
    for (gamma, z), out in Z.left_action.items():
        right_action[(opposite_point(out), gamma)] = opposite_point(z)
    point_label = "Z" if Z.labels[2] == "Zop" else "Zop"
    return Bispace(
        left_groupoid=H,
        right_groupoid=G,
        points=points,
        r_map=r_map,
        s_map=s_map,
        left_action=left_action,
        right_action=right_action,
        labels=(Z.labels[1], Z.labels[0], point_label),
    )


# --- fiber measures -------------------------------------------------------


def sigma_measure(Z: Bispace, u: str, right_haar: HaarSystem) -> FiberMeasure:
    """Right-orbit measure over the left unit ``u``.

    From any point ``z`` with ``r(z) == u``, push the right Haar masses
    forward: ``sigma({z * eta}) == sum of w(eta)`` over the arrows
    ``eta`` with ``r(eta) == s(z)`` landing on that point.  The result
    must not depend on the chosen ``z``; every representative is checked
    and a mismatch aborts, because it means the Haar system lost left
    invariance somewhere.
    """
    fiber = Z.r_fiber_points(u)
    if not fiber:
        raise UnknownIdError(f"no point lies over left unit {u!r}")
    H = Z.right_groupoid

    def from_rep(z0: str) -> dict[str, float]:
        acc: dict[str, float] = {}
        for eta in r_fiber(H, Z.s_of(z0)):
            pt = Z.right_act(z0, eta)
            acc[pt] = acc.get(pt, 0.0) + right_haar.weight(eta)
        return acc

    reference = from_rep(fiber[0])
    for z in fiber[1:]:
        other = from_rep(z)
        if not _measures_agree(reference, other):
            raise StructureBrokenError(
                f"orbit measure over {u!r} depends on the representative "
                f"({fiber[0]!r} vs {z!r}); Haar invariance is broken"
            )
    return FiberMeasure(reference)


def rho_measure(X: GSpace, x: str, haar: HaarSystem) -> FiberMeasure:
    """Orbit measure on a free left space, pushed from the range fiber over ``r(x)``.

    ``rho({gamma^{-1} * x}) == sum of w(gamma)`` over arrows with range
    ``r(x)``.  Independence of the representative is asserted by
    recomputation from every point of the orbit.
    """
    if x not in X.anchor:
        raise UnknownIdError(f"unknown point id {x!r}")
    G = X.groupoid

    def from_rep(x0: str) -> dict[str, float]:
        acc: dict[str, float] = {}
        for gamma in r_fiber(G, X.anchor_of(x0)):
            pt = X.act(G.inv(gamma), x0)
            acc[pt] = acc.get(pt, 0.0) + haar.weight(gamma)
        return acc

    reference = from_rep(x)
    for y in sorted(reference):
        if y == x:
            continue
        other = from_rep(y)
        if not _measures_agree(reference, other):
            raise StructureBrokenError(
                f"orbit measure of {x!r} depends on the representative "
                f"({x!r} vs {y!r}); Haar invariance is broken"
            )
    return FiberMeasure(reference)


def rho_mu_measure(X: GSpace, mu: Mapping[str, float], haar: HaarSystem) -> FiberMeasure:
    """Mix the orbit measures with nonnegative orbit masses ``mu``.

    Keys of ``mu`` may be any orbit representative; they are merged by
    orbit (canonical representative: lexicographically least point).
    """
    orbits = X.orbits()
    rep_of: dict[str, str] = {}
    for orbit in orbits:
        for z in orbit:
            rep_of[z] = orbit[0]
    masses: dict[str, float] = {}
    for key, value in mu.items():
        if key not in rep_of:
            raise UnknownIdError(f"orbit key {key!r} is not a point of the space")
        if not math.isfinite(value):
            raise ValueError(f"orbit mass for {key!r} is not finite: {value!r}")
        if value < 0:
            raise ValueError(f"orbit mass for {key!r} is negative: {value!r}")
        masses[rep_of[key]] = masses.get(rep_of[key], 0.0) + float(value)
    weights: dict[str, float] = {}
    for rep, m in sorted(masses.items()):
        if m == 0.0:
            continue
        orbit_measure = rho_measure(X, rep, haar)
        for pt, w in orbit_measure.weights.items():
            weights[pt] = weights.get(pt, 0.0) + m * w
    return FiberMeasure(weights)
