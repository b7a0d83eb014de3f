"""Linking groupoid of an equivalence bispace, its Haar system, and block tools.

The linking groupoid glues the two groupoids and the bispace into one
finite groupoid on the disjoint union of the two unit spaces.  Arrows
fall into four sectors:

* ``GG``: arrows of the left groupoid,
* ``GZ``: the bispace points (range in the left units, source in the right),
* ``ZG``: the mirrored points (the opposite space),
* ``HH``: arrows of the right groupoid.

New products are given by the actions and bracket maps: a point times a
mirrored point is the left bracket, a mirrored point times a point is
the right bracket, and each groupoid acts on the sector it touches.
Inversion swaps a point with its mirror.

Ids are namespaced deterministically: units ``G:u`` and ``H:v``; arrows
``G:a``, ``Z:z``, ``Zop:~z``, ``H:b``.  Mirrored points carry the same
``~`` marker used by the opposite space, so block decomposition of a
function on the linking groupoid restricts to functions keyed exactly
like the four standalone carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CarrierMismatchError, StructureBrokenError, UnknownIdError
from .equivalence import (
    Bispace,
    g_bracket,
    h_bracket,
    opposite_point,
    opposite_space,
    sigma_measure,
)
from .groupoid import Arrow, FiniteGroupoid, HaarSystem, validate_groupoid, validate_haar

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import AlgebraElement

__all__ = [
    "SECTORS",
    "SECTOR_PRODUCT",
    "LinkingGroupoid",
    "build_linking",
    "build_linking_haar",
    "block_decompose",
    "block_compose",
    "compress",
]

SECTORS = ("GG", "GZ", "ZG", "HH")

# sector of the product indexed by the sectors of the factors
SECTOR_PRODUCT = {
    ("GG", "GG"): "GG",
    ("GG", "GZ"): "GZ",
    ("GZ", "HH"): "GZ",
    ("GZ", "ZG"): "GG",
    ("ZG", "GZ"): "HH",
    ("ZG", "GG"): "ZG",
    ("HH", "ZG"): "ZG",
    ("HH", "HH"): "HH",
}


@dataclass(frozen=True, eq=False)
class LinkingGroupoid:
    """The glued groupoid plus back references into its building blocks."""

    groupoid: FiniteGroupoid
    bispace: Bispace
    opposite: Bispace
    sector: dict[str, str]          # linking arrow id -> sector tag
    origin: dict[str, str]          # linking arrow id -> id in its home carrier
    lift: dict[tuple[str, str], str]  # (sector, home id) -> linking arrow id

    def arrow_of(self, sector: str, home_id: str) -> str:
        try:
            return self.lift[(sector, home_id)]
        except KeyError:
            raise UnknownIdError(f"no linking arrow for {home_id!r} in sector {sector!r}") from None


def build_linking(Z: Bispace) -> LinkingGroupoid:
    """Assemble the linking groupoid of a validated equivalence.

    The construction is total by design; the groupoid axioms (including
    exhaustive associativity) are re-asserted on the result and any
    violation aborts.  Bracket non-uniqueness (a non-free action) also
    aborts, surfacing the defect at build time.
    """
    G, H = Z.left_groupoid, Z.right_groupoid
    zop = opposite_space(Z)

    units = [f"G:{u}" for u in G.units] + [f"H:{v}" for v in H.units]
    arrows: list[Arrow] = []
    sector: dict[str, str] = {}
    origin: dict[str, str] = {}
    lift: dict[tuple[str, str], str] = {}

    def register(lid: str, sec: str, home: str, src: str, dst: str) -> None:
        arrows.append(Arrow(lid, src=src, dst=dst))
        sector[lid] = sec
        origin[lid] = home
        lift[(sec, home)] = lid

    for a in G.arrows:
        register(f"G:{a.id}", "GG", a.id, src=f"G:{a.src}", dst=f"G:{a.dst}")
    for b in H.arrows:
        register(f"H:{b.id}", "HH", b.id, src=f"H:{b.src}", dst=f"H:{b.dst}")
    for z in Z.points:
        register(f"Z:{z}", "GZ", z, src=f"H:{Z.s_of(z)}", dst=f"G:{Z.r_of(z)}")
        zb = opposite_point(z)
        register(f"Zop:{zb}", "ZG", zb, src=f"G:{Z.r_of(z)}", dst=f"H:{Z.s_of(z)}")

    compose: dict[tuple[str, str], str] = {}
    for (a, b), c in G.compose.items():
        compose[(f"G:{a}", f"G:{b}")] = f"G:{c}"
    for (a, b), c in H.compose.items():
        compose[(f"H:{a}", f"H:{b}")] = f"H:{c}"
    for (gamma, z), out in Z.left_action.items():
        compose[(f"G:{gamma}", f"Z:{z}")] = f"Z:{out}"
    for (z, eta), out in Z.right_action.items():
        compose[(f"Z:{z}", f"H:{eta}")] = f"Z:{out}"
    # point times mirrored point: the left bracket, and the reverse order
    # gives the right bracket
    for z in Z.points:
        for y in Z.s_fiber_points(Z.s_of(z)):
            compose[(f"Z:{z}", f"Zop:{opposite_point(y)}")] = f"G:{g_bracket(Z, z, y)}"
        for y in Z.r_fiber_points(Z.r_of(z)):
            compose[(f"Zop:{opposite_point(z)}", f"Z:{y}")] = f"H:{h_bracket(Z, z, y)}"
    # each groupoid acts on the mirrored sector through the opposite space
    for (eta, zb), out in zop.left_action.items():
        compose[(f"H:{eta}", f"Zop:{zb}")] = f"Zop:{out}"
    for (zb, gamma), out in zop.right_action.items():
        compose[(f"Zop:{zb}", f"G:{gamma}")] = f"Zop:{out}"

    inverse: dict[str, str] = {}
    for a, ia in G.inverse.items():
        inverse[f"G:{a}"] = f"G:{ia}"
    for b, ib in H.inverse.items():
        inverse[f"H:{b}"] = f"H:{ib}"
    for z in Z.points:
        inverse[f"Z:{z}"] = f"Zop:{opposite_point(z)}"
        inverse[f"Zop:{opposite_point(z)}"] = f"Z:{z}"

    unit_arrow = {f"G:{u}": f"G:{aid}" for u, aid in G.unit_arrow.items()}
    unit_arrow.update({f"H:{v}": f"H:{aid}" for v, aid in H.unit_arrow.items()})

    groupoid = FiniteGroupoid(
        units=tuple(units),
        arrows=tuple(arrows),
        compose=compose,
        inverse=inverse,
        unit_arrow=unit_arrow,
    )
    report = validate_groupoid(groupoid)
    if not report.ok:
        raise StructureBrokenError(
            "linking groupoid failed its own axioms:\n" + report.summary()
        )
    return LinkingGroupoid(
        groupoid=groupoid,
        bispace=Z,
        opposite=zop,
        sector=sector,
        origin=origin,
        lift=lift,
    )


def build_linking_haar(link: LinkingGroupoid, w_left: HaarSystem, w_right: HaarSystem) -> HaarSystem:
    """Haar system on the linking groupoid assembled per unit.

    Over a left unit the fiber carries the left Haar masses on the
    groupoid sector plus the right-orbit measure on the point sector;
    over a right unit it carries the mirrored-orbit measure plus the
    right Haar masses.  The assembled table is checked by
    ``validate_haar`` (exact, no tolerance) before being returned.
    """
    Z = link.bispace
    weights: dict[str, float] = {}
    for a in Z.left_groupoid.arrows:
        weights[link.arrow_of("GG", a.id)] = w_left.weight(a.id)
    for b in Z.right_groupoid.arrows:
        weights[link.arrow_of("HH", b.id)] = w_right.weight(b.id)
    for u in Z.left_groupoid.units:
        sigma = sigma_measure(Z, u, w_right)
        for z, w in sigma.weights.items():
            weights[link.arrow_of("GZ", z)] = w
    for v in Z.right_groupoid.units:
        sigma = sigma_measure(link.opposite, v, w_left)
        for zb, w in sigma.weights.items():
            weights[link.arrow_of("ZG", zb)] = w
    haar = HaarSystem(weights)
    report = validate_haar(link.groupoid, haar)
    if not report.ok:
        raise StructureBrokenError(
            "assembled linking Haar system is not left invariant:\n" + report.summary()
        )
    return haar


# --- block structure ------------------------------------------------------

_SECTOR_CARRIER_INDEX = {"GG": 0, "GZ": 1, "ZG": 2, "HH": 3}


def _carriers(link: LinkingGroupoid) -> tuple[str, str, str, str]:
    left, right, pts = link.bispace.labels
    return (left, pts, link.opposite.labels[2], right)


def block_decompose(F: "AlgebraElement", link: LinkingGroupoid) -> tuple:
    """Split a function on the linking groupoid into its four sector blocks."""
    from .algebra import AlgebraElement

    if F.carrier != "L":
        raise CarrierMismatchError(f"expected a function on carrier 'L', got {F.carrier!r}")
    carriers = _carriers(link)
    blocks: list[dict[str, complex]] = [{}, {}, {}, {}]
    for lid, value in F.values.items():
        sec = link.sector.get(lid)
        if sec is None:
            raise UnknownIdError(f"value on unknown linking arrow {lid!r}")
        blocks[_SECTOR_CARRIER_INDEX[sec]][link.origin[lid]] = value
    return tuple(
        AlgebraElement(carrier, values) for carrier, values in zip(carriers, blocks)
    )


def block_compose(
    link: LinkingGroupoid,
    f11: "AlgebraElement",
    f12: "AlgebraElement",
    f21: "AlgebraElement",
    f22: "AlgebraElement",
) -> "AlgebraElement":
    """Reassemble four sector blocks into one function on the linking groupoid."""
    from .algebra import AlgebraElement

    carriers = _carriers(link)
    values: dict[str, complex] = {}
    for sec, block, carrier in zip(SECTORS, (f11, f12, f21, f22), carriers):
        if block.carrier != carrier:
            raise CarrierMismatchError(
                f"sector {sec} expects carrier {carrier!r}, got {block.carrier!r}"
            )
        for home, value in block.values.items():
            values[link.arrow_of(sec, home)] = value
    return AlgebraElement("L", values)


def compress(
    F: "AlgebraElement", link: LinkingGroupoid, side_left: str, side_right: str
) -> "AlgebraElement":
    """Corner compression by the two complementary multiplier projections.

    ``compress(F, link, 'G', 'G')`` keeps the block whose arrows have
    range over a left unit and source over a left unit, and so on; the
    four compressions sum back to ``F``.
    """
    from .algebra import AlgebraElement

    try:
        keep = {("G", "G"): "GG", ("G", "H"): "GZ", ("H", "G"): "ZG", ("H", "H"): "HH"}[
            (side_left, side_right)
        ]
    except KeyError:
        raise UnknownIdError(f"projection sides must be 'G' or 'H', got {(side_left, side_right)!r}") from None
    if F.carrier != "L":
        raise CarrierMismatchError(f"expected a function on carrier 'L', got {F.carrier!r}")
    values = {
        lid: v for lid, v in F.values.items() if link.sector.get(lid) == keep
    }
    return AlgebraElement("L", values)
