"""JSON fixture formats for groupoids, equivalences, elements, and reports.

Groupoid fixture::

    {"units": [...],
     "arrows": [{"id": ..., "src": ..., "dst": ..., "sector": optional}],
     "compose": [["a", "b", "ab"], ...],
     "inverse": [["a", "a_inv"], ...],
     "haar": [["a", weight], ...]}        # optional, defaults to counting

Equivalence fixture::

    {"G": <groupoid object or path>, "H": <groupoid object or path>,
     "points": [...],
     "r": [["z", "u"], ...], "s": [["z", "v"], ...],
     "left_action": [["gamma", "z", "z2"], ...],
     "right_action": [["z", "eta", "z2"], ...]}

Algebra element::

    {"carrier": "G"|"H"|"Z"|"Zop"|"L", "values": [["id", re, im], ...]}

Loaders check shapes, not axioms; run the validators for axioms.  All
emitters sort keys so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import AlgebraElement
from .equivalence import Bispace
from .errors import FixtureFormatError
from .groupoid import Arrow, FiniteGroupoid, HaarSystem

__all__ = [
    "load_groupoid",
    "dump_groupoid",
    "load_equivalence",
    "dump_equivalence",
    "load_element",
    "dump_element",
    "read_json",
    "json_text",
    "write_json",
]


def read_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FixtureFormatError(f"cannot read {path!s}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureFormatError(f"{path!s} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FixtureFormatError(f"{path!s} must hold a JSON object")
    return data


def json_text(payload: dict) -> str:
    """The one JSON output format: sorted keys, two-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json_text(payload) + "\n", encoding="utf-8")


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise FixtureFormatError(f"{where}: missing required key {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        names = (
            "/".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        )
        raise FixtureFormatError(f"{where}: key {key!r} must be a {names}")
    return value


def _pairs(data, key: str, width: int, where: str) -> list:
    rows = data.get(key, [])
    if not isinstance(rows, list):
        raise FixtureFormatError(f"{where}: key {key!r} must be a list")
    out = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise FixtureFormatError(
                f"{where}: entries of {key!r} must be length-{width} lists, got {row!r}"
            )
        out.append(tuple(row))
    return out


def groupoid_from_dict(data: dict, where: str = "groupoid fixture") -> tuple[FiniteGroupoid, HaarSystem]:
    units = _require(data, "units", list, where)
    raw_arrows = _require(data, "arrows", list, where)
    arrows = []
    for entry in raw_arrows:
        if not isinstance(entry, dict) or not {"id", "src", "dst"} <= set(entry):
            raise FixtureFormatError(
                f"{where}: arrows must be objects with id/src/dst, got {entry!r}"
            )
        arrows.append(Arrow(str(entry["id"]), str(entry["src"]), str(entry["dst"])))
    compose = {(str(a), str(b)): str(c) for a, b, c in _pairs(data, "compose", 3, where)}
    inverse = {str(a): str(b) for a, b in _pairs(data, "inverse", 2, where)}
    # identities are not part of the wire format: in a groupoid they are
    # exactly the idempotent arrows, so recover them from the tables
    unit_arrow = {str(u): str(a) for u, a in _pairs(data, "unit_arrows", 2, where)}
    for a in arrows:
        if a.src == a.dst and compose.get((a.id, a.id)) == a.id:
            unit_arrow.setdefault(a.src, a.id)
    groupoid = FiniteGroupoid(
        tuple(str(u) for u in units), tuple(arrows), compose, inverse, unit_arrow
    )
    haar_rows = _pairs(data, "haar", 2, where)
    if haar_rows:
        weights = {}
        for aid, w in haar_rows:
            try:
                weights[str(aid)] = float(w)
            except (TypeError, ValueError):
                raise FixtureFormatError(f"{where}: weight for {aid!r} is not a number") from None
        haar = HaarSystem(weights)
    else:
        haar = HaarSystem.counting(groupoid)
    return groupoid, haar


def load_groupoid(path: str | Path) -> tuple[FiniteGroupoid, HaarSystem]:
    return groupoid_from_dict(read_json(path), where=str(path))


def dump_groupoid(
    groupoid: FiniteGroupoid,
    haar: HaarSystem | None = None,
    sector: dict[str, str] | None = None,
) -> dict:
    arrows = []
    for a in groupoid.arrows:
        entry = {"id": a.id, "src": a.src, "dst": a.dst}
        if sector is not None:
            entry["sector"] = sector[a.id]
        arrows.append(entry)
    payload = {
        "units": list(groupoid.units),
        "arrows": arrows,
        "compose": sorted([a, b, c] for (a, b), c in groupoid.compose.items()),
        "inverse": sorted([a, b] for a, b in groupoid.inverse.items()),
    }
    if haar is not None:
        payload["haar"] = sorted([a, w] for a, w in haar.weights.items())
    return payload


def equivalence_from_dict(
    data: dict, base_dir: str | Path | None = None, where: str = "equivalence fixture"
) -> tuple[Bispace, HaarSystem, HaarSystem]:
    def load_side(key: str) -> tuple[FiniteGroupoid, HaarSystem]:
        side = _require(data, key, (dict, str), where)  # type: ignore[arg-type]
        if isinstance(side, str):
            path = Path(side)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return load_groupoid(path)
        return groupoid_from_dict(side, where=f"{where}:{key}")

    G, w_left = load_side("G")
    H, w_right = load_side("H")
    points = tuple(str(z) for z in _require(data, "points", list, where))
    r_map = {str(z): str(u) for z, u in _pairs(data, "r", 2, where)}
    s_map = {str(z): str(v) for z, v in _pairs(data, "s", 2, where)}
    left_action = {
        (str(g), str(z)): str(out) for g, z, out in _pairs(data, "left_action", 3, where)
    }
    right_action = {
        (str(z), str(e)): str(out) for z, e, out in _pairs(data, "right_action", 3, where)
    }
    Z = Bispace(G, H, points, r_map, s_map, left_action, right_action)
    return Z, w_left, w_right


def load_equivalence(path: str | Path) -> tuple[Bispace, HaarSystem, HaarSystem]:
    return equivalence_from_dict(
        read_json(path), base_dir=Path(path).parent, where=str(path)
    )


def dump_equivalence(Z: Bispace, w_left: HaarSystem, w_right: HaarSystem) -> dict:
    return {
        "G": dump_groupoid(Z.left_groupoid, w_left),
        "H": dump_groupoid(Z.right_groupoid, w_right),
        "points": list(Z.points),
        "r": sorted([z, u] for z, u in Z.r_map.items()),
        "s": sorted([z, v] for z, v in Z.s_map.items()),
        "left_action": sorted([g, z, out] for (g, z), out in Z.left_action.items()),
        "right_action": sorted([z, e, out] for (z, e), out in Z.right_action.items()),
    }


_CARRIERS = ("G", "H", "Z", "Zop", "L")


def element_from_dict(data: dict, where: str = "element fixture") -> AlgebraElement:
    carrier = _require(data, "carrier", str, where)
    if carrier not in _CARRIERS:
        raise FixtureFormatError(f"{where}: carrier must be one of {_CARRIERS}, got {carrier!r}")
    values: dict[str, complex] = {}
    for key, re_part, im_part in _pairs(data, "values", 3, where):
        try:
            values[str(key)] = complex(float(re_part), float(im_part))
        except (TypeError, ValueError):
            raise FixtureFormatError(f"{where}: value for {key!r} is not numeric") from None
    return AlgebraElement(carrier, values)


def load_element(path: str | Path) -> AlgebraElement:
    return element_from_dict(read_json(path), where=str(path))


def dump_element(element: AlgebraElement) -> dict:
    return {
        "carrier": element.carrier,
        "values": sorted([k, v.real, v.imag] for k, v in element.values.items()),
    }
