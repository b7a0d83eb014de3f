"""Reduced norms straight from fixture tables, sharing no code with groupoidal.

For a unit ``u`` the regular representation acts on the source fibre
``G_u`` (masses ``m(b) = w(inverse(b))``); in the basis normalised by
``sqrt(m)`` its matrix is

    M[g, b] = f(g inverse(b)) * w(g inverse(b)) * sqrt(m(g) / m(b)).

The reduced norm is the largest singular value over all units, taken
here from LAPACK through ``np.linalg.svd``.
"""

from __future__ import annotations

import math

import numpy as np


def reduced_norm(groupoid: dict, values: dict[str, complex]) -> float:
    """Reduced norm of ``values`` on a groupoid given in the JSON fixture format."""
    compose = {(a, b): c for a, b, c in groupoid["compose"]}
    inverse = dict(groupoid["inverse"])
    haar = {a: float(w) for a, w in groupoid.get("haar", [])}

    def weight(arrow: str) -> float:
        return haar[arrow] if haar else 1.0

    fibres: dict[str, list[str]] = {}
    for arrow in groupoid["arrows"]:
        fibres.setdefault(arrow["src"], []).append(arrow["id"])
    best = 0.0
    for unit in groupoid["units"]:
        fibre = fibres.get(unit, [])
        mass = [weight(inverse[b]) for b in fibre]
        matrix = np.zeros((len(fibre), len(fibre)), dtype=complex)
        for i, g in enumerate(fibre):
            for j, b in enumerate(fibre):
                a = compose[(g, inverse[b])]
                matrix[i, j] = values.get(a, 0.0) * weight(a) * math.sqrt(mass[i] / mass[j])
        if fibre:
            best = max(best, float(np.linalg.svd(matrix, compute_uv=False)[0]))
    return best


def agrees(value: float, reference: float, rel: float = 1e-9) -> bool:
    return abs(value - reference) <= rel * abs(reference)
