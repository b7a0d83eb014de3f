"""The bimodule kernels against the table-scan oracles, compared exactly.

The library walks product and action rows compiled from the tables; the
oracles walk the raw tables.  Both sum the same terms in the same order,
so every value must be equal, not merely close.
"""

import dataclasses
import random

import numpy as np
import pytest

import oracles
from groupoidal import (
    AlgebraElement,
    FiniteGroupoid,
    HaarSystem,
    UnknownIdError,
    build_linking,
    build_linking_haar,
    convolve,
    ind_delta,
    left_action,
    lip,
    opposite_space,
    reduced_norm,
    right_action,
    rip,
)
from groupoidal.fixtures import (
    cyclic_self_equivalence,
    pair_trivialization,
    source_weighted_haar,
    transitive_equivalence,
)


def _pair_trivial():
    Z = pair_trivialization(2)
    return Z, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)


def _self():
    Z = cyclic_self_equivalence(2)
    return Z, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)


def _transitive():
    # weighted on the left, so the Haar weights enter every sum
    Z = transitive_equivalence(2, 3)
    wl = source_weighted_haar(Z.left_groupoid, {"1": 1.0, "2": 0.3})
    return Z, wl, HaarSystem.counting(Z.right_groupoid)


BASES = {"pair-trivial(2)": _pair_trivial, "self(2)": _self, "transitive(2,3)": _transitive}
CASES = [(name, False) for name in BASES] + [(name, True) for name in BASES]


def case(name, opposite):
    Z, wl, wr = BASES[name]()
    return (opposite_space(Z), wr, wl) if opposite else (Z, wl, wr)


def draw(ids, seed, sparse):
    """Seeded values; a sparse draw keeps about a third of the ids and some explicit zeros."""
    rng = random.Random(repr(seed))
    values = {}
    for key in sorted(ids):
        roll = rng.random()
        if sparse and roll < 0.55:
            continue
        if sparse and roll < 0.65:
            values[key] = 0j
            continue
        values[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return values


def element(carrier, ids, seed, sparse):
    return AlgebraElement(carrier, draw(ids, seed, sparse))


CASE_IDS = [f"{name}{'-op' if op else ''}" for name, op in CASES]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("name,opposite", CASES, ids=CASE_IDS)
class TestKernelsEqualOracles:
    def test_convolve(self, name, opposite, sparse):
        Z, wl, wr = case(name, opposite)
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        sides = (
            (Z.labels[0], Z.left_groupoid, wl),
            (Z.labels[1], Z.right_groupoid, wr),
            ("L", link.groupoid, kappa),
        )
        for seed, (carrier, groupoid, haar) in enumerate(sides):
            for trial in range(3):
                f = element(carrier, groupoid.arrow_ids, (seed, trial, "f"), sparse)
                g = element(carrier, groupoid.arrow_ids, (seed, trial, "g"), sparse)
                want = oracles.convolution(f.values, g.values, groupoid, haar.weights)
                assert convolve(f, g, groupoid, haar).values == want

    def test_actions(self, name, opposite, sparse):
        Z, wl, wr = case(name, opposite)
        G, H = Z.left_groupoid, Z.right_groupoid
        for trial in range(3):
            f = element(Z.labels[0], G.arrow_ids, (trial, "f"), sparse)
            b = element(Z.labels[1], H.arrow_ids, (trial, "b"), sparse)
            phi = element(Z.labels[2], Z.points, (trial, "phi"), sparse)
            want = oracles.left_action(f.values, phi.values, Z, wl.weights)
            assert left_action(f, phi, Z, wl).values == want
            want = oracles.right_action(phi.values, b.values, Z, wr.weights)
            assert right_action(phi, b, Z, wr).values == want

    def test_inner_products(self, name, opposite, sparse):
        Z, wl, wr = case(name, opposite)
        for trial in range(3):
            phi = element(Z.labels[2], Z.points, (trial, "phi"), sparse)
            psi = element(Z.labels[2], Z.points, (trial, "psi"), sparse)
            want = oracles.right_inner(phi.values, psi.values, Z, wl.weights)
            assert rip(phi, psi, Z, wl).values == want
            want = oracles.left_inner(phi.values, psi.values, Z, wr.weights)
            assert lip(phi, psi, Z, wr).values == want

    def test_unit_matrices(self, name, opposite, sparse):
        Z, wl, wr = case(name, opposite)
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        for groupoid, haar in ((Z.left_groupoid, wl), (Z.right_groupoid, wr), (link.groupoid, kappa)):
            f = element("L", groupoid.arrow_ids, ("unit", len(groupoid.arrows)), sparse)
            for u in groupoid.units:
                got = ind_delta(groupoid, haar, u, f).entries
                want = oracles.unit_matrix(groupoid, haar.weights, u, f.values)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _kernels(Z, wl, wr, seed):
    """Each kernel once on seeded dense inputs, with the oracle's result beside it."""
    G, H = Z.left_groupoid, Z.right_groupoid
    f = element(Z.labels[0], G.arrow_ids, (seed, "f"), False)
    g = element(Z.labels[0], G.arrow_ids, (seed, "g"), False)
    b = element(Z.labels[1], H.arrow_ids, (seed, "b"), False)
    phi = element(Z.labels[2], Z.points, (seed, "phi"), False)
    psi = element(Z.labels[2], Z.points, (seed, "psi"), False)
    return {
        "convolve": (
            convolve(f, g, G, wl).values,
            oracles.convolution(f.values, g.values, G, wl.weights),
        ),
        "left_action": (
            left_action(f, phi, Z, wl).values,
            oracles.left_action(f.values, phi.values, Z, wl.weights),
        ),
        "right_action": (
            right_action(phi, b, Z, wr).values,
            oracles.right_action(phi.values, b.values, Z, wr.weights),
        ),
        "rip": (
            rip(phi, psi, Z, wl).values,
            oracles.right_inner(phi.values, psi.values, Z, wl.weights),
        ),
        "lip": (
            lip(phi, psi, Z, wr).values,
            oracles.left_inner(phi.values, psi.values, Z, wr.weights),
        ),
        "ind_delta": (
            ind_delta(G, wl, "1", f).entries.tolist(),
            oracles.unit_matrix(G, wl.weights, "1", f.values).tolist(),
        ),
    }


def test_weights_changed_in_place_show_in_the_next_call():
    Z, wl, wr = _transitive()
    before = _kernels(Z, wl, wr, 5)
    for haar in (wl, wr):
        for key in haar.weights:
            haar.weights[key] *= 2.0
    after = _kernels(Z, wl, wr, 5)
    for name in before:
        got, want = after[name]
        assert got == want, name
        assert got != before[name][0], name


def test_missing_composition_raises():
    Z, wl, _ = _transitive()
    G = Z.left_groupoid
    compose = dict(G.compose)
    del compose[("(1,2,1)", "(2,1,2)")]
    broken = FiniteGroupoid(G.units, G.arrows, compose, dict(G.inverse), dict(G.unit_arrow))
    f = element("G", G.arrow_ids, "f", False)
    with pytest.raises(UnknownIdError):
        convolve(f, f, broken, wl)
    with pytest.raises(UnknownIdError):
        ind_delta(broken, wl, "2", f)


@pytest.mark.parametrize("table", ["left_action", "right_action"])
def test_missing_action_entry_raises(table):
    Z, wl, wr = _transitive()
    entries = dict(getattr(Z, table))
    del entries[sorted(entries)[1]]
    broken = dataclasses.replace(Z, **{table: entries})
    G, H = Z.left_groupoid, Z.right_groupoid
    f = element("G", G.arrow_ids, "f", False)
    b = element("H", H.arrow_ids, "b", False)
    phi = element("Z", Z.points, "phi", False)
    calls = [
        lambda: rip(phi, phi, broken, wl),
        lambda: lip(phi, phi, broken, wr),
        (lambda: left_action(f, phi, broken, wl))
        if table == "left_action"
        else (lambda: right_action(phi, b, broken, wr)),
    ]
    for call in calls:
        with pytest.raises(UnknownIdError):
            call()


def test_reduced_norm_builds_one_unit_table_per_orbit():
    Z, wl, wr = _transitive()
    link = build_linking(Z)
    kappa = build_linking_haar(link, wl, wr)
    L = link.groupoid
    F = element("L", L.arrow_ids, "F", False)
    unit_norms = [np.linalg.norm(oracles.unit_matrix(L, kappa.weights, u, F.values), 2) for u in L.units]
    assert reduced_norm(F, L, kappa) == pytest.approx(max(unit_norms), rel=1e-12)
    assert len(L._fiber_products) == 1
