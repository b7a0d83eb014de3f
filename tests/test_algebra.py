import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import (
    AlgebraElement,
    CarrierMismatchError,
    HaarSystem,
    Lcg,
    NonFiniteError,
    StructureBrokenError,
    UnknownIdError,
    build_linking,
    build_linking_haar,
    convolve,
    convolve_linking_blockwise,
    involution,
    left_action,
    lip,
    op_star,
    opposite_space,
    random_element,
    right_action,
    rip,
)
from groupoidal.algebra import blockwise_residual
from groupoidal.fixtures import cyclic_self_equivalence, pair_trivialization, transitive_equivalence
import groupoidal

D = AlgebraElement.delta

coeff = st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False))


def elements_on(ids, count):
    return st.lists(
        st.lists(coeff, min_size=len(ids), max_size=len(ids)),
        min_size=count,
        max_size=count,
    ).map(
        lambda rows: [
            AlgebraElement("G", {k: complex(re, im) for k, (re, im) in zip(ids, row)})
            for row in rows
        ]
    )


class TestConvolve:
    def test_group_multiplication(self, cyclic2):
        g, w = cyclic2
        assert convolve(D("G", "g1"), D("G", "g1"), g, w).values == {"g0": 1.0 + 0j}

    def test_matrix_units(self, pair2):
        g, w = pair2
        out = convolve(D("G", "(1,2)"), D("G", "(2,1)"), g, w)
        assert out.values == {"(1,1)": 1.0 + 0j}

    def test_non_composable_deltas_vanish(self, pair2):
        g, w = pair2
        assert convolve(D("G", "(1,2)"), D("G", "(1,2)"), g, w).values == {}

    def test_carrier_mismatch_rejected(self, pair2):
        g, w = pair2
        with pytest.raises(CarrierMismatchError):
            convolve(D("G", "(1,2)"), D("H", "id_*"), g, w)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_associativity_on_group(self, data):
        from groupoidal.fixtures import cyclic_group

        g = cyclic_group(2)
        w = HaarSystem.counting(g)
        f1, f2, f3 = data.draw(elements_on(g.arrow_ids, 3))
        left = convolve(convolve(f1, f2, g, w), f3, g, w)
        right = convolve(f1, convolve(f2, f3, g, w), g, w)
        assert left.distance(right) <= 1e-12

    def test_associativity_on_linking_groupoid(self, self2):
        Z, wl, wr = self2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        rng = Lcg(11)
        ids = link.groupoid.arrow_ids
        f1, f2, f3 = (random_element("L", ids, rng) for _ in range(3))
        left = convolve(convolve(f1, f2, link.groupoid, kappa), f3, link.groupoid, kappa)
        right = convolve(f1, convolve(f2, f3, link.groupoid, kappa), link.groupoid, kappa)
        assert left.distance(right) <= 1e-12


class TestInvolution:
    def test_conjugates_and_inverts(self, pair2):
        g, _ = pair2
        out = involution(1j * D("G", "(1,2)"), g)
        assert out.values == {"(2,1)": -1j}

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_involutive(self, data):
        from groupoidal.fixtures import pair_groupoid

        g = pair_groupoid(2)
        (f,) = data.draw(elements_on(g.arrow_ids, 1))
        assert involution(involution(f, g), g).distance(f) == 0.0

    def test_symmetric_element_is_fixed(self, cyclic2):
        g, _ = cyclic2
        f = AlgebraElement("G", {"g0": 1.0, "g1": 1.0})
        assert involution(f, g).distance(f) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_antimultiplicative(self, data):
        from groupoidal.fixtures import cyclic_group

        g = cyclic_group(2)
        w = HaarSystem.counting(g)
        f1, f2 = data.draw(elements_on(g.arrow_ids, 2))
        left = involution(convolve(f1, f2, g, w), g)
        right = convolve(involution(f2, g), involution(f1, g), g, w)
        assert left.distance(right) <= 1e-12


class TestModuleActions:
    def test_left_action_moves_delta(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        out = left_action(D("G", "(1,2)"), D("Z", "z2"), Z, wl)
        assert out.values == {"z1": 1.0 + 0j}

    def test_unit_supported_function_acts_as_partial_identity(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        phi = AlgebraElement("Z", {"z1": 2.0 + 1j, "z2": -1.0 + 0j})
        out = left_action(D("G", "(1,1)"), phi, Z, wl)
        assert out.values == {"z1": 2.0 + 1j}  # the range-1 fiber survives

    def test_zero_acts_as_zero(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        phi = D("Z", "z1")
        assert left_action(AlgebraElement.zero("G"), phi, Z, wl).values == {}
        assert right_action(phi, AlgebraElement.zero("H"), Z, wr).values == {}

    def test_right_action_trivial_group(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        assert right_action(D("Z", "z1"), D("H", "id_*"), Z, wr).values == {"z1": 1.0 + 0j}

    def test_right_action_group_translation(self, self2):
        Z, _, wr = self2
        out = right_action(D("Z", "g0"), D("H", "g1"), Z, wr)
        assert out.values == {"g1": 1.0 + 0j}

    def test_bimodule_compatibility(self, self2):
        Z, wl, wr = self2
        rng = Lcg(5)
        f = random_element("G", Z.left_groupoid.arrow_ids, rng)
        phi = random_element("Z", Z.points, rng)
        b = random_element("H", Z.right_groupoid.arrow_ids, rng)
        left = right_action(left_action(f, phi, Z, wl), b, Z, wr)
        right = left_action(f, right_action(phi, b, Z, wr), Z, wl)
        assert left.distance(right) <= 1e-12


class TestInnerProducts:
    def test_right_inner_product_deltas(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        assert rip(D("Z", "z1"), D("Z", "z1"), Z, wl).values == {"id_*": 1.0 + 0j}
        assert rip(D("Z", "z1"), D("Z", "z2"), Z, wl).values == {}

    def test_left_inner_product_deltas(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        assert lip(D("Z", "z1"), D("Z", "z1"), Z, wr).values == {"(1,1)": 1.0 + 0j}
        assert lip(D("Z", "z1"), D("Z", "z2"), Z, wr).values == {"(1,2)": 1.0 + 0j}
        assert lip(AlgebraElement.zero("Z"), D("Z", "z2"), Z, wr).values == {}

    def test_self_inner_product_real_at_units(self, self2):
        Z, wl, _ = self2
        phi = random_element("Z", Z.points, Lcg(9))
        gram = rip(phi, phi, Z, wl)
        unit_value = gram.get("g0")
        assert abs(unit_value.imag) <= 1e-12
        assert unit_value.real >= 0.0

    def test_adjoint_relations(self, self2):
        Z, wl, wr = self2
        G, H = Z.left_groupoid, Z.right_groupoid
        rng = Lcg(21)
        f = random_element("G", G.arrow_ids, rng)
        b = random_element("H", H.arrow_ids, rng)
        phi = random_element("Z", Z.points, rng)
        psi = random_element("Z", Z.points, rng)
        lhs = rip(left_action(f, phi, Z, wl), psi, Z, wl)
        rhs = rip(phi, left_action(involution(f, G), psi, Z, wl), Z, wl)
        assert lhs.distance(rhs) <= 1e-12
        lhs = lip(right_action(phi, b, Z, wr), psi, Z, wr)
        rhs = lip(phi, right_action(psi, involution(b, H), Z, wr), Z, wr)
        assert lhs.distance(rhs) <= 1e-12

    def test_base_point_dependence_aborts(self, self2):
        Z, _, _ = self2
        lopsided = HaarSystem({"g0": 1.0, "g1": 2.0})
        phi = AlgebraElement("Z", {"g0": 1.0, "g1": 2.0j})
        with pytest.raises(StructureBrokenError):
            rip(phi, phi, Z, lopsided)

    def test_left_base_point_dependence_aborts(self, self2):
        Z, _, _ = self2
        lopsided = HaarSystem({"g0": 1.0, "g1": 2.0})
        phi = AlgebraElement("Z", {"g0": 1.0, "g1": 2.0j})
        with pytest.raises(StructureBrokenError, match="depends on the base point"):
            lip(phi, phi, Z, lopsided)

    def test_infinite_base_point_sums_are_non_finite(self, pair_trivial2):
        # both base points sum to inf, whose difference is NaN: no comparison is possible
        Z, _, _ = pair_trivial2
        huge = HaarSystem({a: 1.7e308 for a in Z.left_groupoid.arrow_ids})
        phi = AlgebraElement("Z", {"z1": 1.0 + 0j, "z2": 1.0 + 0j})
        with pytest.raises(NonFiniteError, match="at right arrow 'id_[*]' is not finite"):
            rip(phi, phi, Z, huge)

    @pytest.mark.parametrize("name", ["pair-trivial(2) rip", "self(2) rip", "self(2) lip"])
    def test_huge_finite_base_point_sums_are_non_finite(self, pair_trivial2, self2, name):
        # finite sums whose modulus is past the largest float
        Z, wl, wr = pair_trivial2 if name.startswith("pair") else self2
        phi = AlgebraElement("Z", {z: 1.0 + 0j for z in Z.points})
        psi = AlgebraElement("Z", {z: 0.8e308 + 0.8e308j for z in Z.points})
        inner, haar, key = (rip, wl, "right arrow") if name.endswith("rip") else (lip, wr, "left arrow")
        with pytest.raises(NonFiniteError, match=f"at {key} '[^']*' is not finite"):
            inner(phi, psi, Z, haar)

    @pytest.mark.parametrize(
        "name, side",
        [("left_action", "left"), ("right_action", "right"), ("rip", "left"), ("lip", "right")],
    )
    def test_missing_weight_names_the_haar_system(self, self2, name, side):
        Z, _, _ = self2
        partial = HaarSystem({"g0": 1.0})  # no weight for g1
        ones = {k: 1.0 + 0j for k in ("g0", "g1")}
        f, b, phi = AlgebraElement("G", ones), AlgebraElement("H", ones), AlgebraElement("Z", ones)
        calls = {
            "left_action": lambda: left_action(f, phi, Z, partial),
            "right_action": lambda: right_action(phi, b, Z, partial),
            "rip": lambda: rip(phi, phi, Z, partial),
            "lip": lambda: lip(phi, phi, Z, partial),
        }
        with pytest.raises(UnknownIdError, match=f"'g1' is missing from the {side} Haar system"):
            calls[name]()

    def test_overflow_from_finite_inputs_is_non_finite(self, pair_trivial2):
        Z, _, _ = pair_trivial2
        huge = HaarSystem({a: 1.7e308 for a in Z.left_groupoid.arrow_ids})
        f = AlgebraElement("G", {a: 2.0 + 0j for a in Z.left_groupoid.arrow_ids})
        phi = AlgebraElement("Z", {z: 1.0 + 0j for z in Z.points})
        with pytest.raises(NonFiniteError, match="left action at point 'z1' is not finite"):
            left_action(f, phi, Z, huge)

    @pytest.mark.parametrize("name", ["convolve-f", "convolve-g", "left_action", "right_action", "rip", "lip"])
    def test_values_on_unknown_ids_raise(self, pair_trivial2, name):
        Z, wl, wr = pair_trivial2
        G = Z.left_groupoid
        f, b, phi = D("G", "(1,2)"), D("H", "id_*"), D("Z", "z1")
        bad_f = AlgebraElement("G", {"(1,2)": 1.0 + 0j, "nope": 5j})
        bad_phi = AlgebraElement("Z", {"z1": 1.0 + 0j, "nope": 5j})
        bad_b = AlgebraElement("H", {"id_*": 1.0 + 0j, "nope": 5j})
        calls = {
            "convolve-f": lambda: convolve(bad_f, f, G, wl),
            "convolve-g": lambda: convolve(f, bad_f, G, wl),
            "left_action": lambda: left_action(bad_f, phi, Z, wl),
            "right_action": lambda: right_action(phi, bad_b, Z, wr),
            "rip": lambda: rip(phi, bad_phi, Z, wl),
            "lip": lambda: lip(bad_phi, phi, Z, wr),
        }
        with pytest.raises(UnknownIdError, match="'nope'"):
            calls[name]()

    def test_imprimitivity_identity(self):
        Z = transitive_equivalence(2, 2)
        wl = HaarSystem.counting(Z.left_groupoid)
        wr = HaarSystem.counting(Z.right_groupoid)
        rng = Lcg(33)
        phi, psi, chi = (random_element("Z", Z.points, rng) for _ in range(3))
        lhs = left_action(lip(phi, psi, Z, wr), chi, Z, wl)
        rhs = right_action(phi, rip(psi, chi, Z, wl), Z, wr)
        assert lhs.distance(rhs) <= 1e-10


class TestOppositeModule:
    def test_op_star_examples(self):
        assert op_star(D("Zop", "~z1")).values == {"z1": 1.0 - 0j}
        assert op_star(1j * D("Zop", "~z1")).values == {"z1": -1j}
        phi = AlgebraElement("Z", {"z1": 2.0 + 3j})
        assert op_star(op_star(phi)).values == phi.values

    def test_left_action_on_mirror(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        zop = opposite_space(Z)
        out = left_action(D("H", "id_*"), D("Zop", "~z1"), zop, wr)
        assert out.values == {"~z1": 1.0 + 0j}

    def test_mirror_inner_product_matches_transport(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        zop = opposite_space(Z)
        out = rip(D("Zop", "~z1"), D("Zop", "~z1"), zop, wr)
        assert out.values == {"(1,1)": 1.0 + 0j}

    def test_mirror_inner_product_transport_randomized(self, self2):
        Z, _, wr = self2
        zop = opposite_space(Z)
        rng = Lcg(17)
        psi1 = random_element("Zop", zop.points, rng)
        psi2 = random_element("Zop", zop.points, rng)
        via_mirror = rip(psi1, psi2, zop, wr)
        via_transport = lip(op_star(psi1), op_star(psi2), Z, wr)
        assert via_mirror.distance(via_transport) <= 1e-12

    def test_zero_right_action_on_mirror(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        zop = opposite_space(Z)
        psi = D("Zop", "~z1")
        assert right_action(psi, AlgebraElement.zero("G"), zop, wl).values == {}


class TestBlockwiseConvolution:
    def test_orthogonal_corners_multiply_to_zero(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        F = AlgebraElement("L", {"G:(1,2)": 1.0 + 0j, "G:(2,2)": 2.0 + 0j})
        K = AlgebraElement("L", {"H:id_*": -1.0 + 1j})
        out = convolve_linking_blockwise(F, K, link, wl, wr)
        assert out.values == {}

    def test_point_times_mirror_gives_left_inner_product(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        out = convolve_linking_blockwise(
            D("L", "Z:z1"), D("L", "Zop:~z1"), link, wl, wr
        )
        assert out.values == {"G:(1,1)": 1.0 + 0j}

    def test_blockwise_equals_direct_on_random_pairs(self):
        for Z in (pair_trivialization(2), cyclic_self_equivalence(2), transitive_equivalence(2, 2)):
            wl = HaarSystem.counting(Z.left_groupoid)
            wr = HaarSystem.counting(Z.right_groupoid)
            link = build_linking(Z)
            kappa = build_linking_haar(link, wl, wr)
            rng = Lcg(0x5EED)
            for _ in range(10):
                F = random_element("L", link.groupoid.arrow_ids, rng)
                K = random_element("L", link.groupoid.arrow_ids, rng)
                _, residual, _ = blockwise_residual(F, K, link, wl, wr, kappa)
                assert residual <= 1e-12

    def test_nan_gap_counts_as_unbounded(self, pair_trivial2):
        # max() drops a NaN, so a NaN gap must not read as a small residual
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        F = AlgebraElement("L", {"G:(1,1)": complex("nan"), "G:(1,2)": 1.0 + 0j})
        _, residual, worst = blockwise_residual(F, F, link, wl, wr)
        assert residual == float("inf") and worst is not None
        assert F.distance(AlgebraElement("L", {"G:(1,2)": 1.0 + 0j})) == float("inf")

    def test_tied_worst_arrow_is_the_first_in_canonical_order_in_any_process(self):
        # a NaN weight makes three gaps infinite; the witness names the first
        # of them in canonical arrow order, whatever the string hash seed
        script = """
import json
from groupoidal import HaarSystem, build_linking, build_linking_haar, verify_universal_norm_finite
from groupoidal.fixtures import pair_trivialization
Z = pair_trivialization(2)
wl, wr = HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)
link = build_linking(Z)
weights = dict(build_linking_haar(link, wl, wr).weights)
weights["Z:z1"] = float("nan")
report = verify_universal_norm_finite(Z, wl, wr, 3, 1e-9, 1, link, HaarSystem(weights))
print(json.dumps(report.witness))
"""
        src = str(Path(groupoidal.__file__).resolve().parent.parent)
        witnesses = []
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
            )
            assert done.returncode == 0, done.stderr
            witnesses.append(json.loads(done.stdout))
        assert witnesses[0] == witnesses[1]
        assert witnesses[0]["arrow"] == "G:(1,1)"

    def test_detects_tampered_direct_product(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        tampered = HaarSystem(dict(kappa.weights))
        tampered.weights["Z:z1"] = 2.0
        F = D("L", "Z:z1")
        K = D("L", "Zop:~z1")
        with pytest.raises(StructureBrokenError):
            convolve_linking_blockwise(F, K, link, wl, wr, linking_haar=tampered)
