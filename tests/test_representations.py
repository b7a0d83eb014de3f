import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import (
    AlgebraElement,
    Arrow,
    FiniteGroupoid,
    GSpace,
    HaarSystem,
    Lcg,
    StructureBrokenError,
    UnknownIdError,
    build_linking,
    build_linking_haar,
    check_i_norm_bound,
    convolve,
    gram_min_eigenvalue,
    ind_delta,
    ind_mu,
    intertwining_residual,
    operator_norm,
    r_mu_rep,
    random_element,
    reduced_kernel_dimension,
    reduced_norm,
    reduced_norms,
)
from groupoidal.fixtures import (
    cyclic_group,
    cyclic_self_equivalence,
    disjoint_union,
    pair_groupoid,
    pair_trivialization,
    source_weighted_haar,
    transitive_equivalence,
    transitive_groupoid,
)
from groupoidal.representations import RepMatrix, norm_units
from oracles import cyclic_index, dft_norm, gaussian_rank, stacked_delta_matrix, svd_norm

D = AlgebraElement.delta


class TestIndDelta:
    def test_pair_groupoid_matrix_unit(self, pair2):
        g, w = pair2
        m = ind_delta(g, w, "1", D("G", "(1,2)"))
        assert m.basis == ("(1,1)", "(2,1)")
        assert np.allclose(m.entries, [[0, 1], [0, 0]])
        assert operator_norm(m) == pytest.approx(1.0)

    def test_cyclic_generator_swaps_basis(self, cyclic2):
        g, w = cyclic2
        m = ind_delta(g, w, "e", D("G", "g1"))
        assert np.allclose(m.entries, [[0, 1], [1, 0]])

    def test_normalized_units_give_identity(self):
        g = pair_groupoid(2)
        w = source_weighted_haar(g, {"1": 1.0, "2": 2.0})
        f = AlgebraElement(
            "G", {g.unit(u): 1.0 / w.weight(g.unit(u)) for u in g.units}
        )
        for u in g.units:
            m = ind_delta(g, w, u, f)
            assert np.allclose(m.entries, np.eye(len(m.basis)))

    def test_star_homomorphism(self):
        g = transitive_groupoid_fixture()
        w = HaarSystem.counting(g)
        rng = Lcg(41)
        f = random_element("G", g.arrow_ids, rng)
        k = random_element("G", g.arrow_ids, rng)
        fk = convolve(f, k, g, w)
        from groupoidal import involution

        for u in g.units:
            mf = ind_delta(g, w, u, f)
            mk = ind_delta(g, w, u, k)
            assert np.abs(ind_delta(g, w, u, fk).entries - mf.entries @ mk.entries).max() <= 1e-12
            mstar = ind_delta(g, w, u, involution(f, g))
            assert np.abs(mstar.entries - mf.entries.conj().T).max() <= 1e-12

    def test_adjointness_with_nonuniform_weights(self):
        g = pair_groupoid(2)
        w = source_weighted_haar(g, {"1": 1.0, "2": 3.0})
        from groupoidal import involution

        f = random_element("G", g.arrow_ids, Lcg(4))
        for u in g.units:
            mf = ind_delta(g, w, u, f)
            mstar = ind_delta(g, w, u, involution(f, g))
            assert np.abs(mstar.entries - mf.entries.conj().T).max() <= 1e-12


def transitive_groupoid_fixture():
    from groupoidal.fixtures import transitive_groupoid

    return transitive_groupoid(2, 2)


class TestOperatorNorm:
    def test_nilpotent(self):
        m = RepMatrix(("a", "b"), np.array([[0, 1], [0, 0]], dtype=complex), np.ones(2))
        assert operator_norm(m) == pytest.approx(1.0)

    def test_identity(self):
        m = RepMatrix(tuple("abc"), np.eye(3, dtype=complex), np.ones(3))
        assert operator_norm(m) == pytest.approx(1.0)

    def test_rank_one_against_svd_oracle(self):
        entries = np.array([[1, 1], [1, 1]], dtype=complex)
        m = RepMatrix(("a", "b"), entries, np.ones(2))
        assert operator_norm(m) == pytest.approx(2.0, abs=1e-12)
        assert operator_norm(m) == pytest.approx(svd_norm(entries), abs=1e-12)

    def test_random_matrices_match_svd_oracle(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 9):
            entries = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = RepMatrix(tuple(map(str, range(n))), entries, np.ones(n))
            assert operator_norm(m) == pytest.approx(svd_norm(entries), abs=1e-10)

    def test_non_finite_entries_rejected(self):
        entries = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        m = RepMatrix(("a", "b"), entries, np.ones(2))
        with pytest.raises(ValueError):
            operator_norm(m)


class TestReducedNorm:
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)),
        st.tuples(st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)),
    )
    def test_order_two_group_closed_form(self, a, b):
        g = cyclic_group(2)
        w = HaarSystem.counting(g)
        ca, cb = complex(*a), complex(*b)
        f = AlgebraElement("G", {"g0": ca, "g1": cb})
        expected = max(abs(ca + cb), abs(ca - cb))
        assert reduced_norm(f, g, w) == pytest.approx(expected, abs=1e-10)

    def test_matrix_unit_norm(self, pair2):
        g, w = pair2
        assert reduced_norm(D("G", "(1,2)"), g, w) == pytest.approx(1.0)

    def test_zero(self, pair2):
        g, w = pair2
        assert reduced_norm(AlgebraElement.zero("G"), g, w) == 0.0

    def test_values_on_unknown_ids_raise(self, pair2):
        g, w = pair2
        f = AlgebraElement("G", {"(1,2)": 1.0 + 0j, "(1,7)": 2.0 + 0j})
        calls = (
            lambda: reduced_norm(f, g, w),
            lambda: ind_delta(g, w, "1", f),
            lambda: reduced_norms([D("G", "(1,2)"), f], g, w),
        )
        for call in calls:
            with pytest.raises(UnknownIdError, match=r"\(1,7\)"):
                call()

    def test_fourier_oracle_on_small_cyclic_groups(self):
        for n in (2, 3, 4):
            g = cyclic_group(n)
            w = HaarSystem.counting(g)
            rng = Lcg(n)
            for _ in range(10):
                f = random_element("G", g.arrow_ids, rng)
                coeffs = [0j] * n
                for aid, value in f.values.items():
                    coeffs[cyclic_index(aid)] = value
                expected = dft_norm(coeffs)
                got = reduced_norm(f, g, w)
                assert abs(got - expected) <= 1e-9 * max(1.0, expected)


def all_unit_norm(f, g, w):
    return max(svd_norm(ind_delta(g, w, u, f).entries) for u in g.units)


class TestOrbitShortcut:
    def test_one_unit_per_orbit_on_disjoint_union(self):
        g = disjoint_union(transitive_groupoid(2, 2), pair_groupoid(3))
        w = source_weighted_haar(g, {u: float(i + 1) for i, u in enumerate(g.units)})
        assert norm_units(g, w) == ("A:1", "B:1")
        rng = Lcg(71)
        for _ in range(5):
            f = random_element("G", g.arrow_ids, rng)
            want = all_unit_norm(f, g, w)
            assert abs(reduced_norm(f, g, w) - want) <= 1e-12 * max(1.0, want)

    def test_non_invariant_haar_solves_every_unit(self):
        g = pair_groupoid(2)
        w = HaarSystem({a.id: (2.0 if a.id == "(1,2)" else 1.0) for a in g.arrows})
        assert norm_units(g, w) == g.units
        f = random_element("G", g.arrow_ids, Lcg(0))
        norms = [svd_norm(ind_delta(g, w, u, f).entries) for u in g.units]
        # the representative alone would miss the largest per-unit norm
        assert norms[0] < max(norms)
        assert reduced_norm(f, g, w) == pytest.approx(max(norms), rel=1e-12)

    def test_guard_reads_weights_changed_in_place(self):
        g = pair_groupoid(2)
        w = HaarSystem.counting(g)
        f = random_element("G", g.arrow_ids, Lcg(0))
        assert norm_units(g, w) == ("1",)
        w.weights["(1,2)"] = 2.0
        assert norm_units(g, w) == g.units
        assert reduced_norm(f, g, w) == pytest.approx(all_unit_norm(f, g, w), rel=1e-12)

    def test_unit_without_transport_is_its_own_representative(self):
        g = pair_groupoid(2)
        compose = dict(g.compose)
        del compose[("(1,1)", "(1,2)")]
        broken = FiniteGroupoid(g.units, g.arrows, compose, dict(g.inverse), dict(g.unit_arrow))
        assert broken.orbit_transport == (("1", "2"), ())

    def test_linking_groupoid_is_one_orbit(self):
        Z = transitive_equivalence(3, 2)
        wl = source_weighted_haar(Z.left_groupoid, {"1": 1.0, "2": 0.5, "3": 4.0})
        wr = HaarSystem.counting(Z.right_groupoid)
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        L = link.groupoid
        assert len(norm_units(L, kappa)) == 1
        f = random_element("L", L.arrow_ids, Lcg(5))
        want = all_unit_norm(f, L, kappa)
        assert abs(reduced_norm(f, L, kappa) - want) <= 1e-12 * max(1.0, want)


class TestIndMu:
    def test_point_mass_is_single_block(self, pair2):
        g, w = pair2
        f = random_element("G", g.arrow_ids, Lcg(8))
        single = ind_mu(g, w, {"1": 1.0}, f)
        block = ind_delta(g, w, "1", f)
        assert single.basis == block.basis
        assert np.allclose(single.entries, block.entries)

    def test_two_atoms_are_block_diagonal(self, pair2):
        g, w = pair2
        f = random_element("G", g.arrow_ids, Lcg(8))
        both = ind_mu(g, w, {"1": 0.5, "2": 2.0}, f)
        b1 = ind_delta(g, w, "1", f)
        b2 = ind_delta(g, w, "2", f)
        assert both.basis == b1.basis + b2.basis
        k = len(b1.basis)
        assert np.allclose(both.entries[:k, :k], b1.entries)
        assert np.allclose(both.entries[k:, k:], b2.entries)
        assert np.allclose(both.entries[:k, k:], 0)
        assert operator_norm(both) == pytest.approx(
            max(operator_norm(b1), operator_norm(b2)), abs=1e-10
        )

    def test_negative_mass_rejected(self, pair2):
        g, w = pair2
        with pytest.raises(ValueError):
            ind_mu(g, w, {"1": -1.0}, AlgebraElement.zero("G"))

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_non_finite_mass_rejected(self, pair2, mass):
        g, w = pair2
        with pytest.raises(ValueError, match="unit '2' is not finite"):
            ind_mu(g, w, {"1": 1.0, "2": mass}, D("G", "(1,2)"))

    def test_supremum_over_atomic_measures_attains_reduced_norm(self):
        g = transitive_groupoid_fixture()
        w = HaarSystem.counting(g)
        rng = Lcg(61)
        for _ in range(5):
            f = random_element("G", g.arrow_ids, rng)
            target = reduced_norm(f, g, w)
            full = operator_norm(ind_mu(g, w, {u: 1.0 for u in g.units}, f))
            assert full == pytest.approx(target, abs=1e-12)
            partial = operator_norm(ind_mu(g, w, {g.units[0]: 0.5}, f))
            assert partial <= target + 1e-10


class TestOrbitRepresentation:
    def test_transport_matches_unit_representation(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        f = D("G", "(1,2)")
        orbit = r_mu_rep(Z.left_space, wl, {"z1": 1.0}, f)
        model = ind_delta(Z.left_groupoid, wl, "1", f)
        assert sorted(orbit.basis) == ["z1", "z2"]
        assert intertwining_residual(Z.left_space, wl, "z1", f) <= 1e-12
        assert operator_norm(orbit) == pytest.approx(operator_norm(model), abs=1e-12)

    def test_transport_on_transitive_fixture(self):
        Z = transitive_equivalence(2, 3)
        wl = HaarSystem.counting(Z.left_groupoid)
        f = random_element("G", Z.left_groupoid.arrow_ids, Lcg(19))
        for x0 in Z.points:
            assert intertwining_residual(Z.left_space, wl, x0, f) <= 1e-12

    def test_group_acting_on_itself_reproduces_atomic_sum(self, pair2):
        g, w = pair2
        X = group_self_equivalence_space(g)
        f = random_element("G", g.arrow_ids, Lcg(23))
        orbit_mu = {g.unit(u): 1.0 for u in g.units}
        via_space = r_mu_rep(X, w, orbit_mu, f)
        via_atoms = ind_mu(g, w, {u: 1.0 for u in g.units}, f)
        lhs = {
            (r, c): via_space.entries[i, j]
            for i, r in enumerate(via_space.basis)
            for j, c in enumerate(via_space.basis)
        }
        rhs = {
            (r, c): via_atoms.entries[i, j]
            for i, r in enumerate(via_atoms.basis)
            for j, c in enumerate(via_atoms.basis)
        }
        assert set(lhs) == set(rhs)
        assert all(abs(lhs[k] - rhs[k]) <= 1e-12 for k in lhs)

    def test_zero_function_gives_zero_matrix(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        m = r_mu_rep(Z.left_space, wl, {"z1": 1.0}, AlgebraElement.zero("G"))
        assert np.allclose(m.entries, 0)

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_non_finite_orbit_mass_rejected(self, pair_trivial2, mass):
        Z, wl, _ = pair_trivial2
        with pytest.raises(ValueError, match="'z2' is not finite"):
            r_mu_rep(Z.left_space, wl, {"z2": mass}, D("G", "(1,2)"))

    def test_non_free_action_rejected(self, cyclic2):
        g, w = cyclic2
        X = GSpace(g, ("p",), {"p": "e"}, {("g0", "p"): "p", ("g1", "p"): "p"})
        with pytest.raises(StructureBrokenError):
            r_mu_rep(X, w, {"p": 1.0}, AlgebraElement.zero("G"))

    def test_orbit_norm_dominated_by_reduced_norm(self):
        Z = transitive_equivalence(2, 2)
        wl = HaarSystem.counting(Z.left_groupoid)
        rng = Lcg(29)
        for _ in range(5):
            f = random_element("G", Z.left_groupoid.arrow_ids, rng)
            big = reduced_norm(f, Z.left_groupoid, wl)
            mu = {Z.points[0]: 1.0}
            small = operator_norm(r_mu_rep(Z.left_space, wl, mu, f))
            assert small <= big + 1e-9


def group_self_equivalence_space(g):
    from groupoidal.fixtures import left_translation_space

    return left_translation_space(g)


class TestKernelDimension:
    def test_pair_groupoid_is_faithful(self, pair2):
        assert reduced_kernel_dimension(*pair2) == 0

    def test_group_regular_representation_is_faithful(self, cyclic2):
        assert reduced_kernel_dimension(*cyclic2) == 0

    def test_disjoint_union_is_faithful(self):
        g = disjoint_union(pair_groupoid(2), cyclic_group(2))
        assert reduced_kernel_dimension(g, HaarSystem.counting(g)) == 0

    def test_count_matches_gaussian_rank_of_stacked_matrix(self):
        union = disjoint_union(transitive_groupoid(2, 2), cyclic_group(3))
        pair = pair_groupoid(3)
        Z = transitive_equivalence(2, 2)
        link = build_linking(Z)
        cases = [
            (union, source_weighted_haar(union, {u: 2.0 ** i for i, u in enumerate(union.units)})),
            (pair, HaarSystem({a.id: (3.0 if a.id == "(1,2)" else 1.0) for a in pair.arrows})),
            (link.groupoid, build_linking_haar(
                link, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)
            )),
        ]
        for g, w in cases:
            stacked = stacked_delta_matrix(g, w.weights)
            assert reduced_kernel_dimension(g, w) == len(g.arrows) - gaussian_rank(stacked) == 0

    def test_arrow_outside_every_fiber_spans_the_kernel(self):
        g = pair_groupoid(2)
        compose = dict(g.compose)
        compose[("stray", "stray")] = "stray"
        inverse = dict(g.inverse, stray="stray")
        broken = FiniteGroupoid(
            g.units, g.arrows + (Arrow("stray", "9", "9"),), compose, inverse, dict(g.unit_arrow)
        )
        w = HaarSystem.counting(broken)
        stacked = stacked_delta_matrix(broken, w.weights)
        assert reduced_kernel_dimension(broken, w) == 5 - gaussian_rank(stacked) == 1


class TestINormBound:
    def test_matrix_unit(self, pair2):
        g, w = pair2
        report = check_i_norm_bound(g, w, D("G", "(1,2)"))
        assert report.ok

    def test_constant_on_group(self, cyclic2):
        g, w = cyclic2
        f = AlgebraElement("G", {"g0": 1.0, "g1": 1.0})
        assert check_i_norm_bound(g, w, f).ok

    def test_zero(self, pair2):
        g, w = pair2
        assert check_i_norm_bound(g, w, AlgebraElement.zero("G")).ok

    def test_with_registered_spaces(self):
        Z = cyclic_self_equivalence(3)
        g = Z.left_groupoid
        w = HaarSystem.counting(g)
        f = random_element("G", g.arrow_ids, Lcg(31))
        spaces = [(Z.left_space, {Z.points[0]: 1.0})]
        assert check_i_norm_bound(g, w, f, spaces=spaces).ok


class TestGramPositivity:
    def test_random_tuples_are_positive(self):
        for Z in (pair_trivialization(2), cyclic_self_equivalence(2)):
            wl = HaarSystem.counting(Z.left_groupoid)
            wr = HaarSystem.counting(Z.right_groupoid)
            rng = Lcg(0x5EED)
            for _ in range(5):
                phis = [random_element("Z", Z.points, rng) for _ in range(3)]
                assert gram_min_eigenvalue(Z, wl, wr, phis) >= -1e-10
