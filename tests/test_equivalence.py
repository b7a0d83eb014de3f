import pytest

from groupoidal import (
    Bispace,
    BracketNotFoundError,
    HaarSystem,
    StructureBrokenError,
    UnknownIdError,
    g_bracket,
    h_bracket,
    opposite_space,
    rho_measure,
    rho_mu_measure,
    validate_equivalence,
)
from groupoidal.equivalence import PROPERNESS_NOTE, base_point, opposite_point
from groupoidal.fixtures import (
    cyclic_self_equivalence,
    group_self_equivalence,
    pair_trivialization,
    transitive_equivalence,
)
from oracles import brute_left_bracket, brute_right_bracket


def with_left_action(Z, patch):
    action = dict(Z.left_action)
    action.update(patch)
    return Bispace(
        Z.left_groupoid,
        Z.right_groupoid,
        Z.points,
        dict(Z.r_map),
        dict(Z.s_map),
        action,
        dict(Z.right_action),
    )


class TestValidateEquivalence:
    def test_pair_trivialization_is_clean(self, pair_trivial2):
        report = validate_equivalence(pair_trivial2[0])
        assert report.ok
        assert PROPERNESS_NOTE in report.notes

    def test_group_on_itself_is_clean(self, self2):
        assert validate_equivalence(self2[0]).ok

    def test_transitive_equivalence_is_clean(self):
        assert validate_equivalence(transitive_equivalence(3, 2)).ok

    def test_fixed_point_breaks_freeness_and_compatibility(self, pair_trivial2):
        Z, _, _ = pair_trivial2
        broken = with_left_action(Z, {("(1,2)", "z2"): "z2"})
        report = validate_equivalence(broken)
        assert not report.ok
        assert "freeness" in report.rules()
        assert {"action-compatibility", "action-range"} & report.rules()


class TestBrackets:
    def test_left_bracket_matches_exhaustive_search(self, pair_trivial2):
        Z = pair_trivial2[0]
        for y in Z.points:
            for z in Z.points:
                assert [g_bracket(Z, y, z)] == brute_left_bracket(Z, y, z)

    def test_left_bracket_examples(self, pair_trivial2):
        Z = pair_trivial2[0]
        assert g_bracket(Z, "z1", "z2") == "(1,2)"
        assert g_bracket(Z, "z1", "z1") == "(1,1)"

    def test_left_bracket_on_group(self, self2):
        assert g_bracket(self2[0], "g1", "g0") == "g1"

    def test_right_bracket_examples(self, pair_trivial2):
        Z = pair_trivial2[0]
        assert h_bracket(Z, "z1", "z1") == "id_*"
        assert [h_bracket(Z, "z1", "z1")] == brute_right_bracket(Z, "z1", "z1")

    def test_right_bracket_on_group(self, self2):
        assert h_bracket(self2[0], "g0", "g1") == "g1"

    def test_right_bracket_rejects_distinct_range_fibers(self, pair_trivial2):
        with pytest.raises(BracketNotFoundError):
            h_bracket(pair_trivial2[0], "z1", "z2")

    def test_bracket_inverts_the_action(self):
        Z = transitive_equivalence(2, 3)
        for (gamma, z), out in Z.left_action.items():
            assert g_bracket(Z, out, z) == gamma
        for (y, eta), out in Z.right_action.items():
            assert h_bracket(Z, y, out) == eta

    def test_brackets_reproduce_their_points(self):
        Z = transitive_equivalence(2, 2)
        for y in Z.points:
            for z in Z.points:
                if Z.s_of(y) == Z.s_of(z):
                    assert Z.left_act(g_bracket(Z, y, z), z) == y
                if Z.r_of(y) == Z.r_of(z):
                    assert Z.right_act(y, h_bracket(Z, y, z)) == z

    def test_nonunique_bracket_aborts(self, pair_trivial2):
        Z = pair_trivial2[0]
        broken = with_left_action(Z, {("(1,2)", "z2"): "z1", ("(1,1)", "z2"): "z1"})
        with pytest.raises(StructureBrokenError):
            g_bracket(broken, "z1", "z2")


class TestOppositeSpace:
    def test_anchors_swap(self, pair_trivial2):
        zop = opposite_space(pair_trivial2[0])
        assert zop.r_of("~z1") == "*"
        assert zop.s_of("~z1") == "1"
        assert validate_equivalence(zop).ok

    def test_identity_acts_trivially(self, pair_trivial2):
        zop = opposite_space(pair_trivial2[0])
        assert zop.left_act("id_*", "~z1") == "~z1"

    def test_double_opposite_returns_original_up_to_renaming(self, pair_trivial2):
        Z = pair_trivial2[0]
        back = opposite_space(opposite_space(Z))
        assert back.points == tuple("~~" + z for z in Z.points)
        assert back.labels == Z.labels
        for (gamma, z), out in Z.left_action.items():
            assert back.left_action[(gamma, "~~" + z)] == "~~" + out
        for (z, eta), out in Z.right_action.items():
            assert back.right_action[("~~" + z, eta)] == "~~" + out

    @pytest.mark.parametrize("anchor", ["r_map", "s_map"])
    def test_missing_anchor_is_a_named_error(self, pair_trivial2, anchor):
        Z = pair_trivial2[0]
        maps = {"r_map": dict(Z.r_map), "s_map": dict(Z.s_map)}
        del maps[anchor]["z1"]
        broken = Bispace(
            Z.left_groupoid, Z.right_groupoid, Z.points, maps["r_map"], maps["s_map"],
            dict(Z.left_action), dict(Z.right_action),
        )
        with pytest.raises(UnknownIdError, match=f"point 'z1' has no {anchor[0]} anchor"):
            opposite_space(broken)
        with pytest.raises(UnknownIdError, match="unknown point id 'z9'"):
            getattr(broken, f"{anchor[0]}_of")("z9")

    def test_opposite_action_formulas(self, self2):
        Z = self2[0]
        zop = opposite_space(Z)
        H = Z.right_groupoid
        for (z, eta), out in Z.right_action.items():
            assert zop.left_action[(H.inv(eta), "~" + z)] == "~" + out


def sigma(Z, u, right_haar):
    """The right-orbit measure over the left unit ``u``: ``rho_measure`` of the
    opposite space's left action from the first point over ``u``, mirrored back."""
    x = opposite_point(Z.r_fiber_points(u)[0])
    mirrored = rho_measure(opposite_space(Z).left_space, x, right_haar)
    return {base_point(zbar): w for zbar, w in mirrored.items()}


class TestSigmaMeasure:
    def test_trivial_right_group(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        assert sigma(Z, "1", wr) == {"z1": 1.0}

    def test_group_case_counting(self, self2):
        Z, _, wr = self2
        assert sigma(Z, "e", wr) == {"g0": 1.0, "g1": 1.0}

    def test_group_case_scaled(self, self2):
        Z, _, _ = self2
        doubled = HaarSystem({"g0": 2.0, "g1": 2.0})
        assert sigma(Z, "e", doubled) == {"g0": 2.0, "g1": 2.0}

    def test_representative_independence_enforced(self):
        Z = transitive_equivalence(2, 3)
        wr = HaarSystem.counting(Z.right_groupoid)
        for u in Z.left_groupoid.units:
            sigma(Z, u, wr)  # recomputes from every orbit point internally

    def test_non_invariant_weights_abort(self, self2):
        Z, _, _ = self2
        lopsided = HaarSystem({"g0": 1.0, "g1": 2.0})
        with pytest.raises(StructureBrokenError, match="depends on the representative"):
            sigma(Z, "e", lopsided)


class TestRhoMeasure:
    def test_pair_trivialization_orbit(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        assert rho_measure(Z.left_space, "z1", wl) == {"z1": 1.0, "z2": 1.0}

    def test_group_translation_orbit(self, cyclic2):
        g, w = cyclic2
        X = group_self_equivalence(g).left_space
        assert rho_measure(X, "g0", w) == {"g0": 1.0, "g1": 1.0}

    def test_scaled_haar(self, cyclic2):
        g, _ = cyclic2
        X = group_self_equivalence(g).left_space
        tripled = HaarSystem({"g0": 3.0, "g1": 3.0})
        assert rho_measure(X, "g0", tripled) == {"g0": 3.0, "g1": 3.0}

    def test_independent_of_representative(self):
        Z = transitive_equivalence(2, 2)
        wl = HaarSystem.counting(Z.left_groupoid)
        a = rho_measure(Z.left_space, "z(1,0)", wl)
        b = rho_measure(Z.left_space, "z(2,1)", wl)
        assert a == b


class TestRhoMuMeasure:
    def test_point_mass_reduces_to_orbit_measure(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        mixed = rho_mu_measure(Z.left_space, {"z1": 1.0}, wl)
        assert mixed == rho_measure(Z.left_space, "z1", wl)

    def test_zero_measure(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        assert rho_mu_measure(Z.left_space, {}, wl) == {}
        assert rho_mu_measure(Z.left_space, {"z1": 0.0}, wl) == {}

    def test_linearity(self, cyclic2):
        g, w = cyclic2
        X = group_self_equivalence(g).left_space
        assert rho_mu_measure(X, {"g0": 2.0}, w) == {"g0": 2.0, "g1": 2.0}

    def test_negative_mass_rejected(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        with pytest.raises(ValueError):
            rho_mu_measure(Z.left_space, {"z1": -1.0}, wl)


class TestOrbitBijections:
    def test_counts_match_unit_spaces(self):
        for Z in (pair_trivialization(3), cyclic_self_equivalence(3), transitive_equivalence(2, 2)):
            left_orbits = Z.left_space.orbits()
            assert len(left_orbits) == len(Z.right_groupoid.units)
            anchors = {Z.s_of(orbit[0]) for orbit in left_orbits}
            assert anchors == set(Z.right_groupoid.units)
