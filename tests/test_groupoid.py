import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import (
    AlgebraElement,
    FiniteGroupoid,
    HaarSystem,
    UnknownIdError,
    i_norm,
    involution,
    r_fiber,
    s_fiber,
    validate_groupoid,
    validate_haar,
)
from groupoidal.fixtures import (
    pair_groupoid,
    source_weighted_haar,
    transitive_groupoid,
    trivial_group,
)


def rebuild(g, **overrides):
    fields = dict(
        units=g.units,
        arrows=g.arrows,
        compose=dict(g.compose),
        inverse=dict(g.inverse),
        unit_arrow=dict(g.unit_arrow),
    )
    fields.update(overrides)
    return FiniteGroupoid(**fields)


class TestValidateGroupoid:
    def test_pair_groupoid_is_clean(self, pair2):
        assert validate_groupoid(pair2[0]).ok

    def test_cyclic_group_is_clean(self, cyclic2):
        assert validate_groupoid(cyclic2[0]).ok

    def test_trivial_and_transitive_are_clean(self):
        assert validate_groupoid(trivial_group()).ok
        assert validate_groupoid(transitive_groupoid(2, 3)).ok

    def test_redirected_composition_reports_range_violation(self, pair2):
        g, _ = pair2
        compose = dict(g.compose)
        compose[("(1,2)", "(2,1)")] = "(2,2)"
        report = validate_groupoid(rebuild(g, compose=compose))
        assert not report.ok
        assert "compose-range" in report.rules()

    def test_missing_composition_reported(self, pair2):
        g, _ = pair2
        compose = dict(g.compose)
        del compose[("(1,2)", "(2,1)")]
        report = validate_groupoid(rebuild(g, compose=compose))
        assert "compose-definedness" in report.rules()

    def test_unknown_unit_reference_reported(self, pair2):
        g, _ = pair2
        bad = rebuild(g, arrows=g.arrows[:-1] + (type(g.arrows[0])("(2,2)", "9", "2"),))
        report = validate_groupoid(bad)
        assert "unknown-unit" in report.rules()

    def test_broken_inverse_reported(self, cyclic2):
        g, _ = cyclic2
        inverse = dict(g.inverse)
        inverse["g1"] = "g0"
        report = validate_groupoid(rebuild(g, inverse=inverse))
        assert {"inverse-involution", "inverse-law"} & report.rules()


class TestValidateHaar:
    def test_counting_measure_is_invariant(self, pair2):
        assert validate_haar(*pair2).ok

    def test_source_weights_are_invariant(self):
        g = pair_groupoid(2)
        w = source_weighted_haar(g, {"1": 1.0, "2": 2.0})
        assert validate_haar(g, w).ok

    def test_single_bumped_weight_breaks_invariance(self, pair2):
        g, _ = pair2
        w = HaarSystem({a.id: (2.0 if a.id == "(1,2)" else 1.0) for a in g.arrows})
        report = validate_haar(g, w)
        assert not report.ok
        offender_sets = [set(v.offenders) for v in report.violations]
        assert any({"(2,1)", "(1,2)"} <= s for s in offender_sets)

    def test_nonpositive_weight_is_a_support_violation(self, cyclic2):
        g, _ = cyclic2
        report = validate_haar(g, HaarSystem({"g0": 1.0, "g1": 0.0}))
        assert "haar-support" in report.rules()

    def test_infinite_weight_is_a_finiteness_violation(self, cyclic2):
        g, _ = cyclic2
        report = validate_haar(g, HaarSystem({"g0": 1.0, "g1": math.inf}))
        assert report.rules() == {"haar-finite"}

    def test_nan_weight_is_a_finiteness_violation(self, cyclic2):
        g, _ = cyclic2
        report = validate_haar(g, HaarSystem({"g0": math.nan, "g1": 1.0}))
        assert report.rules() == {"haar-finite"}

    def test_missing_weight_is_a_domain_violation(self, cyclic2):
        g, _ = cyclic2
        report = validate_haar(g, HaarSystem({"g0": 1.0}))
        assert "haar-domain" in report.rules()


class TestFibers:
    def test_r_fiber_of_pair(self, pair2):
        assert r_fiber(pair2[0], "1") == ["(1,1)", "(1,2)"]

    def test_s_fiber_of_pair(self, pair2):
        assert s_fiber(pair2[0], "1") == ["(1,1)", "(2,1)"]

    def test_r_fiber_of_group(self, cyclic2):
        assert r_fiber(cyclic2[0], "e") == ["g0", "g1"]

    def test_unknown_unit_raises(self, pair2):
        with pytest.raises(UnknownIdError):
            r_fiber(pair2[0], "3")
        with pytest.raises(UnknownIdError):
            s_fiber(pair2[0], "3")


class TestINorm:
    def test_single_delta(self, pair2):
        g, w = pair2
        assert i_norm(AlgebraElement.delta("G", "(1,2)"), g, w) == 1.0

    def test_constant_one(self, pair2):
        g, w = pair2
        f = AlgebraElement("G", {a.id: 1.0 + 0j for a in g.arrows})
        assert i_norm(f, g, w) == 2.0

    def test_group_sum(self, cyclic2):
        g, w = cyclic2
        f = AlgebraElement("G", {"g0": 1.0, "g1": 1.0})
        assert i_norm(f, g, w) == 2.0

    def test_unknown_key_rejected(self, pair2):
        g, w = pair2
        with pytest.raises(UnknownIdError):
            i_norm(AlgebraElement("G", {"nope": 1.0}), g, w)


class TestStructuralInvariants:
    def test_left_translation_is_weight_preserving_bijection(self):
        g = pair_groupoid(3)
        w = source_weighted_haar(g, {"1": 1.0, "2": 2.0, "3": 0.5})
        assert validate_haar(g, w).ok
        for gamma in g.arrow_ids:
            image = [g.mul(gamma, eta) for eta in r_fiber(g, g.s(gamma))]
            assert sorted(image) == r_fiber(g, g.r(gamma))
            for eta in r_fiber(g, g.s(gamma)):
                assert w.weight(eta) == w.weight(g.mul(gamma, eta))

    def test_inverse_is_involution_and_swaps_endpoints(self):
        g = transitive_groupoid(2, 2)
        for a in g.arrow_ids:
            assert g.inv(g.inv(a)) == a
            assert g.r(g.inv(a)) == g.s(a)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
            ),
            min_size=9,
            max_size=9,
        )
    )
    def test_i_norm_is_involution_invariant(self, coeffs):
        g = pair_groupoid(3)
        w = source_weighted_haar(g, {"1": 1.0, "2": 2.0, "3": 3.0})
        f = AlgebraElement(
            "G", {a: complex(re, im) for a, (re, im) in zip(g.arrow_ids, coeffs)}
        )
        assert math.isclose(
            i_norm(f, g, w), i_norm(involution(f, g), g, w), rel_tol=1e-12, abs_tol=1e-12
        )
