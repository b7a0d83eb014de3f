import json
import sys

import numpy as np
import pytest

from groupoidal import (
    Bispace,
    HaarSystem,
    Lcg,
    VerifyConfig,
    build_linking,
    build_linking_haar,
    random_element,
    verify_all,
    verify_full_projections,
    verify_imprimitivity,
    verify_theorem_main1,
    verify_universal_norm_finite,
)
from groupoidal.fixtures import pair_trivialization, transitive_equivalence
from groupoidal import groupoid, verify
from groupoidal.algebra import rip_block
from groupoidal.errors import NonFiniteError
from groupoidal.verify import AMENABILITY_NOTE, SuiteReport, run_suite, verify_representation_laws


def haars(Z):
    return HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)


class TestTheoremMain1:
    def test_passes_on_pair_trivialization(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        report = verify_theorem_main1(Z, wl, wr, samples=100, tol=1e-9)
        assert report.status == "pass"
        assert report.max_residual <= 1e-9

    def test_passes_on_group_self_equivalence(self, self2):
        Z, wl, wr = self2
        assert verify_theorem_main1(Z, wl, wr, samples=100, tol=1e-9).status == "pass"

    def test_corrupted_linking_haar_fails_with_residual(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        corrupted = HaarSystem(dict(kappa.weights))
        # doubling a mirrored-sector weight skews the orthonormalization of
        # the point-sector block, so the corner norm drifts off the true one
        corrupted.weights["Zop:~z1"] = 2.0
        report = verify_theorem_main1(
            Z, wl, wr, samples=20, tol=1e-9, link=link, linking_haar=corrupted
        )
        assert report.status == "fail"
        assert report.max_residual > 1e-9
        assert report.witness is not None

    def test_deterministic_given_seed(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        a = verify_theorem_main1(Z, wl, wr, samples=10, seed=0xABCD)
        b = verify_theorem_main1(Z, wl, wr, samples=10, seed=0xABCD)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        assert a.seed == 0xABCD


class TestImprimitivitySuite:
    def test_passes_on_fixtures(self, pair_trivial2, self2):
        for Z, wl, wr in (pair_trivial2, self2):
            report = verify_imprimitivity(Z, wl, wr, samples=20)
            assert report.status == "pass"

    def test_sign_flipped_inner_product_breaks_positivity(self, pair_trivial2):
        Z, wl, wr = pair_trivial2

        def flipped(phi, psi, bispace, haar):
            return -rip_block(phi, psi, bispace, haar)

        report = verify_imprimitivity(Z, wl, wr, samples=10, inner_right=flipped)
        assert report.status == "fail"
        grams = [
            w for w in [report.witness] if w and w.get("law") == "gram-positivity"
        ]
        assert grams or report.max_residual > 1.0


class TestFullProjections:
    def test_pair_trivialization_ranks(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        report = verify_full_projections(Z, wl, wr)
        assert report.status == "pass"
        assert "ranks={'G': 4, 'Z': 2, 'Zop': 2, 'H': 1}" in report.notes[0]

    def test_group_self_equivalence_ranks(self, self2):
        Z, wl, wr = self2
        report = verify_full_projections(Z, wl, wr)
        assert report.status == "pass"
        assert "ranks={'G': 2, 'Z': 2, 'Zop': 2, 'H': 2}" in report.notes[0]

    def test_single_generator_sweep_is_flagged_undersampled(self):
        Z = pair_trivialization(3)
        wl, wr = haars(Z)
        report = verify_full_projections(Z, wl, wr, generators=1)
        assert report.status == "undersampled"


class TestUniversalNormFinite:
    def test_passes_and_reports_zero_kernels(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        report = verify_universal_norm_finite(Z, wl, wr, samples=10)
        assert report.status == "pass"
        assert any("kernel_dimensions" in note for note in report.notes)
        kernel_note = next(n for n in report.notes if "kernel_dimensions" in n)
        assert "'G': 0" in kernel_note and "'H': 0" in kernel_note and "'L': 0" in kernel_note

    def test_passing_report_keeps_its_worst_block_residual(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        report = verify_universal_norm_finite(Z, wl, wr, samples=10)
        assert report.status == "pass"
        assert 0.0 < report.max_residual <= 1e-12

    def test_states_the_amenability_caveat(self, self2):
        Z, wl, wr = self2
        report = verify_universal_norm_finite(Z, wl, wr, samples=5)
        assert AMENABILITY_NOTE in report.notes


class TestVerifyAll:
    def test_full_run_passes(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        aggregate = verify_all(Z, VerifyConfig(samples=20, w_left=wl, w_right=wr))
        assert aggregate.status == "pass"
        assert {s.suite for s in aggregate.suites} == {
            "theorem-main1",
            "imprimitivity",
            "full-projections",
            "universal-norm-finite",
            "representation-laws",
        }

    def test_empty_bispace_is_a_configuration_error(self):
        assert verify_all(None).status == "error"

    def test_structural_failure_short_circuits(self, pair_trivial2):
        Z, _, _ = pair_trivial2
        action = dict(Z.left_action)
        action[("(1,2)", "z2")] = "z2"
        broken = Bispace(
            Z.left_groupoid,
            Z.right_groupoid,
            Z.points,
            dict(Z.r_map),
            dict(Z.s_map),
            action,
            dict(Z.right_action),
        )
        aggregate = verify_all(broken, VerifyConfig(samples=5))
        assert aggregate.status == "fail"
        assert aggregate.suites == []
        assert "structural" in aggregate.error

    def test_each_check_runs_once(self, pair_trivial2, monkeypatch):
        # count calls through every module attribute bound to the function,
        # since the suites and the linking constructions import them by name
        calls = {}
        for fn in (verify.verify_theorem_main1, groupoid.validate_groupoid, groupoid.validate_haar):
            calls[fn.__name__] = 0

            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.startswith("groupoidal"):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        Z, wl, wr = pair_trivial2
        aggregate = verify_all(Z, VerifyConfig(samples=8, w_left=wl, w_right=wr))
        assert aggregate.status == "pass"
        # left, right, and the self-checks inside the linking constructions
        assert calls == {"verify_theorem_main1": 1, "validate_groupoid": 3, "validate_haar": 3}
        assert [entry["stage"] for entry in aggregate.structural] == [
            "left-groupoid",
            "left-haar",
            "right-groupoid",
            "right-haar",
            "equivalence",
            "linking-groupoid",
            "linking-haar",
        ]

    def test_report_is_byte_stable(self):
        Z = transitive_equivalence(2, 2)
        config = VerifyConfig(samples=5)
        first = verify_all(Z, config).to_json()
        second = verify_all(Z, config).to_json()
        assert first == second


class TestSampler:
    def test_lcg_is_reproducible(self):
        a, b = Lcg(42), Lcg(42)
        assert [a.next_u32() for _ in range(5)] == [b.next_u32() for _ in range(5)]

    @pytest.mark.parametrize("seed", [0, 7, 0x5EED, 0xFFFFFFFF])
    def test_block_draw_equals_consecutive_draws(self, seed):
        for count in (0, 1, 2, 3, 63, 64, 65, 1000):
            one, block = Lcg(seed), Lcg(seed)
            want = [one.signed() for _ in range(count)]
            got = block.signed_block(count)
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
            assert block.state == one.state

    def test_samples_stay_in_unit_square(self):
        rng = Lcg(7)
        element = random_element("G", [f"a{i}" for i in range(50)], rng)
        for v in element.values.values():
            assert -1.0 <= v.real <= 1.0 and -1.0 <= v.imag <= 1.0


class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize(
        "run",
        [
            lambda Z, wl, wr, n: verify_theorem_main1(Z, wl, wr, samples=n),
            lambda Z, wl, wr, n: verify_imprimitivity(Z, wl, wr, samples=n),
            lambda Z, wl, wr, n: verify_full_projections(Z, wl, wr, generators=n),
            lambda Z, wl, wr, n: verify_universal_norm_finite(Z, wl, wr, samples=n),
            lambda Z, wl, wr, n: verify_representation_laws(Z, wl, wr, samples=n),
            lambda Z, wl, wr, n: verify_all(Z, VerifyConfig(samples=n)),
        ],
        ids=["main1", "imprimitivity", "fullness", "universal", "rep-laws", "all"],
    )
    def test_fewer_than_one_sample_is_an_error(self, pair_trivial2, run, samples):
        Z, wl, wr = pair_trivial2
        with pytest.raises(ValueError, match="at least 1"):
            run(Z, wl, wr, samples)



class TestNonFiniteResiduals:
    def test_nan_residual_fails_the_suite(self):
        report = SuiteReport("s", 1, 2, 1e-9)
        report.record(1e-12, {"sample": 0})
        report.record(float("nan"), {"sample": 1})
        report.record(1e-12, {"sample": 2})
        assert report.status == "fail"
        assert report.max_residual == float("inf")
        assert report.witness == {"sample": 1}

    def test_huge_weights_fail_representation_laws(self, pair_trivial2):
        Z, _, wr = pair_trivial2
        wl = HaarSystem({a.id: 1e300 for a in Z.left_groupoid.arrows})
        report = verify_representation_laws(Z, wl, wr, samples=3)
        assert report.status == "fail"
        assert report.max_residual == float("inf")

    def test_overflow_in_a_suite_is_a_named_error(self, pair_trivial2, monkeypatch):
        def overflow(*args):
            raise OverflowError("absolute value too large")

        monkeypatch.setattr(verify, "verify_theorem_main1", overflow)
        Z, wl, wr = pair_trivial2
        with pytest.raises(NonFiniteError, match="'main1' overflowed"):
            run_suite("main1", Z, wl, wr, 3, 1e-9, 1)
        with pytest.raises(NonFiniteError):
            verify_all(Z, VerifyConfig(samples=3, w_left=wl, w_right=wr))
