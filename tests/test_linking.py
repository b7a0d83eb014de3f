import dataclasses

import pytest

from groupoidal import (
    AlgebraElement,
    Arrow,
    FiniteGroupoid,
    HaarSystem,
    Lcg,
    StructureBrokenError,
    UnknownIdError,
    block_compose,
    block_decompose,
    build_linking,
    build_linking_haar,
    compress,
    random_element,
    rho_measure,
    validate_groupoid,
    validate_haar,
)
from groupoidal.fixtures import (
    cyclic_self_equivalence,
    pair_trivialization,
    transitive_equivalence,
)
from groupoidal.linking import SECTOR_PRODUCT


def with_isolated_unit(g, u):
    """``g`` plus a unit ``u`` whose only arrow is its identity."""
    ident = f"id_{u}"
    return FiniteGroupoid(
        units=g.units + (u,),
        arrows=g.arrows + (Arrow(ident, u, u),),
        compose={**g.compose, (ident, ident): ident},
        inverse={**g.inverse, ident: ident},
        unit_arrow={**g.unit_arrow, u: ident},
    )


def counting_pair(Z):
    return HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)


class TestBuildLinking:
    def test_pair_trivialization_counts(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        assert len(link.groupoid.arrows) == 9  # 4 + 2 + 2 + 1
        assert len(link.groupoid.units) == 3

    def test_arrow_count_formula(self):
        for Z in (cyclic_self_equivalence(3), transitive_equivalence(2, 2)):
            link = build_linking(Z)
            expected = (
                len(Z.left_groupoid.arrows)
                + 2 * len(Z.points)
                + len(Z.right_groupoid.arrows)
            )
            assert len(link.groupoid.arrows) == expected

    def test_point_times_mirror_is_left_bracket(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        assert link.groupoid.mul("Z:z1", "Zop:~z2") == "G:(1,2)"

    def test_mirror_times_point_is_right_bracket(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        assert link.groupoid.mul("Zop:~z1", "Z:z1") == "H:id_*"

    def test_inverse_swaps_point_and_mirror(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        assert link.groupoid.inv("Z:z1") == "Zop:~z1"
        assert link.groupoid.inv("Zop:~z1") == "Z:z1"

    def test_result_passes_all_axioms(self):
        for Z in (
            pair_trivialization(3),
            cyclic_self_equivalence(2),
            transitive_equivalence(2, 3),
        ):
            link = build_linking(Z)
            assert validate_groupoid(link.groupoid).ok

    def test_sector_composition_table(self):
        link = build_linking(transitive_equivalence(2, 2))
        L = link.groupoid
        seen = set()
        for (a, b), c in L.compose.items():
            key = (link.sector[a], link.sector[b])
            assert SECTOR_PRODUCT[key] == link.sector[c]
            seen.add(key)
        assert seen == set(SECTOR_PRODUCT)


class TestLinkingHaar:
    def test_counting_weights_on_pair_trivialization(self, pair_trivial2):
        Z, wl, wr = pair_trivial2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        over_g1 = {"G:(1,1)": 1.0, "G:(1,2)": 1.0, "Z:z1": 1.0}
        for aid, w in over_g1.items():
            assert kappa.weight(aid) == w
        over_h = {"Zop:~z1": 1.0, "Zop:~z2": 1.0, "H:id_*": 1.0}
        for aid, w in over_h.items():
            assert kappa.weight(aid) == w

    def test_group_self_equivalence_fibers(self, self2):
        Z, wl, wr = self2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        from groupoidal import r_fiber

        for u in link.groupoid.units:
            fiber = r_fiber(link.groupoid, u)
            assert len(fiber) == 4  # two group arrows plus two bispace points
            assert all(kappa.weight(a) == 1.0 for a in fiber)

    def test_scaled_right_weight_doubles_sigma(self, pair_trivial2):
        Z, wl, _ = pair_trivial2
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, HaarSystem({"id_*": 2.0}))
        assert kappa.weight("Z:z1") == 2.0
        assert kappa.weight("Z:z2") == 2.0
        assert validate_haar(link.groupoid, kappa).ok

    def test_exact_invariance_on_families(self):
        for Z in (
            pair_trivialization(4),
            cyclic_self_equivalence(3),
            transitive_equivalence(3, 2),
        ):
            link = build_linking(Z)
            kappa = build_linking_haar(link, *counting_pair(Z))
            assert validate_haar(link.groupoid, kappa).ok

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_unit_without_points_is_an_unknown_id(self, pair_trivial2, side):
        Z = pair_trivial2[0]
        grown = with_isolated_unit(getattr(Z, f"{side}_groupoid"), "x")
        Z = dataclasses.replace(Z, **{f"{side}_groupoid": grown})
        with pytest.raises(UnknownIdError, match="no point lies over .*unit 'x'") as caught:
            build_linking_haar(build_linking(Z), *counting_pair(Z))
        assert f"{side} unit 'x'" in str(caught.value)

    def test_inversion_image_splits_into_orbit_measures(self):
        """Over a left unit the inverted fiber measure restricts, on the
        mirrored sector, to the orbit measure of the opposite space (and
        symmetrically over right units)."""
        Z = transitive_equivalence(2, 2)
        wl, wr = counting_pair(Z)
        link = build_linking(Z)
        kappa = build_linking_haar(link, wl, wr)
        zop = link.opposite
        for u in Z.left_groupoid.units:
            zbar0 = min(p for p in zop.points if zop.s_of(p) == u)
            rho = rho_measure(zop.left_space, zbar0, wr)
            for zbar, mass in rho.items():
                # kappa_u({zbar}) = kappa({inverse of zbar}) = kappa(Z:z)
                assert kappa.weight("Z:" + zbar[1:]) == mass
        for v in Z.right_groupoid.units:
            z0 = min(p for p in Z.points if Z.s_of(p) == v)
            rho = rho_measure(Z.left_space, z0, wl)
            for z, mass in rho.items():
                assert kappa.weight("Zop:~" + z) == mass


class TestBlocks:
    def test_single_sector_delta(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        F = AlgebraElement.delta("L", "G:(1,2)")
        f11, f12, f21, f22 = block_decompose(F, link)
        assert f11.values == {"(1,2)": 1.0 + 0j}
        assert not f12.values and not f21.values and not f22.values

    def test_zero_blocks_compose_to_zero(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        F = block_compose(
            link,
            AlgebraElement.zero("G"),
            AlgebraElement.zero("Z"),
            AlgebraElement.zero("Zop"),
            AlgebraElement.zero("H"),
        )
        assert F.values == {}

    def test_round_trip_on_random_function(self, self2):
        link = build_linking(self2[0])
        F = random_element("L", link.groupoid.arrow_ids, Lcg(1))
        assert block_compose(link, *block_decompose(F, link)).values == F.values

    def test_compress_keeps_one_block(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        F = random_element("L", link.groupoid.arrow_ids, Lcg(2))
        only_gg = compress(F, link, "G", "G")
        assert set(map(link.sector.get, only_gg.values)) == {"GG"}
        only_gz = compress(F, link, "G", "H")
        assert set(map(link.sector.get, only_gz.values)) == {"GZ"}

    def test_compressions_sum_to_identity(self, pair_trivial2):
        link = build_linking(pair_trivial2[0])
        F = random_element("L", link.groupoid.arrow_ids, Lcg(3))
        total = (
            compress(F, link, "G", "G")
            + compress(F, link, "G", "H")
            + compress(F, link, "H", "G")
            + compress(F, link, "H", "H")
        )
        assert total.distance(F) == 0.0


class TestAborts:
    def test_broken_freeness_aborts_build(self, pair_trivial2):
        from groupoidal import Bispace

        Z = pair_trivial2[0]
        action = dict(Z.left_action)
        action[("(1,1)", "z2")] = "z1"  # second arrow carrying z2 to z1
        broken = Bispace(
            Z.left_groupoid,
            Z.right_groupoid,
            Z.points,
            dict(Z.r_map),
            dict(Z.s_map),
            action,
            dict(Z.right_action),
        )
        with pytest.raises(StructureBrokenError):
            build_linking(broken)
