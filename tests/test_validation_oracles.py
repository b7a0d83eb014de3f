"""The structural validators against the exhaustive table scans, on mutated tables.

``validate_groupoid`` screens composable pairs and associativity with
numpy gathers and re-checks only the arrows the screen flags;
``validate_equivalence`` indexes the action rows of its commutation,
compatibility and freeness scans, and checks both actions with one
per-side validator.  The oracles in ``tests/oracles.py``
visit every pair, triple and row.  Every report must equal the oracle's
exactly: the same violations, in the same order, with the same text.
"""

import dataclasses
import random
import re

import pytest

import oracles
from groupoidal import (
    Arrow,
    Bispace,
    FiniteGroupoid,
    ValidationReport,
    build_linking,
    equivalence,
    validate_equivalence,
    validate_groupoid,
)
from groupoidal.fixtures import (
    cyclic_self_equivalence,
    pair_groupoid,
    pair_trivialization,
    transitive_equivalence,
    transitive_groupoid,
)

GROUPOIDS = {
    "pair(3)": lambda: pair_groupoid(3),
    "transitive(2,3)": lambda: transitive_groupoid(2, 3),
    "linking self(2)": lambda: build_linking(cyclic_self_equivalence(2)).groupoid,
    "linking transitive-equiv(3,2)": lambda: build_linking(transitive_equivalence(3, 2)).groupoid,
}
SEEDS = range(6)


def rebuild(g: FiniteGroupoid, **tables) -> FiniteGroupoid:
    fields = dict(
        units=g.units,
        arrows=g.arrows,
        compose=dict(g.compose),
        inverse=dict(g.inverse),
        unit_arrow=dict(g.unit_arrow),
    )
    fields.update(tables)
    return FiniteGroupoid(**fields)


def drop_compose_rows(g, rng):
    compose = dict(g.compose)
    for key in rng.sample(sorted(compose), rng.randint(1, 3)):
        del compose[key]
    return rebuild(g, compose=compose)


def drop_rows_of_one_arrow(g, rng):
    # every (x, c) is gone, so ((x unit) c) and (x (unit c)) are both missing:
    # only the "left is None" rule reports those triples
    x = rng.choice(g.arrow_ids)
    return rebuild(g, compose={k: v for k, v in g.compose.items() if k[0] != x})


def rewire_compose_row(g, rng):
    compose = dict(g.compose)
    key = rng.choice(sorted(compose))
    compose[key] = rng.choice([a for a in g.arrow_ids if a != compose[key]])
    return rebuild(g, compose=compose)


def rewire_within_hom(g, rng):
    # same endpoints as the true product, so only the laws can notice
    compose = dict(g.compose)
    key = rng.choice(sorted(compose))
    c = g.arrow(compose[key])
    others = [a.id for a in g.arrows if (a.src, a.dst) == (c.src, c.dst) and a.id != c.id]
    if others:
        compose[key] = rng.choice(others)
    return rebuild(g, compose=compose)


def rewire_to_unknown_id(g, rng):
    compose = dict(g.compose)
    compose[rng.choice(sorted(compose))] = "ghost"
    return rebuild(g, compose=compose)


def add_row_keyed_by_unknown_id(g, rng):
    # "ghost" stands in for a true product x, and also has products of its own
    compose = dict(g.compose)
    key = rng.choice(sorted(compose))
    x = compose[key]
    compose[key] = "ghost"
    for (a, c), ac in g.compose.items():
        if a == x:
            compose[("ghost", c)] = ac
    compose[("ghost", rng.choice(g.arrow_ids))] = rng.choice(g.arrow_ids)
    return rebuild(g, compose=compose)


def drop_inverse_rows(g, rng):
    inverse = dict(g.inverse)
    for key in rng.sample(sorted(inverse), rng.randint(1, 2)):
        del inverse[key]
    return rebuild(g, inverse=inverse)


def duplicate_arrow_id(g, rng):
    a = rng.choice(g.arrows)
    other = rng.choice(g.arrows)
    return rebuild(g, arrows=g.arrows + (Arrow(a.id, other.src, other.dst),))


GROUPOID_MUTATIONS = {
    f.__name__: f
    for f in (
        drop_compose_rows,
        drop_rows_of_one_arrow,
        rewire_compose_row,
        rewire_within_hom,
        rewire_to_unknown_id,
        add_row_keyed_by_unknown_id,
        drop_inverse_rows,
        duplicate_arrow_id,
    )
}


def assert_same_report(got, want):
    assert got.to_dict() == want.to_dict()


class TestGroupoidReports:
    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_valid_tables(self, name):
        g = GROUPOIDS[name]()
        report = validate_groupoid(g)
        assert report.ok
        assert_same_report(report, oracles.validate_groupoid(g))

    @pytest.mark.parametrize("mutation", sorted(GROUPOID_MUTATIONS))
    @pytest.mark.parametrize("name", sorted(GROUPOIDS))
    def test_mutated_tables(self, name, mutation):
        base = GROUPOIDS[name]()
        for seed in SEEDS:
            g = GROUPOID_MUTATIONS[mutation](base, random.Random(f"{name}:{mutation}:{seed}"))
            want = oracles.validate_groupoid(g)
            assert_same_report(validate_groupoid(g), want)

    def test_every_mutation_breaks_some_table(self):
        for mutation in GROUPOID_MUTATIONS.values():
            broken = [
                not oracles.validate_groupoid(mutation(GROUPOIDS[name](), random.Random(seed))).ok
                for name in GROUPOIDS
                for seed in SEEDS
            ]
            assert any(broken), mutation.__name__

    def test_one_rewired_entry_in_the_last_unit_pair(self):
        g = build_linking(transitive_equivalence(8, 4)).groupoid
        u = v = g.units[-1]
        a = [x.id for x in g.arrows if x.src == u][-1]
        b = [x.id for x in g.arrows if (x.src, x.dst) == (v, u)][-1]
        ab = g.arrow(g.compose[(a, b)])
        twin = next(x.id for x in g.arrows if (x.src, x.dst) == (ab.src, ab.dst) and x.id != ab.id)
        broken = rebuild(g, compose={**g.compose, (a, b): twin})
        report = validate_groupoid(broken)
        assert "associativity" in report.rules()
        assert_same_report(report, oracles.validate_groupoid(broken))


# --- equivalences -------------------------------------------------------------

BISPACES = {
    "pair-trivial(2)": lambda: pair_trivialization(2),
    "self(2)": lambda: cyclic_self_equivalence(2),
    "transitive-equiv(2,2)": lambda: transitive_equivalence(2, 2),
    "transitive-equiv(3,2)": lambda: transitive_equivalence(3, 2),
}


def with_actions(Z: Bispace, left=None, right=None) -> Bispace:
    return dataclasses.replace(
        Z,
        left_action=dict(Z.left_action) if left is None else left,
        right_action=dict(Z.right_action) if right is None else right,
    )


def _side(Z, rng):
    side = rng.choice(("left", "right"))
    return side, dict(Z.left_action if side == "left" else Z.right_action)


def _rebuilt(Z, side, table):
    return with_actions(Z, **{side: table})


def drop_action_rows(Z, rng):
    side, table = _side(Z, rng)
    for key in rng.sample(sorted(table), rng.randint(1, min(3, len(table)))):
        del table[key]
    return _rebuilt(Z, side, table)


def rewire_action_row(Z, rng):
    side, table = _side(Z, rng)
    key = rng.choice(sorted(table))
    table[key] = rng.choice([z for z in Z.points if z != table[key]])
    return _rebuilt(Z, side, table)


def rewire_action_row_to_unknown_point(Z, rng):
    side, table = _side(Z, rng)
    table[rng.choice(sorted(table))] = "ghost"
    return _rebuilt(Z, side, table)


def make_a_fixed_point(Z, rng):
    side, table = _side(Z, rng)
    grpd = Z.left_groupoid if side == "left" else Z.right_groupoid
    units = set(grpd.unit_arrow.values())
    moving = [k for k in sorted(table) if (k[0] if side == "left" else k[1]) not in units]
    if moving:
        key = rng.choice(moving)
        table[key] = key[1] if side == "left" else key[0]
    return _rebuilt(Z, side, table)


def _anchor(Z, rng):
    name = rng.choice(("r_map", "s_map"))
    return name, dict(getattr(Z, name))


def drop_anchor_entries(Z, rng):
    # dropping every entry over a unit leaves it with no point
    name, anchor = _anchor(Z, rng)
    for z in rng.sample(sorted(anchor), rng.randint(1, len(anchor))):
        del anchor[z]
    return dataclasses.replace(Z, **{name: anchor})


def anchor_at_unknown_unit(Z, rng):
    name, anchor = _anchor(Z, rng)
    anchor[rng.choice(sorted(anchor))] = "ghost"
    return dataclasses.replace(Z, **{name: anchor})


def anchor_at_another_unit(Z, rng):
    name, anchor = _anchor(Z, rng)
    units = (Z.left_groupoid if name == "r_map" else Z.right_groupoid).units
    z = rng.choice(sorted(anchor))
    others = [u for u in units if u != anchor[z]]
    if others:
        anchor[z] = rng.choice(others)
    return dataclasses.replace(Z, **{name: anchor})


EQUIVALENCE_MUTATIONS = {
    f.__name__: f
    for f in (
        drop_action_rows,
        rewire_action_row,
        rewire_action_row_to_unknown_point,
        make_a_fixed_point,
        drop_anchor_entries,
        anchor_at_unknown_unit,
        anchor_at_another_unit,
    )
}

# Every message the action validator writes, per side, with each quoted id as ``_``.
ACTION_MESSAGES = {
    side: {
        ("unknown-id", f"point _ has no {side} anchor"),
        ("unknown-id", f"{side} anchor of _ is unknown unit _"),
        ("unknown-id", f"{side} action entry (_, _) -> _ references unknown ids"),
        ("action-definedness", f"{side} action defined on non-matching pair (_, _)"),
        ("action-definedness", f"{side} action missing for (_, _)"),
        ("action-range", moved_end),
        ("action-range", f"{side} action moved the {other} anchor of _"),
        ("unit-acts-trivially", "unit arrow of _ moves point _"),
        ("action-compatibility", compatibility),
        ("freeness", "non-identity arrow _ fixes point _"),
        ("anchor-surjective", f"no point lies over {side} unit _"),
    }
    for side, other, moved_end, compatibility in (
        ("left", "right", "range anchor of _*_ is not r(_)", "(__)*_ != _*(_*_)"),
        ("right", "left", "source anchor of _*_ is not s(_)", "_*(__) != (_*_)*_"),
    )
}


class TestEquivalenceReports:
    @pytest.mark.parametrize("name", sorted(BISPACES))
    def test_valid_tables(self, name):
        Z = BISPACES[name]()
        report = validate_equivalence(Z)
        assert report.ok
        assert_same_report(report, oracles.validate_equivalence(Z))

    @pytest.mark.parametrize("mutation", sorted(EQUIVALENCE_MUTATIONS))
    @pytest.mark.parametrize("name", sorted(BISPACES))
    def test_mutated_tables(self, name, mutation):
        base = BISPACES[name]()
        for seed in SEEDS:
            Z = EQUIVALENCE_MUTATIONS[mutation](base, random.Random(f"{name}:{mutation}:{seed}"))
            assert_same_report(validate_equivalence(Z), oracles.validate_equivalence(Z))

    def test_every_action_message_fires_on_both_sides(self):
        # the reports above equal the oracle's, so each of these templates is
        # held to it byte for byte on at least one mutated table
        seen = {"left": set(), "right": set()}
        for mutation in EQUIVALENCE_MUTATIONS:
            for name in BISPACES:
                for seed in SEEDS:
                    rng = random.Random(f"{name}:{mutation}:{seed}")
                    Z = EQUIVALENCE_MUTATIONS[mutation](BISPACES[name](), rng)
                    for side in equivalence._sides(Z):
                        rep = ValidationReport(subject=side.name)
                        equivalence._validate_action_side(rep, Z, side)
                        seen[side.name] |= {(v.rule, re.sub(r"'[^']*'", "_", v.message)) for v in rep.violations}
        assert seen == ACTION_MESSAGES

    def test_fixed_points_and_commutation_failures_are_reported(self):
        rules = set()
        for name in BISPACES:
            for seed in SEEDS:
                Z = make_a_fixed_point(BISPACES[name](), random.Random(seed))
                rules |= validate_equivalence(Z).rules()
        assert {"freeness", "actions-commute", "action-compatibility"} <= rules
