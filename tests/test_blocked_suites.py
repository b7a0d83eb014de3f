"""The blocked suites against their per-sample oracles.

Every suite draws and evaluates its samples in blocks of ``BLOCK``.  The
oracles in ``tests/oracles.py`` are the suites as they ran one sample at
a time through the one-element maps; the blocked reports, and every
residual they record, must equal theirs exactly, across block
boundaries and on failing inputs.
"""

import pytest

import oracles
from test_stacks import _weighted_transitive, counting, linked
from groupoidal import (
    HaarSystem,
    rip,
    verify_full_projections,
    verify_imprimitivity,
    verify_representation_laws,
    verify_universal_norm_finite,
)
from groupoidal.algebra import rip_block
from groupoidal.fixtures import pair_trivialization
from groupoidal.verify import BLOCK, SuiteReport


def _recording(monkeypatch):
    """The entries ``SuiteReport.record`` receives, in call order."""
    recorded = []
    record = SuiteReport.record
    monkeypatch.setattr(
        SuiteReport, "record", lambda self, *entry: (recorded.append(entry), record(self, *entry))
    )
    return recorded


def _flipped_rip(phi, psi, Z, haar):
    return -1.0 * rip(phi, psi, Z, haar)


def _flipped_rip_block(phi, psi, Z, haar):
    return -1.0 * rip_block(phi, psi, Z, haar)


def _tampered(Z, wl, wr):
    link, kappa = linked(Z, wl, wr)
    weights = dict(kappa.weights)
    weights[link.arrow_of("GZ", Z.points[0])] *= 2.0
    return link, HaarSystem(weights)


# each suite blocked and as it ran one sample at a time: (blocked, oracle),
# both called with (Z, wl, wr, samples, seed)
BLOCKED_SUITES = {
    "imprimitivity": (
        lambda Z, wl, wr, n, seed: verify_imprimitivity(Z, wl, wr, n, seed=seed),
        lambda Z, wl, wr, n, seed: oracles.imprimitivity(Z, wl, wr, n, seed),
    ),
    "imprimitivity-flipped": (
        lambda Z, wl, wr, n, seed: verify_imprimitivity(Z, wl, wr, n, seed=seed, inner_right=_flipped_rip_block),
        lambda Z, wl, wr, n, seed: oracles.imprimitivity(Z, wl, wr, n, seed, inner_right=_flipped_rip),
    ),
    "fullness": (
        lambda Z, wl, wr, n, seed: verify_full_projections(Z, wl, wr, generators=n, seed=seed),
        lambda Z, wl, wr, n, seed: oracles.full_projections(Z, wl, wr, n, seed),
    ),
    "universal": (
        lambda Z, wl, wr, n, seed: verify_universal_norm_finite(Z, wl, wr, n, 1e-9, seed, *linked(Z, wl, wr)),
        lambda Z, wl, wr, n, seed: oracles.universal_norm_finite(Z, wl, wr, n, 1e-9, seed, *linked(Z, wl, wr)),
    ),
    "universal-tampered": (
        lambda Z, wl, wr, n, seed: verify_universal_norm_finite(Z, wl, wr, n, 1e-9, seed, *_tampered(Z, wl, wr)),
        lambda Z, wl, wr, n, seed: oracles.universal_norm_finite(Z, wl, wr, n, 1e-9, seed, *_tampered(Z, wl, wr)),
    ),
    "representation": (
        lambda Z, wl, wr, n, seed: verify_representation_laws(Z, wl, wr, n, seed=seed),
        lambda Z, wl, wr, n, seed: oracles.representation_laws(Z, wl, wr, n, seed),
    ),
}


@pytest.mark.parametrize("samples", [1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize(
    "build",
    [lambda: counting(pair_trivialization(3)), _weighted_transitive],
    ids=["pair-trivial(3)", "weighted-transitive(2,3)"],
)
@pytest.mark.parametrize("suite", BLOCKED_SUITES)
def test_blocked_suite_equals_the_per_sample_oracle(suite, build, samples, monkeypatch):
    # the report, and every recorded residual and witness in order
    recorded = _recording(monkeypatch)
    Z, wl, wr = build()
    blocked, oracle = BLOCKED_SUITES[suite]
    got = blocked(Z, wl, wr, samples, 0x5EED).to_dict()
    got_recorded, recorded[:] = recorded[:], []
    assert got == oracle(Z, wl, wr, samples, 0x5EED).to_dict()
    assert got_recorded == recorded
    if suite.endswith(("flipped", "tampered")):
        assert got["status"] == "fail" and "witness" in got
