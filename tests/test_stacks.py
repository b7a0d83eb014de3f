"""Stacked per-unit representations against their one-at-a-time references.

The suites assemble one stack of matrices per unit for a whole block of
samples and solve it with one batched LAPACK call.  Every stacked matrix
must be byte-equal to the table-scan oracle's, every blocked report must
equal the per-sample oracle's exactly, and the batched numpy calls the
stacks rely on must be bitwise equal to one call per matrix.
"""

import numpy as np
import pytest

import oracles
from groupoidal import (
    AlgebraElement,
    HaarSystem,
    build_linking,
    build_linking_haar,
    gram_min_eigenvalue,
    reduced_norm,
    reduced_norms,
    rip,
    unit_stacks,
    verify_theorem_main1,
)
from groupoidal.fixtures import (
    cyclic_self_equivalence,
    pair_trivialization,
    source_weighted_haar,
    transitive_equivalence,
)
from groupoidal.representations import norm_units
from groupoidal.verify import BLOCK, Lcg, SuiteReport, random_element

# the fixtures `check --all` runs on in the check-all benchmark
CHECK_ALL = {
    "pair-trivial(2)": lambda: pair_trivialization(2),
    "pair-trivial(3)": lambda: pair_trivialization(3),
    "self(2)": lambda: cyclic_self_equivalence(2),
    "transitive-equiv(2,2)": lambda: transitive_equivalence(2, 2),
    "transitive-equiv(2,3)": lambda: transitive_equivalence(2, 3),
}


def counting(Z):
    return Z, HaarSystem.counting(Z.left_groupoid), HaarSystem.counting(Z.right_groupoid)


def linked(Z, wl, wr):
    link = build_linking(Z)
    return link, build_linking_haar(link, wl, wr)


@pytest.mark.parametrize(
    "samples,tol",
    [(100, 1e-9), (BLOCK + 1, 1e-9), (100, 1e-300)],
    ids=["100", "block-boundary", "failing"],
)
@pytest.mark.parametrize("name", CHECK_ALL)
def test_main1_report_equals_the_per_sample_oracle(name, samples, tol, monkeypatch):
    # every recorded residual and witness, in order, not only the report's maximum
    recorded = []
    record = SuiteReport.record
    monkeypatch.setattr(
        SuiteReport, "record", lambda self, *entry: (recorded.append(entry), record(self, *entry))
    )
    Z, wl, wr = counting(CHECK_ALL[name]())
    args = (Z, wl, wr, samples, tol, 0x5EED, *linked(Z, wl, wr))
    got = verify_theorem_main1(*args).to_dict()
    got_recorded, recorded[:] = recorded[:], []
    assert got == oracles.theorem_main1(*args).to_dict()
    assert got_recorded == recorded and len(recorded) == 3 * samples
    if tol == 1e-300:
        assert got["status"] == "fail" and "witness" in got


def _weighted_transitive():
    Z = transitive_equivalence(2, 3)
    wl = source_weighted_haar(Z.left_groupoid, {"1": 1.0, "2": 0.3})
    return Z, wl, HaarSystem.counting(Z.right_groupoid)


def _elements(ids, seed):
    """Dense, sparse, all-zero and signed-zero elements on ``ids``."""
    rng = Lcg(seed)
    ids = sorted(ids)
    dense = random_element("X", ids, rng)
    sparse = AlgebraElement("X", {key: dense.values[key] for key in ids[::3]})
    zeros = AlgebraElement("X", {key: 0j for key in ids})
    signed = [-0j, complex(-0.0, -0.0), complex(0.7, -0.0), complex(-0.0, 0.4), complex(-0.0, 0.0)]
    signed_zeros = AlgebraElement("X", {key: signed[i % len(signed)] for i, key in enumerate(ids)})
    return [dense, sparse, AlgebraElement.zero("X"), zeros, signed_zeros]


@pytest.mark.parametrize(
    "build", [_weighted_transitive, lambda: counting(pair_trivialization(3))], ids=["weighted", "counting"]
)
def test_stacked_matrices_are_byte_equal_to_the_oracle(build):
    Z, wl, wr = build()
    link, kappa = linked(Z, wl, wr)
    for seed, (groupoid, haar) in enumerate(
        ((Z.left_groupoid, wl), (Z.right_groupoid, wr), (link.groupoid, kappa))
    ):
        elements = _elements(groupoid.arrow_ids, seed)
        stacks = unit_stacks(groupoid, haar, groupoid.units, elements)
        for u, (masses, stack) in zip(groupoid.units, stacks):
            assert stack.shape[0] == len(elements)
            for f, matrix in zip(elements, stack):
                want = oracles.unit_matrix(groupoid, haar.weights, u, f.values)
                assert matrix.shape == want.shape
                assert matrix.tobytes() == want.tobytes()
        assert reduced_norms(elements, groupoid, haar) == [
            reduced_norm(f, groupoid, haar) for f in elements
        ]


def test_gram_stack_equals_the_assembled_blocks():
    Z, wl, wr = _weighted_transitive()
    rng = Lcg(17)
    phis = [random_element(Z.labels[2], Z.points, rng) for _ in range(3)]
    H = Z.right_groupoid
    grams = [[rip(phi, psi, Z, wl).values for psi in phis] for phi in phis]
    want = np.inf
    for v in norm_units(H, wr):
        block = np.block([[oracles.unit_matrix(H, wr.weights, v, g) for g in row] for row in grams])
        want = min(want, float(np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0]))
    assert gram_min_eigenvalue(Z, wl, wr, phis) == want


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_batched_lapack_and_matmul_are_bitwise_per_matrix(k):
    # The suites' reports are byte-stable only while a batched call gives
    # each matrix the bits a call of its own gives; a numpy or LAPACK build
    # that breaks this must fail here, not in a report diff.
    rng = np.random.default_rng(k)
    a = rng.normal(size=(7, k, k)) + 1j * rng.normal(size=(7, k, k))
    b = rng.normal(size=(7, k, k)) + 1j * rng.normal(size=(7, k, k))
    h = (a + a.conj().transpose(0, 2, 1)) / 2.0
    singular = np.linalg.svd(a, compute_uv=False)
    eigen = np.linalg.eigvalsh(h)
    products = a @ b
    for i in range(len(a)):
        assert singular[i].tobytes() == np.linalg.svd(a[i], compute_uv=False).tobytes()
        assert eigen[i].tobytes() == np.linalg.eigvalsh(h[i]).tobytes()
        assert products[i].tobytes() == (a[i] @ b[i]).tobytes()
