"""Independent oracles used by the tests.

These deliberately avoid the library's own code paths: the Fourier norm
is a direct double loop with ``cmath``, the singular-value oracle goes
through LAPACK, the bracket oracle is an exhaustive scan of the action
table, and since the library itself takes its kernels from LAPACK, the
eigenvalue and rank oracles are a cyclic Jacobi iteration and Gaussian
elimination written out in Python.  The bimodule kernels (product,
actions, inner products, per-unit matrices) are the plain loops over
the raw tables, summing the same terms in the same order as the
library, so the library's results must equal theirs exactly.  The
structural validators are the exhaustive table scans, which must give
the library's validation reports exactly.  The theorem-main1 oracle is
the suite as it ran one sample at a time, one reduced norm per call;
the blocked suite must give its report exactly.  The imprimitivity,
full-projections, universal and representation-law oracles are those
suites as they drew and evaluated one sample at a time through the
one-element maps; the blocked suites must give their reports, and record
their residuals, exactly as these do.  The orbit measure on
the point sector of the linking Haar system is the loop that pushed the
right Haar masses along the right action, before it became ``rho_measure``
of the opposite space.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from groupoidal.equivalence import PROPERNESS_NOTE, Bispace, GSpace
from groupoidal.errors import StructureBrokenError, UnknownIdError
from groupoidal.groupoid import FiniteGroupoid, ValidationReport, r_fiber


def dft_norm(coefficients: list[complex]) -> float:
    """max_k |sum_j c_j e^(-2 pi i j k / n)| by brute force."""
    n = len(coefficients)
    best = 0.0
    for k in range(n):
        total = 0.0 + 0.0j
        for j, c in enumerate(coefficients):
            total += c * cmath.exp(-2j * cmath.pi * j * k / n)
        best = max(best, abs(total))
    return best


def svd_norm(matrix) -> float:
    """Largest singular value through LAPACK."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def brute_left_bracket(Z, y: str, z: str) -> list[str]:
    """Every left arrow gamma with gamma * z == y, by scanning the table."""
    return sorted(
        gamma for (gamma, zz), out in Z.left_action.items() if zz == z and out == y
    )


def brute_right_bracket(Z, y: str, z: str) -> list[str]:
    """Every right arrow eta with y * eta == z, by scanning the table."""
    return sorted(
        eta for (yy, eta), out in Z.right_action.items() if yy == y and out == z
    )


def cyclic_index(arrow_id: str) -> int:
    """Exponent of a cyclic-group arrow id of the form g<k>."""
    assert arrow_id.startswith("g")
    return int(arrow_id[1:])


def _off_mass(a: np.ndarray) -> float:
    # summed directly off the diagonal: total minus diagonal cancels
    # catastrophically when the off-diagonal part is tiny
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(matrix, off_tol: float = 1e-13, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, by cyclic Jacobi.

    Pivots run in row-major order.  For each pivot ``(p, q)`` the 2x2 block

        [[a_pp, b], [conj(b), a_qq]]      b = |b| e^{i phi}

    is annihilated by the unitary with entries ``U[p,p] = c``,
    ``U[p,q] = -s e^{i phi}``, ``U[q,p] = s e^{-i phi}``, ``U[q,q] = c``,
    where ``t = s / c`` is the stable root of ``t^2 + 2 tau t - 1 = 0`` and
    ``tau = (a_pp - a_qq) / (2 |b|)``.  Sweeps stop when the off-diagonal
    Frobenius mass falls below ``off_tol`` relative to the matrix scale,
    when a sweep makes no further progress, or after ``max_sweeps``.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    a = (a + a.conj().T) / 2.0
    threshold = off_tol * max(1.0, float(np.linalg.norm(a)))
    previous = math.inf
    for _ in range(max_sweeps):
        off = _off_mass(a)
        if off <= threshold or off >= previous:
            break
        previous = off
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                tau = (a[p, p].real - a[q, q].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phase = apq / mag
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + s * np.conj(phase) * colq
                a[:, q] = -s * phase * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + s * phase * rowq
                a[q, :] = -s * np.conj(phase) * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    return np.sort(np.diagonal(a).real)


def gaussian_rank(matrix, pivot_tol: float = 1e-9) -> int:
    """Rank over the complex numbers by Gaussian elimination with partial pivoting."""
    a = np.array(matrix, dtype=np.complex128)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        magnitudes = np.abs(a[rank:, col])
        pivot = int(np.argmax(magnitudes))
        if magnitudes[pivot] <= pivot_tol:
            continue
        pivot += rank
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        factors = a[rank + 1 :, col] / a[rank, col]
        a[rank + 1 :, :] -= np.outer(factors, a[rank, :])
        rank += 1
    return rank


def stacked_delta_matrix(groupoid, weights: dict[str, float]) -> np.ndarray:
    """Every per-unit matrix of every delta function, stacked, from the raw tables.

    Row ``(u, gamma, beta)`` over the source fiber of each unit ``u`` holds
    the matrix entry ``w(a) sqrt(w(inverse(gamma)) / w(inverse(beta)))`` in
    the column of the arrow ``a = gamma inverse(beta)``.
    """
    ids = sorted(a.id for a in groupoid.arrows)
    column = {aid: i for i, aid in enumerate(ids)}
    rows = []
    for u in sorted(groupoid.units):
        fiber = sorted(a.id for a in groupoid.arrows if a.src == u)
        for gamma in fiber:
            for beta in fiber:
                a = groupoid.compose[(gamma, groupoid.inverse[beta])]
                row = np.zeros(len(ids), dtype=np.complex128)
                row[column[a]] = weights[a] * math.sqrt(
                    weights[groupoid.inverse[gamma]] / weights[groupoid.inverse[beta]]
                )
                rows.append(row)
    return np.array(rows).reshape(len(rows), len(ids))


# --- the bimodule kernels, from the raw tables ------------------------------
#
# Elements are plain ``{id: value}`` dicts and Haar systems plain weight
# dicts; every id is looked up in the tables the groupoid or bispace was
# built from.


def _range_fiber(groupoid, u: str) -> list[str]:
    return sorted(a.id for a in groupoid.arrows if a.dst == u)


def _source(groupoid, arrow_id: str) -> str:
    return next(a.src for a in groupoid.arrows if a.id == arrow_id)


def _range(groupoid, arrow_id: str) -> str:
    return next(a.dst for a in groupoid.arrows if a.id == arrow_id)


def _base_point_free(samples: list[complex]) -> complex:
    ref = samples[0]
    if any(abs(v - ref) > 1e-12 * max(1.0, abs(ref)) for v in samples[1:]):
        raise ValueError(f"inner product depends on the base point: {samples!r}")
    return ref


def convolution(f: dict, g: dict, groupoid, weights: dict) -> dict:
    """``(f * g)(ab) += f(a) g(b) w(a)`` over composable pairs, ``a`` in the order of ``f``."""
    out: dict = {}
    for a, fa in f.items():
        if fa == 0:
            continue
        for b in _range_fiber(groupoid, _source(groupoid, a)):
            gb = g.get(b)
            if not gb:
                continue
            c = groupoid.compose[(a, b)]
            out[c] = out.get(c, 0.0) + fa * gb * weights[a]
    return out


def left_action(f: dict, phi: dict, Z, weights: dict) -> dict:
    """``(f . phi)(z) = sum_gamma f(gamma) phi(inverse(gamma) z) w(gamma)``."""
    G = Z.left_groupoid
    out: dict = {}
    for z in sorted(Z.points):
        acc = 0.0 + 0.0j
        for gamma in _range_fiber(G, Z.r_map[z]):
            v = phi.get(Z.left_action[(G.inverse[gamma], z)])
            if v:
                fv = f.get(gamma)
                if fv:
                    acc += fv * v * weights[gamma]
        if acc != 0:
            out[z] = acc
    return out


def right_action(phi: dict, b: dict, Z, weights: dict) -> dict:
    """``(phi . b)(z) = sum_eta phi(z eta) b(inverse(eta)) w(eta)``."""
    H = Z.right_groupoid
    out: dict = {}
    for z in sorted(Z.points):
        acc = 0.0 + 0.0j
        for eta in _range_fiber(H, Z.s_map[z]):
            v = phi.get(Z.right_action[(z, eta)])
            if v:
                bv = b.get(H.inverse[eta])
                if bv:
                    acc += v * bv * weights[eta]
        if acc != 0:
            out[z] = acc
    return out


def right_inner(phi: dict, psi: dict, Z, weights: dict) -> dict:
    """``rip(phi, psi)(eta)`` from every base point ``z`` over ``r(eta)``, which must agree."""
    G, H = Z.left_groupoid, Z.right_groupoid
    out: dict = {}
    for eta in sorted(a.id for a in H.arrows):
        samples = []
        for z in sorted(p for p in Z.points if Z.s_map[p] == _range(H, eta)):
            acc = 0.0 + 0.0j
            for gamma in _range_fiber(G, Z.r_map[z]):
                y = Z.left_action[(G.inverse[gamma], z)]
                a = phi.get(y)
                if not a:
                    continue
                b = psi.get(Z.right_action[(y, eta)])
                if b:
                    acc += a.conjugate() * b * weights[gamma]
            samples.append(acc)
        value = _base_point_free(samples)
        if value != 0:
            out[eta] = value
    return out


def left_inner(phi: dict, psi: dict, Z, weights: dict) -> dict:
    """``lip(phi, psi)(gamma)`` from every base point ``w`` over ``s(gamma)``, which must agree."""
    G, H = Z.left_groupoid, Z.right_groupoid
    out: dict = {}
    for gamma in sorted(a.id for a in G.arrows):
        samples = []
        for w in sorted(p for p in Z.points if Z.r_map[p] == _source(G, gamma)):
            acc = 0.0 + 0.0j
            for eta in _range_fiber(H, Z.s_map[w]):
                we = Z.right_action[(w, eta)]
                b = psi.get(we)
                a = phi.get(Z.left_action[(gamma, we)])
                if a and b:
                    acc += a * b.conjugate() * weights[eta]
            samples.append(acc)
        value = _base_point_free(samples)
        if value != 0:
            out[gamma] = value
    return out


def unit_matrix(groupoid, weights: dict, u: str, values: dict) -> np.ndarray:
    """Matrix of convolution by ``values`` over the source fiber of ``u``, orthonormal basis."""
    fiber = sorted(a.id for a in groupoid.arrows if a.src == u)
    roots = np.sqrt(np.array([weights[groupoid.inverse[g]] for g in fiber], dtype=float))
    entries = np.zeros((len(fiber), len(fiber)), dtype=np.complex128)
    for j, beta in enumerate(fiber):
        inv_beta = groupoid.inverse[beta]
        for i, gamma in enumerate(fiber):
            a = groupoid.compose[(gamma, inv_beta)]
            v = values.get(a)
            if v:
                entries[i, j] = v * weights[a] * (roots[i] / roots[j])
    return entries


# --- the orbit measure on the point sector, sigma --------------------------------
#
# ``equivalence.sigma_measure`` as it was before ``build_linking_haar`` took
# it from ``rho_measure`` of the mirror: the right Haar masses pushed along
# the right action from every point over a left unit.


def _measures_agree(a, b) -> bool:
    if set(a) != set(b):
        return False
    if all(float(v).is_integer() for v in (*a.values(), *b.values())):
        return all(a[k] == b[k] for k in a)
    return all(abs(a[k] - b[k]) <= 1e-12 * max(1.0, abs(a[k])) for k in a)


def sigma_measure(Z: Bispace, u: str, right_haar) -> dict[str, float]:
    """Right-orbit measure over the left unit ``u``.

    From any point ``z`` with ``r(z) == u``, push the right Haar masses
    forward: ``sigma({z * eta}) == sum of w(eta)`` over the arrows
    ``eta`` with ``r(eta) == s(z)`` landing on that point.  The result
    must not depend on the chosen ``z``; every representative is checked
    and a mismatch aborts, because it means the Haar system lost left
    invariance somewhere.
    """
    fiber = Z.r_fiber_points(u)
    if not fiber:
        raise UnknownIdError(f"no point lies over left unit {u!r}")
    H = Z.right_groupoid

    def from_rep(z0: str) -> dict[str, float]:
        acc: dict[str, float] = {}
        for eta in r_fiber(H, Z.s_of(z0)):
            pt = Z.right_act(z0, eta)
            acc[pt] = acc.get(pt, 0.0) + right_haar.weight(eta)
        return acc

    reference = from_rep(fiber[0])
    for z in fiber[1:]:
        other = from_rep(z)
        if not _measures_agree(reference, other):
            raise StructureBrokenError(
                f"orbit measure over {u!r} depends on the representative "
                f"({fiber[0]!r} vs {z!r}); Haar invariance is broken"
            )
    return reference


# --- structural validation, the exhaustive table scans ------------------------
#
# ``validate_groupoid`` and ``validate_equivalence`` as they were before the
# library screened the composable pairs and associativity with numpy gathers
# and indexed the action rows of the commutation, compatibility and freeness
# scans: every pair, triple and row is visited.  The library's reports must
# equal theirs exactly, violations in the same order with the same text.


def validate_groupoid(groupoid: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom exhaustively; empty report iff all hold.

    Malformed table references (unknown arrow or unit ids) are reported
    with their own rules rather than raised, so a single run surfaces
    every defect in a fixture.
    """
    rep = ValidationReport(subject="groupoid")
    seen_units: set[str] = set()
    for u in groupoid.units:
        if u in seen_units:
            rep.add("unique-ids", f"duplicate unit id {u!r}", u)
        seen_units.add(u)
    seen_arrows: set[str] = set()
    for a in groupoid.arrows:
        if a.id in seen_arrows:
            rep.add("unique-ids", f"duplicate arrow id {a.id!r}", a.id)
        seen_arrows.add(a.id)

    units = set(groupoid.units)
    known = groupoid._by_id
    for a in groupoid.arrows:
        if a.src not in units:
            rep.add("unknown-unit", f"arrow {a.id!r} has unknown source unit {a.src!r}", a.id)
        if a.dst not in units:
            rep.add("unknown-unit", f"arrow {a.id!r} has unknown range unit {a.dst!r}", a.id)

    # unit arrows
    for u in groupoid.units:
        uid = groupoid.unit_arrow.get(u)
        if uid is None:
            rep.add("unit-arrow", f"unit {u!r} has no identity arrow", u)
        elif uid not in known:
            rep.add("unknown-arrow", f"identity arrow {uid!r} of unit {u!r} is unknown", uid, u)
        else:
            a = known[uid]
            if a.src != u or a.dst != u:
                rep.add("unit-arrow", f"identity arrow {uid!r} does not sit at unit {u!r}", uid, u)
    for u in groupoid.unit_arrow:
        if u not in units:
            rep.add("unit-arrow", f"identity arrow listed for unknown unit {u!r}", u)

    # inverse table
    for a in groupoid.arrows:
        ia = groupoid.inverse.get(a.id)
        if ia is None:
            rep.add("inverse-domain", f"arrow {a.id!r} has no inverse entry", a.id)
            continue
        if ia not in known:
            rep.add("unknown-arrow", f"inverse of {a.id!r} is unknown arrow {ia!r}", a.id, ia)
            continue
        if groupoid.inverse.get(ia) != a.id:
            rep.add("inverse-involution", f"inverse(inverse({a.id!r})) != {a.id!r}", a.id, ia)
        b = known[ia]
        if b.dst != a.src or b.src != a.dst:
            rep.add(
                "inverse-endpoints",
                f"inverse of {a.id!r} must swap source and range, got {ia!r}",
                a.id,
                ia,
            )
    for aid in groupoid.inverse:
        if aid not in known:
            rep.add("inverse-domain", f"inverse listed for unknown arrow {aid!r}", aid)

    # composition table: definedness both ways, endpoint consistency
    for (a, b), c in groupoid.compose.items():
        if a not in known or b not in known:
            rep.add("unknown-arrow", f"composition entry ({a!r}, {b!r}) references unknown arrows", a, b)
            continue
        if known[a].src != known[b].dst:
            rep.add(
                "compose-definedness",
                f"composition defined for non-composable pair ({a!r}, {b!r})",
                a,
                b,
            )
        if c not in known:
            rep.add("unknown-arrow", f"composition ({a!r}, {b!r}) yields unknown arrow {c!r}", a, b, c)
            continue
        if known[c].dst != known[a].dst:
            rep.add(
                "compose-range",
                f"range of ({a!r} {b!r}) is {known[c].dst!r}, expected {known[a].dst!r}",
                a,
                b,
                c,
            )
        if known[c].src != known[b].src:
            rep.add(
                "compose-source",
                f"source of ({a!r} {b!r}) is {known[c].src!r}, expected {known[b].src!r}",
                a,
                b,
                c,
            )
    for a in groupoid.arrows:
        for b in groupoid._r_fibers.get(a.src, ()):
            if (a.id, b) not in groupoid.compose:
                rep.add(
                    "compose-definedness",
                    f"composable pair ({a.id!r}, {b!r}) missing from composition table",
                    a.id,
                    b,
                )

    def mul(a: str, b: str) -> str | None:
        return groupoid.compose.get((a, b))

    # identity and inverse laws (guarded, earlier rules cover missing refs)
    for a in groupoid.arrows:
        us = groupoid.unit_arrow.get(a.src)
        ur = groupoid.unit_arrow.get(a.dst)
        if us is not None and mul(a.id, us) != a.id:
            rep.add("unit-identity", f"{a.id!r} * unit({a.src!r}) != {a.id!r}", a.id, us)
        if ur is not None and mul(ur, a.id) != a.id:
            rep.add("unit-identity", f"unit({a.dst!r}) * {a.id!r} != {a.id!r}", ur, a.id)
        ia = groupoid.inverse.get(a.id)
        if ia is None or ia not in known:
            continue
        if ur is not None and mul(a.id, ia) != ur:
            rep.add("inverse-law", f"{a.id!r} * {ia!r} != unit({a.dst!r})", a.id, ia)
        if us is not None and mul(ia, a.id) != us:
            rep.add("inverse-law", f"{ia!r} * {a.id!r} != unit({a.src!r})", ia, a.id)

    # associativity on every composable triple
    for a in groupoid.arrows:
        for b in groupoid._r_fibers.get(a.src, ()):
            ab = mul(a.id, b)
            for c in groupoid._r_fibers.get(known[b].src, ()):
                bc = mul(b, c)
                left = mul(ab, c) if ab is not None else None
                right = mul(a.id, bc) if bc is not None else None
                if left != right or left is None:
                    rep.add(
                        "associativity",
                        f"({a.id!r} {b!r}) {c!r} != {a.id!r} ({b!r} {c!r})",
                        a.id,
                        b,
                        c,
                    )
    return rep



def _validate_action_side(rep: ValidationReport, Z: Bispace, side: str) -> None:
    grpd = Z.left_groupoid if side == "left" else Z.right_groupoid
    anchor = Z.r_map if side == "left" else Z.s_map
    table = Z.left_action if side == "left" else Z.right_action
    points = set(Z.points)

    for z in Z.points:
        u = anchor.get(z)
        if u is None:
            rep.add("unknown-id", f"point {z!r} has no {side} anchor", z)
        elif not grpd.has_unit(u):
            rep.add("unknown-id", f"{side} anchor of {z!r} is unknown unit {u!r}", z, u)

    for key, out in table.items():
        gamma, z = key if side == "left" else (key[1], key[0])
        if not grpd.has_arrow(gamma) or z not in points or out not in points:
            rep.add("unknown-id", f"{side} action entry {key!r} -> {out!r} references unknown ids", *key)
            continue
        u = anchor.get(z)
        matches = (grpd.s(gamma) == u) if side == "left" else (grpd.r(gamma) == u)
        if not matches:
            rep.add(
                "action-definedness",
                f"{side} action defined on non-matching pair {key!r}",
                gamma,
                z,
            )
        # the moving anchor follows the arrow, the other anchor is preserved
        if side == "left":
            if Z.r_map.get(out) != grpd.r(gamma):
                rep.add("action-range", f"range anchor of {gamma!r}*{z!r} is not r({gamma!r})", gamma, z)
            if Z.s_map.get(out) != Z.s_map.get(z):
                rep.add("action-range", f"left action moved the right anchor of {z!r}", gamma, z)
        else:
            if Z.s_map.get(out) != grpd.s(gamma):
                rep.add("action-range", f"source anchor of {z!r}*{gamma!r} is not s({gamma!r})", z, gamma)
            if Z.r_map.get(out) != Z.r_map.get(z):
                rep.add("action-range", f"right action moved the left anchor of {z!r}", z, gamma)

    for z in Z.points:
        u = anchor.get(z)
        if u is None or not grpd.has_unit(u):
            continue
        for gamma in (r_fiber(grpd, u) if side == "right" else ()):
            if (z, gamma) not in table:
                rep.add("action-definedness", f"right action missing for ({z!r}, {gamma!r})", z, gamma)
        if side == "left":
            for gamma in grpd._s_fibers.get(u, ()):
                if (gamma, z) not in table:
                    rep.add("action-definedness", f"left action missing for ({gamma!r}, {z!r})", gamma, z)
        # identity acts trivially
        uid = grpd.unit_arrow.get(u)
        if uid is not None:
            got = table.get((uid, z) if side == "left" else (z, uid))
            if got != z:
                rep.add("unit-acts-trivially", f"unit arrow of {u!r} moves point {z!r}", z)

    # compatibility with composition
    for (a, b), ab in grpd.compose.items():
        if not grpd.has_arrow(a) or not grpd.has_arrow(b) or not grpd.has_arrow(ab):
            continue
        if side == "left":
            for z in Z.points:
                inner = table.get((b, z))
                if inner is None:
                    continue
                if table.get((a, inner)) != table.get((ab, z)):
                    rep.add("action-compatibility", f"({a!r}{b!r})*{z!r} != {a!r}*({b!r}*{z!r})", a, b, z)
        else:
            for z in Z.points:
                inner = table.get((z, a))
                if inner is None:
                    continue
                if table.get((inner, b)) != table.get((z, ab)):
                    rep.add("action-compatibility", f"{z!r}*({a!r}{b!r}) != ({z!r}*{a!r})*{b!r}", z, a, b)

    # freeness
    for z in Z.points:
        u = anchor.get(z)
        if u is None:
            continue
        uid = grpd.unit_arrow.get(u)
        for key, out in table.items():
            gamma, zz = key if side == "left" else (key[1], key[0])
            if zz == z and out == z and gamma != uid:
                rep.add("freeness", f"non-identity arrow {gamma!r} fixes point {z!r}", gamma, z)

    # anchor surjectivity (discrete stand-in for openness of the anchor map)
    hit = {anchor.get(z) for z in Z.points}
    for u in grpd.units:
        if u not in hit:
            rep.add("anchor-surjective", f"no point lies over {side} unit {u!r}", u)


def _right_orbits(Z: Bispace) -> tuple[tuple[str, ...], ...]:
    mirror = GSpace(
        Z.right_groupoid,
        Z.points,
        Z.s_map,
        {(eta, z): out for (z, eta), out in Z.right_action.items()},
    )
    return mirror.orbits()


def validate_equivalence(Z: Bispace) -> ValidationReport:
    """Check the full equivalence axiom list; empty report iff Z is one."""
    rep = ValidationReport(subject="equivalence")
    rep.notes.append(PROPERNESS_NOTE)
    _validate_action_side(rep, Z, "left")
    _validate_action_side(rep, Z, "right")

    # the two actions commute
    for (gamma, z), gz in Z.left_action.items():
        for (z2, eta), ze in Z.right_action.items():
            if z2 != z:
                continue
            left_then_right = Z.right_action.get((gz, eta))
            right_then_left = Z.left_action.get((gamma, ze))
            if left_then_right != right_then_left or left_then_right is None:
                rep.add("actions-commute", f"({gamma!r}*{z!r})*{eta!r} != {gamma!r}*({z!r}*{eta!r})", gamma, z, eta)

    # left anchor identifies right orbits with left units, and conversely
    for name, orbits, anchor, units in (
        ("right-orbits-vs-left-units", _right_orbits(Z), Z.r_map, Z.left_groupoid.units),
        ("left-orbits-vs-right-units", Z.left_space.orbits(), Z.s_map, Z.right_groupoid.units),
    ):
        seen: dict[str, tuple[str, ...]] = {}
        for orbit in orbits:
            anchors = {anchor.get(z) for z in orbit}
            if len(anchors) != 1:
                rep.add("orbit-bijection", f"{name}: orbit {orbit!r} meets several anchor units")
                continue
            (u,) = anchors
            if u in seen:
                rep.add("orbit-bijection", f"{name}: unit {u!r} hit by two distinct orbits", u)
            seen[u] = orbit
        for u in units:
            if u not in seen:
                rep.add("orbit-bijection", f"{name}: unit {u!r} not hit by any orbit", u)
    return rep



# --- theorem-main1, one sample at a time ----------------------------------------


def theorem_main1(Z, w_left, w_right, samples: int, tol: float, seed: int, link, kappa):
    """``verify_theorem_main1`` before it stacked its samples: per sample, draw
    ``f``, ``b`` and ``phi`` and take the six reduced norms one call each."""
    from groupoidal.algebra import AlgebraElement, lip, rip
    from groupoidal.linking import block_compose
    from groupoidal.representations import reduced_norm
    from groupoidal.verify import Lcg, SuiteReport, random_element

    def zero(which: int) -> AlgebraElement:
        labels = (link.bispace.labels[0], link.bispace.labels[2], link.opposite.labels[2], link.bispace.labels[1])
        return AlgebraElement.zero(labels[which])

    report = SuiteReport("theorem-main1", seed, samples, tol)
    G, H, L = Z.left_groupoid, Z.right_groupoid, link.groupoid
    rng = Lcg(seed)
    for index in range(samples):
        f = random_element(Z.labels[0], G.arrow_ids, rng)
        F = block_compose(link, f, zero(1), zero(2), zero(3))
        norm_g = reduced_norm(f, G, w_left)
        norm_l = reduced_norm(F, L, kappa)
        report.record(
            abs(norm_l - norm_g) / max(1.0, norm_g),
            {"sample": index, "side": "left", "norm_corner": norm_l, "norm_alone": norm_g},
        )

        b = random_element(Z.labels[1], H.arrow_ids, rng)
        B = block_compose(link, zero(0), zero(1), zero(2), b)
        norm_h = reduced_norm(b, H, w_right)
        norm_l = reduced_norm(B, L, kappa)
        report.record(
            abs(norm_l - norm_h) / max(1.0, norm_h),
            {"sample": index, "side": "right", "norm_corner": norm_l, "norm_alone": norm_h},
        )

        phi = random_element(Z.labels[2], Z.points, rng)
        norm_right = reduced_norm(rip(phi, phi, Z, w_left), H, w_right)
        norm_left = reduced_norm(lip(phi, phi, Z, w_right), G, w_left)
        report.record(
            abs(norm_right - norm_left) / max(1.0, norm_left),
            {
                "sample": index,
                "side": "module",
                "norm_right_inner": norm_right,
                "norm_left_inner": norm_left,
            },
        )
    return report


# --- the other suites, one sample at a time -------------------------------------
#
# ``verify_imprimitivity``, ``verify_full_projections``,
# ``verify_universal_norm_finite`` and ``verify_representation_laws`` before
# they drew and evaluated their samples in blocks: per sample, draw each
# element with ``random_element`` and evaluate every law through the
# one-element maps, which compare dicts.


def imprimitivity(
    Z, w_left, w_right, samples, seed, inner_right=None, tol=1e-10, adjoint_tol=1e-12, gram_tol=1e-10
):
    """``inner_right`` is a one-element right inner product (``rip`` by default)."""
    from groupoidal.algebra import convolve, involution, left_action, lip, right_action, rip
    from groupoidal.representations import gram_min_eigenvalue
    from groupoidal.verify import Lcg, SuiteReport, random_element

    inner_right = inner_right or rip
    report = SuiteReport("imprimitivity", seed, samples, 1.0)
    report.notes.append(
        "residuals are relative to each law's own bound: "
        f"identity={tol!r} algebraic={adjoint_tol!r} gram={gram_tol!r}"
    )
    G, H = Z.left_groupoid, Z.right_groupoid
    rng = Lcg(seed)

    def law(residual, name, index, bound):
        report.record(residual / bound, {"sample": index, "law": name, "residual": residual})

    for index in range(samples):
        f1, f2, f3 = (random_element(Z.labels[0], G.arrow_ids, rng) for _ in range(3))
        b1, b2 = (random_element(Z.labels[1], H.arrow_ids, rng) for _ in range(2))
        phi, psi, chi = (random_element(Z.labels[2], Z.points, rng) for _ in range(3))

        assoc = convolve(convolve(f1, f2, G, w_left), f3, G, w_left).distance(
            convolve(f1, convolve(f2, f3, G, w_left), G, w_left)
        )
        law(assoc, "associativity-left", index, adjoint_tol)
        assoc_h = convolve(convolve(b1, b2, H, w_right), b2, H, w_right).distance(
            convolve(b1, convolve(b2, b2, H, w_right), H, w_right)
        )
        law(assoc_h, "associativity-right", index, adjoint_tol)
        anti = involution(convolve(f1, f2, G, w_left), G).distance(
            convolve(involution(f2, G), involution(f1, G), G, w_left)
        )
        law(anti, "involution-antimultiplicative", index, adjoint_tol)
        bimod = right_action(left_action(f1, phi, Z, w_left), b1, Z, w_right).distance(
            left_action(f1, right_action(phi, b1, Z, w_right), Z, w_left)
        )
        law(bimod, "bimodule-compatibility", index, adjoint_tol)
        adj_r = inner_right(left_action(f1, phi, Z, w_left), psi, Z, w_left).distance(
            inner_right(phi, left_action(involution(f1, G), psi, Z, w_left), Z, w_left)
        )
        law(adj_r, "right-inner-adjoint", index, adjoint_tol)
        adj_l = lip(right_action(phi, b1, Z, w_right), psi, Z, w_right).distance(
            lip(phi, right_action(psi, involution(b1, H), Z, w_right), Z, w_right)
        )
        law(adj_l, "left-inner-adjoint", index, adjoint_tol)
        imprim = right_action(phi, inner_right(psi, chi, Z, w_left), Z, w_right).distance(
            left_action(lip(phi, psi, Z, w_right), chi, Z, w_left)
        )
        law(imprim, "imprimitivity-identity", index, tol)

    def gram_inner(phi_rows, psi_rows, bispace, haar):
        # the one-element inner product, one row pair at a time
        from groupoidal.algebra import AlgebraElement

        def element(row):
            return AlgebraElement(bispace.labels[2], dict(zip(bispace.points, row.tolist())))

        out = [inner_right(element(a), element(b), bispace, haar) for a, b in zip(phi_rows, psi_rows)]
        ids = bispace.right_groupoid.arrow_ids
        rows = [[g.get(k) for k in ids] for g in out]
        return np.array(rows, dtype=np.complex128).reshape(len(out), len(ids))

    worst_low = 0.0
    for round_index in range(max(1, samples // 10)):
        phis = [random_element(Z.labels[2], Z.points, rng) for _ in range(3)]
        low = gram_min_eigenvalue(Z, w_left, w_right, phis, inner=gram_inner)
        worst_low = min(worst_low, low)
        report.record(
            max(0.0, -low) / gram_tol,
            {"round": round_index, "law": "gram-positivity", "min_eigenvalue": low},
        )
    report.notes.append(f"gram worst min_eigenvalue={worst_low!r}")
    return report


def full_projections(Z, w_left, w_right, generators, seed, pivot_tol=1e-9):
    from groupoidal.algebra import convolve, left_action, op_star, right_action, rip
    from groupoidal.equivalence import opposite_space
    from groupoidal.numerics import complex_rank
    from groupoidal.verify import Lcg, SuiteReport, random_element

    G, H = Z.left_groupoid, Z.right_groupoid
    zop = opposite_space(Z)
    dims = {"G": len(G.arrows), "Z": len(Z.points), "Zop": len(Z.points), "H": len(H.arrows)}
    report = SuiteReport("full-projections", seed, generators, float(pivot_tol))
    rng = Lcg(seed)
    families = {"G": [], "Z": [], "Zop": [], "H": []}
    for _ in range(generators):
        f11 = random_element(Z.labels[0], G.arrow_ids, rng)
        k11 = random_element(Z.labels[0], G.arrow_ids, rng)
        k12 = random_element(Z.labels[2], Z.points, rng)
        f21 = random_element(zop.labels[2], zop.points, rng)
        families["G"].append(convolve(f11, k11, G, w_left))
        families["Z"].append(left_action(f11, k12, Z, w_left))
        families["Zop"].append(right_action(f21, k11, zop, w_left))
        families["H"].append(rip(op_star(f21), k12, Z, w_left))
    ids = {"G": G.arrow_ids, "Z": Z.points, "Zop": zop.points, "H": H.arrow_ids}
    ranks = {}
    for name, elements in families.items():
        matrix = np.array([[e.get(key) for key in ids[name]] for e in elements], dtype=np.complex128)
        ranks[name] = complex_rank(matrix, pivot_tol)
    report.notes.append(f"ranks={ranks!r} dims={dims!r}")
    deficient = {name for name in dims if ranks[name] < dims[name]}
    if deficient:
        report.status = "undersampled" if generators < max(dims[name] for name in deficient) else "fail"
        report.max_residual = 1.0
        report.witness = {"ranks": ranks, "dims": dims}
    return report


def universal_norm_finite(Z, w_left, w_right, samples, tol, seed, link, kappa):
    from groupoidal.algebra import blockwise_residual
    from groupoidal.representations import reduced_kernel_dimension
    from groupoidal.verify import AMENABILITY_NOTE, Lcg, SuiteReport, random_element

    report = SuiteReport("universal-norm-finite", seed, samples, tol)
    report.notes.append(AMENABILITY_NOTE)
    L = link.groupoid
    rng = Lcg(seed)
    for index in range(samples):
        F = random_element("L", L.arrow_ids, rng)
        K = random_element("L", L.arrow_ids, rng)
        _, residual, worst = blockwise_residual(F, K, link, w_left, w_right, kappa)
        report.max_residual = max(report.max_residual, residual)
        if residual > 1e-12:
            report.status = "fail"
            report.witness = {"sample": index, "law": "block-identity", "arrow": worst}
    kernels = {
        "G": reduced_kernel_dimension(Z.left_groupoid, w_left),
        "H": reduced_kernel_dimension(Z.right_groupoid, w_right),
        "L": reduced_kernel_dimension(L, kappa),
    }
    report.notes.append(f"kernel_dimensions={kernels!r}")
    if any(kernels.values()):
        report.status = "fail"
        report.witness = {"law": "kernel-triviality", "kernel_dimensions": kernels}
    return report


def representation_laws(Z, w_left, w_right, samples, seed, tol=1e-12, norm_slack=1e-9):
    """Draws, products and stars one sample at a time; the matrices were already
    stacked per block, as here."""
    from groupoidal.algebra import convolve, involution
    from groupoidal.groupoid import i_norm
    from groupoidal.numerics import spectral_norm
    from groupoidal.representations import intertwining_residual, r_mu_rep, reduced_norm, unit_stacks
    from groupoidal.verify import BLOCK, Lcg, SuiteReport, random_element

    report = SuiteReport("representation-laws", seed, samples, tol)
    G, X = Z.left_groupoid, Z.left_space
    rng = Lcg(seed)
    full_mu = {orbit[0]: 1.0 for orbit in X.orbits()}
    for start in range(0, samples, BLOCK):
        indices = range(start, min(samples, start + BLOCK))
        fs, gs = [], []
        for _ in indices:
            fs.append(random_element(Z.labels[0], G.arrow_ids, rng))
            gs.append(random_element(Z.labels[0], G.arrow_ids, rng))
        products = [convolve(f, g, G, w_left) for f, g in zip(fs, gs)]
        stars = [involution(f, G) for f in fs]
        laws = []
        for _, stack in unit_stacks(G, w_left, G.units, fs + gs + products + stars):
            mf, mg, mfg, mstar = stack.reshape(4, len(fs), *stack.shape[1:])
            with np.errstate(all="ignore"):
                hom = np.abs(mfg - mf @ mg).max(axis=(1, 2))
                adj = np.abs(mstar - mf.conj().transpose(0, 2, 1)).max(axis=(1, 2))
            laws.append((hom.tolist(), adj.tolist()))
        for i, (index, f) in enumerate(zip(indices, fs)):
            for u, (hom, adj) in zip(G.units, laws):
                report.record(hom[i], {"sample": index, "law": "multiplicative", "unit": u})
                report.record(adj[i], {"sample": index, "law": "star", "unit": u})
            x0 = Z.points[0]
            report.record(
                intertwining_residual(X, w_left, x0, f),
                {"sample": index, "law": "orbit-transport", "point": x0},
            )
            norm_reduced = reduced_norm(f, G, w_left)
            norm_orbit = spectral_norm(r_mu_rep(X, w_left, full_mu, f).entries)
            if norm_orbit > norm_reduced + norm_slack:
                report.record(
                    abs(norm_orbit - norm_reduced),
                    {"sample": index, "law": "orbit-dominated", "orbit": norm_orbit},
                )
            bound = i_norm(f, G, w_left)
            if norm_reduced > bound + 1e-10:
                report.record(
                    abs(norm_reduced - bound),
                    {"sample": index, "law": "i-norm-bound", "i_norm": bound},
                )
    return report
