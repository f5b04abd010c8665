"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the table.
"""

import math
import time

import numpy as np
import pytest

from specmax.cpoly import Poly, RootCluster
from specmax.polysub import _coordinate_matrix
from specmax.generators import builtin
from specmax.jordan import JordanSpec
from specmax.oracles import fd_phi_quotient, fd_poly_quotient, subgradient_inequality_suite
from specmax.polysub import subderivative_f
from specmax.specsub import (
    chain_rule_membership,
    derogatory_witness,
    radius_rsd_membership,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    subderivative,
)

from charpoly_lemmas import char_poly, char_poly_deriv_action, det_expansion_residual

ABSC = builtin("abscissa")
RAD = builtin("radius")
RAD2 = builtin("radius2")

A_SPEC = JordanSpec([(1.0, (2,)), (-1.0, (1,))])
B_SPEC = JordanSpec([(1.0, (2, 1))])


def report(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def random_P(rng, n, scale=0.25):
    while True:
        P = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            return P


def random_nonderogatory_spec(rng, n_max=5):
    n = int(rng.integers(2, n_max + 1))
    parts = []
    left = n
    while left > 0:
        k = int(rng.integers(1, left + 1))
        parts.append(k)
        left -= k
    lams = []
    while len(lams) < len(parts):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.4:
            continue
        if all(abs(z - w) > 0.5 for w in lams):
            lams.append(z)
    return JordanSpec([(lam, (k,)) for lam, k in zip(lams, parts)], P=random_P(rng, n))


def random_any_spec(rng, n_max=6):
    n = int(rng.integers(2, n_max + 1))
    parts = []
    left = n
    while left > 0:
        k = int(rng.integers(1, left + 1))
        parts.append(k)
        left -= k
    m = int(rng.integers(1, len(parts) + 1))
    groups = [g for g in np.array_split(np.array(parts), m) if g.size]
    lams = []
    while len(lams) < len(groups):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(z - w) > 0.5 for w in lams):
            lams.append(z)
    eigs = [(lam, tuple(int(b) for b in g)) for lam, g in zip(lams, groups)]
    return JordanSpec(eigs, P=random_P(rng, n))


def test_criterion_01_two_active_grid():
    """Two-active fixture: membership verdicts match the printed inequalities."""
    start = time.perf_counter()
    mismatches = 0
    for t11 in (0.0, 0.25, 0.5):
        t21 = 2 * t11 - 1
        for re12 in (-t11 - 0.1, -t11, 0.0, 1.0):
            for im12 in (0.0, 5.0):
                t12 = complex(re12, im12)
                Y = np.array([[t11, 0, 0], [t12, t11, 0], [0, 0, t21]], dtype=complex)
                expect = (re12 >= -t11 - 1e-9) and (t11 >= -1e-9) and (t21 <= 1e-9) \
                    and abs(2 * t11 - t21 - 1) <= 1e-9
                got = radius_rsd_membership(A_SPEC, Y).verdict
                mismatches += got != expect
    elapsed = time.perf_counter() - start
    report(1, f"two-active grid, {mismatches} mismatches, {elapsed:.2f}s",
           mismatches == 0 and elapsed < 1.0)


def test_criterion_02_derogatory_fixture_and_sequence():
    """Derogatory fixture: subdiagonal family plus the 1/nu perturbation run."""
    start = time.perf_counter()
    E21 = np.zeros((3, 3), dtype=complex)
    E21[1, 0] = 1.0
    ok = True
    for re_theta, expect in [(-1 / 3, True), (0.0, True), (2.0, True),
                             (-1 / 3 - 1e-3, False)]:
        Y = np.eye(3) / 3 + re_theta * E21
        ok &= radius_rsd_membership(B_SPEC, Y).verdict == expect
    M = np.diag([0.0, 0.0, 1.0]).astype(complex)
    ok &= not radius_rsd_membership(B_SPEC, M).verdict
    for nu in range(1, 101):
        spec_nu = JordanSpec([(1.0, (2,)), (1.0 + 1.0 / nu, (1,))])
        ok &= radius_rsd_membership(spec_nu, M).verdict
    elapsed = time.perf_counter() - start
    report(2, f"derogatory fixture and sequence, {elapsed:.2f}s", ok and elapsed < 5.0)


def test_criterion_03_origin_boundary():
    """Origin test on the 3x3 nilpotent block: |theta1| = 1/3 boundary."""
    spec = JordanSpec([(0.0, (3,))])
    ok = True
    for k in range(64):
        phase = np.exp(2j * np.pi * k / 64)

        def Y(theta1):
            W = theta1 * np.eye(3, dtype=complex)
            W[1, 0] = W[2, 1] = 0.2 * phase
            return W

        ok &= rsd_membership(spec, RAD, Y(phase / 3)).verdict
        ok &= rsd_membership(spec, RAD, Y((1 / 3 - 1e-9) * phase)).verdict
        ok &= not rsd_membership(spec, RAD, Y((1 / 3 + 1e-9) * phase)).verdict
        ok &= rsd_recession_membership(spec, RAD, Y(0.0)).verdict
        ok &= not rsd_recession_membership(spec, RAD, Y(1e-6 * phase)).verdict
    report(3, "origin boundary |theta1| = 1/3 on 64 phases", ok)


def test_criterion_04_route_consistency():
    """Explicit construction, direct test, and chain route agree everywhere."""
    rng = np.random.default_rng(42)
    disagreements = 0
    for trial in range(20):
        spec = random_nonderogatory_spec(rng)
        f = ABSC if trial % 2 == 0 else RAD2
        n_checks = 100
        for k in range(n_checks):
            Y = rsd_sample(spec, f, seed=1000 * trial + k)
            if not (rsd_membership(spec, f, Y).verdict
                    and chain_rule_membership(spec, f, Y)):
                disagreements += 1
        for k in range(n_checks):
            Y = rsd_sample(spec, f, seed=5000 + 1000 * trial + k)
            if k % 2 == 0:
                Y = 1.35 * Y  # breaks the weight normalization
            else:
                W = spec.to_W(Y)
                j = next((j for j in range(spec.num_eigs) if spec.n_j(j) >= 2), None)
                if j is None:
                    Y = 1.35 * Y
                else:
                    lam = spec.eig_value(j)
                    g = f.grad(lam)
                    w = g * g
                    sl = spec.eig_slice(j)
                    t1 = W[sl, sl][0, 0]
                    sigma = (t1 / g).real
                    # drive the subdiagonal strictly past its halfplane floor
                    bad = (-sigma * f.eta(lam) - 1.0) * w / abs(w) ** 2
                    for i in range(1, spec.n_j(j)):
                        W[sl, sl][i, i - 1] = bad
                    Y = spec.from_W(W)
            if rsd_membership(spec, f, Y).verdict or chain_rule_membership(spec, f, Y):
                disagreements += 1
    report(4, f"route consistency on 20 specs x 200 candidates, "
              f"{disagreements} disagreements", disagreements == 0)


def test_criterion_05_derivative_action_fd():
    """Characteristic-polynomial derivative action vs Richardson differences."""
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(50):
        spec = random_any_spec(rng)
        X = spec.synth()
        Z = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
        got = char_poly_deriv_action(spec, Z).array()
        t = 1e-4
        base = char_poly(X).array()
        q1 = (char_poly(X + t * Z).array() - base) / t
        q2 = (char_poly(X + 2 * t * Z).array() - base) / (2 * t)
        fd = 2 * q1 - q2
        rel = np.linalg.norm(got - fd[: len(got)]) / max(1.0, np.linalg.norm(fd))
        worst = max(worst, rel)
    report(5, f"derivative action FD agreement, worst rel err {worst:.2e}",
           worst <= 1e-5)


def test_criterion_06_determinant_expansion():
    """First-order determinant expansion: residual drops by >= 8x per decade."""
    rng = np.random.default_rng(44)
    grid = [np.exp(2j * np.pi * k / 8) for k in range(8)] + [0.5, -0.25 + 0.4j]
    ok = True
    for n in range(2, 7):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        big = det_expansion_residual(n, 1e-2 * u, grid)
        small = det_expansion_residual(n, 1e-3 * u, grid)
        ok &= small <= big / 8
    report(6, "determinant expansion first-order vanishing", ok)


def test_criterion_07_subderivative_oracle():
    """Formula vs root-perturbation quotients: equality on simple roots,
    one-sided bound on multiple roots, divergence detection."""
    rng = np.random.default_rng(45)

    equal_ok = 0
    trials = 0
    while equal_ok < 50 and trials < 500:
        trials += 1
        lams = []
        while len(lams) < 2:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - w) > 0.8 for w in lams):
                lams.append(z)
        f = ABSC if trials % 2 == 0 else RAD2
        vals = sorted(f.value(z) for z in lams)
        if vals[1] - vals[0] < 0.3:
            continue
        base = RootCluster.sorted((z, 1) for z in lams)
        v = Poly(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
        d = subderivative_f(base, f, v)
        if not math.isfinite(d) or abs(d) < 0.05:
            continue
        rep = fd_poly_quotient(base.as_poly(), f, v, t_grid=(1e-3, 1e-4, 1e-5))
        if abs(rep.extrapolated - d) <= 1e-3 * abs(d):
            equal_ok += 1

    bound_ok = 0
    checked = 0
    k = 0
    while checked < 50:
        k += 1
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(lam) < 0.4:
            continue
        checked += 1
        n_j = int(rng.integers(2, 4))
        base = RootCluster((lam,), (n_j,))
        f = ABSC if k % 2 == 0 else RAD2
        g = f.grad(lam)
        coords = np.zeros(n_j + 1, dtype=complex)
        coords[1] = complex(rng.standard_normal(), rng.standard_normal())
        coords[2] = abs(rng.standard_normal()) * g * g
        v = Poly(tuple(_coordinate_matrix(base) @ coords))
        d = subderivative_f(base, f, v)
        rep = fd_poly_quotient(base.as_poly(), f, v, t_grid=(1e-2, 1e-3, 1e-4),
                               holder_order=n_j, formula=d)
        bound_ok += bool(rep.verdict)

    growth_ok = 0
    for k in range(10):
        lam = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        base = RootCluster((lam,), (2,))
        coords = np.array([0, 0, 1j * lam * lam], dtype=complex)  # leaves the cone
        v = Poly(tuple(_coordinate_matrix(base) @ coords))
        rep = fd_poly_quotient(base.as_poly(), RAD, v,
                               t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        growth_ok += rep.growth_exponent is not None and rep.growth_exponent <= -0.4

    ok = equal_ok == 50 and bound_ok == 50 and growth_ok == 10
    report(7, f"subderivative oracle: {equal_ok}/50 equalities, "
              f"{bound_ok}/50 bounds, {growth_ok}/10 divergences", ok)


def test_criterion_07_matrix_subderivative_oracle():
    """Criterion 7 at matrix level, for specsub.subderivative: equality with
    the spectral max quotients at a simple active eigenvalue, and
    divergence at an active J_2 along a direction that leaves the cone."""
    rng = np.random.default_rng(48)
    gens = (ABSC, RAD2, RAD)

    equal_ok = 0
    checked = trials = 0
    while checked < 60 and trials < 1000:
        trials += 1
        f = gens[checked % 3]
        spec = random_nonderogatory_spec(rng)
        vals = sorted((f.value(spec.eig_value(j)), spec.n_j(j)) for j in range(spec.num_eigs))
        if vals[-1][1] != 1 or (len(vals) > 1 and vals[-1][0] - vals[-2][0] < 0.3):
            continue
        Z = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
        d = subderivative(spec, f, Z)
        if not math.isfinite(d) or abs(d) < 0.05:
            continue
        checked += 1
        rep = fd_phi_quotient(spec, f, Z, t_grid=(1e-3, 1e-4, 1e-5))
        equal_ok += abs(rep.extrapolated - d) <= 1e-3 * abs(d)

    growth_ok = 0
    for k in range(15):
        f = gens[k % 3]
        lam = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        spec = JordanSpec([(lam, (2,)), (0.2 * lam, (1,))], P=random_P(rng, 3))
        V = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        g = f.grad(lam)
        V[1, 0] = -1j * g * g  # mu_2 = i g^2 leaves the cone
        Z = spec.Pinv @ V @ spec.P
        rep = fd_phi_quotient(spec, f, Z, t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        growth_ok += (subderivative(spec, f, Z) == math.inf and rep.growth_exponent is not None
                      and rep.growth_exponent <= -0.4)

    ok = equal_ok == 60 and growth_ok == 15
    report(7, f"matrix subderivative oracle: {equal_ok}/60 equalities, "
              f"{growth_ok}/15 divergences", ok)


def test_criterion_07_matrix_one_sided_bound():
    """Criterion 7's one-sided bound at matrix level: at an active J_2
    beside an inactive simple eigenvalue, along directions whose second
    factor coordinate mu_2 lies on the ray through g^2, the subderivative
    is finite and no larger than the spectral max quotients allow."""
    rng = np.random.default_rng(49)
    gens = (ABSC, RAD2, RAD)
    bound_ok = 0
    for k in range(30):
        f = gens[k % 3]
        lam = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        spec = JordanSpec([(lam, (2,)), (0.2 * lam, (1,))], P=random_P(rng, 3))
        V = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        g = f.grad(lam)
        V[1, 0] = -rng.uniform(0.2, 1.0) * g * g  # mu_2 = s g^2 with s in [0.2, 1]
        Z = spec.Pinv @ V @ spec.P
        d = subderivative(spec, f, Z)
        rep = fd_phi_quotient(spec, f, Z, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                              holder_order=2, formula=d)
        bound_ok += math.isfinite(d) and bool(rep.verdict)
    report(7, f"matrix subderivative one-sided bound: {bound_ok}/30", bound_ok == 30)


def test_criterion_08_inequality_suite():
    """500 seeded directions per member: no violation beyond the slack model."""
    runs = []
    Y_A = np.array([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], dtype=complex)
    runs.append((A_SPEC, RAD, Y_A))
    runs.append((B_SPEC, RAD, np.eye(3, dtype=complex) / 3))
    rng = np.random.default_rng(46)
    for i in range(10):
        spec = random_nonderogatory_spec(rng)
        f = ABSC if i % 2 == 0 else RAD2
        runs.append((spec, f, rsd_sample(spec, f, seed=i)))
    total = 0
    for spec, f, Y in runs:
        rep = subgradient_inequality_suite(spec, f, Y, n_samples=500, seed=7)
        total += rep["violations"]
    report(8, f"subgradient inequality suite on {len(runs)} members, "
              f"{total} violations", total == 0)


def test_criterion_09_scaling_equivalence():
    """Modulus membership == scaled half-squared-modulus membership."""
    rng = np.random.default_rng(47)
    specs = [A_SPEC,
             JordanSpec([(2.0, (2,)), (-2.0, (1,)), (0.5, (1,))], P=random_P(rng, 4)),
             JordanSpec([(1j, (2,)), (-0.5, (1,))], P=random_P(rng, 3))]
    disagreements = 0
    for spec in specs:
        rho = max(abs(spec.eig_value(j)) for j in range(spec.num_eigs))
        for k in range(100):
            Y = rsd_sample(spec, RAD2, seed=k) / rho
            if k % 2 == 1:
                Y = Y * (1 + 0.5 * abs(rng.standard_normal()))  # spoil the weights
            a = radius_rsd_membership(spec, Y).verdict
            b = rsd_membership(spec, RAD2, rho * Y).verdict
            disagreements += a != b
    report(9, f"scaling equivalence on {len(specs)} specs x 100 samples, "
              f"{disagreements} disagreements", disagreements == 0)


def test_criterion_10_regularity_and_witness():
    """Verdicts on the fixtures and a fully verified derogatory witness."""
    ok = regularity_verdict(A_SPEC, RAD) == "regular"
    ok &= regularity_verdict(B_SPEC, RAD) == "not_regular"
    wits, M, rep = derogatory_witness(B_SPEC, RAD, count=100)
    ok &= len(wits) == 100 and rep["ok"] and all(rep["per_nu"])
    ok &= np.allclose(M, np.diag([0.0, 0.0, 1.0]))
    wits, M, rep = derogatory_witness(JordanSpec([(0.0, (1, 1))]), ABSC, count=100)
    ok &= rep["ok"]
    report(10, "regularity verdicts and derogatory witness", ok)
