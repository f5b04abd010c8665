import cmath
import json
import math

import numpy as np
import pytest

from specmax import cpoly, jordan, polysub, specsub
from specmax.cli import main
from specmax.fixtures import fixture_derogatory
from specmax.generators import UnsupportedGenerator, builtin, make_generator
from specmax.jordan import (
    DerogatoryEigenvalue,
    JordanSpec,
    declared_active,
    nilpotent,
    spec_to_json,
)
from specmax.oracles import fd_phi_quotient, subgradient_inequality_suite
from specmax.specsub import (
    INEQ_SLACK,
    STRUCT_TOL,
    MembershipReport,
    ToeplitzParams,
    Violation,
    W_extract,
    chain_rule_membership,
    derogatory_witness,
    radius_rsd_membership,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    spectral_active,
    spectral_max,
    subderivative,
)

ABSC = builtin("abscissa")
RAD = builtin("radius")
RAD2 = builtin("radius2")
# |z|^4 / 4 from value, gradient and Hessian alone: make_generator's default
# tag classifies it, C^2 with a positive definite Hessian away from 0
QUARTIC = make_generator(
    "quartic", lambda z: abs(z) ** 4 / 4, grad=lambda z: abs(z) ** 2 * z,
    hess=lambda z: abs(z) ** 2 * np.eye(2) + 2 * np.outer([z.real, z.imag], [z.real, z.imag]))

A_SPEC = JordanSpec([(1.0, (2,)), (-1.0, (1,))])
B_SPEC = JordanSpec([(1.0, (2, 1))])
J2 = JordanSpec([(0.0, (2,))])


def random_P(rng, n, scale=0.25):
    while True:
        P = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            return P


def random_nonderogatory_spec(rng, n_max=5, avoid_zero=True):
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
        if avoid_zero and abs(z) < 0.4:
            continue
        if all(abs(z - w) > 0.5 for w in lams):
            lams.append(z)
    return JordanSpec([(lam, (k,)) for lam, k in zip(lams, parts)], P=random_P(rng, n))


class TestSpectralMax:
    def test_two_active_fixture(self):
        assert spectral_max(A_SPEC.synth(), RAD) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert spectral_max(np.zeros((3, 3)), RAD) == pytest.approx(0.0)

    def test_diagonal_abscissa(self):
        assert spectral_max(np.diag([1.0, -2.0]), ABSC) == pytest.approx(1.0)

    def test_active_reporting(self):
        value, cluster, idx = spectral_active(A_SPEC.synth(), RAD)
        assert value == pytest.approx(1.0)
        assert sorted(idx) == [0, 1]

    def test_out_of_domain_flags_inf(self):
        def half(z):
            return z.real if z.real >= 0 else math.inf

        assert math.isinf(spectral_max(np.diag([-1.0, 1.0]), half))

    @pytest.mark.parametrize("n", [15, 20, 25])
    def test_abscissa_of_an_orthogonally_similar_diagonal(self, n):
        # on these matrices the trace recursion of the characteristic
        # polynomial lost 1.5e-4 (n = 20) and 0.13 (n = 25); eigvals does not
        Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
        X = Q @ np.diag(np.arange(1.0, n + 1)) @ Q.T
        assert abs(spectral_max(X, ABSC) - n) <= 1e-10 * n

    def test_stack_matches_one_matrix_at_a_time(self):
        def half(z):  # scalar-only: an array argument would raise
            return z.real if z.real >= 0 else math.inf

        rng = np.random.default_rng(3)
        P = random_P(rng, 3)
        mats = [
            np.diag([-1.0, 1.0, 2.0]),  # outside the domain of half
            np.linalg.inv(P) @ np.diag([1.0, 1.0 + 1e-8, 0.5]) @ P,  # near-double
            A_SPEC.synth(),
            np.diag([0.5, 2.0, 3.0 + 1j]),
        ]
        mats += [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(4)]
        X = np.array(mats).reshape(2, 4, 3, 3)
        _, cluster, _ = spectral_active(mats[1], ABSC)
        assert sorted(cluster.mults) == [1, 2]  # the agglomeration ran
        for f in (ABSC, RAD2, half):
            stacked = spectral_max(X, f)
            assert stacked.shape == (2, 4)
            single = [spectral_max(M, f) for M in mats]
            assert isinstance(single[0], float)
            assert stacked.ravel().tolist() == single
        assert math.isinf(spectral_max(X, half)[0, 0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nan_at_a_cluster_mean_is_refused(self, sign):
        # NaN attains no max: the active set would depend on the order
        f = make_generator("u", lambda z: np.where(sign * z.real > 0, np.nan, z.real))
        X = np.diag([1.0, -1.0, -2.0])
        assert math.isnan(spectral_max(X, f))
        with pytest.raises(ValueError, match="NaN"):
            spectral_active(X, f)

    def test_a_zero_max_keeps_the_sign_spectral_max_gives_it(self):
        # the values 0.0 (odd eigenvalues) and -0.0 (even ones) in every
        # order, and -1 at -3: the sign of a zero max is numpy's
        f = make_generator("signed zero", lambda z: np.where(
            z.real < 0, -1.0, np.copysign(0.0, np.round(z.real) % 2 - 0.5)))
        seen = set()
        for k in range(1, 7):
            for bits in range(2 ** k):
                X = np.diag([10.0 * i + (bits >> i & 1) for i in range(k)] + [-3.0])
                value, _, _ = spectral_active(X, f)
                expect = spectral_max(X, f)
                assert np.float64(value).tobytes() == np.float64(expect).tobytes(), X
                seen.add(math.copysign(1.0, expect))
        assert seen == {1.0, -1.0}

    def test_active_value_is_the_spectral_max_bit_for_bit(self):
        def hypot(z):  # scalar-only: an array argument would raise
            return math.hypot(z.real, z.imag)

        rng = np.random.default_rng(15)
        mats = []
        for i in range(120):
            n = 2 + i % 5
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if i % 4 == 3:  # a planted double eigenvalue, merged into one cluster
                P = random_P(rng, n)
                X = np.linalg.inv(P) @ np.diag([X[0, 0]] + list(np.diag(X)[:-1])) @ P
            mats.append(X)
        merged = 0
        for f in (ABSC, RAD, RAD2, builtin("ell1"), hypot):
            for X in mats:
                value, cluster, active = spectral_active(X, f)
                expect = spectral_max(X, f)
                assert np.float64(value).tobytes() == np.float64(expect).tobytes()
                means, mults = cpoly._cluster_rows(np.linalg.eigvals(X)[None, :],
                                                   cpoly.CLUSTER_TOL)
                ref = cpoly.RootCluster.sorted(
                    (z, m) for z, m in zip(means[0].tolist(), mults[0].tolist()) if m)
                assert cluster == ref
                assert active and max(active) < len(cluster.roots)
                merged += len(cluster.roots) < len(X)
        assert merged >= 100  # the planted pairs ran the agglomeration


class TestClusteringDefects:
    """The two clustering defects of ROADMAP item 1, pinned until the
    clustering scales with the matrix norm and the multiplicity."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the absolute cluster_tol "
                       "merges eigenvalues of a matrix of norm 4e-7 into one cluster")
    def test_small_scale_eigenvalues_stay_apart(self):
        value, cluster, _ = spectral_active(1e-7 * np.diag([1, -2, 3 + 1j, 0.5j]), ABSC)
        assert value == pytest.approx(3e-7, rel=1e-9)
        assert cluster.mults == (1, 1, 1, 1)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: eigvals splits an m-fold "
                       "defective eigenvalue by (eps |X|)^(1/m), more than the absolute "
                       "cluster_tol once m >= 3")
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_defective_eigenvalue_is_one_cluster(self, m):
        # X = P^-1 (J_m(1) + [-1]) P with a real P of condition at most 16
        J = np.zeros((m + 1, m + 1))
        J[:m, :m] = np.eye(m) + np.eye(m, k=1)
        J[m, m] = -1.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            P = rng.standard_normal((m + 1, m + 1))
            while np.linalg.cond(P) > 16:
                P = rng.standard_normal((m + 1, m + 1))
            X = np.linalg.solve(P, J @ P)
            value, cluster, active = spectral_active(X, ABSC)
            assert abs(value - 1.0) <= 1e-9 * max(1.0, np.linalg.norm(X))
            assert [cluster.mults[j] for j in active] == [m]


def _small_pair(s=1.0):
    """Two simple eigenvalues of moduli 1.12e-4·s and 2.24e-5·s, P = I."""
    return JordanSpec([(s * (1e-4 + 5e-5j), (1,)), (s * (2e-5 + 1e-5j), (1,))])


def _gradient_at_the_lower_eigenvalue(f, s=1.0):
    """``(spec, Y)`` with ``Y = diag(0, λ₂)``, radius2's gradient at λ₂, the
    eigenvalue that does not attain the max; under the radius ``Y`` is that
    divided by ρ = |λ₁|, the gradient of its image |z|²/(2ρ)."""
    spec = _small_pair(s)
    lam1, lam2 = spec.eig_value(0), spec.eig_value(1)
    return spec, np.diag([0, lam2 / abs(lam1) if f is RAD else lam2])


ITEM_13 = ("ROADMAP item 13: ACTIVE_TOL = 1e-8 is absolute on the generator's value, "
           "so at moduli 1.1e-4 and 2.2e-5 radius2's values 6.25e-9 and 2.5e-10 tie")


LOST_TIE = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="ROADMAP item 13: ACTIVE_TOL = 1e-8 is absolute on the "
                             "generator's value, and at s = 1e6 the rounding of radius2's "
                             "|λ₂|²/2 exceeds it in 21 of 100 cases")


class TestScaleCovarianceDefects:
    """The false "yes" of ROADMAP item 13 at small scale, pinned under
    radius2 until the tie rule scales; at larger scales the same candidate
    is rejected.  The radius decides its ties on |z|²/(2ρ), in its own
    units, so it keeps them at every scale."""

    @pytest.mark.parametrize("f", [RAD, pytest.param(RAD2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=ITEM_13 + ", and both routes accept"))],
        ids=["radius", "radius2"])
    def test_gradient_at_an_inactive_eigenvalue_is_rejected(self, f):
        spec, Y = _gradient_at_the_lower_eigenvalue(f)
        assert not rsd_membership(spec, f, Y).verdict
        assert not chain_rule_membership(spec, f, Y)

    @pytest.mark.parametrize("s", [10.0, 100.0, 1e4])
    @pytest.mark.parametrize("f", [RAD, RAD2], ids=["radius", "radius2"])
    def test_gradient_at_an_inactive_eigenvalue_is_rejected_at_larger_scale(self, f, s):
        spec, Y = _gradient_at_the_lower_eigenvalue(f, s)
        assert not rsd_membership(spec, f, Y).verdict
        assert not chain_rule_membership(spec, f, Y)

    def test_evaluator_and_calculus_share_the_active_set(self):
        spec = _small_pair()
        _, cluster, active = spectral_active(spec.synth(), RAD)
        _, declared = declared_active(spec, RAD)
        evaluated = sorted((cluster.roots[j] for j in active), key=cpoly.lex_key)
        assert evaluated == pytest.approx(sorted((spec.eig_value(j) for j in declared),
                                                 key=cpoly.lex_key))

    @pytest.mark.parametrize("f,s", [pytest.param(RAD, s, id=f"radius-{s:g}")
                                     for s in (1e-6, 1e-4, 1.0, 1e3, 1e4, 1e5, 1e6)]
                             + [pytest.param(RAD2, 1e6, marks=LOST_TIE, id="radius2-1e+06")])
    def test_ties_on_the_circle_are_kept(self, f, s):
        # λ₁ = s and λ₂ = s e^(0.03ik) tie in modulus; λ₃ = 0.1 s does not
        for k in range(1, 101):
            spec = JordanSpec([(s, (1,)), (s * cmath.exp(0.03j * k), (1,)), (0.1 * s, (1,))])
            assert declared_active(spec, f)[1] == [0, 1], k

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 13: the suite's radii 1e-2..1e-4 "
                       "are absolute and move X of norm 1.1e-4 by up to 100 times its size")
    def test_suite_sees_the_false_member(self):
        spec, Y = _gradient_at_the_lower_eigenvalue(RAD)
        assert subgradient_inequality_suite(spec, RAD, Y, n_samples=200, seed=1)["violations"] >= 1


def _ill_conditioned(c, k=4):
    """J_3(1+0.5i) ⊕ J_2(0.2-0.3i) under P = U diag(logspace(0, log10 c, 5)) V,
    U and V unitaries drawn with seed [k, 7].  At k = 4 the direct route's
    weight sum misses 1 by about 4e-8 at c = 1e5, four times SIMPLEX_TOL."""
    rng = np.random.default_rng([k, 7])
    U, V = (np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
            for _ in range(2))
    return JordanSpec([(1 + 0.5j, (3,)), (0.2 - 0.3j, (2,))],
                      P=U @ np.diag(np.logspace(0, np.log10(c), 5)) @ V)


ITEM_14 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 14: at cond(P) >= 1e5 the direct route "
                            "reads the weight sum of a sampled member through rounding of "
                            "about eps cond(P) |Y| and rejects it on weight_sum_one; the "
                            "chain route accepts it")
CONDITIONS = [1e4, pytest.param(1e5, marks=ITEM_14), pytest.param(1e6, marks=ITEM_14)]


class TestResolutionDefects:
    """The route split of ROADMAP item 14, pinned at cond(P) = 1e5 and 1e6
    until each verdict carries a rounding band; at 1e4 the routes agree."""

    @pytest.mark.parametrize("c", CONDITIONS)
    def test_routes_agree_on_a_sampled_member(self, c):
        spec = _ill_conditioned(c)
        Y = rsd_sample(spec, ABSC, seed=4)
        assert rsd_membership(spec, ABSC, Y).verdict == chain_rule_membership(spec, ABSC, Y)

    @pytest.mark.parametrize("c", CONDITIONS)
    def test_verify_passes(self, capsys, tmp_path, c):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(_ill_conditioned(c))))
        code = main(["verify", str(path), "--f", "abscissa", "--samples", "100", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 0
        assert code == 0 and payload["cross_route_failures"] == 0


class TestWExtract:
    def test_scaled_identity_passes(self):
        rng = np.random.default_rng(0)
        spec = JordanSpec([(1.0, (2, 1)), (-2.0, (1,))], P=random_P(rng, 4))
        params = W_extract(spec, np.eye(4) / 4, level="regular")
        assert params.ok
        assert params.theta[0][0] == pytest.approx(0.25)
        assert params.theta[1][0] == pytest.approx(0.25)

    def test_fixture_limiting_ok_regular_fails(self):
        M = np.diag([0.0, 0.0, 1.0]).astype(complex)
        lim = W_extract(B_SPEC, M, level="limiting")
        assert lim.ok
        reg = W_extract(B_SPEC, M, level="regular")
        assert not reg.ok
        assert any(v.condition == "equal_diagonals" for v in reg.violations)

    def test_dense_candidate_fails_toeplitz(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        params = W_extract(J2, Y, level="limiting")
        assert not params.ok
        assert any(v.condition == "toeplitz" for v in params.violations)

    def test_cross_eigenvalue_coupling_detected(self):
        Y = np.zeros((3, 3), dtype=complex)
        Y[0, 2] = 1.0
        params = W_extract(A_SPEC, Y, level="limiting")
        assert any(v.condition == "cross_block_zero" for v in params.violations)

    def test_rectangular_subblock_pattern_at_limiting_level(self):
        # blocks of size 2 and 1: the (2,1) sub-block may carry its bottom
        # entry, the (1,2) sub-block only its right entry
        W = np.zeros((3, 3), dtype=complex)
        W[np.diag_indices(3)] = 0.3
        W[2, 0] = 0.7  # row of the 1-block, column of the 2-block: bottom-right diagonal
        Y = B_SPEC.from_W(W)
        assert W_extract(B_SPEC, Y, level="limiting").ok
        W[2, 1] = 0.1  # above the bottom-right diagonal of the 1x2 sub-block
        assert not W_extract(B_SPEC, B_SPEC.from_W(W), level="limiting").ok

    @pytest.mark.parametrize("level", ["limiting", "regular"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_candidate_rejected(self, level, bad):
        Y = np.eye(3, dtype=complex)
        Y[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            W_extract(A_SPEC, Y, level=level)
        with pytest.raises(ValueError, match="finite"):
            rsd_recession_membership(A_SPEC, ABSC, np.full((3, 3), np.nan))


def _with_entry(value) -> np.ndarray:
    M = np.eye(2, dtype=complex)
    M[0, 1] = value
    return M


# every entry that takes a matrix of the spec's shape, a candidate or a direction
MATRIX_ENTRIES = {
    "W_extract-limiting": lambda M: W_extract(J2, M, level="limiting"),
    "W_extract-regular": lambda M: W_extract(J2, M, level="regular"),
    "rsd_membership": lambda M: rsd_membership(J2, ABSC, M),
    "rsd_recession_membership": lambda M: rsd_recession_membership(J2, ABSC, M),
    "radius_rsd_membership": lambda M: radius_rsd_membership(J2, M),
    "chain_rule_membership": lambda M: chain_rule_membership(J2, ABSC, M),
    "subgradient_inequality_suite": lambda M: subgradient_inequality_suite(J2, ABSC, M),
    "subderivative": lambda M: subderivative(J2, ABSC, M),
    "fd_phi_quotient": lambda M: fd_phi_quotient(J2, ABSC, M),
}
MALFORMED = [
    pytest.param([1.0, 0.0], "must be 2x2", id="row"),  # numpy would broadcast it
    pytest.param(np.eye(3), "must be 2x2", id="3x3"),
    pytest.param(_with_entry(np.nan), "must be finite, got norm", id="nan"),
    pytest.param(_with_entry(np.inf), "must be finite, got norm", id="inf"),
]


class TestMatrixGate:
    """specsub._candidate is the one shape-and-finiteness check of the
    matrices the calculus takes; a direction is named as such."""

    @pytest.mark.parametrize("M,message", MALFORMED)
    @pytest.mark.parametrize("entry", list(MATRIX_ENTRIES))
    def test_malformed_matrix_refused(self, entry, M, message):
        label = "direction" if entry in ("subderivative", "fd_phi_quotient") else "candidate"
        with pytest.raises(ValueError, match=f"^{label} {message}"):
            MATRIX_ENTRIES[entry](M)


class TestRsdMembership:
    def test_halfplane_on_the_subdiagonal(self):
        for theta, expect in [(0.0, True), (1.3 - 7j, True), (-0.1, False)]:
            Y = np.array([[0.5, 0], [theta, 0.5]], dtype=complex)
            rep = rsd_membership(J2, ABSC, Y)
            assert rep.verdict == expect
            if not expect:
                assert any(v.condition == "subdiagonal_halfplane" for v in rep.failed)

    def test_zero_candidate_fails_weight_sum(self):
        rep = rsd_membership(J2, ABSC, np.zeros((2, 2)))
        assert not rep.verdict
        assert any(v.condition == "weight_sum_one" for v in rep.failed)

    def test_derogatory_fixture_scaled_modulus(self):
        # rho = 1, so the modulus-squared test applies to the same candidate
        rep = rsd_membership(B_SPEC, RAD2, np.eye(3) / 3)
        assert rep.verdict

    def test_inactive_block_must_vanish(self):
        spec = JordanSpec([(1.0, (1,)), (-2.0, (1,))])  # abscissa-active: 1
        Y = np.diag([1.0, 0.5]).astype(complex)
        rep = rsd_membership(spec, ABSC, Y)
        assert not rep.verdict
        assert any(v.condition == "inactive_block_zero" for v in rep.failed)

    def test_modulus_needs_its_own_test(self):
        # the modulus reaches the core through its transform, so the
        # generic entry point and the radius one give the same verdict
        verdicts = []
        for Y in (np.eye(3) / 3, np.diag([0.25, 0.25, -0.5]).astype(complex)):
            verdicts.append(rsd_membership(A_SPEC, RAD, Y).verdict)
            assert verdicts[-1] == radius_rsd_membership(A_SPEC, Y).verdict
        assert verdicts == [False, True]

    def test_sign_flipped_diagonal_is_not_a_member(self):
        # the diagonals are +gamma_j grad f / n_j: the negated member fails
        Y = np.array([[0.5, 0], [0.2, 0.5]], dtype=complex)
        assert rsd_membership(J2, ABSC, Y).verdict
        rep = rsd_membership(J2, ABSC, -Y)
        assert not rep.verdict
        assert {v.condition for v in rep.failed} >= {"weight_sum_one"}

    def test_vanishing_gradient_rejected(self):
        with pytest.raises(UnsupportedGenerator):
            rsd_membership(J2, RAD2, np.eye(2) / 2)

    def test_report_json_is_deterministic(self):
        rep1 = rsd_membership(J2, ABSC, np.eye(2) / 2)
        rep2 = rsd_membership(J2, ABSC, np.eye(2) / 2)
        assert rep1.to_json() == rep2.to_json()


class TestRecession:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 7: the direct route's slack INEQ_SLACK |Y| is "
                       "relative, so past |Y| = 1e10 it swallows the diagonal 0.5 that the "
                       "chain route's absolute COORD_TOL rejects")
    def test_diagonal_under_a_large_subdiagonal_is_rejected(self):
        # J_2(1) + [-1], P = I, under the abscissa: theta_1 = 0.5 is no
        # recession direction at any subdiagonal t
        for t in (1e10, 1e12, 1e150):
            Y = np.diag([0.5, 0.5, 0.0]).astype(complex)
            Y[1, 0] = t
            assert not chain_rule_membership(A_SPEC, ABSC, Y, horizon=True), t
            assert not rsd_recession_membership(A_SPEC, ABSC, Y).verdict, t

    def test_zero_is_always_a_recession_direction(self):
        assert rsd_recession_membership(J2, ABSC, np.zeros((2, 2))).verdict

    def test_subdiagonal_ray(self):
        E21 = np.zeros((2, 2), dtype=complex)
        E21[1, 0] = 1.0
        assert rsd_recession_membership(J2, ABSC, E21).verdict
        assert not rsd_recession_membership(J2, ABSC, -E21).verdict

    def test_nonzero_diagonal_rejected(self):
        rep = rsd_recession_membership(J2, ABSC, np.eye(2) / 2)
        assert not rep.verdict
        assert any(v.condition == "diagonal_zero" for v in rep.failed)

    def test_members_recede(self):
        rng = np.random.default_rng(2)
        spec = random_nonderogatory_spec(rng)
        top = max(ABSC.value(spec.eig_value(i)) for i in range(spec.num_eigs))
        for k in range(50):
            Y = rsd_sample(spec, ABSC, seed=k)
            W = np.zeros((spec.n, spec.n), dtype=complex)
            for j in range(spec.num_eigs):
                lam, n_j = spec.eig_value(j), spec.n_j(j)
                if ABSC.value(lam) < top - 1e-8:
                    continue
                sl = spec.eig_slice(j)
                block = np.zeros((n_j, n_j), dtype=complex)
                if n_j >= 2:
                    block += abs(rng.standard_normal()) * nilpotent(n_j).T
                if n_j >= 3:
                    block[2:, 0] = rng.standard_normal(n_j - 2)
                W[sl, sl] = block
            R = spec.from_W(W)
            assert rsd_recession_membership(spec, ABSC, R).verdict
            t = abs(rng.standard_normal()) * 10
            assert rsd_membership(spec, ABSC, Y + t * R).verdict


class TestRsdSample:
    def test_explicit_single_block(self):
        Y = rsd_sample(J2, ABSC, gamma=[1.0], theta2={0: 0.0})
        assert np.allclose(Y, np.eye(2) / 2)
        # under the radius, too, the override is W's own subdiagonal at rho = 2
        spec = JordanSpec([(2.0, (2,)), (-0.5, (1,))])
        for f in (RAD, RAD2):
            W = spec.to_W(rsd_sample(spec, f, gamma=[1.0], theta2={0: 0.1}))
            assert W[1, 0] == pytest.approx(0.1, abs=1e-14)

    def test_two_active_modulus_squared_diagonals(self):
        # gamma follows the declared order: eigenvalue 1 first, then -1
        Y = rsd_sample(A_SPEC, RAD2, gamma=[0.25, 0.75], theta2={0: 0.0})
        W = A_SPEC.to_W(Y)
        assert W[0, 0] == pytest.approx(0.25 * 1.0 / 2)
        assert W[2, 2] == pytest.approx(0.75 * (-1.0) / 1)

    def test_boundary_weight_gives_zero_block_and_still_member(self):
        Y = rsd_sample(A_SPEC, RAD2, gamma=[1.0, 0.0], theta2={0: 0.0}, seed=1)
        W = A_SPEC.to_W(Y)
        assert abs(W[2, 2]) < 1e-15
        assert rsd_membership(A_SPEC, RAD2, Y).verdict

    def test_every_sample_is_a_member(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = random_nonderogatory_spec(rng)
            for f in (ABSC, RAD2):
                for s in range(10):
                    Y = rsd_sample(spec, f, seed=s)
                    assert rsd_membership(spec, f, Y).verdict

    def test_invalid_subdiagonal_rejected(self):
        with pytest.raises(ValueError):
            rsd_sample(J2, ABSC, gamma=[1.0], theta2={0: -0.5})
        # the radius's halfplane at lambda = 2 ends at theta_2 = -1/4; read
        # as a radius2 coordinate, -0.3 would land inside it at -0.15
        with pytest.raises(ValueError):
            rsd_sample(JordanSpec([(2.0, (2,)), (-0.5, (1,))]), RAD, gamma=[1.0],
                       theta2={0: -0.3})

    def test_derogatory_active_rejected(self):
        with pytest.raises(DerogatoryEigenvalue):
            rsd_sample(B_SPEC, RAD2)

    # a key that could not take effect names itself instead of leaving the
    # drawn sample, which is a member, as it is
    @pytest.mark.parametrize("spec,key", [
        (JordanSpec([(2.0, (2,)), (-0.5, (2,))]), 1),  # inactive under radius2
        (A_SPEC, 1),  # active, a block of size 1
        (A_SPEC, 2),  # out of range
        (A_SPEC, -1),
        (A_SPEC, 0.5),  # not an index
        (A_SPEC, "0"),
    ], ids=["inactive", "size-1", "out-of-range", "negative", "fraction", "string"])
    def test_key_without_effect_rejected(self, spec, key):
        with pytest.raises(ValueError, match=f"theta2 keys \\[{key!r}\\]"):
            rsd_sample(spec, RAD2, theta2={0: 0.0, key: 0.0})

    @pytest.mark.parametrize("gamma", [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf]])
    def test_non_finite_weights_rejected(self, gamma):
        with pytest.raises(ValueError, match="simplex"):
            rsd_sample(A_SPEC, RAD2, gamma=gamma)

    def test_weights_of_any_shape_are_flattened(self):
        Y = rsd_sample(A_SPEC, RAD2, gamma=[0.3, 0.7], seed=4)
        assert np.array_equal(rsd_sample(A_SPEC, RAD2, gamma=[[0.3, 0.7]], seed=4), Y)
        one = JordanSpec([(1.0, (2,)), (0.2, (1,))])
        Y = rsd_sample(one, RAD2, gamma=[1.0], seed=4)
        for gamma in ([[1.0]], np.array(1.0)):
            assert np.array_equal(rsd_sample(one, RAD2, gamma=gamma, seed=4), Y)


class TestChainRule:
    def test_sampled_members_pass_both_routes(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            spec = random_nonderogatory_spec(rng)
            for f in (ABSC, RAD2):
                Y = rsd_sample(spec, f, seed=int(rng.integers(1000)))
                assert chain_rule_membership(spec, f, Y)
                assert rsd_membership(spec, f, Y).verdict
        for _ in range(5):
            spec = random_nonderogatory_spec(rng)
            Y = rsd_sample(spec, QUARTIC, seed=int(rng.integers(1000)))
            assert chain_rule_membership(spec, QUARTIC, Y)
            assert rsd_membership(spec, QUARTIC, Y).verdict
            assert not chain_rule_membership(spec, QUARTIC, 1.5 * Y)
            assert not rsd_membership(spec, QUARTIC, 1.5 * Y).verdict

    def test_zero_fails(self):
        assert not chain_rule_membership(J2, ABSC, np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_residual_gate_past_the_square_range(self):
        # a member of J_2(1) under the abscissa whose subdiagonal entry is
        # past 1.34e154, where numpy's norm squares to inf: the chain
        # route's residual gate must read the residual's true size
        spec = JordanSpec([(1.0, (2,))])
        Y = np.array([[0.5, 0.0], [3e200, 0.5]])
        assert rsd_membership(spec, ABSC, Y).verdict
        assert chain_rule_membership(spec, ABSC, Y)
        assert not chain_rule_membership(spec, ABSC, np.array([[0.5, 3e200], [3e200, 0.5]]))

    @pytest.mark.parametrize("Y", [np.zeros((2, 2)), np.zeros(9), np.full((3, 3), np.nan)],
                             ids=["2x2", "flat", "nan"])
    def test_malformed_candidate_rejected(self, Y):
        with pytest.raises(ValueError, match="candidate"):
            chain_rule_membership(A_SPEC, ABSC, Y)

    def test_off_range_candidate_fails(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert not chain_rule_membership(A_SPEC, ABSC, Y)

    def test_horizon_variant(self):
        E21 = np.zeros((2, 2), dtype=complex)
        E21[1, 0] = 1.0
        assert chain_rule_membership(J2, ABSC, E21, horizon=True)
        assert not chain_rule_membership(J2, ABSC, -E21, horizon=True)
        assert not chain_rule_membership(J2, ABSC, np.eye(2) / 2, horizon=True)

    def test_derogatory_active_rejected(self):
        with pytest.raises(DerogatoryEigenvalue):
            chain_rule_membership(B_SPEC, RAD2, np.eye(3) / 3)

    def test_active_rest_block_rejected(self):
        spec = JordanSpec([(0.0, (2,))], B=np.array([[2.0]]))
        with pytest.raises(ValueError, match="rest block attains the max"):
            chain_rule_membership(spec, ABSC, np.eye(3) / 3)


@pytest.mark.parametrize("f", [ABSC, RAD])
def test_chain_route_and_sampler_build_no_spec(monkeypatch, f):
    # the map R of the active eigenvalues is read off the parent spec: an
    # inactive eigenvalue and a rest block need no re-laid-out spec
    rng = np.random.default_rng(6)
    spec = JordanSpec([(1.0, (2,)), (-1.5j, (2,)), (0.2, (1,))], P=random_P(rng, 6),
                      B=np.array([[-0.3]]))
    built = []
    init = JordanSpec.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(JordanSpec, "__init__", counting_init)
    Y = rsd_sample(spec, f, seed=3)
    assert chain_rule_membership(spec, f, Y)
    assert chain_rule_membership(spec, f, np.zeros_like(Y), horizon=True)
    assert built == []


def _count_active_roots(monkeypatch) -> list:
    """Record every call of the calculus' active-set routine."""
    calls = []

    def counting_active_roots(*args, **kwargs):
        calls.append(args)
        return cpoly.active_roots(*args, **kwargs)

    for mod in (jordan, polysub):
        monkeypatch.setattr(mod, "active_roots", counting_active_roots)
    return calls


def _spec_with_inactive_and_rest():
    rng = np.random.default_rng(6)
    return JordanSpec([(1.0, (2,)), (-1.5j, (2,)), (0.2, (1,))], P=random_P(rng, 6),
                      B=np.array([[-0.3]]))


@pytest.mark.parametrize("f", [ABSC, RAD])
def test_chain_route_decides_the_active_set_once(monkeypatch, f):
    # declared_active picks the active eigenvalues; the factor built from
    # them is not searched for its active roots a second time
    spec = _spec_with_inactive_and_rest()
    Y = rsd_sample(spec, f, seed=3)
    calls = _count_active_roots(monkeypatch)
    for horizon in (False, True):
        for Z in (Y, 1.5 * Y, np.zeros_like(Y)):
            chain_rule_membership(spec, f, Z, horizon=horizon)
    assert len(calls) == 6


@pytest.mark.parametrize("f", [ABSC, RAD])
def test_sampler_decides_the_active_set_once(monkeypatch, f):
    spec = _spec_with_inactive_and_rest()
    Y = rsd_sample(spec, f, seed=3)
    calls = _count_active_roots(monkeypatch)
    assert np.array_equal(rsd_sample(spec, f, seed=3), Y)
    assert len(calls) == 1


class TestRadiusMembership:
    def test_printed_characterization_of_the_two_active_fixture(self):
        # W = Diag([[t11,0],[t12,t11]], t21): member iff t11 >= 0, t21 <= 0,
        # 2 t11 - t21 = 1, Re(t12) >= -t11
        def Y(t11, t12, t21):
            return np.array([[t11, 0, 0], [t12, t11, 0], [0, 0, t21]], dtype=complex)

        assert radius_rsd_membership(A_SPEC, Y(0.5, 0.0, 0.0)).verdict
        assert radius_rsd_membership(A_SPEC, Y(0.25, -0.25 + 5j, -0.5)).verdict
        assert not radius_rsd_membership(A_SPEC, Y(1.0, 0.0, 1.0)).verdict
        assert not radius_rsd_membership(A_SPEC, Y(0.5, -0.6, 0.0)).verdict
        rep = radius_rsd_membership(A_SPEC, Y(0.5, 0.0, 0.1))
        assert not rep.verdict  # trailing eigenvalue ray must point outward

    def test_horizon_variant(self):
        Y = np.zeros((3, 3), dtype=complex)
        assert radius_rsd_membership(A_SPEC, Y, horizon=True).verdict
        Y[1, 0] = 1.0
        assert radius_rsd_membership(A_SPEC, Y, horizon=True).verdict
        Y[1, 0] = -1.0
        assert not radius_rsd_membership(A_SPEC, Y, horizon=True).verdict
        assert not radius_rsd_membership(A_SPEC, np.eye(3) / 3, horizon=True).verdict

    def test_zero_radius_routed_away(self):
        # no branch of its own: the generic test with the builtin radius,
        # at the nilpotent origin as at a positive radius
        cases = [(J2, np.eye(2) / 2), (J2, np.eye(2)), (J2, nilpotent(2).T),
                 (A_SPEC, np.diag([0.5, 0.5, 0.0])), (A_SPEC, np.eye(3))]
        for spec, Y in cases:
            Y = np.asarray(Y, dtype=complex)
            for horizon, generic in ((False, rsd_membership), (True, rsd_recession_membership)):
                got = radius_rsd_membership(spec, Y, horizon=horizon)
                want = generic(spec, RAD, Y)
                assert got.verdict == want.verdict
                assert got.failed == want.failed and got.details == want.details

    def test_complex_eigenvalue_ray(self):
        lam = 1j
        spec = JordanSpec([(lam, (1,))])
        # theta = lam / (n |lam|) sits on the outward ray with unit weight
        Y = spec.from_W(np.array([[lam]], dtype=complex))
        assert radius_rsd_membership(spec, Y).verdict
        Y = spec.from_W(np.array([[-lam]], dtype=complex))
        assert not radius_rsd_membership(spec, Y).verdict


class TestRadiusZero:
    """The radius at the nilpotent origin, through the one membership core:
    |theta_1| at most 1/n (zero for the recession cone), theta_2 free."""

    def test_boundary_diagonal(self):
        spec = JordanSpec([(0.0, (3,))])
        assert rsd_membership(spec, RAD, np.eye(3) / 3).verdict
        assert not rsd_membership(spec, RAD, np.eye(3) / 2).verdict

    def test_nilpotent_direction_is_member_and_horizon(self):
        spec = JordanSpec([(0.0, (3,))])
        Y = nilpotent(3).T.astype(complex)
        assert rsd_membership(spec, RAD, Y).verdict
        assert rsd_recession_membership(spec, RAD, Y).verdict
        assert not rsd_recession_membership(spec, RAD, np.eye(3) / 3).verdict

    def test_nonzero_eigenvalue_rejected(self):
        # one entry point serves every radius: I is no subgradient of the
        # radius at A, whose eigenvalues are nonzero
        assert not rsd_membership(A_SPEC, RAD, np.eye(3)).verdict
        assert not radius_rsd_membership(A_SPEC, np.eye(3)).verdict

    def test_derogatory_origin(self):
        spec = JordanSpec([(0.0, (2, 1))])
        assert rsd_membership(spec, RAD, np.eye(3) / 3).verdict
        assert not rsd_membership(spec, RAD, np.diag([1 / 3, 1 / 3, 0.0]).astype(complex)).verdict


class TestScalingEquivalence:
    def test_modulus_vs_half_squared_modulus(self):
        rng = np.random.default_rng(6)
        specs = [A_SPEC, JordanSpec([(2.0, (2,)), (-2.0, (1,)), (0.5, (1,))],
                                    P=random_P(rng, 4))]
        for spec in specs:
            rho = max(abs(spec.eig_value(j)) for j in range(spec.num_eigs))
            agree = 0
            for k in range(100):
                Y2 = rsd_sample(spec, RAD2, seed=k)
                Y = Y2 / rho
                if k % 3 == 1:  # break the weight normalization
                    Y = Y * 1.25
                if k % 3 == 2:  # break the subdiagonal halfplane where possible
                    W = spec.to_W(Y)
                    j = next((j for j in range(spec.num_eigs)
                              if spec.m_j(j) >= 2 and abs(spec.eig_value(j)) == rho), None)
                    if j is not None:
                        lam = spec.eig_value(j)
                        sl = spec.eig_slice(j)
                        block = W[sl, sl]
                        t1 = block[0, 0]
                        bad = (-np.real(t1 * abs(lam) ** 2 / lam) - 1.0) * lam * lam / abs(lam) ** 4
                        for i in range(1, spec.n_j(j)):
                            block[i, i - 1] = bad
                        Y = spec.from_W(W)
                a = radius_rsd_membership(spec, Y).verdict
                b = rsd_membership(spec, RAD2, rho * Y).verdict
                assert a == b
                agree += a
            assert 0 < agree < 100  # both verdicts appear


class TestRegularityAndWitness:
    def test_fixture_verdicts(self):
        assert regularity_verdict(A_SPEC, RAD) == "regular"
        assert regularity_verdict(B_SPEC, RAD) == "not_regular"
        assert regularity_verdict(JordanSpec([(0.0, (3,))]), RAD) == "regular"

    def test_inactive_derogatory_does_not_matter(self):
        spec = JordanSpec([(2.0, (1,)), (-1.0, (1, 1))])
        assert regularity_verdict(spec, ABSC) == "regular"

    def test_sequence_matches_the_fixture(self):
        wits, M, report = derogatory_witness(B_SPEC, RAD, count=20)
        assert np.allclose(M, np.diag([0.0, 0.0, 1.0]))
        assert report["ok"]
        spec_nu, Y_nu = wits[4]  # nu = 5
        assert np.allclose(spec_nu.synth(), B_SPEC.synth() + np.diag([0, 0, 1 / 5]))
        assert np.allclose(Y_nu, M)

    def test_abscissa_analogue(self):
        spec = JordanSpec([(0.0, (1, 1))])
        wits, M, report = derogatory_witness(spec, ABSC, count=10)
        assert np.allclose(M, np.diag([0.0, 1.0]))
        assert report["ok"]

    def test_radius_at_origin(self):
        spec = JordanSpec([(0.0, (2, 1))])
        wits, M, report = derogatory_witness(spec, RAD, count=10)
        assert report["ok"]
        assert np.allclose(M, np.diag([0.0, 0.0, 1.0]))

    def test_nonderogatory_rejected(self):
        with pytest.raises(ValueError):
            derogatory_witness(A_SPEC, RAD)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_sequence_rejected(self, count):
        with pytest.raises(ValueError, match="at least one member"):
            derogatory_witness(B_SPEC, RAD, count=count)

    def test_is_the_papers_sequence_bit_for_bit(self):
        # the worked example pushes the trailing 1x1 block of B to 1 + 1/nu
        # with Diag(0, 0, 1) the subgradient of every member and the limit
        wits, M, report = derogatory_witness(fixture_derogatory(), RAD, count=40)
        E = np.diag([0.0, 0.0, 1.0]).astype(complex).tobytes()
        assert M.tobytes() == E
        for nu, (spec_nu, Y_nu) in enumerate(wits, start=1):
            assert spec_nu.eigs == ((1, (2,)), (1 + 1 / nu, (1,)))
            assert Y_nu.tobytes() == E
        table = [rsd_membership(JordanSpec([(1.0, (2,)), (1.0 + 1.0 / nu, (1,))]), RAD,
                                np.diag([0.0, 0.0, 1.0]).astype(complex)).verdict
                 for nu in range(1, 41)]
        assert report["per_nu"] == table and all(table)

    @pytest.mark.parametrize("spec", [JordanSpec([(0.0, (1, 1)), (-1e-6, (1,))]),
                                      JordanSpec([(0.0, (2, 1))], B=np.array([[-1e-6]]))],
                             ids=["declared", "rest"])
    def test_members_too_close_to_the_eigenvalue_rejected(self, spec):
        # step0 is a quarter of the distance 1e-6, so member nu lies
        # 2.5e-7 / nu from 0: 24 members stay apart, the 25th does not
        assert len(derogatory_witness(spec, ABSC, count=24)[0]) == 24
        for count in (25, 50, 10 ** 9):
            with pytest.raises(ValueError, match=f"of {count} members.*at most 24 members fit"):
                derogatory_witness(spec, ABSC, count=count)


def _witness_from_scratch(spec, f, count):
    """(per_nu, Ys, M) of the witness with every nu's split spec built by
    JordanSpec(...) from scratch, the last block split off in place."""
    _, active = declared_active(spec, f)
    target = next(j for j in active if not spec.nonderogatory(j))
    lam = spec.eig_value(target)
    *kept, m_k = spec.block_sizes(target)
    direction = f.grad(lam) / abs(f.grad(lam))
    seps = [abs(lam - spec.eig_value(i)) for i in range(spec.num_eigs) if i != target]
    seps += [abs(lam - mu) for mu in spec.b_eigenvalues]
    step0 = min([1.0] + [s / 4 for s in seps])
    per_nu, Ys = [], []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        eigs = list(spec.eigs[:target]) + [(lam, tuple(kept)), (lam_nu, (m_k,))]
        eigs += list(spec.eigs[target + 1:])
        spec_nu = JordanSpec(eigs, P=spec.P, B=spec.B if spec.n0 else None)
        E = spec_nu.embed_block(target + 1, np.eye(m_k))
        Y = (f.grad(lam_nu) / m_k) * spec_nu.from_W(E)
        rep = (radius_rsd_membership(spec_nu, Y) if f.name == "radius"
               else rsd_membership(spec_nu, f, Y))
        per_nu.append(rep.verdict)
        Ys.append(Y)
    E = np.zeros((spec.n, spec.n), dtype=complex)
    sl = spec.subblock_slices(target)[-1]
    E[sl, sl] = np.eye(m_k)
    return per_nu, Ys, (f.grad(lam) / m_k) * spec.from_W(E)


class TestSharedSplitWitness:
    @pytest.mark.parametrize("spec,f", [
        (B_SPEC, RAD),
        (JordanSpec([(0.5 + 0.2j, (2, 1, 1)), (-1.0, (1,))],
                    P=np.eye(6) + 0.2 * np.random.default_rng(8).standard_normal((6, 6)),
                    B=np.array([[0.1]])), ABSC),
    ])
    def test_matches_specs_built_from_scratch(self, spec, f):
        wits, M, report = derogatory_witness(spec, f, count=30)
        per_nu, Ys, M_ref = _witness_from_scratch(spec, f, 30)
        assert report["per_nu"] == per_nu
        assert np.abs(M - M_ref).max() <= 1e-14
        for (spec_nu, Y_nu), Y_ref in zip(wits, Ys):
            assert np.abs(Y_nu - Y_ref).max() <= 1e-14
        assert len({id(s.P) for s, _ in wits}) == 1  # one similarity for every nu

    def test_moved_eigenvalue_keeps_its_separation_check(self):
        spec = JordanSpec([(0.0, (1, 1)), (-0.4, (1,))], B=np.array([[-0.5]]))
        wits, _, _ = derogatory_witness(spec, ABSC, count=3)
        split, _ = wits[0]
        assert split.eig_value(1) == pytest.approx(0.1)
        split.with_eigenvalue(1, 0.3)  # apart from everything: accepted
        for lam in (0.0, -0.4, -0.5, -0.5 + 1e-9):  # declared, declared, rest, near rest
            with pytest.raises(ValueError, match="distinct"):
                split.with_eigenvalue(1, lam)


WITNESS_CASES = [
    (B_SPEC, RAD),
    (JordanSpec([(0.5 + 0.2j, (2, 1, 1)), (-1.0, (1,))],
                P=np.eye(6) + 0.2 * np.random.default_rng(8).standard_normal((6, 6)),
                B=np.array([[0.1]])), ABSC),
    (JordanSpec([(1.0 + 0.5j, (1, 2)), (0.3, (1,))],
                P=random_P(np.random.default_rng(15), 4)), RAD2),
    (JordanSpec([(0.8, (2, 2)), (-0.5j, (1,))], P=random_P(np.random.default_rng(16), 7),
                B=np.array([[0.2, 0.1], [0.0, -0.3]])), ABSC),
]


class TestWitnessFormsWOnce:
    @pytest.mark.parametrize("spec,f", WITNESS_CASES)
    def test_each_verdict_is_rsd_membership_of_its_pair(self, spec, f):
        wits, _, report = derogatory_witness(spec, f, count=30)
        assert report["ok"]
        assert [rsd_membership(s, f, Y).verdict for s, Y in wits] == report["per_nu"]

    @pytest.mark.parametrize("spec,f", WITNESS_CASES)
    def test_members_and_limit_are_multiples_of_one_matrix(self, spec, f):
        # the last block splits off in place: the base similarity serves
        # every member, and Y_basis = P^* E P^{-*} is formed once
        wits, M, _ = derogatory_witness(spec, f, count=30)
        target = next(j for j in declared_active(spec, f)[1] if not spec.nonderogatory(j))
        lam, m = spec.eig_value(target), spec.block_sizes(target)[-1]
        sl = spec.subblock_slices(target)[-1]
        E = np.zeros((spec.n, spec.n), dtype=complex)
        E[sl, sl] = np.eye(m)
        Y_basis = spec.from_W(E)
        assert M.tobytes() == ((f.grad(lam) / m) * Y_basis).tobytes()
        for spec_nu, Y_nu in wits:
            assert spec_nu.P is spec.P
            c = f.grad(spec_nu.eig_value(target + 1)) / m
            assert Y_nu.tobytes() == (c * Y_basis).tobytes()

    @pytest.mark.parametrize("level", ["regular", "limiting"])
    def test_scaled_extraction_matches_extracting_the_scaled_candidate(self, level):
        rng = np.random.default_rng(17)
        spec = WITNESS_CASES[1][0]
        W0 = np.zeros((spec.n, spec.n), dtype=complex)
        W0[spec.eig_slice(0), spec.eig_slice(0)] = 0.4 * np.eye(spec.n_j(0)) + 0.1
        noise = 10 ** rng.uniform(-13, -7, (spec.n, spec.n)) * np.exp(
            2j * np.pi * rng.uniform(size=(spec.n, spec.n)))
        Y = spec.from_W(W0 + noise)
        base = W_extract(spec, Y, level=level)
        norm = np.linalg.norm(Y)
        failing = set()
        for size in (0.01, 0.5, 3.0, 200.0):  # |c| |Y| below and above 1
            c = size / norm * np.exp(0.7j)
            ref = W_extract(spec, c * Y, level=level)
            # the witness reads c Y's checks off Y's: each residual and
            # diagonal-block maximum times |c|, at the tolerance of c Y
            within = specsub._scaled_within_tol
            assert [not within(r, abs(c), base.norm) for _, r, _ in base.residuals] == \
                [r > STRUCT_TOL * max(1.0, ref.norm) for _, r, _ in ref.residuals]
            assert {name: within(r, abs(c), base.norm)
                    for name, r in base.segment_max.items()} == \
                {name: r <= STRUCT_TOL * max(1.0, ref.norm) for name, r in ref.segment_max.items()}
            assert [(cond, at) for cond, _, at in base.residuals] == \
                [(cond, at) for cond, _, at in ref.residuals]
            # rounding in forming W is relative to |c Y|, not to a small residual
            for (_, a, _), (_, b, _) in zip(base.residuals, ref.residuals):
                assert abs(abs(c) * a - b) <= 1e-12 * max(b, size)
            for name, r in ref.segment_max.items():
                assert abs(abs(c) * base.segment_max[name] - r) <= 1e-12 * max(r, size)
            for j, t in ref.theta.items():
                scaled = np.array([c * x for x in base.theta[j].tolist()])
                assert np.abs(scaled - t).max() <= 1e-12 * size
            failing.add(len(ref.violations))
            assert 0 < len(ref.violations) < len(ref.residuals)
        assert len(failing) > 1  # the tolerance switch changes what fails

    def test_one_extraction_for_the_whole_sequence(self, monkeypatch):
        calls = []
        extract = specsub.W_extract

        def counted(*args, **kwargs):
            calls.append(args[0])
            return extract(*args, **kwargs)

        monkeypatch.setattr(specsub, "W_extract", counted)
        _, _, report = derogatory_witness(B_SPEC, RAD, count=50)
        assert report["ok"] and len(report["per_nu"]) == 50
        assert len(calls) <= 2  # the basis of the sequence, and the limit at the base


def _ref_scaled(params, c):
    """ToeplitzParams.scaled as the witness once called it on every nu: the
    extraction of c * Y read off that of Y.  W and theta scale by c, every
    residual by |c|; :func:`_ref_membership` reads the inactive blocks off
    the scaled W, so no segment maxima are carried."""
    size = abs(c)
    return ToeplitzParams(c * params.W, {j: c * t for j, t in params.theta.items()},
                          [(cond, size * r, at) for cond, r, at in params.residuals],
                          size * params.norm, None)


def _ref_witness(spec, f, count):
    """derogatory_witness as it ran the whole direct-route test on every nu:
    the basis extraction scaled by c_nu, then the active set, the structure
    and inactive checks at the scaled tolerance and the active blocks'
    decision, each nu through :func:`_ref_membership`."""
    _, active = declared_active(spec, f)
    target = next(j for j in active if not spec.nonderogatory(j))
    lam = spec.eig_value(target)
    *kept, m_k = spec.block_sizes(target)
    g = f.grad(lam)
    if g is None:
        g = f.grad(lam + 1.0)
    direction = g / abs(g)
    seps = [abs(lam - spec.eig_value(i)) for i in range(spec.num_eigs) if i != target]
    seps += [abs(lam - mu) for mu in spec.b_eigenvalues]
    step0 = min([1.0] + [s / 4 for s in seps])
    eigs = list(spec.eigs)
    eigs[target:target + 1] = [(lam, tuple(kept)), (lam + step0 * direction, (m_k,))]
    split = JordanSpec(eigs, P=spec.P, B=spec.B if spec.n0 else None)
    idx = target + 1
    Y_basis = split.from_W(split.embed_block(idx, np.eye(m_k)))
    basis = specsub.W_extract(split, Y_basis)
    witnesses, per_nu = [], []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        spec_nu = split.with_eigenvalue(idx, lam_nu)
        c = f.grad(lam_nu) / m_k
        witnesses.append((spec_nu, c * Y_basis))
        per_nu.append(_ref_membership(spec_nu, f, _ref_scaled(basis, c), horizon=False).verdict)
    E = np.zeros((spec.n, spec.n), dtype=complex)
    sl = spec.subblock_slices(target)[-1]
    E[sl, sl] = np.eye(m_k)
    M = (g / m_k) * spec.from_W(E)
    base_rep = rsd_membership(spec, f, M)
    report = {
        "per_nu": per_nu,
        "limit_is_regular_subgradient_at_base": base_rep.verdict,
        "base_failures": [v.to_json() for v in base_rep.failed],
        "ok": all(per_nu) and not base_rep.verdict,
    }
    return witnesses, M, report


def _spec_bytes(spec):
    return {k: (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else repr(v)
            for k, v in vars(spec).items()}


def _assert_same_witness(spec, f, count):
    wits, M, report = derogatory_witness(spec, f, count=count)
    ref_wits, ref_M, ref_report = _ref_witness(spec, f, count)
    assert report == ref_report
    assert M.tobytes() == ref_M.tobytes()
    assert len(wits) == len(ref_wits) == count
    for (s, Y), (s_ref, Y_ref) in zip(wits, ref_wits):
        assert Y.tobytes() == Y_ref.tobytes()
        assert _spec_bytes(s) == _spec_bytes(s_ref)
    return report


# derogatory block sizes of at most six
_DEROGATORY_BLOCKS = [(1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (3, 1), (1, 3), (2, 1, 1),
                      (3, 2), (2, 2, 2), (1, 1, 1, 1)]


def _random_derogatory_spec(rng, f, rest, origin):
    """A spec of size at most 6 whose first eigenvalue is derogatory and
    the only active one under the abscissa, radius2 and the radius.
    ``origin`` makes it the nilpotent origin alone; otherwise it lies at
    modulus 1.6 with real part at least 1.4, the other eigenvalues within
    modulus 1, and ``rest`` adds a 1x1 or 2x2 rest block of small spectrum."""
    room = 6 - (int(rng.integers(1, 3)) if rest else 0)
    blocks = [b for b in _DEROGATORY_BLOCKS if sum(b) <= room]
    top_blocks = blocks[int(rng.integers(len(blocks)))]
    if origin:
        return JordanSpec([(0.0, top_blocks)], P=random_P(rng, sum(top_blocks)))
    eigs = [(1.6 * np.exp(1j * rng.uniform(-0.5, 0.5)), top_blocks)]
    left = int(rng.integers(0, room - sum(top_blocks) + 1))
    while left > 0:
        z = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) > 0.3 for w, _ in eigs):
            k = int(rng.integers(1, left + 1))
            sizes = (k,) if k == 1 or rng.uniform() < 0.5 else (k - 1, 1)
            eigs.append((z, sizes))
            left -= k
    n0 = 6 - room
    B = (0.15 * (rng.standard_normal((n0, n0)) + 1j * rng.standard_normal((n0, n0)))
         if rest else None)
    n = n0 + sum(sum(b) for _, b in eigs)
    return JordanSpec(eigs, P=random_P(rng, n), B=B)


class TestWitnessLoop:
    """The nu loop against a copy of the loop that made the whole
    direct-route test on every nu: the same verdicts, report, limit and
    witness pairs, bit for bit."""

    @pytest.mark.parametrize("spec,f", WITNESS_CASES)
    def test_matches_the_per_nu_membership_loop(self, spec, f):
        assert _assert_same_witness(spec, f, count=30)["ok"]

    def test_matches_it_on_random_derogatory_specs(self):
        rng = np.random.default_rng(2000)
        seen, verdicts = set(), set()
        for i in range(48):
            f = (ABSC, RAD2, RAD)[i % 3]
            rest, origin = (i // 3) % 2 == 1, f is RAD and (i // 3) % 4 == 2
            spec = _random_derogatory_spec(rng, f, rest and not origin, origin)
            specs = [spec]
            if i % 4 == 3:  # cond(P) near 1e6: rounding in W fails the structure on some
                Q = [np.linalg.qr(rng.standard_normal((spec.n, spec.n)) + 1j
                                  * rng.standard_normal((spec.n, spec.n)))[0] for _ in range(2)]
                P = Q[0] @ np.diag(np.geomspace(1.0, 10 ** -rng.uniform(5, 6.5), spec.n)) @ Q[1]
                specs.append(JordanSpec(spec.eigs, P=P, B=spec.B if spec.n0 else None))
            for s in specs:
                report = _assert_same_witness(s, f, count=20)
                seen.add((f.name, s.n0 > 0, origin, report["ok"]))
                verdicts.update(report["per_nu"])
        assert {(g, r, False, True) for g in ("abscissa", "radius2", "radius")
                for r in (False, True)} | {("radius", False, True, True)} <= seen
        assert verdicts == {True, False}

    @pytest.mark.parametrize("where", ["inactive_block", "cross_block"])
    @pytest.mark.parametrize("spec,f", WITNESS_CASES)
    def test_matches_it_where_the_basis_fails_one_check(self, monkeypatch, spec, f, where):
        """A defect of 1e-4 |Y_basis| put into the basis W fails every nu
        on one check alone: the kept part of the derogatory eigenvalue, an
        inactive segment, as a multiple of the identity (so only the
        inactive-block test sees it), or one entry coupling it to the moved
        block (only the cross-block test)."""
        target = declared_active(spec, f)[1][0]
        extract = specsub.W_extract

        def defective(s, Y, level="regular"):
            if s.num_eigs == spec.num_eigs:  # the limit at the base point
                return extract(s, Y, level)
            D = np.zeros((s.n, s.n), dtype=complex)
            kept, moved = s.eig_slice(target), s.eig_slice(target + 1)
            if where == "inactive_block":
                D[kept, kept] = np.eye(s.n_j(target))
            else:
                D[moved.start, kept.start] = 1.0
            return extract(s, Y + 1e-4 * max(1.0, np.linalg.norm(Y)) * s.from_W(D), level)

        monkeypatch.setattr(specsub, "W_extract", defective)
        report = _assert_same_witness(spec, f, count=20)
        assert not any(report["per_nu"])

    def test_one_decision_and_one_active_set_per_nu(self, monkeypatch):
        calls = []

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(jordan, "active_roots")
        counted(specsub, "block_failures")
        for spec, f in WITNESS_CASES:
            calls.clear()
            derogatory_witness(spec, f, count=40)
            # once per nu, and once for the limit at the base point
            assert calls.count("active_roots") == calls.count("block_failures") == 41


class TestSubgradientDefinition:
    def test_violation_rate_shrinks_with_the_ball(self):
        rng = np.random.default_rng(7)
        spec = JordanSpec([(0.3, (2,)), (-1.0, (1,))], P=random_P(rng, 3))
        X = spec.synth()
        base = spectral_max(X, ABSC)
        Y = rsd_sample(spec, ABSC, seed=9)
        rates = []
        for r in (1e-2, 1e-3, 1e-4):
            worst = 0.0
            for i in range(60):
                d = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                D = r * d / np.linalg.norm(d)
                gain = float(np.real(np.trace(Y.conj().T @ D)))
                worst = max(worst, (gain - (spectral_max(X + D, ABSC) - base)) / r)
            rates.append(worst)
        assert rates[2] <= max(0.5 * rates[0], 1e-7)


class TestOverflowRefusal:
    """J_2(1) + [-1] with P = diag(2, 0.5, 1) under the abscissa, and Y = 0
    but Y00 = Y11 = 0.5 and Y10 = sign * size: W's subdiagonal is 4 Y10, a
    member for sign +1 and outside the halfplane for sign -1.  At 1e308 |Y|
    is finite while W and the chain coordinates overflow (a NaN row of W
    passed every check); both routes refuse that, and read the candidate
    below it, also past the bound where the reading is checked."""

    SPEC = JordanSpec([(1.0, (2,)), (-1.0, (1,))], P=np.diag([2.0, 0.5, 1.0]))

    @staticmethod
    def _candidate(sign, size):
        Y = np.diag([0.5, 0.5, 0.0]).astype(complex)
        Y[1, 0] = sign * size
        return Y

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [1, -1])
    def test_both_routes_refuse_an_overflowing_reading(self, sign):
        Y = self._candidate(sign, 1e308)
        assert math.isfinite(cpoly._safe_norm(Y))  # accepted by _candidate
        for read in (lambda: W_extract(self.SPEC, Y),
                     lambda: W_extract(self.SPEC, Y, "limiting"),
                     lambda: rsd_membership(self.SPEC, ABSC, Y),
                     lambda: rsd_recession_membership(self.SPEC, ABSC, Y),
                     lambda: radius_rsd_membership(self.SPEC, Y)):
            with pytest.raises(ValueError, match="overflows in W"):
                read()
        for horizon in (False, True):
            with pytest.raises(ValueError, match="overflows in the chain coordinates"):
                chain_rule_membership(self.SPEC, ABSC, Y, horizon)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("size", [1.0, 1e150, 1e298])
    def test_a_large_candidate_below_the_overflow_is_read(self, size):
        # 1e298 lies past specsub._bounded, so its readings are checked, not refused
        assert specsub._bounded(self.SPEC, size) == (size < 1e298)
        for sign in (1, -1):
            Y = self._candidate(sign, size)
            assert rsd_membership(self.SPEC, ABSC, Y).verdict == (sign > 0)
            assert chain_rule_membership(self.SPEC, ABSC, Y) == (sign > 0)
            assert W_extract(self.SPEC, Y).theta[0][1] == 4 * sign * size


# -- W extraction as it read numpy sub-blocks -------------------------------------
#
# ``_ref_*`` are W_extract, its Toeplitz residual and the direct-route caller
# of the core as they were written on numpy sub-blocks and scalars, kept as
# the check that reading W as Python numbers changes no bit of a residual,
# a diagonal value or a report.


def _ref_rect_toeplitz_residual(blk, m_r, m_s):
    res = 0.0
    min_d = max(0, m_r - m_s)
    for d in range(-(m_s - 1), m_r):
        entries = [blk[k, k - d] for k in range(max(d, 0), min(m_r, m_s + d))]
        if not entries:
            continue
        if d < min_d:
            res = max(res, max(abs(e) for e in entries))
        else:
            center = sum(entries) / len(entries)
            res = max(res, max(abs(e - center) for e in entries))
    return res


def _ref_segments(spec):
    rest = [("rest", slice(0, spec.n0))] if spec.n0 else []
    return rest + [(f"eig{j}", spec.eig_slice(j)) for j in range(spec.num_eigs)]


def _ref_W_extract(spec, Y, level):
    Y = np.asarray(Y, dtype=complex)
    W = spec.to_W(Y)
    residuals = []
    segments = _ref_segments(spec)
    for a, (name_a, sl_a) in enumerate(segments):
        for b, (name_b, sl_b) in enumerate(segments):
            if a != b:
                residuals.append(("cross_block_zero", float(np.abs(W[sl_a, sl_b]).max()),
                                  (name_a, name_b)))
    theta = {}
    for j in range(spec.num_eigs):
        subs = spec.subblock_slices(j)
        sizes = spec.block_sizes(j)
        for r_i, (sl_r, m_r) in enumerate(zip(subs, sizes)):
            for s_i, (sl_s, m_s) in enumerate(zip(subs, sizes)):
                blk = W[sl_r, sl_s]
                if level == "regular" and r_i != s_i:
                    residuals.append(("subblock_coupling_zero", float(np.abs(blk).max()),
                                      (j, r_i, s_i)))
                else:
                    residuals.append(("toeplitz", _ref_rect_toeplitz_residual(blk, m_r, m_s),
                                      (j, r_i, s_i)))
        m_j = spec.m_j(j)
        vals = np.zeros(m_j, dtype=complex)
        for s in range(1, m_j + 1):
            entries = []
            for sl_k, m_k in zip(subs, sizes):
                if m_k >= s:
                    blk = W[sl_k, sl_k]
                    entries.extend(blk[i + s - 1, i] for i in range(m_k - s + 1))
            center = sum(entries) / len(entries)
            vals[s - 1] = center
            if level == "regular":
                residuals.append(("equal_diagonals", max(abs(e - center) for e in entries),
                                  (j, s)))
        theta[j] = vals
    segment_max = {name: float(np.abs(W[sl, sl]).max()) for name, sl in segments}
    return ToeplitzParams(W, theta, residuals, float(np.linalg.norm(Y)), segment_max)


def _ref_membership(spec, f, params, horizon):
    f, active = declared_active(spec, f)
    scale = max(1.0, params.norm)
    kept = {f"eig{j}" for j in active}
    inactive = [(name, float(np.abs(params.W[sl, sl]).max()))
                for name, sl in _ref_segments(spec) if name not in kept]
    failed = params.violations + [Violation("inactive_block_zero", r, name)
                                  for name, r in inactive if r > STRUCT_TOL * scale]
    triples = [(spec.eig_value(j), spec.n_j(j), -params.theta[j]) for j in active]
    core, gammas = polysub.block_failures(f, triples, INEQ_SLACK * scale, horizon)
    failed += [Violation(c, r, "active" if i is None else f"eig{active[i]}")
               for c, r, i in core]
    details = {"active": active}
    if gammas is not None:
        details["gamma"] = dict(zip(active, gammas))
    return MembershipReport(verdict=not failed, failed=failed, details=details)


def _equivalence_spec(rng, derogatory, rest, wide=False):
    """A spec of size at most 8 whose first eigenvalue, of modulus 1.8 and
    real part at least 1.4, is active for the abscissa, radius2 and the
    radius; half the time its conjugate is a second active eigenvalue.  The
    first eigenvalue carries one block of size 1 to 3, or the blocks (1, 1),
    (2, 1) or (3, 2) when ``derogatory``; with ``wide``, one block of size 4
    or 5, or (2, 2, 1), (2, 2) or (3, 1, 1).  ``rest`` adds a 2x2 rest block
    of small spectrum."""
    top = 1.8 * np.exp(1j * rng.choice([-1, 1]) * rng.uniform(0.2, 0.6))
    if wide:
        shapes = [(2, 2, 1), (2, 2), (3, 1, 1)] if derogatory else [(4,), (5,)]
        blocks = [shapes[int(rng.integers(len(shapes)))]]
    else:
        blocks = [[(1, 1), (2, 1), (3, 2)][int(rng.integers(3))] if derogatory
                  else (int(rng.integers(1, 4)),)]
    lams = [top]
    left = 8 - 2 * rest - sum(blocks[0])
    if left and rng.uniform() < 0.5:
        blocks.append((int(rng.integers(1, min(2, left) + 1)),))
        lams.append(top.conjugate())
        left -= blocks[-1][0]
    left = int(rng.integers(0, left + 1))
    while left > 0:
        k = int(rng.integers(1, left + 1))
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if abs(z) >= 0.4 and all(abs(z - w) > 0.3 for w in lams):
            blocks.append((k,))
            lams.append(z)
            left -= k
    B = 0.15 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) if rest else None
    n = 2 * rest + sum(map(sum, blocks))
    return JordanSpec(list(zip(lams, blocks)), P=random_P(rng, n), B=B)


def _member(rng, spec, f):
    """A member: from rsd_sample where the active eigenvalues allow it;
    otherwise Toeplitz sub-blocks sharing their diagonals on the active
    eigenvalues (equal weights, a zero subdiagonal and random deeper
    diagonals) and zeros elsewhere."""
    _, active = declared_active(spec, f)
    if all(spec.nonderogatory(j) for j in active):
        return rsd_sample(spec, f, seed=int(rng.integers(1 << 30)))
    W = np.zeros((spec.n, spec.n), dtype=complex)
    for j in active:
        thetas = rng.standard_normal(spec.m_j(j)) + 1j * rng.standard_normal(spec.m_j(j))
        thetas[0] = f.grad(spec.eig_value(j)) / (spec.n_j(j) * len(active))
        thetas[1:2] = 0
        for sl, m in zip(spec.subblock_slices(j), spec.block_sizes(j)):
            W[sl, sl] = sum(t * np.eye(m, k=-s) for s, t in enumerate(thetas[:m]))
    return spec.from_W(W)


def _assert_numpy_reading(rng, spec, f) -> int:
    """W_extract at both levels and both direct-route reports equal the
    numpy reading on a member, a perturbed member and noise, each at three
    sizes; returns the number of W_extract calls compared."""
    member = _member(rng, spec, f)
    noise = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
    cases = 0
    for Y0 in (member, member + 1e-11 * np.linalg.norm(member) * noise, noise):
        for size in (1e-6, 1.0, 1e4):
            Y = size * Y0
            for level in ("regular", "limiting"):
                got, ref = W_extract(spec, Y, level), _ref_W_extract(spec, Y, level)
                assert got.residuals == ref.residuals
                assert {j: t.tolist() for j, t in got.theta.items()} == \
                    {j: t.tolist() for j, t in ref.theta.items()}
                assert got.violations == ref.violations
                assert got.segment_max == ref.segment_max
                cases += 1
            ref = _ref_W_extract(spec, Y, "regular")
            assert rsd_membership(spec, f, Y).to_json() == \
                _ref_membership(spec, f, ref, horizon=False).to_json()
            assert rsd_recession_membership(spec, f, Y).to_json() == \
                _ref_membership(spec, f, ref, horizon=True).to_json()
    return cases


class TestWExtractionEquivalence:
    @pytest.mark.parametrize("derogatory", [False, True])
    @pytest.mark.parametrize("rest", [False, True])
    def test_python_numbers_match_the_numpy_reading(self, derogatory, rest):
        rng = np.random.default_rng(1400 + 2 * derogatory + rest)
        cases = 0
        for i in range(36):
            f = (ABSC, RAD2, RAD)[i % 3]
            cases += _assert_numpy_reading(rng, _equivalence_spec(rng, derogatory, rest), f)
        assert cases == 36 * 3 * 3 * 2

    @pytest.mark.parametrize("derogatory", [False, True])
    @pytest.mark.parametrize("rest", [False, True])
    def test_wide_blocks_match_the_numpy_reading(self, derogatory, rest):
        # single blocks of size 4 and 5, and (2, 2, 1), (2, 2), (3, 1, 1):
        # shapes no workload reaches, where the shared diagonals pool
        # sub-blocks of different sizes
        rng = np.random.default_rng(1500 + 2 * derogatory + rest)
        shapes = set()
        for i in range(24):
            spec = _equivalence_spec(rng, derogatory, rest, wide=True)
            shapes.add(spec.block_sizes(0))
            assert spec.n <= 8
            assert _assert_numpy_reading(rng, spec, (ABSC, RAD2, RAD)[i % 3]) == 3 * 3 * 2
        assert shapes == ({(2, 2, 1), (2, 2), (3, 1, 1)} if derogatory else {(4,), (5,)})
