import math

import numpy as np
import pytest

from specmax import cpoly, polysub, specsub
from specmax.generators import UnsupportedGenerator, builtin
from specmax.jordan import DerogatoryEigenvalue, JordanSpec, declared_active, nilpotent
from specmax.specsub import (
    W_extract,
    chain_rule_membership,
    derogatory_witness,
    radius_rsd_membership,
    radius_rsd_zero,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    spectral_active,
    spectral_max,
)

ABSC = builtin("abscissa")
RAD = builtin("radius")
RAD2 = builtin("radius2")

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


class TestWExtract:
    def test_scaled_identity_passes(self):
        rng = np.random.default_rng(0)
        spec = JordanSpec([(1.0, (2, 1)), (-2.0, (1,))], P=random_P(rng, 4))
        params = W_extract(spec, np.eye(4) / 4, level="regular")
        assert params.ok
        assert params.theta_of(0, 1) == pytest.approx(0.25)
        assert params.theta_of(1, 1) == pytest.approx(0.25)

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

    def test_derogatory_active_rejected(self):
        with pytest.raises(DerogatoryEigenvalue):
            rsd_sample(B_SPEC, RAD2)

    @pytest.mark.parametrize("gamma", [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf]])
    def test_non_finite_weights_rejected(self, gamma):
        with pytest.raises(ValueError, match="simplex"):
            rsd_sample(A_SPEC, RAD2, gamma=gamma)


class TestChainRule:
    def test_sampled_members_pass_both_routes(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            spec = random_nonderogatory_spec(rng)
            for f in (ABSC, RAD2):
                Y = rsd_sample(spec, f, seed=int(rng.integers(1000)))
                assert chain_rule_membership(spec, f, Y)
                assert rsd_membership(spec, f, Y).verdict

    def test_zero_fails(self):
        assert not chain_rule_membership(J2, ABSC, np.zeros((2, 2)))

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


@pytest.mark.parametrize("f", [ABSC, RAD])
def test_chain_route_decides_the_active_set_once(monkeypatch, f):
    # declared_active picks the active eigenvalues; the factor built from
    # them is not searched for its active roots a second time
    rng = np.random.default_rng(6)
    spec = JordanSpec([(1.0, (2,)), (-1.5j, (2,)), (0.2, (1,))], P=random_P(rng, 6),
                      B=np.array([[-0.3]]))
    Y = rsd_sample(spec, f, seed=3)
    calls = []

    def counting_active_set(*args, **kwargs):
        calls.append(args)
        return cpoly.active_set(*args, **kwargs)

    for mod in (polysub, specsub):
        monkeypatch.setattr(mod, "active_set", counting_active_set)
    for horizon in (False, True):
        for Z in (Y, 1.5 * Y, np.zeros_like(Y)):
            chain_rule_membership(spec, f, Z, horizon=horizon)
    assert calls == []


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
        with pytest.raises(ValueError):
            radius_rsd_membership(J2, np.eye(2) / 2)

    def test_complex_eigenvalue_ray(self):
        lam = 1j
        spec = JordanSpec([(lam, (1,))])
        # theta = lam / (n |lam|) sits on the outward ray with unit weight
        Y = spec.from_W(np.array([[lam]], dtype=complex))
        assert radius_rsd_membership(spec, Y).verdict
        Y = spec.from_W(np.array([[-lam]], dtype=complex))
        assert not radius_rsd_membership(spec, Y).verdict


class TestRadiusZero:
    def test_boundary_diagonal(self):
        spec = JordanSpec([(0.0, (3,))])
        assert radius_rsd_zero(spec, np.eye(3) / 3).verdict
        assert not radius_rsd_zero(spec, np.eye(3) / 2).verdict

    def test_nilpotent_direction_is_member_and_horizon(self):
        spec = JordanSpec([(0.0, (3,))])
        Y = nilpotent(3).T.astype(complex)
        assert radius_rsd_zero(spec, Y).verdict
        assert radius_rsd_zero(spec, Y, horizon=True).verdict
        assert not radius_rsd_zero(spec, np.eye(3) / 3, horizon=True).verdict

    def test_nonzero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            radius_rsd_zero(A_SPEC, np.eye(3))

    def test_derogatory_origin(self):
        spec = JordanSpec([(0.0, (2, 1))])
        assert radius_rsd_zero(spec, np.eye(3) / 3).verdict
        assert not radius_rsd_zero(spec, np.diag([1 / 3, 1 / 3, 0.0]).astype(complex)).verdict


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
        wits, M, report = derogatory_witness(B_SPEC, RAD, count=20, block_index=1)
        assert np.allclose(M, np.diag([0.0, 0.0, 1.0]))
        assert report["ok"]
        spec_nu, Y_nu = wits[4]  # nu = 5
        assert np.allclose(spec_nu.synth(), B_SPEC.synth() + np.diag([0, 0, 1 / 5]))
        assert np.allclose(Y_nu, M)

    def test_abscissa_analogue(self):
        spec = JordanSpec([(0.0, (1, 1))])
        wits, M, report = derogatory_witness(spec, ABSC, count=10)
        assert np.allclose(M, np.diag([1.0, 0.0]))
        assert report["ok"]

    def test_radius_at_origin(self):
        spec = JordanSpec([(0.0, (2, 1))])
        wits, M, report = derogatory_witness(spec, RAD, count=10)
        assert report["ok"]
        assert np.allclose(M, np.diag([0.5, 0.5, 0.0]))

    def test_nonderogatory_rejected(self):
        with pytest.raises(ValueError):
            derogatory_witness(A_SPEC, RAD)

    @pytest.mark.parametrize("count", [0, -3])
    def test_empty_sequence_rejected(self, count):
        with pytest.raises(ValueError, match="at least one member"):
            derogatory_witness(B_SPEC, RAD, count=count)


def _witness_from_scratch(spec, f, count, block_index=0):
    """(per_nu, Ys, M) of the witness with every nu's split spec built by
    JordanSpec(...) from scratch."""
    _, _, active = declared_active(spec, f)
    target = next(j for j in active if not spec.nonderogatory(j))
    lam = spec.eig_value(target)
    m_k = spec.block_sizes(target)[block_index]
    direction = f.grad(lam) / abs(f.grad(lam))
    seps = [abs(lam - spec.eig_value(i)) for i in range(spec.num_eigs) if i != target]
    seps += [abs(lam - mu) for mu in spec.b_eigenvalues]
    step0 = min([1.0] + [s / 4 for s in seps])
    per_nu, Ys = [], []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        sizes = spec.block_sizes(target)
        rest = tuple(b for k, b in enumerate(sizes) if k != block_index)
        eigs = list(spec.eigs[:target]) + [(lam, rest), (lam_nu, (sizes[block_index],))]
        eigs += list(spec.eigs[target + 1:])
        perm = list(range(spec.eig_slice(target).start))
        subs = spec.subblock_slices(target)
        for k in [k for k in range(len(sizes)) if k != block_index] + [block_index]:
            perm.extend(range(subs[k].start, subs[k].stop))
        perm.extend(range(spec.eig_slice(target).stop, spec.n))
        spec_nu = JordanSpec(eigs, P=np.eye(spec.n)[perm, :] @ spec.P,
                             B=spec.B if spec.n0 else None)
        E = spec_nu.embed_block(target + 1, np.eye(m_k))
        Y = (f.grad(lam_nu) / m_k) * spec_nu.from_W(E)
        rep = (radius_rsd_membership(spec_nu, Y) if f.name == "radius"
               else rsd_membership(spec_nu, f, Y))
        per_nu.append(rep.verdict)
        Ys.append(Y)
    E = np.zeros((spec.n, spec.n), dtype=complex)
    sl = spec.subblock_slices(target)[block_index]
    E[sl, sl] = np.eye(m_k)
    return per_nu, Ys, (f.grad(lam) / m_k) * spec.from_W(E)


class TestSharedSplitWitness:
    @pytest.mark.parametrize("spec,f,block_index", [
        (B_SPEC, RAD, 1),
        (B_SPEC, RAD, 0),
        (JordanSpec([(0.5 + 0.2j, (2, 1, 1)), (-1.0, (1,))],
                    P=np.eye(6) + 0.2 * np.random.default_rng(8).standard_normal((6, 6)),
                    B=np.array([[0.1]])), ABSC, 1),
    ])
    def test_matches_specs_built_from_scratch(self, spec, f, block_index):
        wits, M, report = derogatory_witness(spec, f, count=30, block_index=block_index)
        per_nu, Ys, M_ref = _witness_from_scratch(spec, f, 30, block_index)
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
    (B_SPEC, RAD, 1),
    (B_SPEC, RAD, 0),
    (JordanSpec([(0.5 + 0.2j, (2, 1, 1)), (-1.0, (1,))],
                P=np.eye(6) + 0.2 * np.random.default_rng(8).standard_normal((6, 6)),
                B=np.array([[0.1]])), ABSC, 1),
    (JordanSpec([(1.0 + 0.5j, (1, 2)), (0.3, (1,))],
                P=random_P(np.random.default_rng(15), 4)), RAD2, 1),
    (JordanSpec([(0.8, (2, 2)), (-0.5j, (1,))], P=random_P(np.random.default_rng(16), 7),
                B=np.array([[0.2, 0.1], [0.0, -0.3]])), ABSC, 0),
]


class TestWitnessFormsWOnce:
    @pytest.mark.parametrize("spec,f,block_index", WITNESS_CASES)
    def test_each_verdict_is_rsd_membership_of_its_pair(self, spec, f, block_index):
        wits, _, report = derogatory_witness(spec, f, count=30, block_index=block_index)
        assert report["ok"]
        assert [rsd_membership(s, f, Y).verdict for s, Y in wits] == report["per_nu"]

    @pytest.mark.parametrize("level", ["regular", "limiting"])
    def test_scaled_extraction_matches_extracting_the_scaled_candidate(self, level):
        rng = np.random.default_rng(17)
        spec = WITNESS_CASES[2][0]
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
            got = base.scaled(c)
            ref = W_extract(spec, c * Y, level=level)
            assert [(v.condition, v.where) for v in got.violations] == \
                [(v.condition, v.where) for v in ref.violations]
            assert got.flags == ref.flags and got.ok == ref.ok
            assert [(cond, at) for cond, _, at in got.residuals] == \
                [(cond, at) for cond, _, at in ref.residuals]
            # rounding in forming W is relative to |c Y|, not to a small residual
            for (_, a, _), (_, b, _) in zip(got.residuals, ref.residuals):
                assert abs(a - b) <= 1e-12 * max(b, size)
            for j, t in ref.theta.items():
                assert np.abs(got.theta[j] - t).max() <= 1e-12 * size
            assert np.abs(got.W - ref.W).max() <= 1e-12 * size
            failing.add(len(ref.violations))
            assert 0 < len(ref.violations) < len(ref.residuals)
        assert len(failing) > 1  # the tolerance switch changes what fails

    def test_one_extraction_for_the_whole_sequence(self, monkeypatch):
        from specmax import specsub

        calls = []
        extract = specsub.W_extract

        def counted(*args, **kwargs):
            calls.append(args[0])
            return extract(*args, **kwargs)

        monkeypatch.setattr(specsub, "W_extract", counted)
        _, _, report = derogatory_witness(B_SPEC, RAD, count=50)
        assert report["ok"] and len(report["per_nu"]) == 50
        assert len(calls) <= 2  # the basis of the sequence, and the limit at the base


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
