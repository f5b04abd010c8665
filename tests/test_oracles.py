import cmath
import math
import sys

import numpy as np
import pytest

from specmax import oracles
from specmax.cpoly import Poly, RootCluster
from specmax.generators import builtin, make_generator
from specmax.jordan import DomainError, JordanSpec, declared_active
from specmax.oracles import (
    ABS_SLACK,
    GROWTH_CUTOFF,
    _sample_directions,
    _structured_probes,
    eval_noise_floor,
    fd_phi_quotient,
    fd_poly_quotient,
    growth_exponent,
    slack_coefficient,
    subgradient_inequality_suite,
)
from specmax.specsub import (
    chain_rule_membership,
    rsd_membership,
    rsd_sample,
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

J2 = JordanSpec([(0.0, (2,))])
SPEC32 = JordanSpec([(1.0 + 0.5j, (3,)), (-0.5 + 0.2j, (2,))],
                    P=np.eye(5) + 0.2 * np.random.default_rng(4).standard_normal((5, 5)))


class TestMatrixQuotients:
    def test_identity_direction_has_unit_quotients(self):
        rep = fd_phi_quotient(J2, ABSC, np.eye(2))
        assert all(q == pytest.approx(1.0, abs=1e-9) for q in rep.quotients)

    def test_splitting_direction_grows_like_inverse_sqrt(self):
        E21 = np.zeros((2, 2))
        E21[1, 0] = 1.0
        rep = fd_phi_quotient(J2, ABSC, E21,
                              t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                              formula=math.inf)
        assert rep.growth_exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.growth_exponent <= GROWTH_CUTOFF and rep.verdict

    def test_zero_direction(self):
        rep = fd_phi_quotient(J2, ABSC, np.zeros((2, 2)))
        assert all(q == 0 for q in rep.quotients)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            fd_phi_quotient(J2, ABSC, np.eye(2), t_grid=(0.5,))

    @pytest.mark.parametrize("t_grid", [(1e-3,), ()])
    def test_fewer_than_two_steps_refused(self, t_grid):
        # the extrapolation reads the two smallest steps
        with pytest.raises(ValueError, match="two steps"):
            fd_phi_quotient(J2, ABSC, np.eye(2), t_grid=t_grid)
        with pytest.raises(ValueError, match="two steps"):
            fd_poly_quotient(Poly((0j, 0j, 1 + 0j)), ABSC, Poly((0j, 1 + 0j, 0j)), t_grid=t_grid)

    def test_minus_inf_formula_passes_the_margin(self):
        # -inf lies below every margin; only +inf is read by the growth rule
        rep = fd_phi_quotient(J2, ABSC, np.eye(2), formula=-math.inf)
        assert all(q == pytest.approx(1.0, abs=1e-9) for q in rep.quotients)
        assert rep.verdict is True
        assert fd_phi_quotient(J2, ABSC, np.eye(2), formula=math.inf).verdict is False

    @pytest.mark.parametrize("delta", [
        pytest.param(1e-4, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 8: the quotients 1 + sqrt(delta / t) read 1.10, "
            "1.32, 2.00 and 4.16 over the default steps, a log-log slope of -0.19 above "
            "GROWTH_CUTOFF, so the +inf formula reads as refuted before the split sets in")),
        1e-3,  # slope -0.31: confirmed
    ])
    def test_late_split_is_not_refuted(self, delta):
        # Z = I + delta E21 splits the double eigenvalue: the quotient is
        # 1 + sqrt(delta / t), which diverges for every delta > 0
        Z = np.array([[1.0, 0.0], [delta, 1.0]])
        formula = subderivative(J2, ABSC, Z)
        assert formula == math.inf
        assert fd_phi_quotient(J2, ABSC, Z, holder_order=2, formula=formula).verdict is not False

    def test_cross_block_coupling_leaves_the_quotient_at_zero(self):
        # V = E_04 couples J_3(1) to J_2(-0.5+0.3i) above the diagonal, so
        # J + tV has the spectrum of J at every t; in the basis of X rounding
        # splits the triple eigenvalue by about eps^(1/3) (about 0.04 here)
        rng = np.random.default_rng(0)
        E = np.zeros((5, 5), dtype=complex)
        E[0, 4] = 1.0
        for _ in range(20):
            P = np.eye(5) + 0.25 * (rng.standard_normal((5, 5))
                                    + 1j * rng.standard_normal((5, 5)))
            spec = JordanSpec([(1.0, (3,)), (-0.5 + 0.3j, (2,))], P=P)
            Z = spec.Pinv @ E @ spec.P
            rep = fd_phi_quotient(spec, ABSC, Z / np.linalg.norm(Z),
                                  t_grid=(1e-2, 1e-3, 1e-4))
            assert max(abs(q) for q in rep.quotients) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_matrix_whose_norm_overflows_is_refused(self):
        # |X| reads inf at 1e155, so the noise term would be inf and the
        # formula 1.0 would pass against quotients of -5
        with pytest.raises(DomainError, match="finite"):
            fd_phi_quotient(JordanSpec([(1e155, (2,))]), ABSC, -5 * np.eye(2), formula=1.0)
        rep = fd_phi_quotient(JordanSpec([(1.0, (2,))]), ABSC, -5 * np.eye(2), formula=1.0)
        assert rep.verdict is False


class TestPolyQuotients:
    def test_liminf_gap_example(self):
        # along lambda the quotients sit at 0 while the lower directional
        # derivative is -1/2: fixed directions only bound it from above
        rep = fd_poly_quotient(Poly((0j, 0j, 1 + 0j)), ABSC, Poly((0j, 1 + 0j, 0j)),
                               formula=-0.5, holder_order=2)
        assert all(q == pytest.approx(0.0, abs=1e-10) for q in rep.quotients)
        assert rep.verdict

    def test_simple_root_convergence(self):
        rep = fd_poly_quotient(Poly((-1 + 0j, 1 + 0j)), ABSC, Poly((1 + 0j, 0j)),
                               t_grid=(1e-3, 1e-4, 1e-5))
        assert rep.extrapolated == pytest.approx(-1.0, rel=1e-6)

    def test_divergent_family(self):
        rep = fd_poly_quotient(Poly((0j, 0j, 1 + 0j)), RAD, Poly((1 + 0j, 0j, 0j)),
                               t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        assert rep.growth_exponent == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.filterwarnings("error")
    def test_polynomial_whose_norm_overflows_is_refused(self):
        # |p| reads inf at 1e160, so the noise term would be inf and the
        # formula 1e6 would pass against quotients of about -0.5
        p, v = Poly((-1e160, 0, 1e160)), Poly((0, 1e160, 0))
        with pytest.raises(DomainError, match="finite"):
            fd_poly_quotient(p, ABSC, v, formula=1e6)

    @pytest.mark.filterwarnings("error")
    def test_polynomial_norm_below_the_overflow_is_read(self):
        # the noise term scales with the monic p = lambda^2 - 1, not with |p|
        p, v = Poly((-1e150, 0, 1e150)), Poly((0, 1e150, 0))
        rep = fd_poly_quotient(p, ABSC, v, formula=1e6)
        assert rep.noise == eval_noise_floor(1, math.sqrt(2))
        assert rep.extrapolated == pytest.approx(-0.5, abs=1e-6)
        assert rep.verdict is False

    @pytest.mark.parametrize("s", [1e-100, 1.0, 1e8, 1e20, 1e100])
    def test_false_formula_is_rejected_at_every_scale(self, s):
        # psi(s p + t s v) = psi(p + t v): the quotient is about -0.499 at every s
        rep = fd_poly_quotient(Poly((-s, 0, s)), ABSC, Poly((0, s, 0)), formula=1e6)
        assert rep.extrapolated == pytest.approx(-0.5, abs=1e-6)
        assert rep.verdict is False


class TestDiagnostics:
    def test_growth_exponent_fit(self):
        steps = (1e-2, 1e-3, 1e-4)
        qs = tuple(t ** -0.5 for t in steps)
        assert growth_exponent(steps, qs) == pytest.approx(-0.5)

    def test_growth_exponent_needs_three_points(self):
        assert growth_exponent((1e-2, 1e-3), (1.0, 1.0)) is None

    def test_slack_coefficient_covers_the_observed_deviation(self):
        steps = (1e-2, 1e-3, 1e-4)
        # q = q0 + 0.3 sqrt(t): the calibrated envelope dominates the true one
        qs = tuple(1.0 + 0.3 * t ** 0.5 for t in steps)
        c = slack_coefficient(steps, qs, order=2)
        assert c == pytest.approx(3.0, rel=1e-12)
        for t, q in zip(steps, qs):
            assert abs(q - 1.0) <= c * t ** 0.5

    def test_slack_coefficient_constant_sequence(self):
        assert slack_coefficient((1e-2, 1e-3, 1e-4), (0.7, 0.7, 0.7)) == 0.0


def _slack_one_row(steps, quotients, order=1):
    """The scalar slack calibration: one sorted list of finite points."""
    pts = sorted(
        ((t ** (1.0 / max(order, 1)), q) for t, q in zip(steps, quotients)
         if math.isfinite(q)),
        key=lambda p: p[0],
    )
    if len(pts) < 2:
        return 0.0
    slopes = [
        abs(pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
        for i in range(len(pts) - 1)
        if pts[i + 1][0] > pts[i][0]
    ]
    return 10.0 * max(slopes) if slopes else 0.0


class TestSlackRows:
    @pytest.mark.parametrize("steps", [
        (1e-2, 1e-3, 1e-4, 1e-5),
        (1e-4, 1e-2, 1e-3, 1e-5),  # unsorted
        (1e-2, 1e-3, 1e-3, 1e-4),  # a repeated step
        (1e-3, 1e-3, 1e-3, 1e-3),  # no slope at all
    ])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_rows_match_the_scalar_loop(self, steps, order):
        rows = np.array([
            [0.5, 0.6, 0.8, 1.1],
            [math.inf, 0.6, 0.8, 1.1],
            [0.5, math.nan, -math.inf, 1.1],
            [0.5, 0.6, math.nan, 0.7],
            [math.nan, math.inf, 2.0, -math.inf],  # a single finite point
            [math.inf, math.nan, -math.inf, math.inf],  # none finite
            [0.7, 0.7, 0.7, 0.7],
            [-3.0, 4.0, math.nan, -1e3],
        ])
        got = slack_coefficient(steps, rows, order)
        assert got.shape == (len(rows),)
        for row, c in zip(rows, got):
            assert c == _slack_one_row(steps, row, order)
            assert slack_coefficient(steps, tuple(row), order) == c

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(3)
        steps = (1e-2, 1e-3, 1e-4)
        q = rng.standard_normal((2, 5, 3))
        q[q > 1.0] = math.inf
        got = slack_coefficient(steps, q, 2)
        assert got.shape == (2, 5)
        for idx in np.ndindex(2, 5):
            assert got[idx] == _slack_one_row(steps, q[idx], 2)


class TestDirections:
    def test_unit_norm_and_prefix_stable(self):
        long = _sample_directions(4, 25, seed=7)
        assert long.shape == (25, 4, 4)
        assert np.allclose(np.linalg.norm(long, axis=(1, 2)), 1.0, rtol=0, atol=1e-14)
        for k in (0, 1, 10):
            assert np.array_equal(_sample_directions(4, k, seed=7), long[:k])
        assert not np.array_equal(_sample_directions(4, 25, seed=8), long)

    def test_independent_of_the_block_size(self, monkeypatch):
        ref = _sample_directions(5, 40, seed=3)
        for per_block in (1, 3, 7):
            monkeypatch.setattr(oracles, "STACK_ENTRIES", per_block * 2 * 25)
            assert np.array_equal(_sample_directions(5, 40, seed=3), ref)


class TestInequalitySuite:
    def test_member_has_no_violations(self):
        Y = rsd_sample(J2, ABSC, seed=3)
        rep = subgradient_inequality_suite(J2, ABSC, Y, n_samples=500, seed=0)
        assert rep["violations"] == 0
        assert rep["max_violation"] == 0.0

    def test_overweighted_candidate_caught_along_the_identity(self):
        rep = subgradient_inequality_suite(J2, ABSC, np.eye(2, dtype=complex),
                                           n_samples=50, seed=0)
        assert rep["violations"] > 0
        # worst probe: Z = I/sqrt(2) gives <Y,Z> = sqrt(2) vs quotient 1/sqrt(2)
        assert rep["max_violation"] == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_zero_candidate_caught_along_minus_identity(self):
        rep = subgradient_inequality_suite(J2, ABSC, np.zeros((2, 2)),
                                           n_samples=50, seed=0)
        assert rep["violations"] > 0

    def test_deterministic_given_seed(self):
        Y = rsd_sample(J2, ABSC, seed=5)
        rep1 = subgradient_inequality_suite(J2, ABSC, Y, n_samples=40, seed=11)
        rep2 = subgradient_inequality_suite(J2, ABSC, Y, n_samples=40, seed=11)
        assert rep1 == rep2

    @pytest.mark.parametrize("Y", [np.full((2, 2), np.nan), np.eye(3)], ids=["nan", "3x3"])
    def test_malformed_candidate_rejected(self, Y):
        # a NaN pairing compares false everywhere, which read as 0 violations
        with pytest.raises(ValueError, match="candidate"):
            subgradient_inequality_suite(J2, ABSC, Y, n_samples=10)

    @pytest.mark.filterwarnings("error")
    def test_matrix_whose_norm_overflows_is_refused(self):
        # |X| reads inf at 1e155, so the noise term would be inf and the
        # suite would find none of the violations it finds at 1 (7 gaps
        # above the margin, 5 of them on diverging directions, which count none)
        Y = 100 * np.eye(2)
        rep = subgradient_inequality_suite(JordanSpec([(1.0, (2,))]), ABSC, Y, n_samples=100)
        assert rep["violations"] == 2 and rep["n_directions"] == 105
        assert rep["diverging"] == 5
        with pytest.raises(DomainError, match="finite"):
            subgradient_inequality_suite(JordanSpec([(1e155, (2,))]), ABSC, Y, n_samples=100)
        with pytest.raises(DomainError, match="finite"):
            subgradient_inequality_suite(JordanSpec([(1e155, (1,))]), RAD, np.eye(1))


def _suite_one_direction_at_a_time(spec, f, Y, n_samples, radii=(1e-2, 1e-3, 1e-4),
                                   seed=0, basis="jordan"):
    """The inequality suite with one evaluation per (direction, radius).

    ``basis="jordan"`` differences phi(J + t P Z P^-1), as the suite does,
    with the probes' exact images; ``basis="x"`` differences phi(X + t Z)
    at X = P^-1 J P, the same spectra in the basis of X."""
    X = spec.synth()
    Y = np.asarray(Y, dtype=complex)
    m_max = max(spec.m_j(j) for j in range(spec.num_eigs))
    probes, images = _structured_probes(spec)
    samples = _sample_directions(spec.n, n_samples, seed)
    directions = list(probes) + list(samples)
    if basis == "jordan":
        A = spec.jordan_matrix()
        moved = list(images) + [spec.P @ Z @ spec.Pinv for Z in samples]
    else:
        A, moved = X, directions
    worst, worst_idx, violations = 0.0, -1, 0
    base = spectral_max(A, f)
    noise = eval_noise_floor(m_max, max(1.0, abs(base), float(np.linalg.norm(X))))
    for idx, (Z, V) in enumerate(zip(directions, moved)):
        lhs = float(np.real(np.trace(Y.conj().T @ Z)))
        quotients = [(spectral_max(A + t * V, f) - base) / t for t in radii]
        coeff = slack_coefficient(radii, quotients, m_max)
        gap = max(lhs - (q + coeff * t ** (1.0 / m_max) + noise / t + ABS_SLACK)
                  for t, q in zip(radii, quotients))
        if gap > 0:
            violations += 1
            if gap > worst:
                worst, worst_idx = gap, idx
    return {"n_directions": len(directions), "violations": violations,
            "max_violation": worst, "worst_direction": worst_idx}


class TestBatchedSuite:
    @pytest.mark.parametrize("spec,f,scale", [
        (J2, ABSC, 1.0), (J2, ABSC, 1.5),
        (SPEC32, ABSC, 1.0), (SPEC32, ABSC, 1.5),
        (SPEC32, RAD2, 1.0), (SPEC32, RAD2, 1.5),
        (SPEC32, QUARTIC, 1.0), (SPEC32, QUARTIC, 1.5),
    ])
    def test_matches_one_direction_at_a_time(self, spec, f, scale):
        Y = scale * rsd_sample(spec, f, seed=2)
        rep = subgradient_inequality_suite(spec, f, Y, n_samples=60, seed=5)
        ref = _suite_one_direction_at_a_time(spec, f, Y, n_samples=60, seed=5)
        assert (scale > 1) == (ref["violations"] > 0)
        for key in ("n_directions", "violations", "worst_direction"):
            assert rep[key] == ref[key]
        assert rep["max_violation"] == pytest.approx(ref["max_violation"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("lam", [0.0, -2e-3])
    def test_matches_one_direction_at_a_time_off_the_domain(self, lam):
        # half-plane generator: at 0 some perturbed spectra leave the domain
        # (infinite quotients, skipped by the slack); at -2e-3 the base is
        # outside (nan gaps, never violations)
        def half(z):
            return z.real if z.real >= 0 else math.inf

        spec = JordanSpec([(lam, (2,))])
        Y = 0.5 * np.eye(2, dtype=complex)
        with np.errstate(invalid="ignore"):  # inf - inf at the base off the domain
            rep = subgradient_inequality_suite(spec, half, Y, n_samples=60, seed=1)
        ref = _suite_one_direction_at_a_time(spec, half, Y, n_samples=60, seed=1)
        assert {k: rep[k] for k in ref} == ref

    def test_blocks_match_one_direction_at_a_time(self, monkeypatch):
        # 7 directions per block: several blocks and a partial last one
        monkeypatch.setattr(oracles, "STACK_ENTRIES", 7 * 3 * SPEC32.n ** 2)
        Y = 1.5 * rsd_sample(SPEC32, RAD2, seed=2)
        rep = subgradient_inequality_suite(SPEC32, RAD2, Y, n_samples=60, seed=5)
        ref = _suite_one_direction_at_a_time(SPEC32, RAD2, Y, n_samples=60, seed=5)
        assert ref["n_directions"] % 7 != 0 and ref["violations"] > 0
        for key in ("n_directions", "violations", "worst_direction"):
            assert rep[key] == ref[key]
        assert rep["max_violation"] == pytest.approx(ref["max_violation"], rel=1e-12, abs=0)

    def test_worst_direction_is_a_sampled_one(self):
        # simple eigenvalues 1 and -1: the gradient is E11, and an extra
        # off-diagonal weight is seen only along directions with a (0, 1)
        # entry, which no structured probe has
        spec = JordanSpec([(1.0, (1,)), (-1.0, (1,))])
        Y = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        rep = subgradient_inequality_suite(spec, ABSC, Y, n_samples=60, seed=4)
        ref = _suite_one_direction_at_a_time(spec, ABSC, Y, n_samples=60, seed=4)
        assert ref["violations"] > 0
        assert ref["worst_direction"] >= len(_structured_probes(spec)[0])
        for key in ("n_directions", "violations", "worst_direction"):
            assert rep[key] == ref[key]
        assert rep["max_violation"] == pytest.approx(ref["max_violation"], rel=1e-12, abs=0)

    def test_no_directions(self):
        # no sampled direction: the suite runs exactly the structured probes,
        # which catch I, twice the subgradient I / 2
        rep = subgradient_inequality_suite(J2, ABSC, np.eye(2), n_samples=0)
        ref = _suite_one_direction_at_a_time(J2, ABSC, np.eye(2), n_samples=0)
        assert rep["n_directions"] == ref["n_directions"] == len(_structured_probes(J2)[0])
        assert ref["violations"] > 0
        for key in ("violations", "worst_direction"):
            assert rep[key] == ref[key]
        assert rep["max_violation"] == pytest.approx(ref["max_violation"], rel=1e-12, abs=0)

    def test_one_stack_and_no_characteristic_polynomial(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        assert not [name for name, mod in list(sys.modules.items())
                    if name.split(".")[0] == "specmax" and hasattr(mod, "char_poly")]
        Y = rsd_sample(SPEC32, ABSC, seed=2)
        rep = subgradient_inequality_suite(SPEC32, ABSC, Y, n_samples=50)
        assert rep["violations"] == 0
        assert len(calls) <= 2
        assert calls[-1] == (rep["n_directions"], 3, 5, 5)
        calls.clear()
        fd_phi_quotient(SPEC32, ABSC, np.eye(5))
        assert len(calls) <= 2


# Jordan structures of the benchmark's regular verify specs: ("a", blocks)
# attains the max, ("i", blocks) does not
REGULAR = (
    (("a", (3,)),),
    (("a", (2,)), ("i", (1,))),
    (("a", (1,)), ("a", (1,)), ("i", (1,))),
    (("a", (2,)), ("i", (2,))),
    (("a", (3,)), ("i", (1,))),
    (("a", (2,)), ("a", (1,)), ("i", (1,))),
    (("a", (3,)), ("i", (2,))),
    (("a", (2,)), ("a", (2,)), ("i", (1,))),
    (("a", (3,)), ("i", (2,)), ("i", (1,))),
    (("a", (3,)), ("a", (2,)), ("i", (1,))),
)


def _regular_spec(rng, f, template):
    """Eigenvalues for ``template`` that tie exactly for the max of f (the
    abscissa on one vertical line, the radii on one circle), inactive ones at
    least 0.6 below it, all 0.5 apart and 0.4 from the origin; P = I + 0.25 G
    with complex Gaussian G and cond(P) < 50."""
    roles = [role for role, _ in template]
    while True:
        if f is ABSC:
            a = rng.uniform(-1.0, 1.5)
            lams = [complex(a if role == "a" else a - rng.uniform(0.6, 2.5), rng.uniform(-2, 2))
                    for role in roles]
        else:
            rho = rng.uniform(1.2, 2.2)
            lams = [(rho if role == "a" else rng.uniform(0.4, rho - 0.6))
                    * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for role in roles]
        if min(map(abs, lams)) >= 0.4 and all(
                abs(lams[p] - lams[q]) >= 0.5 for p in range(len(lams)) for q in range(p)):
            break
    n = sum(sum(blocks) for _, blocks in template)
    while True:
        P = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            return JordanSpec([(lam, blocks) for lam, (_, blocks) in zip(lams, template)], P=P)


def _probes_in_the_basis_of_x(spec):
    """The structured probes built directly in the basis of X, each
    P^-1 E P over its norm: the reference their bytes are pinned to."""
    eye = np.eye(spec.n, dtype=complex)
    probes = [eye, -eye]
    for j in range(spec.num_eigs):
        D = spec.Pinv @ spec.embed_block(j, np.eye(spec.n_j(j), dtype=complex)) @ spec.P
        probes += [D, -D]
        if spec.n_j(j) >= 2:
            Nt = np.zeros((spec.n, spec.n), dtype=complex)
            sl = spec.eig_slice(j)
            Nt[sl, sl] = np.eye(spec.n_j(j), k=-1)
            probes.append(spec.Pinv @ Nt @ spec.P)
    return [p / np.linalg.norm(p) for p in probes if np.linalg.norm(p) > 0]


class TestJordanBasis:
    @pytest.mark.parametrize("spec", [
        J2, SPEC32,
        JordanSpec([(1.0, (2, 1)), (2j, (3,))],
                   P=np.eye(6) + 0.3 * np.random.default_rng(8).standard_normal((6, 6))),
        JordanSpec([(0.5, (2,))], P=[[2.0, 1.0, 0.0], [0.0, 1.0, 1j], [1.0, 0.0, 1.0]],
                   B=[[-1.0]]),
    ], ids=["J2", "SPEC32", "derogatory", "rest-block"])
    def test_probes_keep_their_bytes_and_have_exact_images(self, spec):
        probes, images = _structured_probes(spec)
        ref = _probes_in_the_basis_of_x(spec)
        assert probes.tobytes() == np.array(ref).tobytes()
        for D, V in zip(probes, images):
            # V is a signed 0/1 pattern (I, a block identity or a transposed
            # nilpotent) over the norm of its image in the basis of X
            assert set((V / np.abs(V).max()).ravel().tolist()) <= {0, 1, -1}
            assert np.abs(np.triu(V, 1)).max() == 0 and np.abs(np.tril(V, -2)).max() == 0
            assert np.allclose(spec.P @ D @ spec.Pinv, V, rtol=0, atol=1e-12 * np.abs(V).max())

    def test_flags_what_the_basis_of_x_flags(self):
        # on members, 1.5x, 1.05x and noisy members of the regular verify
        # specs under every builtin generator but ell1: no member is
        # flagged, and every candidate flagged in the basis of X (one
        # direction at a time) is flagged in the Jordan basis
        rng = np.random.default_rng(24)
        flagged = {"x": 0, "jordan": 0}
        for template in REGULAR:
            for f in (ABSC, RAD2, RAD):
                spec = _regular_spec(rng, f, template)
                Y = rsd_sample(spec, f, seed=int(rng.integers(2 ** 31)))
                G = rng.standard_normal(Y.shape) + 1j * rng.standard_normal(Y.shape)
                noisy = Y + 1e-2 * np.linalg.norm(Y) * G / np.linalg.norm(G)
                seed = int(rng.integers(2 ** 31))
                for scale, C in (("1", Y), ("1.5", 1.5 * Y), ("1.05", 1.05 * Y), ("noisy", noisy)):
                    jordan = subgradient_inequality_suite(spec, f, C, n_samples=50, seed=seed)
                    x = _suite_one_direction_at_a_time(spec, f, C, n_samples=50, seed=seed,
                                                       basis="x")
                    assert jordan["n_directions"] == x["n_directions"]
                    if scale == "1":
                        assert jordan["violations"] == x["violations"] == 0
                    assert jordan["violations"] > 0 or x["violations"] == 0, (spec, f, scale)
                    if scale == "1.5":
                        flagged["x"] += x["violations"] > 0
                        flagged["jordan"] += jordan["violations"] > 0
        print(f"1.5x members flagged of {3 * len(REGULAR)}: basis of X {flagged['x']}, "
              f"Jordan basis {flagged['jordan']}")


def _large_subdiagonal_member(case, f, theta):
    """A member of both routes whose W subdiagonal is theta times the unit
    ∇f(λ)²/|∇f(λ)²| at each active block, P = I: both blocks of J_3(1) ⊕
    J_2(1+0.5i) under the abscissa, only J_2(1+0.5i) under the radii."""
    if case == "J2(0)+[-1]":
        spec = JordanSpec([(0j, (2,)), (-1.0, (1,))])
        return spec, rsd_sample(spec, f, seed=1, theta2={0: theta})
    spec = JordanSpec([(1.0, (3,)), (1 + 0.5j, (2,))])
    grads = {j: f.grad(spec.eig_value(j)) for j in declared_active(spec, f)[1]}
    theta2 = {j: theta * g * g / abs(g * g) for j, g in grads.items()}
    return spec, rsd_sample(spec, f, seed=1, theta2=theta2)


DIVERGING = [pytest.param("J2(0)+[-1]", ABSC, theta, id=f"J2(0)+[-1]-abscissa-{theta}")
             for theta in (0, 100, 400, 1000)]
DIVERGING += [pytest.param("J3(1)+J2(1+0.5i)", ABSC, 1000, id="J3(1)+J2(1+0.5i)-abscissa-1000")]
DIVERGING += [pytest.param("J3(1)+J2(1+0.5i)", f, 1000, id=f"J3(1)+J2(1+0.5i)-{f.name}-1000")
              for f in (RAD2, RAD)]


class TestDivergingDirections:
    """ROADMAP item 17: true members with a large W subdiagonal.  Under the
    abscissa at theta = 1000, 15 of 107 and 2 of 108 directions exceed the
    margin, all of them directions whose quotients diverge like t^(-1/2),
    which count no violation; at theta <= 400 and under the radii none do."""

    @pytest.mark.parametrize("case,f,theta", [p.values for p in DIVERGING],
                             ids=[p.id for p in DIVERGING])
    def test_both_routes_accept_the_member(self, case, f, theta):
        spec, Y = _large_subdiagonal_member(case, f, theta)
        assert rsd_membership(spec, f, Y).verdict
        assert chain_rule_membership(spec, f, Y)

    @pytest.mark.parametrize("case,f,theta", DIVERGING)
    def test_suite_passes_the_member(self, case, f, theta):
        spec, Y = _large_subdiagonal_member(case, f, theta)
        rep = subgradient_inequality_suite(spec, f, Y, n_samples=100, seed=0)
        assert rep["violations"] == 0
        # the flags set aside as diverging: 15 and 2 under the abscissa at 1000
        expected = {("J2(0)+[-1]", 1000): 15, ("J3(1)+J2(1+0.5i)", 1000): 2}
        assert rep["diverging"] == (expected.get((case, theta), 0) if f is ABSC else 0)
