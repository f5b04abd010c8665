import math
import sys

import numpy as np
import pytest

from specmax import oracles
from specmax.cpoly import Poly, RootCluster
from specmax.generators import builtin, make_generator
from specmax.jordan import JordanSpec
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
from specmax.specsub import rsd_sample, spectral_max

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
        rep = fd_phi_quotient(J2.synth(), ABSC, np.eye(2))
        assert all(q == pytest.approx(1.0, abs=1e-9) for q in rep.quotients)

    def test_splitting_direction_grows_like_inverse_sqrt(self):
        E21 = np.zeros((2, 2))
        E21[1, 0] = 1.0
        rep = fd_phi_quotient(J2.synth(), ABSC, E21,
                              t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
                              formula=math.inf)
        assert rep.growth_exponent == pytest.approx(-0.5, abs=0.05)
        assert rep.growth_exponent <= GROWTH_CUTOFF and rep.verdict

    def test_zero_direction(self):
        rep = fd_phi_quotient(J2.synth(), ABSC, np.zeros((2, 2)))
        assert all(q == 0 for q in rep.quotients)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            fd_phi_quotient(J2.synth(), ABSC, np.eye(2), t_grid=(0.5,))


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


def _suite_one_direction_at_a_time(spec, f, Y, n_samples, radii=(1e-2, 1e-3, 1e-4),
                                   seed=0):
    """The inequality suite with one evaluation per (direction, radius)."""
    X = spec.synth()
    Y = np.asarray(Y, dtype=complex)
    m_max = max(spec.m_j(j) for j in range(spec.num_eigs))
    directions = list(_structured_probes(spec)) + list(_sample_directions(spec.n, n_samples, seed))
    worst, worst_idx, violations = 0.0, -1, 0
    base = spectral_max(X, f)
    noise = eval_noise_floor(m_max, max(1.0, abs(base), float(np.linalg.norm(X))))
    for idx, Z in enumerate(directions):
        lhs = float(np.real(np.trace(Y.conj().T @ Z)))
        quotients = [(spectral_max(X + t * Z, f) - base) / t for t in radii]
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
        assert ref["worst_direction"] >= len(_structured_probes(spec))
        for key in ("n_directions", "violations", "worst_direction"):
            assert rep[key] == ref[key]
        assert rep["max_violation"] == pytest.approx(ref["max_violation"], rel=1e-12, abs=0)

    def test_no_directions(self):
        rep = subgradient_inequality_suite(J2, ABSC, np.eye(2), n_samples=0,
                                           include_probes=False)
        assert (rep["n_directions"], rep["violations"]) == (0, 0)
        assert (rep["max_violation"], rep["worst_direction"]) == (0.0, -1)

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
        fd_phi_quotient(SPEC32.synth(), ABSC, np.eye(5))
        assert len(calls) <= 2
