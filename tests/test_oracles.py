import math
import sys

import numpy as np
import pytest

from specmax import oracles
from specmax.cpoly import Poly, RootCluster
from specmax.generators import builtin
from specmax.jordan import JordanSpec, char_poly
from specmax.oracles import (
    ABS_SLACK,
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
        assert rep.diverging() and rep.verdict

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


def _suite_one_direction_at_a_time(spec, f, Y, n_samples, radii=(1e-2, 1e-3, 1e-4),
                                   seed=0):
    """The inequality suite with one evaluation per (direction, radius)."""
    X = spec.synth()
    Y = np.asarray(Y, dtype=complex)
    m_max = max(spec.m_j(j) for j in range(spec.num_eigs))
    directions = list(_structured_probes(spec))
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        Z = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
        directions.append(Z / np.linalg.norm(Z))
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

        def refuse(*args, **kwargs):
            raise AssertionError("char_poly called")

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "specmax" and getattr(mod, "char_poly", None) is char_poly:
                monkeypatch.setattr(mod, "char_poly", refuse)
        Y = rsd_sample(SPEC32, ABSC, seed=2)
        rep = subgradient_inequality_suite(SPEC32, ABSC, Y, n_samples=50)
        assert rep["violations"] == 0
        assert len(calls) <= 2
        assert calls[-1] == (rep["n_directions"], 3, 5, 5)
        calls.clear()
        fd_phi_quotient(SPEC32.synth(), ABSC, np.eye(5))
        assert len(calls) <= 2
