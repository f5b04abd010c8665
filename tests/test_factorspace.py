import numpy as np
import pytest

from specmax.cpoly import Poly, RootCluster, elementary
from specmax.factorspace import (
    F_apply,
    F_deriv0,
    F_deriv0_inv,
    FactorSpaceElem,
    T_apply,
    T_inverse,
    pn_inner,
    sp_inner,
)

LAM2 = RootCluster((0j,), (2,))                      # lambda^2
LAM_LAM1 = RootCluster((0j, 1 + 0j), (1, 1))         # lambda (lambda - 1)


def random_cluster(rng, max_roots=3, max_mult=3):
    m = rng.integers(1, max_roots + 1)
    pts = []
    while len(pts) < m:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if all(abs(z - w) > 0.5 for w in pts):
            pts.append(z)
    return RootCluster.sorted((z, int(rng.integers(1, max_mult + 1))) for z in pts)


def random_elem(base, rng, scale=1.0):
    factors = tuple(
        Poly(tuple(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))))
        for n in base.mults
    )
    return FactorSpaceElem(base, scale * complex(rng.standard_normal(), rng.standard_normal()), factors)


def _reference_F_deriv0(base, w):
    """omega0 * p + sum_j r_j * w_j as a cofactor loop."""
    ntilde = base.degree()
    out = (w.mu0 * base.as_poly()).padded(ntilde)
    for j, w_j in enumerate(w.factors):
        r_j = Poly.one()
        for k, (lam, n_k) in enumerate(zip(base.roots, base.mults)):
            if k != j:
                r_j = r_j * elementary(n_k, lam)
        out = out + (r_j * w_j).padded(ntilde)
    return out


def _reference_pn_inner(base, z, v):
    """<z, v> through factor-space elements: invert F'(0), then sp_inner."""
    return sp_inner(F_deriv0_inv(base, z), F_deriv0_inv(base, v))


def random_poly(rng, degree_bound):
    return Poly(tuple(rng.standard_normal(degree_bound + 1)
                      + 1j * rng.standard_normal(degree_bound + 1)))


class TestFApply:
    def test_zero_perturbation_recovers_base(self):
        u = FactorSpaceElem.zero(LAM2)
        assert np.allclose(F_apply(LAM2, u).array(), LAM2.as_poly().array())

    def test_single_factor_shift(self):
        # (lambda + eps)(lambda - 1) from perturbing the first factor of lambda(lambda-1)
        eps = 0.25
        u = FactorSpaceElem(LAM_LAM1, 0j, (Poly((eps + 0j,)), Poly((0j,))))
        got = F_apply(LAM_LAM1, u)
        expect = Poly((eps + 0j, 1 + 0j)) * Poly((-1 + 0j, 1 + 0j))
        assert np.allclose(got.array(), expect.padded(got.degree_bound).array())

    def test_leading_coefficient_perturbation(self):
        delta = 0.1 + 0.2j
        u = FactorSpaceElem(LAM2, delta, (Poly.zero(1),))
        got = F_apply(LAM2, u)
        assert np.allclose(got.array(), [(0j), 0j, 1 + delta])

    def test_wrong_base_rejected(self):
        u = FactorSpaceElem.zero(LAM2)
        with pytest.raises(ValueError):
            F_apply(LAM_LAM1, u)


class TestFDeriv0:
    def test_linearity_at_zero(self):
        v = F_deriv0(LAM2, FactorSpaceElem.zero(LAM2))
        assert v.coeff_norm() < 1e-15

    def test_cofactor_of_single_root(self):
        # base lambda^2: cofactor is 1, so w = (0, [1]) maps to the constant 1
        w = FactorSpaceElem(LAM2, 0j, (Poly((1 + 0j,)),))
        assert np.allclose(F_deriv0(LAM2, w).array(), [1, 0, 0])

    def test_cofactor_of_two_roots(self):
        # base lambda(lambda-1): perturbing the root-0 factor multiplies by (lambda - 1)
        w = FactorSpaceElem(LAM_LAM1, 0j, (Poly((1 + 0j,)), Poly((0j,))))
        assert np.allclose(F_deriv0(LAM_LAM1, w).array(), [-1, 1, 0])


    def test_matches_the_cofactor_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            base = random_cluster(rng)
            w = random_elem(base, rng)
            got, ref = F_deriv0(base, w), _reference_F_deriv0(base, w)
            assert got.degree_bound == ref.degree_bound == base.degree()
            assert np.linalg.norm(got.array() - ref.array()) <= 1e-12 * max(1.0, ref.coeff_norm())


class TestFDeriv0Inv:
    def test_base_polynomial_is_leading_coordinate(self):
        w = F_deriv0_inv(LAM2, LAM2.as_poly())
        assert w.mu0 == pytest.approx(1)
        assert all(q.coeff_norm() < 1e-12 for q in w.factors)

    def test_zero_maps_to_zero(self):
        w = F_deriv0_inv(LAM2, Poly.zero(2))
        assert abs(w.mu0) < 1e-15

    def test_linear_polynomial_coordinates(self):
        # base lambda^2, v = lambda: omega_11 = 1, omega_12 = 0
        w = F_deriv0_inv(LAM2, Poly((0j, 1 + 0j, 0j)))
        coords = T_apply(LAM2, w)
        assert np.allclose(coords, [0, 1, 0])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = random_cluster(rng)
            w = random_elem(base, rng)
            v = F_deriv0(base, w)
            back = F_deriv0_inv(base, v)
            assert np.linalg.norm(T_apply(base, back) - T_apply(base, w)) < 1e-9


class TestTaylorIso:
    def test_zero(self):
        assert np.allclose(T_apply(LAM2, FactorSpaceElem.zero(LAM2)), 0)

    def test_coordinates_at_zero_base(self):
        # u_1 = 2 lambda + 3 at base lambda^2: mu_11 = tau_1 = 2, mu_12 = tau_0 = 3
        u = FactorSpaceElem(LAM2, 0j, (Poly((3 + 0j, 2 + 0j)),))
        assert np.allclose(T_apply(LAM2, u), [0, 2, 3])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            base = random_cluster(rng)
            u = random_elem(base, rng)
            coords = T_apply(base, u)
            back = T_apply(base, T_inverse(base, coords))
            assert np.linalg.norm(back - coords) < 1e-12 * max(1, np.linalg.norm(coords))


class TestInnerProducts:
    def test_base_polynomial_has_unit_norm(self):
        assert pn_inner(LAM2, LAM2.as_poly(), LAM2.as_poly()) == pytest.approx(1)

    def test_positive_definite(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            base = random_cluster(rng)
            n = base.degree()
            z = Poly(tuple(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)))
            val = pn_inner(base, z, z)
            assert val.real > 0 and abs(val.imag) < 1e-10 * val.real

    def test_distinct_coordinate_slots_are_orthogonal(self):
        assert abs(pn_inner(LAM2, Poly((0j, 1 + 0j, 0j)), Poly((1 + 0j, 0j, 0j)))) < 1e-12

    def test_adjoint_identity(self):
        # <F'(0) w, v>_(P, base) = <w, F'(0)^{-1} v>_(S, base)
        rng = np.random.default_rng(5)
        for _ in range(15):
            base = random_cluster(rng)
            n = base.degree()
            w = random_elem(base, rng)
            v = Poly(tuple(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)))
            lhs = pn_inner(base, F_deriv0(base, w), v)
            rhs = sp_inner(w, F_deriv0_inv(base, v))
            assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))

    def test_matches_the_factor_space_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            base = random_cluster(rng)
            z, v = random_poly(rng, base.degree()), random_poly(rng, base.degree())
            ref = _reference_pn_inner(base, z, v)
            assert abs(pn_inner(base, z, v) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_taylor_map_is_an_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            base = random_cluster(rng)
            u, w = random_elem(base, rng), random_elem(base, rng)
            direct = sp_inner(u, w)
            coords = np.vdot(T_apply(base, u), T_apply(base, w))
            assert abs(direct - coords) < 1e-12 * max(1, abs(direct))


class TestLocalDiffeomorphism:
    def test_first_order_agreement_across_scales(self):
        # F^{-1}'(F(s u) - p) = s u + O(s^2): the quadratic constant is stable
        rng = np.random.default_rng(7)
        for _ in range(10):
            base = random_cluster(rng)
            u = random_elem(base, rng, scale=1.0)
            norm_u = np.linalg.norm(T_apply(base, u))
            if norm_u == 0:
                continue
            consts = []
            for s in (1e-2 / norm_u, 1e-3 / norm_u):
                su = T_inverse(base, s * T_apply(base, u))
                diff = F_apply(base, su) - base.as_poly().padded(base.degree())
                got = T_apply(base, F_deriv0_inv(base, diff))
                err = np.linalg.norm(got - s * T_apply(base, u))
                consts.append(err / s ** 2)
            assert consts[1] <= 3 * consts[0] + 1e-6
