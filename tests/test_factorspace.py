"""The factor space in Taylor coordinates: F'(0) is the coordinate matrix
and its inverse the coordinate solve.  The references rebuild the factor
polynomials from the coordinates with ``cpoly.elementary`` and read
coordinates off polynomials with ``charpoly_lemmas.taylor_coeff``."""

import numpy as np
import pytest

from specmax.cpoly import Poly, RootCluster, elementary
from specmax.generators import builtin
from specmax.polysub import _coordinate_matrix, _solve_coords, rsd_f_membership

from charpoly_lemmas import taylor_coeff

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


def taylor_coords(base, mu0, factors):
    """[mu0, (mu_j1 .. mu_jn_j)_j] with mu_js = tau_(n_j - s, lam_j)(u_j)
    for factor perturbations u_j of degree <= n_j - 1."""
    out = [complex(mu0)]
    for lam, n_j, q in zip(base.roots, base.mults, factors):
        q = q.padded(n_j - 1)
        out.extend(taylor_coeff(q, n_j - s, lam) for s in range(1, n_j + 1))
    return np.asarray(out, dtype=complex)


def factor_polys(base, coords):
    """``(mu0, factors)`` rebuilt from Taylor coordinates:
    u_j = sum_s mu_js (lambda - lam_j)**(n_j - s)."""
    factors = []
    pos = 1
    for lam, n_j in zip(base.roots, base.mults):
        q = Poly.zero(n_j - 1)
        for s in range(1, n_j + 1):
            q = q + coords[pos] * elementary(n_j - s, lam, degree_bound=n_j - 1)
            pos += 1
        factors.append(q)
    return coords[0], factors


def random_elem(base, rng, scale=1.0):
    """Taylor coordinates of a random element: one random polynomial of
    degree <= n_j - 1 per root, then mu0."""
    factors = tuple(
        Poly(tuple(scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))))
        for n in base.mults
    )
    return taylor_coords(base, scale * complex(rng.standard_normal(), rng.standard_normal()),
                         factors)


def deriv0(base, coords):
    """F'(0) applied to a Taylor coordinate vector."""
    return Poly(tuple(_coordinate_matrix(base) @ np.asarray(coords, dtype=complex)))


def _reference_F_deriv0(base, w):
    """omega0 * p + sum_j r_j * w_j as a cofactor loop."""
    ntilde = base.degree()
    mu0, factors = factor_polys(base, w)
    out = (mu0 * base.as_poly()).padded(ntilde)
    for j, w_j in enumerate(factors):
        r_j = Poly.one()
        for k, (lam, n_k) in enumerate(zip(base.roots, base.mults)):
            if k != j:
                r_j = r_j * elementary(n_k, lam)
        out = out + (r_j * w_j).padded(ntilde)
    return out


def _reference_F_apply(base, u):
    """(1 + mu0) * prod_j ((lambda - lam_j)**n_j + u_j): the factored
    product itself, which equals p at u = 0."""
    mu0, factors = factor_polys(base, u)
    p = Poly((1.0 + mu0,))
    for (lam, n_j), q in zip(zip(base.roots, base.mults), factors):
        p = p * (elementary(n_j, lam) + q.padded(n_j))
    return p


def _reference_pn_inner(base, z, v):
    """<z, v> through the factor polynomials: rebuild each solve as factor
    polynomials, then take the inner product of their Taylor coordinates."""
    wz, wv = (taylor_coords(base, *factor_polys(base, _solve_coords(base, p))) for p in (z, v))
    return complex(np.vdot(wz, wv))


def _pn_inner(base, z, v):
    """The inner product on polynomials pulled back through F'(0): vdot of
    their Taylor coordinates."""
    return complex(np.vdot(_solve_coords(base, z), _solve_coords(base, v)))


def random_poly(rng, degree_bound):
    return Poly(tuple(rng.standard_normal(degree_bound + 1)
                      + 1j * rng.standard_normal(degree_bound + 1)))


class TestFApply:
    """The factored product F against F'(0) on perturbations where F is
    affine, so F(u) = p + F'(0) u holds exactly."""

    def test_zero_perturbation_recovers_base(self):
        u = np.zeros(3, dtype=complex)
        assert np.allclose(_reference_F_apply(LAM2, u).array(), LAM2.as_poly().array())
        assert deriv0(LAM2, u).coeff_norm() == 0

    def test_single_factor_shift(self):
        # (lambda + eps)(lambda - 1) from perturbing the first factor of lambda(lambda-1)
        eps = 0.25
        u = taylor_coords(LAM_LAM1, 0j, (Poly((eps + 0j,)), Poly((0j,))))
        expect = Poly((eps + 0j, 1 + 0j)) * Poly((-1 + 0j, 1 + 0j))
        got = _reference_F_apply(LAM_LAM1, u)
        assert np.allclose(got.array(), expect.padded(got.degree_bound).array())
        got = LAM_LAM1.as_poly() + deriv0(LAM_LAM1, u)
        assert np.allclose(got.array(), expect.padded(got.degree_bound).array())

    def test_leading_coefficient_perturbation(self):
        delta = 0.1 + 0.2j
        u = taylor_coords(LAM2, delta, (Poly.zero(1),))
        assert np.allclose(_reference_F_apply(LAM2, u).array(), [(0j), 0j, 1 + delta])
        assert np.allclose((LAM2.as_poly() + deriv0(LAM2, u)).array(), [(0j), 0j, 1 + delta])

    def test_wrong_base_rejected(self):
        # coordinates of lambda^3's space do not fit lambda (lambda - 1)'s
        # F'(0), nor does a cubic its coordinate solve
        u = np.zeros(4, dtype=complex)
        with pytest.raises(ValueError):
            deriv0(LAM_LAM1, u)
        with pytest.raises(ValueError, match="degree of v exceeds 2"):
            _solve_coords(LAM_LAM1, deriv0(RootCluster((0j,), (3,)), [1, 0, 0, 0]))


class TestFDeriv0:
    def test_linearity_at_zero(self):
        v = deriv0(LAM2, np.zeros(3, dtype=complex))
        assert v.coeff_norm() < 1e-15

    def test_cofactor_of_single_root(self):
        # base lambda^2: cofactor is 1, so w = (0, [1]) maps to the constant 1
        w = taylor_coords(LAM2, 0j, (Poly((1 + 0j,)),))
        assert np.allclose(deriv0(LAM2, w).array(), [1, 0, 0])

    def test_cofactor_of_two_roots(self):
        # base lambda(lambda-1): perturbing the root-0 factor multiplies by (lambda - 1)
        w = taylor_coords(LAM_LAM1, 0j, (Poly((1 + 0j,)), Poly((0j,))))
        assert np.allclose(deriv0(LAM_LAM1, w).array(), [-1, 1, 0])


    def test_matches_the_cofactor_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            base = random_cluster(rng)
            w = random_elem(base, rng)
            got, ref = deriv0(base, w), _reference_F_deriv0(base, w)
            assert got.degree_bound == ref.degree_bound == base.degree()
            assert np.linalg.norm(got.array() - ref.array()) <= 1e-12 * max(1.0, ref.coeff_norm())


class TestFDeriv0Inv:
    """F'(0) inverted by the coordinate solve."""

    def test_base_polynomial_is_leading_coordinate(self):
        coords = _solve_coords(LAM2, LAM2.as_poly())
        assert coords[0] == pytest.approx(1)
        assert np.linalg.norm(coords[1:]) < 1e-12

    def test_zero_maps_to_zero(self):
        assert np.linalg.norm(_solve_coords(LAM2, Poly.zero(2))) < 1e-15

    def test_linear_polynomial_coordinates(self):
        # base lambda^2, v = lambda: omega_11 = 1, omega_12 = 0
        coords = _solve_coords(LAM2, Poly((0j, 1 + 0j, 0j)))
        assert np.allclose(coords, [0, 1, 0])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = random_cluster(rng)
            w = random_elem(base, rng)
            back = _solve_coords(base, deriv0(base, w))
            assert np.linalg.norm(back - w) < 1e-9


def _reference_coordinate_matrix(base):
    """The coordinate matrix as Poly products with one cofactor per root,
    as it was built before the power tables."""
    ntilde = base.degree()
    cols = [base.as_poly().padded(ntilde).array()]
    for j, (lam, n_j) in enumerate(zip(base.roots, base.mults)):
        r_j = Poly.one()
        for k, (lam_k, n_k) in enumerate(zip(base.roots, base.mults)):
            if k != j:
                r_j = r_j * elementary(n_k, lam_k)
        for s in range(1, n_j + 1):
            cols.append((r_j * elementary(n_j - s, lam)).padded(ntilde).array())
    return np.stack(cols, axis=1)


def cluster_with_signed_zeros(rng, max_roots=4, max_mult=4):
    """Up to max_roots roots at least 0.5 apart; each part is replaced by
    +0.0 or -0.0 with probability 1/4."""
    m = rng.integers(1, max_roots + 1)
    pts = []
    while len(pts) < m:
        x, y = (rng.choice([0.0, -0.0]) if rng.uniform() < 0.25 else rng.uniform(-2, 2)
                for _ in range(2))
        if all(abs(complex(x, y) - w) > 0.5 for w in pts):
            pts.append(complex(x, y))
    return RootCluster.sorted((z, int(rng.integers(1, max_mult + 1))) for z in pts)


class TestCoordinateMatrix:
    def test_bytes_match_the_poly_product_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            base = cluster_with_signed_zeros(rng)
            M = _coordinate_matrix(base)
            assert M.tobytes() == _reference_coordinate_matrix(base).tobytes(), base
        # up to 6 roots: the more roots, the more prefix products the cofactors share
        for _ in range(200):
            base = cluster_with_signed_zeros(rng, max_roots=6, max_mult=3)
            M = _coordinate_matrix(base)
            assert M.tobytes() == _reference_coordinate_matrix(base).tobytes(), base

    def test_solve_recovers_the_coordinates(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            base = cluster_with_signed_zeros(rng)
            c = random_poly(rng, base.degree()).array()
            back = _solve_coords(base, Poly(tuple(_coordinate_matrix(base) @ c)))
            assert np.linalg.norm(back - c) <= 1e-7 * np.linalg.norm(c)

    @pytest.mark.parametrize("base", [RootCluster((1, np.inf), (1, 2)),
                                      RootCluster((0j, complex(1, np.nan)), (1, 2))],
                             ids=["inf", "nan"])
    def test_non_finite_roots_are_rejected(self, base):
        v = Poly.zero(base.degree())
        with pytest.raises(ValueError, match="coefficients must be finite"):
            _solve_coords(base, v)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            rsd_f_membership(base, builtin("abscissa"), v)


class TestTaylorIso:
    """Factor polynomials and Taylor coordinates: taylor_coeff one way,
    elementary the other, and the coordinate solve of r_j u_j."""

    def test_zero(self):
        assert np.allclose(taylor_coords(LAM2, 0j, (Poly.zero(1),)), 0)

    def test_coordinates_at_zero_base(self):
        # u_1 = 2 lambda + 3 at base lambda^2: mu_11 = tau_1 = 2, mu_12 = tau_0 = 3
        assert np.allclose(taylor_coords(LAM2, 0j, (Poly((3 + 0j, 2 + 0j)),)), [0, 2, 3])
        # the cofactor of the one root is 1, so F'(0) (0, u_1) = u_1
        assert np.allclose(_solve_coords(LAM2, Poly((3 + 0j, 2 + 0j, 0j))), [0, 2, 3])

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            base = random_cluster(rng)
            coords = random_elem(base, rng)
            back = taylor_coords(base, *factor_polys(base, coords))
            assert np.linalg.norm(back - coords) < 1e-12 * max(1, np.linalg.norm(coords))


class TestInnerProducts:
    """The inner products induced by Taylor coordinates: vdot of the
    coordinates from the solve (polynomials) or of the elements themselves."""

    def test_base_polynomial_has_unit_norm(self):
        assert _pn_inner(LAM2, LAM2.as_poly(), LAM2.as_poly()) == pytest.approx(1)

    def test_positive_definite(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            base = random_cluster(rng)
            n = base.degree()
            z = Poly(tuple(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)))
            val = _pn_inner(base, z, z)
            assert val.real > 0 and abs(val.imag) < 1e-10 * val.real

    def test_distinct_coordinate_slots_are_orthogonal(self):
        assert abs(_pn_inner(LAM2, Poly((0j, 1 + 0j, 0j)), Poly((1 + 0j, 0j, 0j)))) < 1e-12

    def test_adjoint_identity(self):
        # <F'(0) w, v>_(P, base) = <w, F'(0)^{-1} v>_(S, base)
        rng = np.random.default_rng(5)
        for _ in range(15):
            base = random_cluster(rng)
            n = base.degree()
            w = random_elem(base, rng)
            v = Poly(tuple(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)))
            lhs = _pn_inner(base, deriv0(base, w), v)
            rhs = complex(np.vdot(w, _solve_coords(base, v)))
            assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))

    def test_matches_the_factor_space_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            base = random_cluster(rng)
            z, v = random_poly(rng, base.degree()), random_poly(rng, base.degree())
            ref = _reference_pn_inner(base, z, v)
            assert abs(_pn_inner(base, z, v) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_taylor_map_is_an_isometry(self):
        # F'(0) carries the Taylor inner product of elements onto the
        # pulled-back inner product of polynomials
        rng = np.random.default_rng(6)
        for _ in range(10):
            base = random_cluster(rng)
            u, w = random_elem(base, rng), random_elem(base, rng)
            direct = _pn_inner(base, deriv0(base, u), deriv0(base, w))
            coords = np.vdot(u, w)
            assert abs(direct - coords) < 1e-12 * max(1, abs(direct))


class TestLocalDiffeomorphism:
    def test_first_order_agreement_across_scales(self):
        # F^{-1}'(F(s u) - p) = s u + O(s^2): the quadratic constant is stable
        rng = np.random.default_rng(7)
        for _ in range(10):
            base = random_cluster(rng)
            u = random_elem(base, rng, scale=1.0)
            norm_u = np.linalg.norm(u)
            if norm_u == 0:
                continue
            consts = []
            for s in (1e-2 / norm_u, 1e-3 / norm_u):
                diff = _reference_F_apply(base, s * u) - base.as_poly().padded(base.degree())
                got = _solve_coords(base, diff)
                err = np.linalg.norm(got - s * u)
                consts.append(err / s ** 2)
            assert consts[1] <= 3 * consts[0] + 1e-6
