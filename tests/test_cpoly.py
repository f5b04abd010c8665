import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmax import cpoly
from specmax.cpoly import (
    DomainError,
    Poly,
    _cluster_rows,
    RootCluster,
    _safe_norm,
    active_roots,
    elementary,
    lex_key,
    poly_from_json,
    poly_root_max,
    roots,
)
from specmax.generators import builtin, make_generator
from specmax.jordan import JordanSpec
from specmax.oracles import RADII, _structured_probes, subgradient_inequality_suite
from specmax.specsub import rsd_sample, spectral_max

from charpoly_lemmas import taylor_coeff

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
cplx = st.builds(complex, finite, finite)


class TestLexOrder:
    # lex_key(a) <= lex_key(b) is the lexicographic order on C
    def test_real_part_decides(self):
        assert lex_key(0) <= lex_key(1 + 1j)

    def test_imag_breaks_ties(self):
        assert not lex_key(1) <= lex_key(1 - 1j)

    def test_reflexive(self):
        assert lex_key(2 + 3j) <= lex_key(2 + 3j)

    @given(cplx, cplx)
    def test_total(self, a, b):
        assert lex_key(a) <= lex_key(b) or lex_key(b) <= lex_key(a)

    @given(cplx, cplx)
    def test_antisymmetric(self, a, b):
        if lex_key(a) <= lex_key(b) and lex_key(b) <= lex_key(a):
            assert a == b

    @given(cplx, cplx, cplx)
    def test_transitive(self, a, b, c):
        if lex_key(a) <= lex_key(b) and lex_key(b) <= lex_key(c):
            assert lex_key(a) <= lex_key(c)


class TestElementary:
    def test_degree_zero_is_one(self):
        assert elementary(0, 3 + 4j).coeffs == (1 + 0j,)

    def test_square_at_one(self):
        assert elementary(2, 1.0).coeffs == (1 + 0j, -2 + 0j, 1 + 0j)

    def test_cube_at_i_matches_repeated_multiplication(self):
        # oracle: repeated convolution with (lambda - i)
        acc = np.array([1 + 0j])
        for _ in range(3):
            acc = np.convolve(acc, np.array([-1j, 1 + 0j]))
        got = np.asarray(elementary(3, 1j).coeffs)
        assert np.allclose(got, acc, atol=0)
        assert np.allclose(got, [1j, -3, -3j, 1])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            elementary(-1, 0)


class TestTaylor:
    def test_leading_coefficient_of_own_monomial(self):
        p = elementary(4, 2 - 1j)
        assert taylor_coeff(p, 4, 2 - 1j) == pytest.approx(1)

    def test_lower_orders_vanish_at_the_root(self):
        p = elementary(4, 2 - 1j)
        for k in range(4):
            assert abs(taylor_coeff(p, k, 2 - 1j)) < 1e-12

    def test_first_derivative_example(self):
        # p = lambda^2 + 1, p'(1) = 2
        assert taylor_coeff(Poly((1 + 0j, 0j, 1 + 0j)), 1, 1.0) == pytest.approx(2)

    def test_out_of_range_order(self):
        with pytest.raises(ValueError):
            taylor_coeff(Poly((1 + 0j,)), 2, 0)

    def test_reconstruction_from_taylor_coefficients(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            deg = rng.integers(1, 9)
            p = Poly(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
            lam0 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            rebuilt = Poly((0j,) * (deg + 1))
            for k in range(deg + 1):
                rebuilt = rebuilt + taylor_coeff(p, k, lam0) * elementary(k, lam0).padded(deg)
            assert (np.linalg.norm(rebuilt.array() - p.array())
                    < 1e-12 * max(1, np.linalg.norm(p.array())))


class TestSafeNorm:
    @pytest.mark.parametrize("a", [
        np.arange(6.0).reshape(2, 3), np.array([[1 + 2j, 3e150], [0, -4j]]),
        np.array([1e-300 + 0j, 0]), np.zeros((0, 3)), np.array([np.nan, 1.0]),
    ])
    def test_numpy_norm_where_it_is_finite_or_the_entries_are_not(self, a):
        assert np.float64(_safe_norm(a)).tobytes() == np.float64(np.linalg.norm(a)).tobytes()

    def test_numpy_norm_bits_without_a_warnings_state_on_ordinary_input(self, monkeypatch):
        rng = np.random.default_rng(34)
        arrays = []
        for k in range(400):
            shape = [(6, 6), (9,), (3, 4), (1,)][k % 4]
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150)
            arrays.append(a + 1j * rng.standard_normal(shape) if k % 2 else a)
        arrays.append(np.array([[7e153 + 7e153j]]))  # |a|^2 just below _NORM_SAFE^2
        states = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **k: states.append(k) or errstate(**k))
        for a in arrays:
            assert np.float64(_safe_norm(a)).tobytes() == np.float64(np.linalg.norm(a)).tobytes()
        assert states == []
        assert _safe_norm(np.array([3e200, 4e200j])) == pytest.approx(5e200, rel=1e-15)
        assert states == [{"over": "ignore"}]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a,expected", [
        (np.array([[3e200, 0.0], [4e200, 0.0]]), 5e200),
        (np.array([[3e200j, 0.0], [0.0, -4e200]]).T, 5e200),  # not contiguous
        (np.array([1e308 + 1e308j, 1e308]), math.sqrt(3) * 1e308),
        (np.array([1.5e308 + 1.5e308j]), math.inf),
        (np.array([np.inf, 1e200]), math.inf),
    ])
    def test_finite_wherever_representable(self, a, expected):
        assert _safe_norm(a) == pytest.approx(expected, rel=1e-15)


class TestRoots:
    def test_perfect_square(self):
        c = roots(Poly((1 + 0j, -2 + 0j, 1 + 0j)), cluster_tol=1e-6)
        assert c.mults == (2,)
        assert abs(c.roots[0] - 1) < 1e-6

    def test_two_simple_roots_in_lex_order(self):
        c = roots(Poly((0j, 1 + 0j, 1 + 0j)), cluster_tol=1e-6)  # lambda(lambda+1)
        assert c.mults == (1, 1)
        assert abs(c.roots[0] + 1) < 1e-12 and abs(c.roots[1]) < 1e-12

    def test_perturbed_coefficients_cluster(self):
        # (lambda-1)^2 (lambda+1) with a 1e-12 coefficient perturbation
        p = RootCluster((-1 + 0j, 1 + 0j), (1, 2)).as_poly()
        p = p + Poly((1e-12, 0j, 0j, 0j))
        c = roots(p, cluster_tol=1e-5)
        assert c.mults == (1, 2)
        assert abs(c.roots[0] + 1) < 1e-5 and abs(c.roots[1] - 1) < 1e-5

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            roots(Poly((0j,) * 4))

    @pytest.mark.filterwarnings("error")
    def test_monic_coefficients_that_overflow_are_refused(self):
        # 1e100 + 1e-250 lambda: np.roots would divide its way to 1e350
        with pytest.raises(ValueError, match=r"monic coefficients of p overflow: powers \[0\]"):
            roots(Poly((1e100, 1e-250)))
        with pytest.raises(ValueError, match=r"powers \[0, 2\]"):
            roots(Poly((1e300, 0.0, -1e300, 1e-200)))
        # a subnormal leading coefficient overflows every other one
        with pytest.raises(ValueError, match=r"powers \[0\]"):
            roots(Poly((1.0, 5e-324)))

    @pytest.mark.filterwarnings("error")
    def test_monic_coefficients_below_the_overflow_are_read(self):
        # 1e100 + 1e-200 lambda has the finite monic form 1e300 + lambda
        c = roots(Poly((1e100, 1e-200)))
        assert c.mults == (1,) and c.roots[0] == pytest.approx(-1e300)

    def test_roundtrip_with_separated_clusters(self):
        rng = np.random.default_rng(1)
        tol = 1e-3
        for _ in range(20):
            m = rng.integers(1, 4)
            pts = []
            while len(pts) < m:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(z - w) >= 10 * tol for w in pts):
                    pts.append(z)
            mults = [int(rng.integers(1, 4)) for _ in pts]
            cluster = RootCluster.sorted(zip(pts, mults))
            back = roots(cluster.as_poly(), cluster_tol=tol)
            assert back.mults == cluster.mults
            assert all(abs(a - b) < tol for a, b in zip(back.roots, cluster.roots))


def _value_and_active(p, f):
    """poly_root_max of p and the active roots of the calculus, both read
    off the clusters of roots(p)."""
    return poly_root_max(p, f), set(active_roots(f, roots(p).roots)[1])


class TestActiveSet:
    def test_abscissa_picks_the_right_root(self):
        p = RootCluster((-1 + 0j, 1 + 0j), (1, 1)).as_poly()
        value, idx = _value_and_active(p, builtin("abscissa"))
        assert value == pytest.approx(1.0)
        assert idx == {1}

    def test_modulus_ties_both_roots(self):
        p = RootCluster((-1 + 0j, 1 + 0j), (1, 1)).as_poly()
        value, idx = _value_and_active(p, builtin("radius"))
        assert value == pytest.approx(1.0)
        assert idx == {0, 1}

    def test_half_squared_modulus(self):
        # lambda^2 (lambda - 1/2), f = |.|^2/2: value 1/8 at the root 1/2
        p = RootCluster((0j, 0.5 + 0j), (2, 1)).as_poly()
        value, idx = _value_and_active(p, builtin("radius2"))
        assert value == pytest.approx(1 / 8)
        assert idx == {1}

    def test_out_of_domain_root_flags_inf(self):
        # the root max reads +inf; the calculus refuses the root off dom f
        def partial(z):
            return math.inf if z.real < 0 else z.real

        p = RootCluster((-1 + 0j, 1 + 0j), (1, 1)).as_poly()
        assert math.isinf(poly_root_max(p, partial))
        with pytest.raises(DomainError):
            active_roots(partial, roots(p).roots)


class TestPolyRootMax:
    def test_pure_power_abscissa(self):
        assert poly_root_max(Poly((0j, 0j, 0j, 1 + 0j)), builtin("abscissa")) == pytest.approx(0)

    def test_two_active_modulus_fixture(self):
        # char poly of the 3x3 two-active fixture: (lambda-1)^2 (lambda+1)
        p = RootCluster((-1 + 0j, 1 + 0j), (1, 2)).as_poly()
        assert poly_root_max(p, builtin("radius")) == pytest.approx(1.0)

    def test_direct_modulus_evaluation(self):
        p = RootCluster((-1 + 0j, 2j), (1, 1)).as_poly()
        assert poly_root_max(p, builtin("radius")) == pytest.approx(2.0)

    @given(st.floats(min_value=0.1, max_value=10), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_nonzero_scaling(self, mag, ang):
        p = RootCluster((-1 + 0j, 0.5 + 0.5j), (1, 2)).as_poly()
        scale = mag * complex(math.cos(ang), math.sin(ang))
        a = poly_root_max(p, builtin("radius"))
        b = poly_root_max(scale * p, builtin("radius"))
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def test_json_roundtrip():
    p = Poly((1 + 2j, 0j, -3.5 + 0j))
    assert poly_from_json([[c.real, c.imag] for c in p.coeffs]).coeffs == p.coeffs
    with pytest.raises(ValueError):
        poly_from_json([[1.0], [2.0]])


# -- the evaluator against the per-point reference -------------------------------


def _reference_cluster_points(points, tol):
    """Complete linkage recomputing every candidate union's diameter."""
    clusters = [[p] for p in points]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                diam = max(
                    abs(a - b) for a in clusters[i] + clusters[j] for b in clusters[i] + clusters[j]
                )
                if diam <= tol and (best is None or diam < best[0]):
                    best = (diam, i, j)
        if best is None:
            break
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return clusters


def _reference_cluster_rows(points, tol):
    """One (means, multiplicities) pair of lists per row."""
    points = np.asarray(points)
    k = points.shape[-1]
    i, j = np.triu_indices(k, 1)
    close = np.abs(points[:, i] - points[:, j]).min(axis=1, initial=np.inf) <= tol
    out = []
    for row, merge in zip(points.tolist(), close.tolist()):
        if merge:
            groups = _reference_cluster_points(row, tol)
            out.append(([sum(g) / len(g) for g in groups], [len(g) for g in groups]))
        else:
            out.append((row, [1] * k))
    return out


def _reference_spectral_max(X, f, cluster_tol=1e-6):
    """One Python call of f per cluster mean, the max taken in Python."""
    X = np.asarray(X, dtype=complex)
    n = X.shape[-1]
    value_of = f.value if hasattr(f, "value") else f
    rows = _reference_cluster_rows(np.linalg.eigvals(X).reshape(-1, n), cluster_tol)
    return np.array([max(float(value_of(z)) for z in means)
                     for means, _ in rows]).reshape(X.shape[:-2])


def _planted_rows(rng, rows, k, tol):
    """Rows of k points holding clusters of 2-4 points at spreads from 1e-9
    to 3e-7 (so within tol = 1e-6), and chains whose consecutive points lie
    within tol while their union does not."""
    out = np.empty((rows, k), dtype=complex)
    for r in range(rows):
        pts = []
        while len(pts) < k:
            center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if r % 3 == 2:  # a chain with steps 0.6 tol .. 0.95 tol
                step = tol * rng.uniform(0.6, 0.95)
                angle = np.exp(1j * rng.uniform(0, 2 * np.pi))
                size = min(k - len(pts), int(rng.integers(3, 6)))
                pts += [center + s * step * angle for s in range(size)]
            else:
                size = min(k - len(pts), int(rng.integers(1, 5)))
                spread = 10 ** rng.uniform(-9, math.log10(3e-7))
                pts += [center + spread * complex(*rng.standard_normal(2)) / 3
                        for _ in range(size)]
        out[r] = rng.permutation(pts)
    return out


class TestClusterRowsAgainstReference:
    TOL = 1e-6

    def _check(self, points, tol=TOL):
        means, mults = _cluster_rows(points, tol)
        assert means.shape == mults.shape == np.shape(points)
        merged = 0
        for r, (ref_means, ref_mults) in enumerate(_reference_cluster_rows(points, tol)):
            g = len(ref_mults)
            assert mults[r, :g].tolist() == ref_mults
            assert not mults[r, g:].any()
            # the padding repeats the first mean; nan parts (of inf means) match too
            np.testing.assert_array_equal(means[r, g:], means[r, 0])
            _assert_same_bits(means[r, :g], ref_means)
            merged += g < points.shape[1]
        return merged

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_planted_clusters_and_chains(self, k):
        rng = np.random.default_rng(20 + k)
        points = _planted_rows(rng, 60, k, self.TOL)
        assert self._check(points) >= 20

    def test_chain_is_split_by_complete_linkage(self):
        # consecutive gaps within tol, the whole chain not: two clusters
        row = np.array([[0.0, 0.6e-6, 1.2e-6, 1.8e-6]], dtype=complex)
        means, mults = _cluster_rows(row, self.TOL)
        assert mults[0].tolist() == [2, 2, 0, 0]
        self._check(row)

    def test_equal_distance_ties(self):
        # dyadic points, so equal distances are exactly equal in floating point
        h = 2.0 ** -22
        rows = np.array([
            [0.0, h, 2 * h, 3 * h],
            [3 * h, 2 * h, h, 0.0],
            [0.0, h, 1j * h, (1 + 1j) * h],
            [h, -h, 1j * h, -1j * h],
        ], dtype=complex)
        tol = 2.0 ** -21
        self._check(rows, tol)
        means, mults = _cluster_rows(rows[:1], tol)
        assert mults[0].tolist() == [2, 2, 0, 0]  # the first tied pair merges first

    def test_single_point_rows(self):
        rows = np.array([[1 + 2j], [0j], [-3.5 + 0j]])
        means, mults = _cluster_rows(rows, self.TOL)
        assert mults.tolist() == [[1], [1], [1]]
        assert np.array_equal(means, rows)
        self._check(rows)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_inf_values(self):
        inf = math.inf
        rows = np.array([
            [complex(inf, 0), 1.0, 1.0 + 1e-9, 2.0],
            [complex(inf, 0), complex(inf, 0), 1.0, 1.0 + 1e-9],
            [complex(-inf, 0), complex(inf, 0), 0.0, 1e-8],
            [complex(0, inf), 1.0, 2.0, 3.0],
        ], dtype=complex)
        self._check(rows)
        _, mults = _cluster_rows(rows, self.TOL)
        assert mults[0].tolist() == [1, 2, 1, 0]


@pytest.fixture
def linkage_calls(monkeypatch):
    """The rows that reach :func:`cpoly._complete_linkage`, one list per call."""
    calls = []
    original = cpoly._complete_linkage

    def counted(row, tol):
        calls.append(row)
        return original(row, tol)

    monkeypatch.setattr(cpoly, "_complete_linkage", counted)
    return calls


def _assert_same_bits(a, b):
    """Equal arrays, NaN where NaN, and the same sign on every zero part."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    np.testing.assert_array_equal(a, b)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(a)), np.signbit(part(b)))


def _assert_reference_bits(rows, tol=1e-6):
    """``_cluster_rows`` equals the reference complete linkage bit for bit;
    returns its ``(means, mults)``."""
    means, mults = _cluster_rows(rows, tol)
    for r, (ref_means, ref_mults) in enumerate(_reference_cluster_rows(rows, tol)):
        g = len(ref_mults)
        np.testing.assert_array_equal(mults[r], ref_mults + [0] * (rows.shape[1] - g))
        _assert_same_bits(means[r, :g], ref_means)
        _assert_same_bits(means[r, g:], np.full(rows.shape[1] - g, means[r, 0]))
    return means, mults


class TestExactRepeats:
    """A close row whose every pair within tol is an exact repeat is grouped
    by equality, with no linkage, and reads as complete linkage would."""

    def test_means_that_round_away_from_the_value(self, linkage_calls):
        z, w, u = 0.1 + 0.7j, -0.3 + 1.1j, 0.7 - 0.1j
        for v, m in ((z, 3), (w, 6), (u, 3)):
            assert sum([v] * m) / m != v  # the in-order mean is not the value
        rows = np.array([
            [2.0, z, w, z, w, z],
            [w, w, w, w, w, w],
            [u, -u, u, -u, u, 1.0],
        ], dtype=complex)
        means, mults = _assert_reference_bits(rows)
        assert mults.tolist() == [[1, 3, 2, 0, 0, 0], [6, 0, 0, 0, 0, 0], [3, 2, 1, 0, 0, 0]]
        assert means[0, 1] == sum([z] * 3) / 3 != z
        assert linkage_calls == []

    def test_signed_zero_parts(self, linkage_calls):
        rows = np.array([
            [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 1.0, complex(1.0, -0.0)],
            [complex(-0.0, -0.0), complex(-0.0, -0.0), 3.0, complex(-2.0, -0.0), -2.0],
        ], dtype=complex)
        _, mults = _assert_reference_bits(rows)
        assert mults.tolist() == [[3, 2, 0, 0, 0], [2, 1, 2, 0, 0]]
        assert linkage_calls == []

    def test_a_nonzero_close_pair_still_links(self, linkage_calls):
        # an exact pair, and a pair 1e-8 apart: the row goes through linkage
        rows = np.array([[1.0, 1.0, 3.0, 3.0 + 1e-8j, 5.0],
                         [0.5, 0.5, 2.0, 4.0, 2.0]], dtype=complex)
        _assert_reference_bits(rows)
        assert linkage_calls == [rows[0].tolist()]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_inf_and_nan_rows(self, linkage_calls):
        inf = math.inf
        rows = np.array([
            [complex(inf, 0), 1.0, 1.0 + 1e-9, 2.0],
            [complex(inf, 0), complex(inf, 0), 1.0, 1.0 + 1e-9],
            [complex(-inf, 0), complex(inf, 0), 0.0, 1e-8],
            [complex(0, inf), 1.0, 2.0, 3.0],
            [complex(inf, 0), 2.0, 2.0, complex(0, inf)],  # exact: no linkage
            [complex(inf, 0), complex(inf, 0), 2.0, 2.0],  # NaN distance: unclustered
        ], dtype=complex)
        _, mults = _assert_reference_bits(rows)
        assert mults[4].tolist() == [1, 2, 1, 0] and mults[5].tolist() == [1, 1, 1, 1]
        assert len(linkage_calls) == 2  # rows 0 and 2

    def test_random_exact_rows(self, linkage_calls):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(300):
            k = int(rng.integers(2, 7))
            pool = rng.standard_normal(k) * 10 ** rng.uniform(-3, 3, k) \
                + 1j * rng.standard_normal(k) * 10 ** rng.uniform(-3, 3, k)
            pool[rng.random(k) < 0.2] *= 0.0  # some parts -0.0, some +0.0
            rows.append(np.pad(pool[rng.integers(0, k, k)], (0, 6 - k), constant_values=pool[0]))
        rows = np.array(rows)
        _, mults = _assert_reference_bits(rows)
        assert (mults == 0).any(axis=1).sum() >= 250
        near = np.abs(rows[:, :, None] - rows[:, None, :])
        assert len(linkage_calls) == np.count_nonzero(((near > 0) & (near <= 1e-6)).any(axis=(1, 2)))


def _stack_with_close_rows(rng, count):
    """Perturbed matrices with defective eigenvalues (split by about
    eps^(1/m)), near-double ones, and plain random ones."""
    mats = []
    for i in range(count):
        n = int(rng.integers(2, 6))
        P = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = int(rng.integers(2, n + 1))
        J = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lam = complex(*rng.standard_normal(2))
        J[:m, :m] = lam * np.eye(m) + np.diag(np.ones(m - 1), 1) * (i % 3 != 2)
        if i % 3 == 2:
            J[0, 0] += 1e-8
        X = np.linalg.solve(P, J @ P)
        mats.append(np.pad(X, ((0, 5 - n), (0, 5 - n))))
    return np.array(mats)


class TestSpectralMaxAgainstReference:
    def test_builtins_and_scalar_only_callables(self):
        rng = np.random.default_rng(40)
        X = _stack_with_close_rows(rng, 90).reshape(3, 30, 5, 5)

        def half(z):  # scalar-only: an array argument raises
            return z.real if z.real >= 0 else math.inf

        scalar_only = make_generator("hypot", lambda z: math.hypot(z.real, z.imag))
        _, mults = _cluster_rows(np.linalg.eigvals(X).reshape(-1, 5), 1e-6)
        assert (mults == 0).any(axis=1).sum() >= 30  # the agglomeration ran
        for f in (builtin("abscissa"), builtin("radius2"), builtin("radius"),
                  builtin("ell1"), half, scalar_only):
            got = spectral_max(X, f)
            ref = _reference_spectral_max(X, f)
            assert got.shape == ref.shape == (3, 30)
            finite = np.isfinite(ref)
            assert np.array_equal(finite, np.isfinite(got))
            scale = np.maximum(1.0, np.abs(ref[finite]))
            assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-15 * scale)

    def test_one_matrix_returns_a_float(self):
        X = np.diag([1.0, 1.0 + 1e-9, -2.0])
        for f in (builtin("abscissa"), lambda z: math.hypot(z.real, z.imag)):
            got = spectral_max(X, f)
            assert isinstance(got, float)
            assert got == _reference_spectral_max(X, f)

    def test_a_builtin_is_called_once_per_stack(self):
        calls = []
        base = builtin("radius2")

        def counted(z):
            calls.append(np.shape(z))
            return base.value(z)

        f = dataclasses.replace(base, value=counted)
        X = _stack_with_close_rows(np.random.default_rng(41), 24)
        spectral_max(X, f)
        assert calls == [(24, 5)]

    def test_a_scalar_only_hook_is_called_per_cluster_mean(self):
        calls = []

        def value(z):
            calls.append(z)
            return math.hypot(z.real, z.imag)

        f = make_generator("hypot", value)
        X = np.stack([np.diag([1.0, 1.0 + 1e-9, -2.0]), np.diag([3.0, 0.5, 0.25])])
        assert spectral_max(X, f).tolist() == pytest.approx([2.0, 3.0])
        # one array call that raises, then one call per mean, padding included
        assert isinstance(calls[0], np.ndarray) and calls[0].shape == (2, 3)
        assert len(calls) == 7
        assert all(type(z) is complex for z in calls[1:])


def _suite_cases():
    rng = np.random.default_rng(0)
    P = np.eye(5) + 0.25 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    rng = np.random.default_rng(1)
    P3 = np.eye(3) + 0.25 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return [
        pytest.param(JordanSpec([(1.0, (3,)), (1 + 0.5j, (2,))], P=P), builtin("abscissa"),
                     id="J3(1)+J2(1+0.5i)-abscissa"),
        pytest.param(JordanSpec([(1.0, (2,)), (-1.0, (1,))], P=P3), builtin("radius2"),
                     id="J2(1)+[-1]-radius2-tie"),
    ]


class TestSuiteRowsAreExact:
    """The inequality suite's probe rows and base value hold exact repeats,
    so the suite runs no complete linkage and reads the reference's bits."""

    @pytest.mark.parametrize("spec,f", _suite_cases())
    def test_suite_runs_no_linkage(self, linkage_calls, spec, f):
        report = subgradient_inequality_suite(spec, f, rsd_sample(spec, f, seed=1),
                                              n_samples=100, seed=0)
        assert report["violations"] == 0
        assert linkage_calls == []

    @pytest.mark.parametrize("spec,f", _suite_cases())
    def test_probe_rows_read_the_reference_bits(self, spec, f):
        _, images = _structured_probes(spec)
        J = spec.jordan_matrix()
        rows = J + np.asarray(RADII)[:, None, None] * images[:, None]
        _, mults = _assert_reference_bits(np.linalg.eigvals(rows).reshape(-1, spec.n))
        assert (mults == 0).any(axis=1).sum() >= 18  # the equality path ran
        assert spectral_max(rows, f).tobytes() == _reference_spectral_max(rows, f).tobytes()
        assert spectral_max(J, f) == _reference_spectral_max(J, f)
