"""The one membership core: both routes, both regimes and the spectral radius
decide through ``polysub.block_failures``.

``_reference_*`` below are the direct-route tests as they were written out
before the core existed, one copy per generator family, kept here as the
independent check that the core gives the same verdicts.
"""

import cmath
import itertools
import math
import struct

import numpy as np
import pytest

from specmax.generators import (
    COND14,
    ConvexSet2D,
    UnsupportedGenerator,
    builtin,
    condition_check,
    make_generator,
    radius_transform,
    re_cip,
)
from specmax.jordan import DomainError, JordanSpec, declared_active
from specmax.polysub import SIMPLEX_TOL, _ActiveBlock, _quotient_real, block_failures
from specmax.specsub import (
    W_extract,
    chain_rule_membership,
    radius_rsd_membership,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
)

ABSC = builtin("abscissa")
RAD = builtin("radius")
RAD2 = builtin("radius2")
ELL1 = builtin("ell1")

STRUCT_TOL = 1e-9
WEIGHT_TOL = 1e-8
INEQ_SLACK = 1e-10


# -- the direct-route tests before the core ---------------------------------------


def _reference_active(values, b_values, active_tol=1e-8):
    if any(math.isinf(v) for v in values + b_values):
        raise DomainError("an eigenvalue lies outside the domain of the generator")
    top = max(values + b_values)
    if any(v >= top - active_tol for v in b_values):
        raise ValueError("an eigenvalue of the rest block attains the max")
    return top, [j for j, v in enumerate(values) if v >= top - active_tol]


def _reference_structure(spec, Y, active):
    """Failed structure conditions: regular W level and zero inactive blocks."""
    params = W_extract(spec, Y, level="regular")
    atol = STRUCT_TOL * max(1.0, float(np.linalg.norm(np.asarray(Y))))
    failed = [v.condition for v in params.violations]
    if spec.n0 and float(np.abs(params.W[: spec.n0, : spec.n0]).max()) > atol:
        failed.append("inactive_block_zero")
    for j in range(spec.num_eigs):
        sl = spec.eig_slice(j)
        if j not in active and float(np.abs(params.W[sl, sl]).max()) > atol:
            failed.append("inactive_block_zero")
    return params, atol, failed


def _reference_rsd(spec, f, Y, horizon=False):
    """rsd_membership / rsd_recession_membership (smooth regime)."""
    _, active = _reference_active([f.value(spec.eig_value(j)) for j in range(spec.num_eigs)],
                                  [f.value(mu) for mu in spec.b_eigenvalues])
    for j in active:
        lam = spec.eig_value(j)
        if condition_check(f, lam) != COND14 or not f.grad(lam):
            raise UnsupportedGenerator(f"{f.name} at {lam}")
    params, atol, failed = _reference_structure(spec, Y, active)
    if horizon:
        for j in active:
            if abs(params.theta[j][0]) > atol:
                failed.append("diagonal_zero")
            if spec.m_j(j) >= 2:
                g = f.grad(spec.eig_value(j))
                if re_cip(params.theta[j][1], g * g) < -INEQ_SLACK:
                    failed.append("subdiagonal_halfplane")
        return not failed
    sigma, total = {}, 0.0
    for j in active:
        s = params.theta[j][0] / f.grad(spec.eig_value(j))
        sigma[j] = s
        total += spec.n_j(j) * s
        if abs(s.imag) > WEIGHT_TOL or s.real < -WEIGHT_TOL:
            failed.append("weight")
    if abs(total - 1.0) > WEIGHT_TOL:
        failed.append("weight_sum_one")
    for j in active:
        if spec.m_j(j) >= 2:
            lam = spec.eig_value(j)
            g = f.grad(lam)
            lhs = re_cip(params.theta[j][1], g * g)
            if lhs < -max(sigma[j].real, 0.0) * f.eta(lam) - INEQ_SLACK:
                failed.append("subdiagonal_halfplane")
    return not failed


def _reference_radius(spec, Y, horizon=False):
    """radius_rsd_membership at a positive radius."""
    _, active = _reference_active([abs(spec.eig_value(j)) for j in range(spec.num_eigs)],
                                  [abs(mu) for mu in spec.b_eigenvalues])
    params, atol, failed = _reference_structure(spec, Y, active)
    if horizon:
        for j in active:
            if abs(params.theta[j][0]) > atol:
                failed.append("diagonal_zero")
            lam = spec.eig_value(j)
            if spec.m_j(j) >= 2 and re_cip(params.theta[j][1], lam * lam) < -INEQ_SLACK:
                failed.append("subdiagonal_halfplane")
        return not failed
    total = 0.0
    for j in active:
        lam, t1 = spec.eig_value(j), params.theta[j][0]
        ray = t1 / lam
        total += spec.n_j(j) * t1 * abs(lam) / lam
        if abs(ray.imag) > WEIGHT_TOL or ray.real < -WEIGHT_TOL:
            failed.append("ray")
    if abs(total - 1.0) > WEIGHT_TOL:
        failed.append("weight_sum_one")
    for j in active:
        if spec.m_j(j) >= 2:
            lam = spec.eig_value(j)
            lhs = re_cip(params.theta[j][1], lam * lam)
            rhs = -np.real(params.theta[j][0] * abs(lam) ** 2 / lam)
            if lhs < rhs - INEQ_SLACK:
                failed.append("subdiagonal_halfplane")
    return not failed


def _reference_radius_zero(spec, Y, horizon=False):
    """The radius at one declared eigenvalue 0."""
    params, atol, failed = _reference_structure(spec, Y, [0])
    t1 = params.theta[0][0]
    if horizon and abs(t1) > atol:
        failed.append("diagonal_zero")
    if not horizon and abs(t1) > 1.0 / spec.n + INEQ_SLACK:
        failed.append("diagonal_modulus_bound")
    return not failed


# -- candidates ---------------------------------------------------------------------


def random_P(rng, n, scale=0.25):
    while True:
        P = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            return P


def random_spec(rng, f, derogatory):
    """One to three eigenvalues attaining the max of f (equal real parts for
    the abscissa, equal moduli otherwise), at most one below it; with
    ``derogatory`` the first maximizer has two Jordan blocks."""
    k_act = int(rng.integers(1, 4))
    phi = rng.uniform(0, 2 * math.pi)
    if f is ABSC:
        lams = [1.0 + 1j * (rng.uniform(-1, 1) + 1.2 * k) for k in range(k_act)]
        lams += [-0.5 + 1j * rng.uniform(-1, 1)] * int(rng.integers(0, 2))
    else:
        lams = [1.5 * cmath.exp(1j * (phi + 2 * math.pi * k / k_act)) for k in range(k_act)]
        lams += [0.6 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))] * int(rng.integers(0, 2))
    sizes = [(int(rng.integers(1, 4)),) for _ in lams]
    if derogatory:
        sizes[0] = tuple(int(b) for b in rng.integers(1, 3, size=2))
    n = sum(map(sum, sizes))
    return JordanSpec(list(zip(lams, sizes)), P=random_P(rng, n))


def candidate_W(spec, f, active, rng, kind):
    """W of a candidate for the smooth generator f.

    kinds: member, recession (a recession direction), broken (the
    subdiagonal leaves its halfplane), shear (one subdiagonal entry breaks
    the Toeplitz pattern)."""
    gamma = rng.dirichlet(np.full(len(active), 2.0))
    W = np.zeros((spec.n, spec.n), dtype=complex)
    for idx, j in enumerate(active):
        lam, n_j = spec.eig_value(j), spec.n_j(j)
        g = f.grad(lam)
        w = g * g
        t1 = 0.0 if kind == "recession" else gamma[idx] * g / n_j
        floor = 0.0 if kind == "recession" else -(gamma[idx] / n_j) * f.eta(lam)
        margin = 0.05 + 0.5 * abs(rng.standard_normal())
        a = floor / abs(w) ** 2 + (-margin if kind == "broken" else margin)
        thetas = [t1, (a + 0.5j * rng.standard_normal()) * w]
        thetas += list(0.5 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        for sl in spec.subblock_slices(j):
            b = sl.stop - sl.start
            W[sl, sl] = sum(t * np.eye(b, k=-s) for s, t in enumerate(thetas[:b]))
        if kind == "shear" and spec.m_j(j) >= 2:
            sl = spec.subblock_slices(j)[int(np.argmax(spec.block_sizes(j)))]
            W[sl.start + 1, sl.start] += 0.3
    return W


def smooth_cases(rng, f, derogatory):
    """(spec, Y, horizon) candidates for the smooth generator f."""
    spec = random_spec(rng, f, derogatory)
    vals = [f.value(spec.eig_value(j)) for j in range(spec.num_eigs)]
    active = [j for j, v in enumerate(vals) if v >= max(vals) - 1e-8]
    out = []
    for kind in ("member", "broken", "shear", "recession"):
        Y = spec.from_W(candidate_W(spec, f, active, rng, kind))
        for horizon in (False, True):
            out.append((spec, Y, horizon))
        if kind == "member":
            out += [(spec, 1.5 * Y, False), (spec, 1.5 * Y, True)]
    return out


class TestReferenceAgreement:
    """The core against the direct-route tests it replaced: members, 1.5x
    non-members, broken subdiagonals, broken Toeplitz patterns and
    recession directions, on nonderogatory and derogatory specs."""

    @pytest.mark.parametrize("derogatory", [False, True])
    def test_abscissa_and_radius2(self, derogatory):
        rng = np.random.default_rng(61 + derogatory)
        counts = {True: 0, False: 0}
        for trial in range(25):
            for f in (ABSC, RAD2):
                for spec, Y, horizon in smooth_cases(rng, f, derogatory):
                    test = rsd_recession_membership if horizon else rsd_membership
                    got = test(spec, f, Y).verdict
                    assert got == _reference_rsd(spec, f, Y, horizon=horizon)
                    counts[got] += 1
        assert sum(counts.values()) == 500 and min(counts.values()) >= 100

    @pytest.mark.parametrize("derogatory", [False, True])
    def test_radius_at_a_positive_radius(self, derogatory):
        rng = np.random.default_rng(71 + derogatory)
        counts = {True: 0, False: 0}
        for trial in range(40):
            for spec, Y2, horizon in smooth_cases(rng, RAD2, derogatory):
                rho = max(abs(spec.eig_value(j)) for j in range(spec.num_eigs))
                Y = Y2 / rho
                got = radius_rsd_membership(spec, Y, horizon=horizon).verdict
                assert got == _reference_radius(spec, Y, horizon=horizon)
                test = rsd_recession_membership if horizon else rsd_membership
                assert test(spec, RAD, Y).verdict == got
                counts[got] += 1
        assert sum(counts.values()) == 400 and min(counts.values()) >= 80

    @pytest.mark.parametrize("blocks", [(3,), (2,), (2, 1), (1, 1, 1)])
    def test_radius_at_the_nilpotent_origin(self, blocks):
        rng = np.random.default_rng(len(blocks) + sum(blocks))
        n = sum(blocks)
        spec = JordanSpec([(0.0, blocks)], P=random_P(rng, n))
        counts = {True: 0, False: 0}
        for k in range(60):
            t1 = rng.uniform(0, 1.5 / n) * cmath.exp(2j * math.pi * rng.uniform())
            if k % 3 == 2:
                t1 = 0.0
            thetas = [t1] + list(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            W = np.zeros((n, n), dtype=complex)
            for sl in spec.subblock_slices(0):
                b = sl.stop - sl.start
                W[sl, sl] = sum(t * np.eye(b, k=-s) for s, t in enumerate(thetas[:b]))
            if k % 5 == 4 and spec.m_j(0) >= 2:
                W[1, 0] += 0.3  # breaks the Toeplitz pattern
            Y = spec.from_W(W)
            for horizon in (False, True):
                test = rsd_recession_membership if horizon else rsd_membership
                got = test(spec, RAD, Y).verdict
                assert got == _reference_radius_zero(spec, Y, horizon=horizon)
                counts[got] += 1
        assert min(counts.values()) >= 20


# -- the corner regime on both routes -----------------------------------------------


def rectangles(roots):
    """A generator whose subdifferential at each given root is a rectangle
    reaching outward from 0, which lies on its inner edge: a full-span
    corner at each root."""
    polys = {}
    for k, z in enumerate(roots):
        u, d, h = z / abs(z), 1.5 + 0.25 * k, 1.0 + 0.3 * k
        polys[z] = ConvexSet2D.polygon([u * 1j * h, -u * 1j * h, u * (d - 1j * h),
                                        u * (d + 1j * h)])
    return make_generator(
        "rectangles", abs, subdiff=lambda z: polys[z],
        tag=lambda z: "nonsmooth-fullspan" if z in polys else "other")


CORNER_CASES = [
    ("ell1", JordanSpec([(0.0, (3,))], P=random_P(np.random.default_rng(81), 3))),
    ("ell1", JordanSpec([(0.0, (2,))], P=random_P(np.random.default_rng(82), 2))),
    ("rectangles", JordanSpec([(1.0, (2,)), (cmath.exp(2j * math.pi / 3), (1,)), (0.3j, (2,))],
                              P=random_P(np.random.default_rng(83), 5))),
    ("rectangles", JordanSpec([(1j, (2,)), (-1.0, (1,)), (-1j, (1,))],
                              P=random_P(np.random.default_rng(84), 4))),
]


@pytest.mark.parametrize("name,spec", CORNER_CASES)
def test_corner_regime_routes_agree(name, spec):
    """Members drawn by rsd_sample pass both routes; on 1.5x those members
    the routes agree, and some of them fail."""
    lams = [spec.eig_value(j) for j in range(spec.num_eigs)]
    f = ELL1 if name == "ell1" else rectangles([z for z in lams if abs(abs(z) - 1) < 1e-12])
    assert sum(spec.n_j(j) for j in declared_active(spec, f)[1]) >= 2
    failed_scaled = 0
    for seed in range(40):
        Y = rsd_sample(spec, f, seed=seed)
        assert rsd_membership(spec, f, Y).verdict
        assert chain_rule_membership(spec, f, Y)
        direct = rsd_membership(spec, f, 1.5 * Y).verdict
        assert direct == chain_rule_membership(spec, f, 1.5 * Y)
        failed_scaled += not direct
    assert failed_scaled >= 5


def test_corner_regime_conditions_on_the_direct_route():
    # ell1 at 0 on J_2(0): theta_1 in the square [-1, 1]^2 / 2, theta_2 free
    spec = JordanSpec([(0.0, (2,))])

    def Y(t1, t2):
        return np.array([[t1, 0], [t2, t1]], dtype=complex)

    assert rsd_membership(spec, ELL1, Y(0.5 + 0.5j, -7 + 3j)).verdict
    rep = rsd_membership(spec, ELL1, Y(0.6, 0.0))
    assert [v.condition for v in rep.failed] == ["weight_sum_one"]
    assert rsd_recession_membership(spec, ELL1, Y(0.0, 5j)).verdict
    rep = rsd_recession_membership(spec, ELL1, Y(0.1, 0.0))
    assert [(v.condition, v.where) for v in rep.failed] == [("diagonal_zero", "eig0")]


# -- the radius transform -------------------------------------------------------------


def _bits(x) -> tuple:
    """The parts of a complex number or of an array, signed zeros included."""
    return tuple(float(p).hex() for p in np.ravel(np.asarray(x, dtype=complex)).view(float))


class TestRadiusTransform:
    def test_maps(self):
        assert radius_transform(ABSC, [3.0]) is ABSC
        # |z|^2 / (2 rho), z / rho and I / rho, also where |z|^2 over- or underflows
        for rho in (2.0, 1e155, 1e-200):
            spectrum = [rho * 1j, -0.5 * rho, rho * (0.3 - 0.8j)]
            g = radius_transform(RAD, spectrum)
            assert g.name == "radius" and g.tag(spectrum[0]) == "quadratic"
            for z in spectrum:
                assert g.value(z) == pytest.approx(0.5 * rho * (abs(z) / rho) ** 2, rel=1e-15)
                assert g.grad(z) == pytest.approx(complex(z) / rho, rel=1e-15)
                assert g.subdiff(z).the_point() == g.grad(z)
                assert np.array_equal(g.hess(z), np.eye(2) / rho)
        # at rho = 1 the image is radius2 bit for bit, signed zeros included
        g = radius_transform(RAD, [-1j, 0.5])
        for z in [1j, -2.0, 0.3 - 1.1j, 1e-200j, 1.5e300, complex(-0.0, 0.3),
                  complex(0.7, -0.0), -0j]:
            assert _bits(g.value(z)) == _bits(RAD2.value(z))
            assert _bits(g.grad(z)) == _bits(RAD2.grad(z))
            assert _bits(g.subdiff(z).the_point()) == _bits(RAD2.subdiff(z).the_point())
            assert g.hess(z).tobytes() == RAD2.hess(z).tobytes()
        g = radius_transform(RAD, [0j])
        assert "nilpotent origin" in g.name
        assert g.subdiff(0).kind == "disk" and g.subdiff(0).data == (0j, 1.0)

    def test_the_radius_is_recognized_by_identity_not_by_name(self):
        assert builtin("radius") is RAD
        named = make_generator("radius", ABSC.value, grad=ABSC.grad_fn, hess=ABSC.hess_fn,
                               subdiff=ABSC.subdiff_fn, tag=ABSC.tag_fn)
        assert radius_transform(named, [2.0, -3.0]) is named
        spec = JordanSpec([(2.0, (1,)), (-3.0, (1,))])
        Y = np.diag([1.0, 0.0]).astype(complex)  # the gradient of the abscissa at 2
        for f in (ABSC, named):
            rep = rsd_membership(spec, f, Y)
            assert rep.verdict and rep.details["active"] == [0], rep.failed
            assert chain_rule_membership(spec, f, Y)
        assert not rsd_membership(spec, RAD, Y).verdict

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_tolerances_do_not_move_with_the_radius(self, s):
        # Diag(1/4, 1/4, -1/2) is a member at every radius s; turning its
        # first diagonal by 1e-6 rad moves it 2.5e-7 off the subdifferential
        spec = JordanSpec([(s, (2,)), (-s, (1,))])
        Y = np.diag([0.25, 0.25, -0.5]).astype(complex)
        turned = Y.copy()
        turned[0, 0] = turned[1, 1] = 0.25 * cmath.exp(1e-6j)
        for test in (lambda Z: radius_rsd_membership(spec, Z).verdict,
                     lambda Z: chain_rule_membership(spec, RAD, Z)):
            assert test(Y) and not test(turned)

    def test_chain_route_on_the_radius(self):
        rng = np.random.default_rng(91)
        for trial in range(8):
            for spec, Y2, horizon in smooth_cases(rng, RAD2, derogatory=False):
                rho = max(abs(spec.eig_value(j)) for j in range(spec.num_eigs))
                Y = Y2 / rho
                assert chain_rule_membership(spec, RAD, Y, horizon=horizon) == \
                    radius_rsd_membership(spec, Y, horizon=horizon).verdict

    def test_chain_route_at_the_nilpotent_origin(self):
        spec = JordanSpec([(0.0, (3,))], P=random_P(np.random.default_rng(92), 3))
        for t1, expect in [(0.3, True), (1 / 3 - 1e-9, True), (0.34j, False)]:
            W = t1 * np.eye(3, dtype=complex)
            W[1, 0] = W[2, 1] = -2.0 + 1j
            Y = spec.from_W(W)
            assert chain_rule_membership(spec, RAD, Y) == expect
            assert rsd_membership(spec, RAD, Y).verdict == expect


# -- the shared decision -------------------------------------------------------------


class TestBlockFailures:
    def test_failed_conditions_name_their_block(self):
        blocks = [np.array([-0.25, -0.1]), np.array([-0.5])]  # the blocks are -theta
        active = [(0.0, 2, blocks[0]), (1j, 1, blocks[1])]
        failed, gammas = block_failures(ABSC, active, 1e-10)
        assert gammas == [0.5, 0.5] and failed == []
        blocks[0][1] = 0.1  # Re(theta_2) < 0 with eta = 0
        failed, _ = block_failures(ABSC, active, 1e-10)
        assert [(c, i) for c, _, i in failed] == [("subdiagonal_halfplane", 0)]
        blocks[1][0] = -0.75
        failed, _ = block_failures(ABSC, active, 1e-10)
        assert ("weight_sum_one", None) in [(c, i) for c, _, i in failed]
        assert failed[0][1] == pytest.approx(0.25)

    def test_derogatory_block_has_fewer_coordinates(self):
        # n_j = 3 with blocks (2, 1): the coordinate block holds m_j = 2 values
        failed, gammas = block_failures(RAD2, [(1.0, 3, np.array([-1 / 3, 0.0]))], 1e-10)
        assert failed == [] and gammas[0] == pytest.approx(1.0)
        failed, _ = block_failures(RAD2, [(1.0, 3, np.array([-1 / 3]))], 1e-10)
        assert failed == []

    def test_infeasible_split_reports_weight_units(self):
        failed, _ = block_failures(ELL1, [(0.0, 1, np.array([-2.0]))], 1e-10)
        assert failed[0][0] == "weight_sum_one" and failed[0][1] > SIMPLEX_TOL

    def test_zero_subdifferential_is_unsupported(self):
        with pytest.raises(UnsupportedGenerator):
            block_failures(RAD2, [(0.0, 2, np.zeros(2))], 1e-10)


# -- the per-root scalars on Python numbers -------------------------------------------


def _float_bits(x: float) -> bytes:
    """The bytes of a float; every NaN reads alike."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


def _point_generator(g):
    """A smooth generator whose subdifferential is the prebuilt point {g}."""
    point = ConvexSet2D.point(g)
    return make_generator("point", lambda z: z.real, grad=lambda z: g,
                          hess=lambda z: np.zeros((2, 2)), subdiff=lambda z: point,
                          tag=lambda z: "quadratic")


# ±0, the smallest subnormal, the smallest normal, ordinary values and ±1e300
GRID_PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5, 3.7,
              1e300, -1e300]
GRID = [complex(a, b) for a, b in itertools.product(GRID_PARTS, repeat=2)]  # ties |a| = |b|


class TestScalarReplicas:
    """The per-root scalars computed on Python numbers equal the numpy
    scalar forms they replace, bit for bit."""

    def test_quotient_matches_complex128_division(self):
        rng = np.random.default_rng(34)
        draws = rng.standard_normal((100_000, 4)) * np.exp(rng.uniform(-30, 30, (100_000, 4)))
        pairs = list(itertools.product(GRID, GRID))
        pairs += [(complex(a, b), complex(c, d)) for a, b, c, d in draws.tolist()]
        checked = 0
        with np.errstate(all="ignore"):
            for x, g in pairs:
                if g == 0:
                    continue
                ref = float((np.complex128(x) / np.complex128(g)).real)
                assert _float_bits(_quotient_real(x, g)) == _float_bits(ref), (x, g)
                checked += 1
        assert checked > 100_000

    @pytest.mark.parametrize("n_j", [1, 2, 3])
    def test_forced_weight_matches_the_numpy_form(self, n_j):
        with np.errstate(all="ignore"):
            for g in GRID:
                if g == 0:
                    continue
                d = _ActiveBlock(_point_generator(g), 0.5, n_j)
                for c1 in GRID:
                    ref = max(0.0, float((-n_j * np.complex128(c1) / g).real))
                    assert _float_bits(d.gamma_from_first(c1)) == _float_bits(ref), (g, c1)

    def test_a_smooth_member_builds_no_set(self, monkeypatch):
        # abscissa-like, its point subdifferential prebuilt: the first
        # coordinate is read against gamma / n_j * g and the second against
        # the halfplane Re(conj(g^2) x) <= 0, with no ConvexSet2D made
        f = _point_generator(1.0 + 0j)
        built = []
        init = ConvexSet2D.__init__
        monkeypatch.setattr(ConvexSet2D, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        active = [(1.0, 2, [-0.25, -0.1 + 2j]), (1 + 1j, 1, [-0.5])]
        failed, gammas = block_failures(f, active, 1e-10)
        assert failed == [] and gammas == [0.5, 0.5]
        failed, _ = block_failures(f, [(1.0, 2, [0.0, -0.5j - 1.0])], 1e-10, horizon=True)
        assert failed == []
        failed, _ = block_failures(f, [(1.0, 2, [-0.5, 0.3])], 1e-10)
        assert [c for c, _, _ in failed] == ["subdiagonal_halfplane"]
        assert built == []

    def test_the_radius_forms_no_hessian_until_read(self, monkeypatch):
        spec = JordanSpec([(2.0, (2,)), (-2j, (1,)), (0.5, (1,))])
        eye = np.eye
        calls = []
        monkeypatch.setattr(np, "eye", lambda *a, **k: calls.append(a) or eye(*a, **k))
        g, active = declared_active(spec, RAD)
        assert active == [0, 1] and calls == []
        form = g.hess(2.0)
        assert len(calls) == 1 and form.tobytes() == (eye(2) / 2.0).tobytes()
        assert g.hess(-2j) is form and len(calls) == 1
