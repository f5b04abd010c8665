import cmath
import math
import struct

import numpy as np
import pytest

from specmax import polysub
from specmax.cpoly import Poly, RootCluster, poly_root_max
from specmax.generators import (
    TAG_FULLSPAN,
    TAG_QUADRATIC,
    ConvexSet2D,
    Generator,
    UnsupportedGenerator,
    builtin,
    make_generator,
)
from specmax.jordan import DomainError, JordanSpec
from specmax.oracles import fd_phi_quotient, fd_poly_quotient
from specmax.polysub import (
    SIMPLEX_TOL,
    Dp_membership,
    Dp_sample,
    _ActiveBlock,
    _coordinate_matrix,
    _member,
    _solve_coords,
    _split_blocks,
    block_failures,
    rsd_f_membership,
    subderivative_f,
)
from specmax.specsub import chain_rule_membership, rsd_membership, rsd_sample, subderivative

ABSC = builtin("abscissa")
RAD = builtin("radius")
RAD2 = builtin("radius2")
ELL1 = builtin("ell1")

LAM2 = RootCluster((0j,), (2,))
TWO_SIMPLE = RootCluster((0j, 1 + 0j), (1, 1))


def from_coords(base, coords):
    """F'(0) of a Taylor coordinate vector: the polynomial it maps to."""
    return Poly(tuple(_coordinate_matrix(base) @ np.asarray(coords, dtype=complex)))


class TestDpMembership:
    def test_zero_vector_rejected_when_weights_cannot_vanish(self):
        assert not Dp_membership(LAM2, ABSC, [0, 0, 0])

    def test_double_root_member(self):
        assert Dp_membership(LAM2, ABSC, [0, -0.5, -3])

    def test_double_root_halfplane_violation(self):
        assert not Dp_membership(LAM2, ABSC, [0, -0.5, 1])

    def test_leading_coordinate_must_vanish(self):
        assert not Dp_membership(LAM2, ABSC, [0.1, -0.5, -3])

    def test_inactive_blocks_must_vanish(self):
        # roots 0 and 1: only 1 is active for the abscissa
        assert Dp_membership(TWO_SIMPLE, ABSC, [0, 0, -1])
        assert not Dp_membership(TWO_SIMPLE, ABSC, [0, -1, 0])

    def test_two_active_splits_the_weight(self):
        # roots +-1, modulus-squared: gradients +-1, c_j1 = -gamma_j * g_j / 1
        base = RootCluster((-1 + 0j, 1 + 0j), (1, 1))
        assert Dp_membership(base, RAD2, [0, 0.25, -0.75])
        assert not Dp_membership(base, RAD2, [0, 0.25, -0.85])  # weights sum past one

    def test_corner_regime_square_subdifferential(self):
        # double root at 0 with the 1-norm generator: first coordinate ranges
        # over -(unit square)/2, second over the whole plane
        assert Dp_membership(LAM2, ELL1, [0, 0.3 + 0.2j, 123j])
        assert not Dp_membership(LAM2, ELL1, [0, 0.7, 0])

    def test_samples_are_members(self):
        for base, f in [(LAM2, ABSC), (TWO_SIMPLE, ABSC), (LAM2, ELL1),
                        (RootCluster((-1 + 0j, 1 + 0j), (2, 2)), RAD2)]:
            for s in range(5):
                c = Dp_sample(base, f, seed=s)
                assert Dp_membership(base, f, c)

    def test_descriptor_bundle(self):
        # the sampler, the membership test and the horizon cone of one set
        c = Dp_sample(LAM2, ABSC, seed=1)
        assert Dp_membership(LAM2, ABSC, c)
        assert _member(LAM2, ABSC, [0, 0, -1], horizon=True)

    def test_second_coordinate_tolerance_is_a_distance(self):
        # radius2 at the double root 10: w = grad^2 = 400, so a tolerance on
        # the unnormalized Re(conj(w) theta) would reject points 2e-10 past
        # the curvature halfplane Re(theta) <= 1/2 while the horizon cone
        # accepts 2e-9; both read the tolerance as a distance
        base = RootCluster((10 + 0j,), (2,))
        assert Dp_membership(base, RAD2, [0, -5, 0.5 + 2e-10])
        assert _member(base, RAD2, [0, 0, 2e-9], horizon=True)
        assert not Dp_membership(base, RAD2, [0, -5, 0.5 + 1e-7])
        assert not _member(base, RAD2, [0, 0, 1e-7], horizon=True)


class TestDpSearchPath:
    """Feasibility search when several active subdifferentials are fat."""

    @staticmethod
    def _two_corner_generator():
        # f(z) = |z-1|_1 + |z+1|_1: at +-1 the subdifferential is a margin
        # rectangle containing 0 on an edge, so the corner regime holds at
        # both roots and neither weight is forced
        def value(z):
            return abs(z.real - 1) + abs(z.imag) + abs(z.real + 1) + abs(z.imag)

        def subdiff(z):
            if z == 1:
                return ConvexSet2D.polygon([0 + 2j, 0 - 2j, 2 - 2j, 2 + 2j])
            if z == -1:
                return ConvexSet2D.polygon([0 + 2j, 0 - 2j, -2 - 2j, -2 + 2j])
            raise NotImplementedError

        def tag(z):
            return "nonsmooth-fullspan" if z in (1, -1) else "other"

        return make_generator("two-corner", value, subdiff=subdiff, tag=tag)

    def test_feasible_weight_split_found(self):
        f = self._two_corner_generator()
        base = RootCluster((-1 + 0j, 1 + 0j), (1, 1))
        # gamma = (0.7, 0.3): c_11 in -0.7*S(-1), c_21 in -0.3*S(+1)
        assert Dp_membership(base, f, [0, 0.7 * (1 - 0.5j), -0.3 * (1 + 1j)])

    def test_infeasible_weight_split_rejected(self):
        f = self._two_corner_generator()
        base = RootCluster((-1 + 0j, 1 + 0j), (1, 1))
        # each block alone needs weight > 0.6: total mass cannot reach both
        assert not Dp_membership(base, f, [0, 0.7 * (2 - 0j), -0.7 * (2 + 0j)])


class TestWeightFeasibility:
    """The exact weight split against a brute-force decision on a dense grid
    of weights, with 3 to 4 roots whose subdifferentials are polygons,
    segments and disks; in the `determined` cases one of them is a point,
    which forces its root's weight."""

    STEPS = 120  # weight grid step 1/STEPS
    SLACK = 0.035  # above the grid step times the largest |point| of a set (< 3.63)

    @staticmethod
    def _random_set(rng):
        kind = rng.choice(["polygon", "segment", "disk"])
        center = complex(*rng.uniform(-1.5, 1.5, 2))
        if kind == "polygon":
            angles = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(3, 7)))
            return ConvexSet2D.polygon(center + rng.uniform(0.3, 1.5) * np.exp(1j * angles))
        if kind == "disk":
            return ConvexSet2D.disk(rng.uniform(0.2, 1.5), center)
        # on a line through the origin, so the admissible weights have interior
        u = np.exp(1j * rng.uniform(0, 2 * np.pi))
        r1, r2 = np.sort(rng.uniform(-1.0, 2.5, 2))
        return ConvexSet2D.segment(r1 * u, r2 * u)

    def _case(self, rng, determined):
        """A cluster, generator and coordinate vector.  Every root has value
        0, so all are active; the smooth-regime tag with unit gradient and
        identity Hessian admits any set kind and makes the second coordinate
        theta of a double root bound its weight from below
        (Re theta <= gamma / 2)."""
        k = rng.integers(3, 5)
        mults = tuple(int(m) for m in rng.choice([1, 1, 2], k))
        roots = tuple(complex(j) for j in range(k))
        sets = {r: self._random_set(rng) for r in roots}
        weights = rng.dirichlet(np.full(k, 2.0))
        if determined:
            sets[roots[0]] = ConvexSet2D.point(1 + 0.5j)
            mults = (1,) + mults[1:]
            weights[1:] *= 0.75 / weights[1:].sum()
            weights[0] = 0.25  # on the grid
        # members, then points pushed out of or deeper into their sets
        stretch = 1.0 if rng.uniform() < 0.4 else rng.uniform(0.2, 3.0)
        c = [0j]
        for r, n_j, g in zip(roots, mults, weights):
            S = sets[r]
            if S.kind == "disk":
                center, radius = S.data
                point = center + radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            else:
                point = np.dot(rng.dirichlet(np.ones(len(S.data))), S.data)
            c.append(-(g if S.is_singleton else g * stretch) * point / n_j)
            if n_j == 2:
                c.append(complex(rng.uniform(-0.5, 0.3), rng.standard_normal()))
        f = make_generator("fat", lambda z: 0.0, grad=lambda z: 1 + 0j,
                           hess=lambda z: np.eye(2), subdiff=lambda z: sets[z],
                           tag=lambda z: "quadratic")
        return RootCluster(roots, mults), f, sets, np.array(c)

    def _grid_residuals(self, cluster, sets, c):
        """Per root, its residual at each grid weight k / STEPS: the distance
        of the first coordinate to the scaled set and, for a double root, the
        excess of Re theta over gamma / 2."""
        out = []
        pos = 1
        for r, n_j in zip(cluster.roots, cluster.mults):
            gam = np.arange(self.STEPS + 1) / self.STEPS
            res = np.array([sets[r].scaled(g / n_j).distance(-c[pos]) for g in gam])
            if n_j == 2:
                res = np.maximum(res, c[pos + 1].real - gam / 2)
            out.append(res)
            pos += n_j
        return out

    def _split_exists(self, residuals, slack):
        """Whether grid weights summing to one keep every residual within
        slack: the reachable sums of each root's admissible grid weights."""
        reach = np.zeros(self.STEPS + 1, dtype=bool)
        reach[0] = True
        for res in residuals:
            reach = np.convolve(reach, res <= slack)[:self.STEPS + 1] > 0
        return bool(reach[-1])

    @pytest.mark.parametrize("determined", [False, True])
    def test_matches_dense_grid(self, determined):
        # a split found on the grid is exact; a split off the grid has a grid
        # neighbour within SLACK, so none within SLACK means none at all
        rng = np.random.default_rng(11 + determined)
        verdicts = []
        for _ in range(60):
            cluster, f, sets, c = self._case(rng, determined)
            residuals = self._grid_residuals(cluster, sets, c)
            truth = self._split_exists(residuals, 1e-12)
            if truth != self._split_exists(residuals, self.SLACK):
                continue  # the margin is within reach of the grid step
            assert Dp_membership(cluster, f, c) == truth
            verdicts.append(truth)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


# -- the weight split on numpy arrays, as it was written before the Python
# floats; kept as the reference it must reproduce bit for bit


def _ref_spread(lo, hi, mass):
    slack = mass - lo.sum()
    room = np.minimum(hi - lo, slack)
    if room.sum() <= 0:
        return lo
    return lo + slack * room / room.sum()


def _ref_block_failures(g, active, tol, horizon=False):
    data = [_ActiveBlock(g, lam, n_j) for lam, n_j, _ in active]
    blocks = [block for _, _, block in active]
    failed = []
    if horizon:
        for i, (d, b) in enumerate(zip(data, blocks)):
            if abs(b[0]) > tol:
                failed.append(("diagonal_zero", abs(b[0]), i))
            if len(b) >= 2 and (r := d.q.distance(b[1])) > tol:
                failed.append(("subdiagonal_halfplane", r, i))
        return failed, None

    gammas = np.zeros(len(data))
    free_idx = []
    for i, (d, b) in enumerate(zip(data, blocks)):
        if d.determined:
            gammas[i] = d.gamma_from_first(b[0])
        else:
            free_idx.append(i)
    if free_idx:
        bounds = np.array([data[i].weight_interval(blocks[i], tol) for i in free_idx])
        lo, hi = bounds[:, 0], bounds[:, 1]
        failed = [("diagonal_in_subdifferential", lo[k] - hi[k], i)
                  for k, i in enumerate(free_idx) if lo[k] > hi[k]]
        mass = 1.0 - gammas.sum()
        gap = max(lo.sum() - mass, mass - hi.sum())
        if not failed and gap > SIMPLEX_TOL:
            failed = [("weight_sum_one", gap, None)]
        if failed:
            return failed, gammas
        gammas[free_idx] = _ref_spread(lo, hi, min(max(mass, lo.sum()), hi.sum()))
    if abs(gammas.sum() - 1.0) > SIMPLEX_TOL:
        failed.append(("weight_sum_one", abs(gammas.sum() - 1.0), None))
    for i, (d, b, g) in enumerate(zip(data, blocks, gammas)):
        r = d.subdiff.scaled(g / d.n_j).distance(-b[0])
        if r > tol:
            failed.append(("diagonal_in_subdifferential", r, i))
        if len(b) >= 2:
            r = d.second_set(g).distance(b[1])
            if r > tol:
                failed.append(("subdiagonal_halfplane", r, i))
    return failed, gammas


def _split_bits(failed, gammas):
    """The conditions, positions and the bytes of every residual and weight."""
    def bits(x):
        return struct.pack("<d", float(x))
    return ([(c, bits(r), i) for c, r, i in failed],
            None if gammas is None else [bits(g) for g in gammas])


class TestWeightSplitEquivalence:
    """block_failures on Python floats equals the numpy form above bit for
    bit: the same failed conditions, residuals and witness weights."""

    @staticmethod
    def _feasibility_cases():
        """TestWeightFeasibility's cases, determined and not."""
        grid = TestWeightFeasibility()
        for determined in (False, True):
            rng = np.random.default_rng(21 + determined)
            for _ in range(60):
                cluster, f, _, c = grid._case(rng, determined)
                yield f, list(zip(cluster.roots, cluster.mults,
                                  _split_blocks(cluster.mults, c[1:])))

    @staticmethod
    def _rectangle_cases():
        """2 to 6 roots on the unit circle, each with a rectangle that has
        the origin inside one edge (the corner regime, no weight forced),
        and first coordinates whose weight intervals sum below and above 1,
        or, in a quarter of the cases, vanish (the horizon's candidates)."""
        rng = np.random.default_rng(23)
        for _ in range(150):
            K = int(rng.integers(2, 7))
            roots = [cmath.exp(1j * (2 * math.pi * k / K + rng.uniform(-0.3, 0.3)))
                     for k in range(K)]
            mults = [int(m) for m in rng.choice([1, 1, 2, 3], K)]
            polys = {}
            for z in roots:
                d, h = rng.uniform(1.5, 2.5), rng.uniform(1.0, 2.0)
                polys[z] = ConvexSet2D.polygon([z * 1j * h, -z * 1j * h, z * (d - 1j * h),
                                                z * (d + 1j * h)])
            f = make_generator("corners", abs, subdiff=lambda z, polys=polys: polys[z],
                               tag=lambda z: "nonsmooth-fullspan")
            total = rng.uniform(0.3, 1.6)
            vanish = rng.uniform() < 0.25
            blocks = []
            for z, n_j, share in zip(roots, mults, rng.dirichlet(np.full(K, 3.0))):
                t = total * share / n_j
                # p < 0 leaves the rectangle's cone: an empty weight interval
                p, q = t * rng.uniform(-0.3, 2.5), t * rng.uniform(-2.0, 2.0)
                first = 0j if vanish else -z * complex(p, q)
                blocks.append(np.r_[first, 0.5 * (rng.standard_normal(n_j - 1)
                                                  + 1j * rng.standard_normal(n_j - 1))])
            yield f, list(zip(roots, mults, blocks))

    @pytest.mark.parametrize("horizon", [False, True])
    @pytest.mark.parametrize("tol", [0.0, 1e-8, 1e-3])
    def test_matches_the_numpy_form(self, tol, horizon):
        outcomes = set()
        for f, active in (*self._feasibility_cases(), *self._rectangle_cases()):
            ref = _split_bits(*_ref_block_failures(f, active, tol, horizon))
            lists = [(lam, n_j, b.tolist()) for lam, n_j, b in active]
            assert _split_bits(*block_failures(f, lists, tol, horizon)) == ref, active
            assert _split_bits(*block_failures(f, active, tol, horizon)) == ref, active
            outcomes.add(tuple(sorted({c for c, _, _ in ref[0]})))
        # horizon: members, and one or both conditions failed; otherwise splits found,
        # intervals empty and sums out of reach
        assert ({(), ("diagonal_zero",), ("diagonal_zero", "subdiagonal_halfplane")} if horizon else
                {(), ("diagonal_in_subdifferential",), ("weight_sum_one",)}) <= outcomes


@pytest.fixture
def reads(monkeypatch):
    """Counts of the calls of Generator.eta and of polysub.q_set."""
    calls = {"eta": 0, "q_set": 0}
    eta, q_set = Generator.eta, polysub.q_set

    def counted_eta(self, z):
        calls["eta"] += 1
        return eta(self, z)

    def counted_q_set(S):
        calls["q_set"] += 1
        return q_set(S)

    monkeypatch.setattr(Generator, "eta", counted_eta)
    monkeypatch.setattr(polysub, "q_set", counted_q_set)
    return calls


class TestOnDemandBlockData:
    """The curvature eta and the corner set q_set constrain only the second
    coordinate, so a block evaluates each on its first read, once, and
    only where a condition reads it."""

    LAM = 1 + 0.5j  # radius2: gradient LAM, a positive curvature

    def test_one_coordinate_block_never_evaluates_eta(self, reads):
        assert Dp_membership(RootCluster((self.LAM,), (1,)), RAD2, [0, -self.LAM])
        assert not Dp_membership(RootCluster((self.LAM,), (1,)), RAD2, [0, self.LAM])
        # a derogatory eigenvalue's block: multiplicity 2, one coordinate
        assert not block_failures(RAD2, [(self.LAM, 2, [-self.LAM / 2])], 1e-10)[0]
        assert reads == {"eta": 0, "q_set": 0}

    def test_horizon_blocks_never_evaluate_eta(self, reads):
        base = RootCluster((self.LAM,), (3,))
        inside = -(self.LAM ** 2)  # on the ray of -w, inside the cone
        assert _member(base, RAD2, [0, 0, inside, 5], horizon=True)
        assert not _member(base, RAD2, [0, 0, -inside, 5], horizon=True)
        assert not _member(base, RAD2, [0, 0.1, inside, 5], horizon=True)
        assert reads["eta"] == 0

    def test_rectangle_whose_weight_split_fails_never_builds_q_set(self, reads):
        f = TestDpSearchPath._two_corner_generator()
        base = RootCluster((-1 + 0j, 1 + 0j), (2, 2))
        # each first coordinate needs a weight of at least 0.7
        failed, _ = block_failures(f, [(-1 + 0j, 2, [0.7, 0]), (1 + 0j, 2, [-0.7, 0])],
                                   1e-10)
        assert [c for c, _, _ in failed] == ["weight_sum_one"]
        assert not Dp_membership(base, f, [0, 0.7, 0, -0.7, 0])
        assert reads["q_set"] == 0
        # the weights (0.7, 0.3) pass, and each block then reads its set once
        assert Dp_membership(base, f, [0, 0.35 * (1 - 0.5j), 0, -0.15 * (1 + 1j), 0])
        assert reads["q_set"] == 2

    def test_two_coordinate_member_reads_each_quantity_once(self, reads):
        assert Dp_membership(RootCluster((self.LAM,), (2,)), RAD2, [0, -self.LAM / 2, 0])
        assert reads == {"eta": 1, "q_set": 0}
        d = _ActiveBlock(RAD2, self.LAM, 2)
        d.second_set(0.3), d.second_set(0.7), d.weight_interval([-self.LAM / 2, 0], 1e-10)
        assert reads == {"eta": 2, "q_set": 0}
        d = _ActiveBlock(TestDpSearchPath._two_corner_generator(), 1 + 0j, 2)
        assert d.q is d.second_set(0.3) is d.second_set(0.7)
        assert reads == {"eta": 2, "q_set": 1}


class TestRefusalsAtTheRead:
    """A refusal for the curvature or for q_set fires where the block reads
    it: a one-coordinate block gets a verdict, a two-coordinate block whose
    second coordinate is tested still raises."""

    @staticmethod
    def _smooth_without_hessian():
        return make_generator("flat", lambda z: z.real, grad=lambda z: 1 + 0j,
                              tag=lambda z: TAG_QUADRATIC)

    @staticmethod
    def _corner_off_the_origin():
        # a segment away from 0: q_set has no exact representation for it
        return make_generator("segment corner", abs,
                              subdiff=lambda z: ConvexSet2D.segment(1 - 1j, 1 + 1j),
                              tag=lambda z: TAG_FULLSPAN)

    @pytest.mark.parametrize("make", ["_smooth_without_hessian", "_corner_off_the_origin"])
    def test_one_coordinate_block_gets_a_verdict(self, make):
        f = getattr(self, make)()
        base = RootCluster((0j,), (1,))
        assert Dp_membership(base, f, [0, -1])
        assert not Dp_membership(base, f, [0, 1])
        assert _member(base, f, [0, 0], horizon=True)

    @pytest.mark.parametrize("make", ["_smooth_without_hessian", "_corner_off_the_origin"])
    def test_two_coordinate_block_still_raises(self, make):
        f = getattr(self, make)()
        with pytest.raises(UnsupportedGenerator):
            Dp_membership(RootCluster((0j,), (2,)), f, [0, -0.5, 0])
        with pytest.raises(UnsupportedGenerator):
            Dp_sample(RootCluster((0j,), (2,)), f)

    def test_horizon_reads_q_set_but_no_curvature(self):
        base = RootCluster((0j,), (2,))
        assert _member(base, self._smooth_without_hessian(), [0, 0, -1], horizon=True)
        with pytest.raises(UnsupportedGenerator):
            _member(base, self._corner_off_the_origin(), [0, 0, -1], horizon=True)


class TestHorizon:
    def test_zero_is_in_every_horizon(self):
        assert _member(LAM2, ABSC, [0, 0, 0], horizon=True)

    def test_first_coordinate_must_vanish(self):
        assert not _member(LAM2, ABSC, [0, -0.5, -1], horizon=True)

    def test_second_coordinate_cone(self):
        assert _member(LAM2, ABSC, [0, 0, -1], horizon=True)
        assert not _member(LAM2, ABSC, [0, 0, 1], horizon=True)

    def test_recession_property_on_members(self):
        rng = np.random.default_rng(0)
        c0 = Dp_sample(LAM2, ABSC, seed=3)
        for _ in range(20):
            d = np.array([0, 0, complex(-abs(rng.standard_normal()), rng.standard_normal())])
            assert _member(LAM2, ABSC, d, horizon=True)
            for t in (1.0, 10.0, 100.0):
                assert Dp_membership(LAM2, ABSC, c0 + t * d)


class TestNonFiniteInput:
    """abs(nan) > tol is False, so a NaN would pass every check it met."""

    @pytest.mark.parametrize("horizon", [False, True])
    @pytest.mark.parametrize("c", [np.full(4, complex(np.nan)), [0, -0.5, np.nan, 0],
                                   [0, -0.5, np.inf, 0]], ids=["all-nan", "nan", "inf"])
    def test_coordinates_rejected(self, c, horizon):
        cluster = RootCluster((1 + 0j, 1 + 1j), (2, 1))
        with pytest.raises(ValueError, match="finite"):
            _member(cluster, ABSC, c, horizon)

    @pytest.mark.parametrize("gamma", [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf]])
    def test_weights_rejected(self, gamma):
        with pytest.raises(ValueError, match="simplex"):
            Dp_sample(RootCluster((1 + 0j, 1 + 1j), (2, 1)), ABSC, gamma=gamma)

    @pytest.mark.parametrize("gamma", [[[1.0]], np.array(1.0)], ids=["2-d", "0-d"])
    def test_weights_of_another_shape_rejected(self, gamma):
        # one active root: the weight count matches, the shape does not
        with pytest.raises(ValueError, match="simplex"):
            Dp_sample(RootCluster((1.0,), (2,)), RAD2, gamma=gamma)

    @pytest.mark.filterwarnings("error")
    def test_finite_coordinates_whose_norm_overflows_are_judged(self):
        simple = RootCluster((1 + 0j,), (1,))
        assert Dp_membership(simple, ABSC, [0, -1.0])
        assert not Dp_membership(simple, ABSC, [0, -1e160])
        assert not Dp_membership(LAM2, ABSC, [0, -0.5, 1e160])

    @pytest.mark.filterwarnings("error")
    def test_finite_input_whose_block_norms_overflow_is_judged(self):
        # the coordinate solve's |rhs| and residual, an inactive block's norm
        assert not rsd_f_membership(RootCluster((1,), (2,)), ABSC, Poly((1e160, 0, 0)))
        assert not Dp_membership(RootCluster((-1, 1), (1, 1)), ABSC, [0, 1e160, -1])
        assert Dp_membership(RootCluster((-1, 1), (1, 1)), ABSC, [0, 0, -1])
        # the orthogonality bound: on the ray through g^2 = 1 the value is
        # finite, off it inf, however large the second coordinate
        base = RootCluster((1 + 0j,), (2,))
        assert subderivative_f(base, RAD2, from_coords(base, [0, -1, 1e160])) < math.inf
        for omega2 in (1e160j, -1e160, 1j):
            assert subderivative_f(base, RAD2, from_coords(base, [0, -1, omega2])) == math.inf

    def test_nan_root_rejected(self):
        # RootCluster accepts a lone NaN root; a NaN value attains no max
        cluster = RootCluster((complex(np.nan),), (1,))
        for call in (lambda: Dp_membership(cluster, ABSC, [0, 0]),
                     lambda: Dp_sample(cluster, ABSC),
                     lambda: subderivative_f(cluster, ABSC, Poly((0j, 1 + 0j)))):
            with pytest.raises(ValueError, match="NaN"):
                call()


class TestRsdFMembership:
    def test_pushforward_of_a_coordinate_member(self):
        v = from_coords(LAM2, [0, -0.5, 0])
        assert rsd_f_membership(LAM2, ABSC, v)

    def test_base_polynomial_is_not_a_subgradient(self):
        assert not rsd_f_membership(LAM2, ABSC, LAM2.as_poly())

    def test_horizon_direction(self):
        v = from_coords(LAM2, [0, 0, -1])
        assert _member(LAM2, ABSC, _solve_coords(LAM2, v), horizon=True)
        assert not _member(LAM2, ABSC, _solve_coords(LAM2, LAM2.as_poly()), horizon=True)


class TestSubderivative:
    def test_double_root_linear_direction(self):
        # d of the abscissa at lambda^2 along lambda is -1/2: the double root
        # responds with the mean of its two split roots; the achieving path
        # is lambda^2 + t(lambda + t/4) = (lambda + t/2)^2
        assert subderivative_f(LAM2, ABSC, Poly((0j, 1 + 0j, 0j))) == pytest.approx(-0.5)
        for t in (1e-3, 1e-5):
            p = Poly((t * t / 4, t, 1))
            assert poly_root_max(p, ABSC) / t == pytest.approx(-0.5, rel=1e-6)

    def test_constant_direction_is_tangential(self):
        # omega_12 = 1 = +1 * (grad)^2: sqrt(-1) = i is real-orthogonal to
        # the gradient, so the direction is admissible with zero curvature
        assert subderivative_f(LAM2, ABSC, Poly((1 + 0j, 0j, 0j))) == pytest.approx(0.0)

    def test_negative_constant_direction_blows_up(self):
        assert subderivative_f(LAM2, ABSC, Poly((-1 + 0j, 0j, 0j))) == math.inf

    def test_zero_direction(self):
        assert subderivative_f(LAM2, ABSC, Poly.zero(2)) == 0.0

    @staticmethod
    def _corner_double_root():
        # f = |.| with the rectangle [-i, 2+i] * lam as its subdifferential
        # at the active double root lam (corner regime), and a simple
        # inactive root
        lam = cmath.exp(2j)
        rect = ConvexSet2D.polygon([1j * lam, -1j * lam, (2 - 1j) * lam, (2 + 1j) * lam])
        f = make_generator("corner", abs, subdiff=lambda z: rect,
                           tag=lambda z: "nonsmooth-fullspan" if z == lam else "other")
        return RootCluster((lam, -0.3 * lam), (2, 1)), f, lam

    def test_rounding_noise_on_the_ray_is_finite(self):
        # omega_2 = 0 comes back from the coordinate solve as rounding noise;
        # 3e-16 (1 + i) is noise of that size in any arithmetic
        base, f, lam = self._corner_double_root()
        for omega2 in (0, 3e-16 * (1 + 1j)):
            v = from_coords(base, [0.3, -0.2 * lam, omega2, 0.7])
            # max over the rectangle of Re(conj(0.2 lam) g) is 0.4, halved by n_j
            assert subderivative_f(base, f, v) == pytest.approx(0.2, rel=1e-12)

    def test_second_coordinate_off_the_ray_blows_up(self):
        base, f, lam = self._corner_double_root()
        v = from_coords(base, [0.3, -0.2 * lam, 1e-6 * lam * lam, 0.7])
        assert subderivative_f(base, f, v) == math.inf
        # smooth regime: the ray through grad^2 = 1 is the positive reals
        assert subderivative_f(LAM2, ABSC, from_coords(LAM2, [0, 0, 1 + 1e-6j])) == math.inf

    def test_deep_coordinates_must_vanish(self):
        base = RootCluster((0j,), (3,))
        v = from_coords(base, [0, 0, 0, 1])
        assert subderivative_f(base, ABSC, v) == math.inf

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(1)
        base = RootCluster((-1 + 0j, 0.5 + 0j), (1, 2))
        for _ in range(20):
            a = complex(rng.standard_normal(), rng.standard_normal())
            t = abs(rng.standard_normal())
            c = [0.2j * rng.standard_normal(), rng.standard_normal(), a, t * 1.0]
            v = from_coords(base, c)
            d1 = subderivative_f(base, ABSC, v)
            for alpha in (0.5, 2.0, 7.0):
                d2 = subderivative_f(base, ABSC, alpha * v)
                if math.isinf(d1):
                    assert math.isinf(d2)
                else:
                    assert d2 == pytest.approx(alpha * d1, rel=1e-9, abs=1e-12)

    def test_subadditive_on_finite_pairs(self):
        rng = np.random.default_rng(2)
        base = RootCluster((0.5 + 0j,), (2,))
        g = RAD2.grad(0.5)
        for _ in range(20):
            cs = []
            for _ in range(2):
                a = complex(rng.standard_normal(), rng.standard_normal())
                t = abs(rng.standard_normal())
                cs.append(np.array([rng.standard_normal() * 1j, a, t * g * g]))
            v1, v2 = (from_coords(base, c) for c in cs)
            d1 = subderivative_f(base, RAD2, v1)
            d2 = subderivative_f(base, RAD2, v2)
            d12 = subderivative_f(base, RAD2, v1 + v2)
            assert d12 <= d1 + d2 + 1e-10

    def test_support_inequality_against_members(self):
        # any membership-passing v satisfies <v, z> <= d(z) in the base inner
        # product, tightly over the admissible directions
        rng = np.random.default_rng(3)
        v = from_coords(LAM2, [0, -0.5, -0.7 + 0.4j])
        assert rsd_f_membership(LAM2, ABSC, v)
        for _ in range(200):
            if rng.uniform() < 0.5:
                z_coords = [0, complex(rng.standard_normal(), rng.standard_normal()),
                            abs(rng.standard_normal())]
            else:
                z_coords = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z = from_coords(LAM2, z_coords)
            lhs = float(np.real(np.vdot(_solve_coords(LAM2, v), _solve_coords(LAM2, z))))
            assert lhs <= subderivative_f(LAM2, ABSC, z) + 1e-10


class TestSubderivativeOracleConsistency:
    def test_simple_active_root_quotients_converge(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 15:
            base = RootCluster.sorted(
                [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) for _ in range(2)]
            )
            if abs(base.roots[0] - base.roots[1]) < 0.8:
                continue
            if abs(base.roots[0].real - base.roots[1].real) < 0.3:
                continue
            n = base.degree()
            v = Poly(tuple(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)))
            d = subderivative_f(base, ABSC, v)
            if abs(d) < 0.05:
                continue
            rep = fd_poly_quotient(base.as_poly(), ABSC, v, t_grid=(1e-3, 1e-4, 1e-5))
            assert rep.extrapolated == pytest.approx(d, rel=1e-3)
            checked += 1

    def test_multiple_root_quotient_upper_bound(self):
        # fixed-direction quotients only bound d from above
        rep = fd_poly_quotient(LAM2.as_poly(), ABSC, Poly((0j, 1 + 0j, 0j)),
                               t_grid=(1e-2, 1e-3, 1e-4))
        assert all(q >= -0.5 - 1e-9 for q in rep.quotients)
        assert rep.quotients[0] == pytest.approx(0.0, abs=1e-12)

    def test_divergent_direction_growth_rate(self):
        rep = fd_poly_quotient(LAM2.as_poly(), RAD, Poly((1 + 0j, 0j, 0j)),
                               t_grid=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        assert rep.growth_exponent == pytest.approx(-0.5, abs=0.1)


class TestSubderivativeRadius:
    def test_simple_root(self):
        base = RootCluster((1 + 0j,), (1,))
        assert subderivative_f(base, RAD, Poly((1 + 0j, 0j))) == pytest.approx(-1.0)

    def test_double_root_cone_direction(self):
        base = RootCluster((1 + 0j,), (2,))
        v = from_coords(base, [0, 0, 2])
        assert subderivative_f(base, RAD, v) == pytest.approx(1.0)

    def test_cone_violation(self):
        base = RootCluster((1 + 0j,), (2,))
        v = from_coords(base, [0, 0, 1j])
        assert subderivative_f(base, RAD, v) == math.inf

    def test_zero_radius_rejected(self):
        # at lambda^2 the unit disk spans the plane, so omega_2 must vanish:
        # lambda^2 + t splits into +-i sqrt(t); lambda^2 + 2t lambda has the
        # roots 0 and -2t, and the mean of the double root moves by t
        assert subderivative_f(LAM2, RAD, Poly((1 + 0j, 0j, 0j))) == math.inf
        assert subderivative_f(LAM2, RAD, Poly((0j, 2 + 0j, 0j))) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_radius_matches_the_quotient_oracle(self, n):
        # J_n(0) under the radius: finite exactly on upper triangular Z
        spec = JordanSpec([(0j, (n,))])
        rng = np.random.default_rng(n)
        for k in range(200):
            Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if k % 2:
                Z = np.triu(Z)
            d = subderivative(spec, RAD, Z)
            assert math.isfinite(d) == bool(k % 2)
            assert fd_phi_quotient(spec.synth(), RAD, Z, holder_order=n, formula=d).verdict

    def test_leading_coordinate_is_ignored(self):
        base = RootCluster((1 + 0j,), (2,))
        v1 = from_coords(base, [0, 0.3, 2])
        v2 = from_coords(base, [5 - 2j, 0.3, 2])
        assert subderivative_f(base, RAD, v1) == pytest.approx(subderivative_f(base, RAD, v2))

    def test_matches_general_formula_on_simple_roots(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            base = RootCluster((lam,), (1,))
            om1 = complex(rng.standard_normal(), rng.standard_normal())
            v = from_coords(base, [0, om1])
            got = subderivative_f(base, RAD, v)
            expect = np.real(np.conj(lam / abs(lam)) * (-om1))
            assert got == pytest.approx(float(expect), rel=1e-10)

    def test_quotient_oracle_on_cone_directions(self):
        base = RootCluster((1 + 0j,), (2,))
        v = from_coords(base, [0, -0.4 + 0.1j, 1.5])
        d = subderivative_f(base, RAD, v)
        rep = fd_poly_quotient(base.as_poly(), RAD, v, t_grid=(1e-2, 1e-3, 1e-4),
                               holder_order=2, formula=d)
        assert rep.verdict


class TestActiveRoots:
    """The polynomial route decides its active roots through the same
    routine as the matrix routes, so the radius reaches it through the
    radius transform and roots outside the domain are rejected."""

    @staticmethod
    def _clusters():
        # the first has two active double roots of modulus one
        rng = np.random.default_rng(21)
        out = [RootCluster((-1 + 0j, 1 + 0j), (2, 2))]
        for _ in range(8):
            k = int(rng.integers(1, 4))
            roots = rng.uniform(-2, 2, k) + 1j * rng.uniform(-2, 2, k)
            tied = rng.uniform(size=k) < 0.5  # moved onto the first root's circle
            roots[tied] *= abs(roots[0]) / np.abs(roots[tied])
            out.append(RootCluster.sorted(zip(roots, rng.integers(1, 4, k))))
        return out

    def test_radius_is_radius2_on_rho_c(self):
        rng = np.random.default_rng(22)
        seen = set()
        for cluster in self._clusters():
            rho = max(abs(r) for r in cluster.roots)
            for s in range(4):
                c = Dp_sample(cluster, RAD2, seed=s) / rho
                z = np.zeros_like(c)
                z[2:] = rng.standard_normal(c.size - 2) + 1j * rng.standard_normal(c.size - 2)
                inactive = c.copy()
                inactive[1:] += 1e-3 * (c[1:] == 0)
                for x in (c, 1.5 * c, inactive, c + 1e-3):
                    verdict = Dp_membership(cluster, RAD, x)
                    assert verdict == Dp_membership(cluster, RAD2, rho * x)
                    seen.add(verdict)
                for x in (z, c):
                    verdict = _member(cluster, RAD, x, horizon=True)
                    assert verdict == _member(cluster, RAD2, rho * x, horizon=True)
                    seen.add(verdict)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radius_at_the_nilpotent_origin_is_the_corner_block(self, n):
        # the unit disk as subdifferential: |c_1| <= 1/n, deeper coordinates free
        base = RootCluster((0j,), (n,))
        tail = [5 - 2j] * (n - 1)
        for angle in (0.0, 1.0, 3.0):
            u = cmath.exp(1j * angle)
            assert Dp_membership(base, RAD, [0, 0.99 * u / n] + tail)
            assert not Dp_membership(base, RAD, [0, 1.01 * u / n] + tail)
            assert not _member(base, RAD, [0, 0.01 * u] + tail, horizon=True)
        assert not Dp_membership(base, RAD, [0.1, 0] + tail)
        assert _member(base, RAD, [0, 0] + tail, horizon=True)

    def test_radius_samples_are_members_in_its_own_units(self):
        # two active roots of modulus rho: at rho = 1 the radius's samples
        # are radius2's bit for bit, and at every rho members of both routes
        roots, mults = [1j, -1.0, 0.2 + 0.3j], [2, 1, 2]
        rng = np.random.default_rng(23)
        P = np.eye(5) + 0.2 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        for rho in (1.0, 1e-3, 2.0, 1e3):
            cluster = RootCluster.sorted(zip([rho * z for z in roots], mults))
            spec = JordanSpec([(rho * z, (m,)) for z, m in zip(roots, mults)], P=P)
            for s in range(3):
                c, Y = Dp_sample(cluster, RAD, seed=s), rsd_sample(spec, RAD, seed=s)
                if rho == 1.0:
                    assert c.tobytes() == Dp_sample(cluster, RAD2, seed=s).tobytes()
                    assert Y.tobytes() == rsd_sample(spec, RAD2, seed=s).tobytes()
                assert Dp_membership(cluster, RAD, c)
                assert rsd_f_membership(cluster, RAD, from_coords(cluster, c))
                assert rsd_membership(spec, RAD, Y).verdict
                assert chain_rule_membership(spec, RAD, Y)

    def test_roots_outside_the_domain_are_rejected(self):
        # +inf at the inactive root 2, though tagged quadratic there
        half = make_generator("half", lambda z: -z.real if z.real < 1.5 else math.inf,
                              grad=lambda z: -1 + 0j, hess=lambda z: np.zeros((2, 2)),
                              tag=lambda z: "quadratic")
        base = RootCluster((0j, 2 + 0j), (1, 1))
        with pytest.raises(DomainError):
            Dp_membership(base, half, [0, 0, -1])
        with pytest.raises(DomainError):
            _member(base, half, [0, 0, 0], horizon=True)
        with pytest.raises(DomainError):
            Dp_sample(base, half)
        with pytest.raises(DomainError):
            subderivative_f(base, half, from_coords(base, [0, 1, 0]))
