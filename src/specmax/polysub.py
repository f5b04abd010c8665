"""Factor coordinates and the subdifferential calculus of root max functions.

A monic p with distinct roots lam_j of multiplicities n_j factors as
prod_j (lambda - lam_j)**n_j.  A perturbation of p has Taylor coordinates in
C^(ntilde+1): mu0 (the leading-coefficient direction), then
mu_js = tau_(n_j - s, lam_j)(u_j) for s = 1..n_j, with u_j its polynomial of
degree <= n_j - 1 at root j.  The derivative F'(0) of the factored product
is the coordinate matrix (:func:`_coordinate_matrix`), and
:func:`_solve_coords` inverts it.

The subgradient set of a root max function at a monic polynomial is
described in these coordinates: the leading coordinate vanishes, inactive
root blocks vanish, and each active block is constrained through a
convex-weight family (weights gamma_j >= 0 summing to one across the active
roots) scaling the first two coordinates of the per-root building blocks;
deeper coordinates are free.  A singleton subdifferential forces its root's
weight through the first coordinate.  Every other active root admits an
interval of weights, because {(x, gamma) : x in gamma S} is a convex cone,
so the split exists exactly when those intervals can share the remaining
mass.  The active roots come from :func:`cpoly.active_roots`, as on the
matrix routes, with its radius transform and domain check, and every route
hands them to the one per-root decision, :func:`block_failures`.

A root's curvature eta and the set q_set of its squared subdifferential
constrain only the second coordinate, so they are evaluated where a
condition reads them (:class:`_ActiveBlock`).  Their refusals follow: a
user generator tagged smooth without a Hessian, or tagged corner with a
subdifferential :func:`generators.q_set` cannot represent (a segment off
0, say), gets a verdict on a one-coordinate block and still raises
UnsupportedGenerator on a two-coordinate block whose second coordinate is
tested.  The builtins have no such case.

Tolerances are module constants: coordinates within the absolute
COORD_TOL, which the matrix chain route shares, the weight sum within
SIMPLEX_TOL, and the residual of the coordinate solve within SOLVE_TOL.

All functions are pure.  The sets are the exact shapes of
:class:`generators.ConvexSet2D`: the weight split reads their scale
intervals, the witness check their distances, and the sampler draws from
them.  The split runs on Python floats, and its sums run in order from 0.0,
as numpy sums fewer than eight terms, so the weights equal those of the
array form bit for bit on up to seven active roots.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from itertools import accumulate

import numpy as np

from .cpoly import Poly, RootCluster, _norm_within, _safe_norm, active_roots
from .generators import (
    COND14,
    COND15,
    ConvexSet2D,
    Generator,
    UnsupportedGenerator,
    _halfplane_distance,
    condition_check,
    q_set,
)

__all__ = [
    "block_failures",
    "Dp_membership",
    "Dp_sample",
    "rsd_f_membership",
    "subderivative_f",
    "SIMPLEX_TOL",
    "COORD_TOL",
    "SOLVE_TOL",
]

SIMPLEX_TOL = 1e-8  # dimensionless: the weight sum
COORD_TOL = 1e-8  # absolute: factor coordinates, here and on the matrix chain route
SOLVE_TOL = 1e-10  # relative to max(1, |v|): the residual of the coordinate solve


def _coordinate_matrix(base: RootCluster) -> np.ndarray:
    """Columns are the monomial coefficients of F'(0) applied to each basis
    coordinate of the factorization space (mu0 first, then Taylor slots):
    p, then r_j * (lambda - lam_j)**(n_j - s) for s = 1..n_j with the
    cofactor r_j = p / (lambda - lam_j)**n_j, each convolved from the power
    tables in the order of the :class:`Poly` products it stands for.

    With T_k = (lambda - lam_k)**n_k, the prefix products
    one * T_0 * ... * T_(j-1) are convolved once: the last is p, and r_j
    continues the j-th with T_(j+1) ... T_(K-1).  Each product keeps its
    order, so the bytes are those of one product per cofactor, from
    K + K(K - 1)/2 convolutions instead of K^2."""
    ntilde = base.degree()
    one = np.ones(1, dtype=complex)
    tables = [list(accumulate([np.array([-lam, 1.0 + 0j])] * n_j, np.convolve, initial=one))
              for lam, n_j in zip(base.roots, base.mults)]  # tables[j][k] = (lambda - lam_j)**k
    tops = [t[-1] for t in tables]
    prefix = list(accumulate(tops, np.convolve, initial=one))  # one * T_0 * ... * T_(j-1)
    M = np.zeros((ntilde + 1, ntilde + 1), dtype=complex)
    M[:, 0] = prefix[-1]
    col = 1
    for j, n_j in enumerate(base.mults):
        r_j = reduce(np.convolve, tops[j + 1:], prefix[j])
        for s in range(1, n_j + 1):
            c = np.convolve(r_j, tables[j][n_j - s])
            M[: c.size, col] = c
            col += 1
    if not np.isfinite(M).all():
        raise ValueError("polynomial coefficients must be finite")
    return M


def _solve_coords(base: RootCluster, v: Poly) -> np.ndarray:
    """The Taylor coordinates (omega_0, omega_11, ..., omega_mn_m) of the
    unique w with F'(0) w = v, by a dense solve with the coordinate matrix.

    The stacked coordinate matrix is nonsingular whenever the base roots are
    distinct; the solve is guarded by a residual check at SOLVE_TOL.  Its
    norms are read overflow-safely past the scale sum |v_k| >= |v|, which
    also bounds the residual of every solve that passes the check.
    """
    ntilde = base.degree()
    if v.degree() > ntilde:
        raise ValueError(f"degree of v exceeds {ntilde}")
    M = _coordinate_matrix(base)
    rhs = v.padded(ntilde).array()
    try:
        coords = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"factor coordinate system is singular: {exc}") from exc
    bound = sum(map(abs, v.coeffs))
    resid = _norm_within(M @ coords - rhs, bound)
    if resid > SOLVE_TOL * max(1.0, _norm_within(rhs, bound)):
        raise ValueError(f"factor coordinate solve residual {resid:.3e} too large")
    return coords


def _split_blocks(mults, coords) -> list:
    """The per-root blocks, as slices, of the Taylor coordinates that
    follow the leading one, for roots of the multiplicities ``mults``."""
    return [coords[end - n_j: end] for n_j, end in zip(mults, accumulate(mults))]


def _regime(f: Generator, lam: complex) -> str:
    """The regime of f at lam, COND14 (smooth) or COND15 (corner)."""
    cond = condition_check(f, lam)
    if cond not in (COND14, COND15):
        raise UnsupportedGenerator(f"{f.name} at {lam} satisfies neither supported regime")
    return cond


class _on_first_read:
    """A method read as an attribute, computed on the first read and kept
    in the instance's dict, which later reads find first: what
    functools.cached_property does, without the lock Python 3.11 takes on
    every first read.  Building an object and reading such an attribute
    once took 1.41 us through cached_property and 0.35 us through this,
    against 0.16 us for an attribute set in __init__ (timeit, Python
    3.11.7, 2-core Xeon)."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _ActiveBlock:
    """Per-active-root data needed by the membership tests.  A coordinate
    block carries the first coordinate and, when it has one, the second; a
    derogatory eigenvalue of the matrix route has fewer coordinates than its
    multiplicity n_j.

    The regime and the subdifferential, which the first coordinate needs,
    and in the smooth regime the squared gradient w are read at
    construction (UnsupportedGenerator where a generator tagged smooth has
    no gradient).  The curvature rate ``offset_rate`` and the horizon set
    ``q`` of the second coordinate are computed on first read, by
    :meth:`weight_interval`, :meth:`second_distance`, :meth:`second_set` or
    the sampler, and kept.  So a one-coordinate block never evaluates either,
    the horizon cone never evaluates the curvature, and a block whose
    weight split has already failed evaluates neither.  Their refusals
    (UnsupportedGenerator for a generator tagged smooth without a Hessian,
    or tagged corner with a subdifferential :func:`generators.q_set` cannot
    represent) fire at that read, not at construction: a one-coordinate
    block gets a verdict, a two-coordinate block raises when its second
    coordinate is tested."""

    def __init__(self, f: Generator, lam: complex, n_j: int):
        self.f, self.lam, self.n_j = f, lam, n_j
        self.cond = _regime(f, lam)
        self.subdiff = f.subdiff(lam)
        if self.subdiff.is_singleton and self.subdiff.the_point() == 0:
            raise UnsupportedGenerator(
                f"subdifferential of {f.name} at {lam} is {{0}}: no weight reaches it")
        if self.cond == COND14:
            g = f.grad(lam)
            if g is None:
                raise UnsupportedGenerator(
                    f"{f.name} is tagged smooth but has no gradient at {lam}")
            self.w = complex(g * g)
        else:
            self.w = None
        self.determined = self.subdiff.is_singleton

    @_on_first_read
    def offset_rate(self) -> float:
        """eta / n_j, the smooth regime's halfplane offset per unit weight."""
        return self.f.eta(self.lam) / self.n_j

    @_on_first_read
    def q(self) -> ConvexSet2D:
        """The set of the second coordinate on the horizon cone: the
        halfplane through 0 normal to w (smooth regime), or the
        squared-generator cone :func:`generators.q_set` (corner regime)."""
        if self.cond == COND14:
            return ConvexSet2D.halfplane(self.w, 0.0)
        return q_set(self.subdiff)

    def gamma_from_first(self, c1: complex) -> float:
        """Weight forced by the first coordinate when the subdifferential is
        a singleton {g}: c1 = -gamma * g / n_j, so gamma = Re(-n_j c1 / g)."""
        g = self.subdiff.the_point()
        return max(0.0, _quotient_real(-self.n_j * c1, g))

    def second_distance(self, c2: complex, gamma=None) -> float:
        """Distance of c2 to :meth:`second_set` at weight gamma, or to the
        horizon set ``q`` without one.  The smooth regime's halfplane
        Re(conj(w) x) <= offset is read without building it."""
        if self.cond != COND14:
            return self.q.distance(c2)
        w = self.w
        if w == 0:
            raise ValueError("halfplane needs a nonzero normal")
        offset = 0.0 if gamma is None else float(gamma * self.offset_rate)
        return _halfplane_distance(w, offset, c2)

    def second_set(self, gamma: float) -> ConvexSet2D:
        """The set of the second coordinate at weight gamma; in the corner
        regime the squared-generator set is a cone, which scaling leaves
        fixed."""
        if self.cond == COND14:
            return ConvexSet2D.halfplane(self.w, gamma * self.offset_rate)
        return self.q

    def weight_interval(self, block: np.ndarray, tol: float) -> tuple:
        """Interval (lo, hi) of the weights gamma >= 0 under which the
        gamma-dependent checks of the block pass, each bound relaxed by tol;
        lo > hi when none does."""
        lo, hi = (self.n_j * t for t in self.subdiff.scale_interval(-block[0], tol))
        if len(block) >= 2 and self.cond == COND14:
            hp = ConvexSet2D.halfplane(self.w, self.offset_rate)
            a, b = hp.scale_interval(block[1], tol)
            lo, hi = max(lo, a), min(hi, b)
        return lo, hi


def block_failures(g: Generator, active: list, tol: float, horizon: bool = False) -> tuple:
    """The subgradient conditions on the active coordinate blocks: the one
    decision behind every membership route.

    ``active`` are the active roots as ``(lam_j, n_j, block_j)``, with
    block_j the root's coordinate block (a list or an array of complex
    numbers, read as a list), and g the generator of
    :func:`cpoly.active_roots`.  Returns ``(failed, gammas)``, with
    ``failed`` the failed conditions as ``(condition, residual, i)`` (i the
    position of the root, None for the weight sum) and ``gammas`` the list
    of witness weights (None for the horizon cone).

    Regular subgradients: a singleton subdifferential forces its weight
    through the first coordinate.  Every other block admits the weights of
    an interval [lo_i, hi_i], each bound relaxed by tol, and the remaining
    mass m can be split iff sum lo_i <= m <= sum hi_i, within SIMPLEX_TOL;
    otherwise the split fails with a residual in weight units.  The witness
    split spreads the slack over the blocks so that none sits on a relaxed
    endpoint, and each block then needs its first coordinate within tol of
    -gamma_i / n_i times the subdifferential and its second coordinate
    within tol of its set.  The horizon cone needs a zero first coordinate
    and the second in the squared-generator cone.  Deeper coordinates are
    free.
    """
    data = [_ActiveBlock(g, lam, n_j) for lam, n_j, _ in active]
    blocks = [list(block) for _, _, block in active]
    failed = []
    if horizon:
        for i, (d, b) in enumerate(zip(data, blocks)):
            if abs(b[0]) > tol:
                failed.append(("diagonal_zero", abs(b[0]), i))
            if len(b) >= 2 and (r := d.second_distance(b[1])) > tol:
                failed.append(("subdiagonal_halfplane", r, i))
        return failed, None

    gammas = [0.0] * len(data)
    free_idx = []
    for i, (d, b) in enumerate(zip(data, blocks)):
        if d.determined:
            gammas[i] = d.gamma_from_first(b[0])
        else:
            free_idx.append(i)
    if free_idx:
        lo, hi = zip(*[data[i].weight_interval(blocks[i], tol) for i in free_idx])
        failed = [("diagonal_in_subdifferential", a - b, i)
                  for a, b, i in zip(lo, hi, free_idx) if a > b]
        mass = 1.0 - _sum(gammas)
        lo_sum, hi_sum = _sum(lo), _sum(hi)
        gap = max(lo_sum - mass, mass - hi_sum)
        if not failed and gap > SIMPLEX_TOL:
            failed = [("weight_sum_one", gap, None)]
        if failed:
            return failed, gammas
        for i, g in zip(free_idx, _spread(lo, hi, min(max(mass, lo_sum), hi_sum))):
            gammas[i] = g
    total = _sum(gammas)
    if abs(total - 1.0) > SIMPLEX_TOL:
        failed.append(("weight_sum_one", abs(total - 1.0), None))
    for i, (d, b, g) in enumerate(zip(data, blocks, gammas)):
        t = g / d.n_j
        if d.determined:  # -b_0 against t * p for the point {p}, with no scaled set built
            r = abs(complex(-b[0]) - (t * d.subdiff.data[0] if t != 0 else 0j))
        else:
            r = d.subdiff.scaled(t).distance(-b[0])
        if r > tol:
            failed.append(("diagonal_in_subdifferential", r, i))
        if len(b) >= 2:
            r = d.second_distance(b[1], g)
            if r > tol:
                failed.append(("subdiagonal_halfplane", r, i))
    return failed, gammas


def _quotient_real(x: complex, g: complex) -> float:
    """Re(x / g) as numpy divides complex128 scalars, on Python floats:
    Smith's method, times the reciprocal of the scaled denominator (Python's
    own complex division rounds apart).  g must be nonzero."""
    if abs(g.real) >= abs(g.imag):
        rat = g.imag / g.real
        return (x.real + x.imag * rat) * (1.0 / (g.real + g.imag * rat))
    rat = g.real / g.imag
    return (x.real * rat + x.imag) * (1.0 / (g.imag + g.real * rat))


def _member(cluster: RootCluster, f: Generator, c, horizon: bool) -> bool:
    """Whether the leading coordinate and the inactive blocks of c vanish and
    its active blocks pass :func:`block_failures`, all within COORD_TOL."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.size != cluster.degree() + 1:
        raise ValueError(
            f"coordinate vector must have length {cluster.degree() + 1}, got {c.size}"
        )
    scale = 1.0 + _safe_norm(c)
    if not math.isfinite(scale):  # NaN passes every "> tol" test below
        raise ValueError(f"coordinate vector must be finite, got norm {scale - 1.0}")
    g, active = active_roots(f, cluster.roots)
    blocks = _split_blocks(cluster.mults, c[1:])
    if abs(c[0]) > COORD_TOL or any(_norm_within(block, scale) > COORD_TOL * scale
                                    for j, block in enumerate(blocks) if j not in active):
        return False
    triples = [(cluster.roots[j], cluster.mults[j], blocks[j].tolist()) for j in active]
    return not block_failures(g, triples, COORD_TOL, horizon)[0]


def Dp_membership(cluster: RootCluster, f: Generator, c) -> bool:
    """Membership of a coordinate vector in the subgradient coordinate set:
    the leading coordinate and inactive blocks vanish, and the active
    blocks pass :func:`block_failures`, all within COORD_TOL."""
    return _member(cluster, f, c, horizon=False)


def _spread(lo, hi, mass: float):
    """Weights in [lo, hi] summing to mass, with sum(lo) <= mass <= sum(hi).

    Each block takes a share of the slack mass - sum(lo) in proportion to
    its room min(hi - lo, slack), so every block with room ends strictly
    inside its interval unless the mass pins the split to the endpoints."""
    slack = mass - _sum(lo)
    room = [min(b - a, slack) for a, b in zip(lo, hi)]
    total = _sum(room)
    if total <= 0:
        return lo
    return [a + slack * r / total for a, r in zip(lo, room)]


def _sum(xs) -> float:
    """0.0 + x_0 + x_1 + ... in order: numpy's sum of fewer than eight
    floats.  Python's own sum is compensated from 3.12 on."""
    total = 0.0
    for x in xs:
        total += x
    return total


def Dp_sample(cluster: RootCluster, f: Generator, gamma=None, seed: int = 0) -> np.ndarray:
    """A point of the subgradient coordinate set (always a member)."""
    g, active = active_roots(f, cluster.roots)
    return _sample(cluster, g, active, gamma, seed)


def _sample(cluster: RootCluster, f: Generator, active: list, gamma, seed: int) -> np.ndarray:
    """The body of :func:`Dp_sample` for a transformed generator f and its
    active roots, the increasing indices ``active``; ``gamma`` are weights
    over them (a random point of the simplex by default)."""
    rng = np.random.default_rng(seed)
    if gamma is None:
        gamma = rng.dirichlet(np.ones(len(active)))
    gamma = np.asarray(gamma, dtype=float)
    if (gamma.shape != (len(active),) or not gamma.min() >= 0
            or not abs(gamma.sum() - 1) <= SIMPLEX_TOL):  # NaN fails both
        raise ValueError("weights must be a point of the active simplex")
    c = np.zeros(cluster.degree() + 1, dtype=complex)
    blocks = _split_blocks(cluster.mults, c[1:])  # views into c
    for j, g in zip(active, gamma):
        n_j, block = cluster.mults[j], blocks[j]
        d = _ActiveBlock(f, cluster.roots[j], n_j)
        block[0] = -_sample_set(d.subdiff.scaled(g / n_j), rng)
        if n_j >= 2:
            block[1] = _sample_set(d.second_set(g), rng, interior=True)
        if n_j >= 3:
            block[2:] = rng.standard_normal(n_j - 2) + 1j * rng.standard_normal(n_j - 2)
    return c


def _sample_set(S: ConvexSet2D, rng, interior: bool = False) -> complex:
    if S.kind == "polygon":  # a point takes no draw, a segment one uniform
        vs = S.data
        if len(vs) == 1:
            return vs[0]
        if len(vs) == 2:
            return vs[0] + rng.uniform() * (vs[1] - vs[0])
        ws = rng.uniform(size=len(vs))
        ws /= ws.sum()
        return complex(np.dot(ws, np.asarray(vs)))
    if S.kind == "halfplane":
        normal, offset = S.data
        slack = abs(rng.standard_normal()) + (0.1 if interior else 0.0)
        tangent = 1j * normal / abs(normal)
        base = (offset - slack) * normal / abs(normal) ** 2
        return base + rng.standard_normal() * tangent
    if S.kind == "disk":
        center, radius = S.data
        r = radius * math.sqrt(rng.uniform())
        ang = rng.uniform(0, 2 * math.pi)
        return center + r * cmath.exp(1j * ang)
    if S.kind == "plane":
        return complex(rng.standard_normal(), rng.standard_normal())
    raise ValueError(f"cannot sample from set kind {S.kind!r}")


def rsd_f_membership(cluster: RootCluster, f: Generator, v: Poly) -> bool:
    """Regular subgradient test for the root max function: pull v back
    through the factorization derivative and test the coordinate set."""
    return Dp_membership(cluster, f, _solve_coords(cluster, v))


def subderivative_f(cluster: RootCluster, f: Generator, v: Poly) -> float:
    """Lower directional derivative of the root max function at the cluster
    polynomial in direction v: :func:`_subderivative` of the Taylor
    coordinates of v, one coordinate solve, on the active roots of
    :func:`cpoly.active_roots`."""
    g, active = active_roots(f, cluster.roots)
    blocks = _split_blocks(cluster.mults, _solve_coords(cluster, v)[1:])
    return _subderivative(g, [(cluster.roots[j], cluster.mults[j], blocks[j])
                              for j in active])


def _subderivative(f: Generator, active) -> float:
    """The subderivative read off the Taylor coordinates of the active
    roots, given as ``(lam_j, n_j, omega_j)`` with omega_j the root's
    coordinate block; f is the generator of :func:`cpoly.active_roots`.

    Finite exactly when, at every active root, sqrt(-omega_j2) is
    real-orthogonal to the whole subdifferential and the deeper coordinates
    vanish.  Orthogonality to a vertex g means that omega_j2 lies on the
    ray through g^2, which is tested within COORD_TOL * (1 + |block|) for
    every nonzero vertex of a polygon subdifferential, with |block| read
    overflow-safely; a disk of positive radius (the radius at a nilpotent
    base) spans the plane, as 1 and i do, and is tested through them.  Other
    kinds are rejected.  The value is then the max
    over active roots of (f'(lam_j; -omega_j1) + curvature term) / n_j, the
    curvature term being f''(lam_j; sqrt(-omega_j2), sqrt(-omega_j2)) in
    the smooth regime and zero in the corner regime.  The division by the multiplicity applies to
    the whole bracket: a multiplicity-n root responds to a coefficient
    perturbation with the mean of its n split roots, and this normalization
    is the one under which the subgradient support inequality is tight.
    """
    vals = []
    for lam, n_j, block in active:
        cond = _regime(f, lam)
        bound = COORD_TOL * (1.0 + _norm_within(block, sum(map(abs, block))))
        kappa = 0.0
        if n_j >= 2:
            # tested on omega_j2 itself: through its square root, rounding
            # noise of size eps would become noise of size sqrt(eps)
            S = f.subdiff(lam)
            if S.kind == "polygon":
                gens = S.data
            elif S.kind == "disk" and S.data[1] > 0:
                gens = (1, 1j)  # they span the plane too: omega_j2 on the rays of 1 and -1 is 0
            else:
                raise UnsupportedGenerator(
                    f"orthogonality test has no finite generator list for {S.kind!r}")
            for g in gens:
                if g == 0:
                    continue
                t = (g * g).conjugate() * block[1] / abs(g * g)  # on the ray iff t >= 0
                if (abs(t.imag) if t.real >= 0 else abs(t)) > bound:
                    return math.inf
            if cond == COND14:
                kappa = f.second(lam, cmath.sqrt(-block[1]))
        if any(abs(block[s]) > bound for s in range(2, n_j)):
            return math.inf
        vals.append((f.dirderiv(lam, -block[0]) + kappa) / n_j)
    return max(vals)
