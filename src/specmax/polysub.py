"""Subdifferential and subderivative calculus for root max functions.

The subgradient set of a root max function at a monic polynomial is
described in the Taylor coordinates of the local factorization: the leading
coordinate vanishes, inactive root blocks vanish, and each active block is
constrained through a convex-weight family (weights gamma_j >= 0 summing to
one across the active roots) scaling the first two coordinates of the
per-root building blocks; deeper coordinates are free.  A singleton
subdifferential forces its root's weight through the first coordinate.
Every other active root admits an interval of weights, because
{(x, gamma) : x in gamma S} is a convex cone, so the split exists exactly
when those intervals can share the remaining mass.

All functions are pure; every set is handled through membership predicates
and samplers rather than explicit geometry.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .cpoly import Poly, RootCluster, active_set
from .factorspace import _solve_coords
from .generators import (
    COND14,
    COND15,
    ConvexSet2D,
    Generator,
    UnsupportedGenerator,
    condition_check,
    q_set,
    radius_transform,
)

__all__ = [
    "block_failures",
    "Dp_membership",
    "Dp_horizon_membership",
    "Dp_sample",
    "rsd_f_membership",
    "subderivative_f",
    "SIMPLEX_TOL",
]

SIMPLEX_TOL = 1e-8


def _regime(f: Generator, lam: complex) -> str:
    """The regime of f at lam, COND14 (smooth) or COND15 (corner)."""
    cond = condition_check(f, lam)
    if cond not in (COND14, COND15):
        raise UnsupportedGenerator(f"{f.name} at {lam} satisfies neither supported regime")
    return cond


class _ActiveBlock:
    """Per-active-root data needed by the membership tests.  A coordinate
    block carries the first coordinate and, when it has one, the second; a
    derogatory eigenvalue of the matrix route has fewer coordinates than its
    multiplicity n_j."""

    def __init__(self, f: Generator, lam: complex, n_j: int):
        self.n_j = n_j
        self.cond = _regime(f, lam)
        self.subdiff = f.subdiff(lam)
        if self.subdiff.is_singleton and self.subdiff.the_point() == 0:
            raise UnsupportedGenerator(
                f"subdifferential of {f.name} at {lam} is {{0}}: no weight reaches it")
        if self.cond == COND14:
            g = f.grad(lam)
            self.w = g * g
            self.offset_rate = f.eta(lam) / n_j  # halfplane offset per unit weight
            self.q = ConvexSet2D.halfplane(self.w, 0.0)
        else:
            self.w = None
            self.offset_rate = None
            self.q = q_set(f, lam)
        self.determined = self.subdiff.is_singleton

    def gamma_from_first(self, c1: complex) -> float:
        """Weight forced by the first coordinate when the subdifferential is
        a singleton {g}: c1 = -gamma * g / n_j."""
        g = self.subdiff.the_point()
        xi = -self.n_j * c1 / g
        return max(0.0, xi.real)

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


def block_failures(data: list, blocks: list, tol: float, horizon: bool = False) -> tuple:
    """The subgradient conditions on the active coordinate blocks: the one
    decision behind both membership routes.

    ``data`` are the :class:`_ActiveBlock` of the active roots and
    ``blocks`` their coordinate blocks.  Returns ``(failed, gammas)``, with
    ``failed`` the failed conditions as ``(condition, residual, i)`` (i the
    position of the block, None for the weight sum) and ``gammas`` the
    witness weights (None for the horizon cone).

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
        gammas[free_idx] = _spread(lo, hi, min(max(mass, lo.sum()), hi.sum()))
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


def _split_blocks(cluster: RootCluster, c: np.ndarray) -> list:
    blocks = []
    pos = 1
    for n_j in cluster.mults:
        blocks.append(c[pos: pos + n_j])
        pos += n_j
    return blocks


def _member(cluster: RootCluster, f: Generator, c, tol: float, active_tol: float,
            horizon: bool) -> bool:
    """Whether the leading coordinate and the inactive blocks of c vanish
    and its active blocks pass :func:`block_failures`."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.size != cluster.degree() + 1:
        raise ValueError(
            f"coordinate vector must have length {cluster.degree() + 1}, got {c.size}"
        )
    scale = 1.0 + float(np.linalg.norm(c))
    if not math.isfinite(scale):  # NaN passes every "> tol" test below
        raise ValueError(f"coordinate vector must be finite, got norm {scale - 1.0}")
    _, active = active_set(cluster, f, active_tol=active_tol)
    if not active:
        raise ValueError("no active root")
    active = sorted(active)
    blocks = _split_blocks(cluster, c)
    if abs(c[0]) > tol or any(np.linalg.norm(block) > tol * scale
                              for j, block in enumerate(blocks) if j not in active):
        return False
    data = [_ActiveBlock(f, cluster.roots[j], cluster.mults[j]) for j in active]
    return not block_failures(data, [blocks[j] for j in active], tol, horizon)[0]


def Dp_membership(cluster: RootCluster, f: Generator, c, tol: float = 1e-8,
                  active_tol: float = 1e-8) -> bool:
    """Membership of a coordinate vector in the subgradient coordinate set:
    the leading coordinate and inactive blocks vanish, and the active
    blocks pass :func:`block_failures` at tolerance tol."""
    return _member(cluster, f, c, tol, active_tol, horizon=False)


def _spread(lo: np.ndarray, hi: np.ndarray, mass: float) -> np.ndarray:
    """Weights in [lo, hi] summing to mass, with sum(lo) <= mass <= sum(hi).

    Each block takes a share of the slack mass - sum(lo) in proportion to
    its room min(hi - lo, slack), so every block with room ends strictly
    inside its interval unless the mass pins the split to the endpoints."""
    slack = mass - lo.sum()
    room = np.minimum(hi - lo, slack)
    if room.sum() <= 0:
        return lo
    return lo + slack * room / room.sum()


def Dp_horizon_membership(cluster: RootCluster, f: Generator, c, tol: float = 1e-8,
                          active_tol: float = 1e-8) -> bool:
    """Membership in the horizon cone: zero leading coordinate and inactive
    blocks, zero first coordinate per active block, second coordinate in the
    squared-generator cone, deeper coordinates free."""
    return _member(cluster, f, c, tol, active_tol, horizon=True)


def Dp_sample(cluster: RootCluster, f: Generator, gamma=None, seed: int = 0,
              active_tol: float = 1e-8) -> np.ndarray:
    """A point of the subgradient coordinate set (always a member)."""
    rng = np.random.default_rng(seed)
    _, active = active_set(cluster, f, active_tol=active_tol)
    active = sorted(active)
    if gamma is None:
        gamma = rng.dirichlet(np.ones(len(active)))
    gamma = np.asarray(gamma, dtype=float)
    if (gamma.size != len(active) or not gamma.min() >= 0
            or not abs(gamma.sum() - 1) <= SIMPLEX_TOL):  # NaN fails both
        raise ValueError("weights must be a point of the active simplex")
    c = np.zeros(cluster.degree() + 1, dtype=complex)
    pos = 1
    for j, n_j in enumerate(cluster.mults):
        if j in active:
            g = gamma[active.index(j)]
            d = _ActiveBlock(f, cluster.roots[j], n_j)
            c[pos] = -_sample_set(d.subdiff.scaled(g / n_j), rng)
            if n_j >= 2:
                c[pos + 1] = _sample_set(d.second_set(g), rng, interior=True)
            if n_j >= 3:
                c[pos + 2: pos + n_j] = rng.standard_normal(n_j - 2) + 1j * rng.standard_normal(n_j - 2)
        pos += n_j
    return c


def _sample_set(S: ConvexSet2D, rng, interior: bool = False) -> complex:
    if S.kind == "point":
        return S.data[0]
    if S.kind == "segment":
        t = rng.uniform()
        return S.data[0] + t * (S.data[1] - S.data[0])
    if S.kind == "polygon":
        ws = rng.uniform(size=len(S.data))
        ws /= ws.sum()
        return complex(np.dot(ws, np.asarray(S.data)))
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
    if S.kind == "line":
        return rng.standard_normal() * S.data[0]
    raise ValueError(f"cannot sample from set kind {S.kind!r}")


def rsd_f_membership(cluster: RootCluster, f: Generator, v: Poly,
                     tol: float = 1e-8) -> bool:
    """Regular subgradient test for the root max function: pull v back
    through the factorization derivative and test the coordinate set."""
    return Dp_membership(cluster, f, _solve_coords(cluster, v), tol)


def subderivative_f(cluster: RootCluster, f: Generator, v: Poly,
                    tol: float = 1e-8, active_tol: float = 1e-8) -> float:
    """Lower directional derivative of the root max function at the cluster
    polynomial in direction v.

    Finite exactly when, at every active root, sqrt(-omega_j2) is
    real-orthogonal to the whole subdifferential and the deeper coordinates
    vanish.  Orthogonality to a generating point g means that omega_j2 lies
    on the ray through g^2, which is tested within tol * (1 + |block|) for
    every nonzero g of the subdifferential's finite generator list.  The
    value is then the max over active roots of
    (f'(lam_j; -omega_j1) + curvature term) / n_j, the curvature term being
    f''(lam_j; sqrt(-omega_j2), sqrt(-omega_j2)) in the smooth regime and
    zero in the corner regime.  The division by the multiplicity applies to
    the whole bracket: a multiplicity-n root responds to a coefficient
    perturbation with the mean of its n split roots, and this normalization
    is the one under which the subgradient support inequality is tight.
    The spectral radius goes through :func:`generators.radius_transform`.
    """
    g, rho = radius_transform(f, cluster.roots)
    if g is not f:
        return subderivative_f(cluster, g, v, tol, active_tol) / rho
    _, active = active_set(cluster, f, active_tol=active_tol)
    if not active:
        raise ValueError("no active root")
    blocks = _split_blocks(cluster, _solve_coords(cluster, v))
    vals = []
    for j in sorted(active):
        lam, n_j = cluster.roots[j], cluster.mults[j]
        cond = _regime(f, lam)
        block = blocks[j]
        bound = tol * (1.0 + float(np.linalg.norm(block)))
        kappa = 0.0
        if n_j >= 2:
            # tested on omega_j2 itself: through its square root, rounding
            # noise of size eps would become noise of size sqrt(eps)
            for g in _generating_points(f.subdiff(lam)):
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


def _generating_points(S: ConvexSet2D):
    if S.kind == "point":
        return [S.data[0]]
    if S.kind == "segment":
        return list(S.data)
    if S.kind == "polygon":
        return list(S.data)
    raise UnsupportedGenerator(
        f"orthogonality test has no finite generator list for {S.kind!r}"
    )
