"""Complex polynomials, root clustering, and root max functions.

Everything here is a plain immutable value; all functions are pure and safe
to call concurrently.  Polynomial coefficients are indexed by power, so
``coeffs[k]`` multiplies ``lambda**k``.  The JSON wire format for a
polynomial is a list of ``[re, im]`` pairs in the same order.

Tolerances are the absolute constants CLUSTER_TOL (the diameter of a root
cluster) and ACTIVE_TOL (the gap below the max of an active value); only
:func:`roots` takes a cluster radius, the declared root structure of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .generators import radius_transform

__all__ = [
    "Poly",
    "RootCluster",
    "DomainError",
    "lex_key",
    "elementary",
    "roots",
    "active_roots",
    "poly_root_max",
    "poly_from_json",
]


def lex_key(z: complex):
    """Sort key of the lexicographic total order on C: compare real parts,
    then imaginary."""
    z = complex(z)
    return (z.real, z.imag)


def _fvalue(f):
    """Accept either a generator object (with .value) or a bare callable."""
    return f.value if hasattr(f, "value") else f


@dataclass(frozen=True)
class Poly:
    """Degree-bounded polynomial over C.

    ``coeffs`` has length ``degree_bound + 1``; trailing zeros are allowed,
    so the actual degree may be smaller than the bound.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in cs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    # -- basic queries ------------------------------------------------------

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def degree(self) -> int:
        """Largest power with a nonzero coefficient, or -1 for the zero poly."""
        return max((k for k, c in enumerate(self.coeffs) if c), default=-1)

    def is_zero(self) -> bool:
        return self.degree() < 0

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    # -- arithmetic ---------------------------------------------------------

    def padded(self, degree_bound: int) -> "Poly":
        if degree_bound < self.degree_bound:
            raise ValueError("cannot shrink the degree bound")
        return Poly(self.coeffs + (0j,) * (degree_bound - self.degree_bound))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(self.degree_bound, other.degree_bound)
        a = self.padded(n).array() + other.padded(n).array()
        return Poly(tuple(a))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(tuple(np.convolve(self.array(), other.array())))
        return Poly(tuple(complex(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    @staticmethod
    def zero(degree_bound: int = 0) -> "Poly":
        return Poly((0j,) * (degree_bound + 1))

    @staticmethod
    def one() -> "Poly":
        return Poly((1.0 + 0j,))


def elementary(ell: int, lam0: complex, degree_bound: int | None = None) -> Poly:
    """The monic monomial (lambda - lam0)**ell expanded into coefficients."""
    if ell < 0:
        raise ValueError("monomial degree must be nonnegative")
    cs = np.array([1.0 + 0j])
    base = np.array([-complex(lam0), 1.0 + 0j])
    for _ in range(ell):
        cs = np.convolve(cs, base)
    p = Poly(tuple(cs))
    if degree_bound is not None:
        p = p.padded(degree_bound)
    return p


@dataclass(frozen=True)
class RootCluster:
    """Distinct roots in lexicographic order with their multiplicities."""

    roots: tuple
    mults: tuple

    def __post_init__(self):
        rs = tuple(complex(r) for r in self.roots)
        ms = tuple(int(m) for m in self.mults)
        if len(rs) != len(ms):
            raise ValueError("roots and multiplicities must have equal length")
        if any(m < 1 for m in ms):
            raise ValueError("multiplicities must be positive")
        for r, s in zip(rs, rs[1:]):
            if not lex_key(r) < lex_key(s):
                raise ValueError("roots must be strictly increasing in lex order")
        object.__setattr__(self, "roots", rs)
        object.__setattr__(self, "mults", ms)

    @staticmethod
    def sorted(pairs: Iterable[tuple]) -> "RootCluster":
        pairs = sorted(pairs, key=lambda rm: lex_key(rm[0]))
        return RootCluster(tuple(r for r, _ in pairs), tuple(m for _, m in pairs))

    def degree(self) -> int:
        return sum(self.mults)

    def as_poly(self) -> Poly:
        """Monic polynomial prod_j (lambda - root_j)**mult_j."""
        p = Poly.one()
        for r, m in zip(self.roots, self.mults):
            p = p * elementary(m, r)
        return p


CLUSTER_TOL = 1e-6  # absolute: the largest diameter of a root cluster
ACTIVE_TOL = 1e-8  # absolute: how far below the max a value of an active root may lie
_NORM_SAFE = 1e154  # below it, no square in numpy's 2-norm passes 1e308


def _complete_linkage(row: list, tol: float) -> list:
    """Complete-linkage agglomeration of one row of points: merge the pair
    of clusters whose union has the smallest diameter (the first such pair
    in index order on ties) while that diameter is at most ``tol``.

    Returns the clusters as lists of points in merge order.  Each pass
    recomputes the diameter of every candidate union and takes the least
    ``(diameter, i, j)``; the rows that reach it hold a few points.
    """
    groups = [[p] for p in row]
    while len(groups) > 1:
        d, i, j = min((max(abs(a - b) for a, b in combinations(groups[i] + groups[j], 2)), i, j)
                      for i, j in combinations(range(len(groups)), 2))
        if not d <= tol:  # a NaN diameter merges nothing
            break
        groups[i] += groups.pop(j)
    return groups


def _cluster_rows(points: np.ndarray, tol: float) -> tuple:
    """Cluster every row of a (rows, k) array of points, k >= 1, by
    :func:`_complete_linkage`, each cluster represented by the mean of its
    members.

    Returns ``(means, mults)``, both of shape (rows, k): a row's clusters
    come first, in merge order, and a row with fewer than k clusters repeats
    its first mean with multiplicity 0 in the padding, so a max over a row
    of ``means`` is the max over its clusters.

    Only rows with some pair of points within ``tol`` are clustered:
    complete linkage merges nothing when every pair is farther apart, so
    every other row is all singletons.  A row with a NaN distance (two
    points with the same infinite part) stays unclustered, since its
    smallest distance reads NaN.  A close row whose every pair within
    ``tol`` is at distance exactly 0 (exact repeats, as in the inequality
    suite's probe rows) is grouped by equality: there every merge joins
    equal points, ties break in index order, and distinct values are more
    than ``tol`` apart, so complete linkage would return the groups of equal
    points in first-occurrence order.  Only rows with a nonzero pair within
    ``tol`` run the agglomeration.
    """
    points = np.asarray(points)
    k = points.shape[-1]
    # the pairs a < b, as lists: np.triu_indices costs more than a one-row test
    i = [a for a in range(k) for _ in range(a + 1, k)]
    j = [b for a in range(k) for b in range(a + 1, k)]
    with np.errstate(over="ignore"):  # an overflowing distance is not close
        dist = np.abs(points[:, i] - points[:, j])
    nearest = dist.min(axis=1, initial=np.inf)  # NaN where two points share an infinite part
    means = points.astype(complex)
    mults = np.ones(points.shape, dtype=int)
    for r in np.flatnonzero(nearest <= tol).tolist():
        if nearest[r] or any(0 < d <= tol for d in dist[r].tolist()):
            groups = _complete_linkage(points[r].tolist(), tol)
        else:  # no nonzero pair within tol: exact repeats
            by_value = {}
            for z in points[r].tolist():
                by_value.setdefault(z, []).append(z)
            groups = list(by_value.values())
        centers = [sum(g) / len(g) for g in groups]
        means[r] = centers + centers[:1] * (k - len(groups))
        mults[r] = [len(g) for g in groups] + [0] * (k - len(groups))
    return means, mults


def _row_cluster(means: np.ndarray, mults: np.ndarray) -> tuple:
    """``(cluster, order)``: a row of :func:`_cluster_rows` and its clusters' positions."""
    zs, ms = means.tolist(), mults.tolist()
    order = sorted((j for j, m in enumerate(ms) if m), key=lambda j: lex_key(zs[j]))
    return RootCluster(tuple(zs[j] for j in order), tuple(ms[j] for j in order)), order


def roots(p: Poly, cluster_tol: float = CLUSTER_TOL) -> RootCluster:
    """All roots of p via the balanced companion matrix, merged into clusters.

    Clusters are grown greedily subject to diameter <= cluster_tol, which
    declares the root structure of p, and each is represented by the mean of
    its members (:func:`_cluster_rows`, which :func:`specsub.spectral_max`
    shares), so the multiplicities always sum to the (numerical) degree of p.
    ValueError where a coefficient over the leading one overflows, before
    the companion matrix is formed.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined roots")
    cs = p.array()[: p.degree() + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        monic = cs[:-1] / cs[-1]  # np.roots' companion row, up to sign
    if not np.isfinite(monic).all():
        powers = np.flatnonzero(~np.isfinite(monic)).tolist()
        raise ValueError(f"the monic coefficients of p overflow: powers {powers} over the "
                         f"leading coefficient {cs[-1]}")
    means, mults = _cluster_rows(np.roots(cs[::-1])[None, :], cluster_tol)  # high order first
    return _row_cluster(means[0], mults[0])[0]


class DomainError(ValueError):
    """A root or eigenvalue fell outside the domain of the generating function."""


def _safe_norm(a) -> float:
    """The 2-norm (Frobenius norm) of the array ``a``, finite wherever it is
    representable: numpy's norm squares its entries, so where that reads
    inf on finite entries it is taken again on a over its largest real or
    imaginary part, times that part.  inf or NaN only for entries that are."""
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == math.inf and np.isfinite(a).all():
        top = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
        norm = top * float(np.linalg.norm(a / top))
    return norm


def _norm_within(a, bound: float) -> float:
    """The 2-norm of the array ``a``, given a scale ``bound`` >= |a|: numpy's
    where the bound keeps its squares finite, so ordinary input pays no
    warnings state, and :func:`_safe_norm`'s beyond."""
    return float(np.linalg.norm(a)) if bound < _NORM_SAFE else _safe_norm(a)


def _attaining(vals: list) -> list:
    """The indices of the values within ACTIVE_TOL of the max of vals; at a
    max of +inf, exactly the infinite values."""
    value = max(vals)
    return [j for j, v in enumerate(vals) if v >= value - ACTIVE_TOL]


def _values(f, z: np.ndarray) -> np.ndarray:
    """f at every entry of the complex array z, as floats of z's shape: one
    call on the whole array when f accepts it and answers with an array of
    that shape (the builtins are elementwise), otherwise one Python call per
    entry through ``np.frompyfunc``, so scalar-only callables work too."""
    value_of = _fvalue(f)
    try:
        out = np.asarray(value_of(z), dtype=float)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.frompyfunc(value_of, 1, 1)(z).astype(float)


def _reading(f, means: np.ndarray, mults: np.ndarray) -> tuple:
    """``(value, cluster, active)`` of a (1, k) row of :func:`_cluster_rows`: the
    max of f over its means as :func:`specsub.spectral_max` takes it, the
    clusters, and those within ACTIVE_TOL of the max (at +inf, those off dom f)."""
    cluster, order = _row_cluster(means[0], mults[0])
    vals = _values(f, means)
    active = _attaining(vals[0, order].tolist())
    return float(vals.max(axis=-1)[0]), cluster, frozenset(active)


def active_roots(f, roots, rest=()) -> tuple:
    """The one active-set routine of the calculus, for the matrix and the
    polynomial routes alike.

    Returns ``(g, active)``: the generator of
    :func:`generators.radius_transform` for f over ``roots`` and ``rest``
    (values of unknown structure, such as a matrix's rest-block
    eigenvalues), and the indices of the ``roots`` at which g attains its
    max over both, within ACTIVE_TOL.  Raises :class:`DomainError` where g
    is +inf, and ValueError when ``roots`` is empty, g is NaN at a value,
    or a ``rest`` value attains the max.
    """
    roots, rest = list(roots), list(rest)
    g = radius_transform(f, roots + rest)
    value_of = _fvalue(g)
    vals = [float(value_of(z)) for z in roots + rest]
    if any(math.isinf(v) for v in vals):
        raise DomainError("an eigenvalue or root lies outside the domain of the generator")
    if not roots:
        raise ValueError("no root or declared eigenvalue to maximize over")
    if any(math.isnan(v) for v in vals):  # NaN attains no max: max() would depend on order
        raise ValueError("the generator is NaN at a root or eigenvalue")
    active = _attaining(vals)
    if active[-1] >= len(roots):
        raise ValueError("an eigenvalue of the rest block attains the max; its Jordan "
                         "structure must be declared")
    return g, active


def poly_root_max(p: Poly, f) -> float:
    """The root max function: max of f over the distinct roots of :func:`roots`."""
    zs = np.asarray(roots(p).roots, dtype=complex)
    if not zs.size:
        raise ValueError("constant polynomial: no roots to maximize over")
    return float(_values(f, zs).max())


def poly_from_json(data: Sequence) -> Poly:
    try:
        return Poly(tuple(complex(re, im) for re, im in data))
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
