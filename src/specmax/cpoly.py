"""Complex polynomials, root clustering, and root max functions.

Everything here is a plain immutable value; all functions are pure and safe
to call concurrently.  Polynomial coefficients are indexed by power, so
``coeffs[k]`` multiplies ``lambda**k``.  The JSON wire format for a
polynomial is a list of ``[re, im]`` pairs in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Poly",
    "RootCluster",
    "lex_leq",
    "lex_key",
    "elementary",
    "taylor_coeff",
    "roots",
    "active_set",
    "poly_root_max",
    "poly_from_json",
]


def lex_leq(a: complex, b: complex) -> bool:
    """Lexicographic total order on C: compare real parts, then imaginary."""
    a, b = complex(a), complex(b)
    if a.real != b.real:
        return a.real < b.real
    return a.imag <= b.imag


def lex_key(z: complex):
    """Sort key inducing the same order as :func:`lex_leq`."""
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

    def degree(self, tol: float = 0.0) -> int:
        """Largest power with |coefficient| > tol, or -1 for the zero poly."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if abs(self.coeffs[k]) > tol:
                return k
        return -1

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.degree(tol) < 0

    def coeff_norm(self) -> float:
        return float(np.linalg.norm(np.asarray(self.coeffs)))

    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def deriv(self, order: int = 1) -> "Poly":
        cs = self.array()
        for _ in range(order):
            if len(cs) == 1:
                cs = np.zeros(1, dtype=complex)
                continue
            cs = cs[1:] * np.arange(1, len(cs))
        return Poly(tuple(cs))

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


def taylor_coeff(p: Poly, k: int, lam0: complex) -> complex:
    """k-th Taylor coefficient of p at lam0, i.e. p^(k)(lam0) / k!."""
    if k < 0 or k > p.degree_bound:
        raise ValueError(f"Taylor order {k} outside 0..{p.degree_bound}")
    return p.deriv(k)(lam0) / math.factorial(k)


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
            if not (lex_leq(r, s) and r != s):
                raise ValueError("roots must be strictly increasing in lex order")
        object.__setattr__(self, "roots", rs)
        object.__setattr__(self, "mults", ms)

    @staticmethod
    def sorted(pairs: Iterable[tuple]) -> "RootCluster":
        pairs = sorted(pairs, key=lambda rm: lex_key(rm[0]))
        return RootCluster(tuple(r for r, _ in pairs), tuple(m for _, m in pairs))

    @property
    def num_distinct(self) -> int:
        return len(self.roots)

    def degree(self) -> int:
        return sum(self.mults)

    def as_poly(self) -> Poly:
        """Monic polynomial prod_j (lambda - root_j)**mult_j."""
        p = Poly.one()
        for r, m in zip(self.roots, self.mults):
            p = p * elementary(m, r)
        return p


def _complete_linkage(row: list, tol: float) -> list:
    """Complete-linkage agglomeration of one row of points: merge the pair
    of clusters whose union has the smallest diameter (the first such pair
    in index order on ties) while that diameter is at most ``tol``.

    Returns the clusters as lists of points in merge order.  The diameter
    of a union is the largest of the two diameters and their largest cross
    distance, and the cross distances of a union are the larger of its
    parts' (the Lance-Williams update), so a merge costs O(k^2).
    """
    groups = [[p] for p in row]
    diam = [0.0] * len(row)
    cross = [[abs(a - b) for b in row] for a in row]
    while len(groups) > 1:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                d = max(diam[i], diam[j], cross[i][j])
                if d <= tol and (best is None or d < best[0]):
                    best = (d, i, j)
        if best is None:
            break
        d, i, j = best
        groups[i] += groups.pop(j)
        diam[i] = d
        del diam[j]
        row_j = cross.pop(j)
        for r in cross:
            r[i] = max(r[i], r.pop(j))
        del row_j[j]
        cross[i] = [max(a, b) for a, b in zip(cross[i], row_j)]
    return groups


def _cluster_rows(points: np.ndarray, tol: float) -> tuple:
    """Cluster every row of a (rows, k) array of points, k >= 1, by
    :func:`_complete_linkage`, each cluster represented by the mean of its
    members.

    Returns ``(means, mults)``, both of shape (rows, k): a row's clusters
    come first, in merge order, and a row with fewer than k clusters repeats
    its first mean with multiplicity 0 in the padding, so a max over a row
    of ``means`` is the max over its clusters.  Only rows with some pair of
    points within ``tol`` run the agglomeration: complete linkage merges
    nothing when every pair is farther apart, so every other row is all
    singletons.
    """
    points = np.asarray(points)
    k = points.shape[-1]
    # the pairs a < b, as lists: np.triu_indices costs more than a one-row test
    i = [a for a in range(k) for _ in range(a + 1, k)]
    j = [b for a in range(k) for b in range(a + 1, k)]
    close = np.abs(points[:, i] - points[:, j]).min(axis=1, initial=np.inf) <= tol
    means = points.astype(complex)
    mults = np.ones(points.shape, dtype=int)
    for r in np.flatnonzero(close).tolist():
        groups = _complete_linkage(points[r].tolist(), tol)
        centers = [sum(g) / len(g) for g in groups]
        means[r] = centers + centers[:1] * (k - len(groups))
        mults[r] = [len(g) for g in groups] + [0] * (k - len(groups))
    return means, mults


def _row_cluster(means: np.ndarray, mults: np.ndarray) -> RootCluster:
    """The clusters of one row of :func:`_cluster_rows`, padding dropped."""
    return RootCluster.sorted((z, m) for z, m in zip(means.tolist(), mults.tolist()) if m)


def roots(p: Poly, cluster_tol: float = 1e-6) -> RootCluster:
    """All roots of p via the balanced companion matrix, merged into clusters.

    Clusters are grown greedily subject to diameter <= cluster_tol and each is
    represented by the mean of its members (:func:`_cluster_rows`, which
    :func:`specsub.spectral_max` shares), so the multiplicities always sum
    to the (numerical) degree of p.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined roots")
    d = p.degree()
    if d == 0:
        return RootCluster((), ())
    cs = p.array()[: d + 1]
    rts = np.roots(cs[::-1])  # numpy wants the high-order coefficient first
    means, mults = _cluster_rows(rts[None, :], cluster_tol)
    return _row_cluster(means[0], mults[0])


def active_set(p, f, active_tol: float = 1e-8, cluster_tol: float = 1e-6):
    """Max of f over the distinct roots and the indices attaining it.

    Accepts a Poly (roots are computed and clustered) or a RootCluster.
    Returns ``(value, indices)`` where indices refer to the lex-ordered
    distinct roots; roots outside dom f make the value +inf and the index
    set collects the offending roots.
    """
    cluster = p if isinstance(p, RootCluster) else roots(p, cluster_tol)
    if cluster.num_distinct == 0:
        raise ValueError("constant polynomial: no roots to maximize over")
    value_of = _fvalue(f)
    vals = [float(value_of(r)) for r in cluster.roots]
    value = max(vals)
    if math.isinf(value):
        idx = frozenset(j for j, v in enumerate(vals) if math.isinf(v))
        return value, idx
    idx = frozenset(j for j, v in enumerate(vals) if v >= value - active_tol)
    return value, idx


def poly_root_max(p, f, active_tol: float = 1e-8, cluster_tol: float = 1e-6) -> float:
    """The root max function: max of f over the roots of p."""
    value, _ = active_set(p, f, active_tol=active_tol, cluster_tol=cluster_tol)
    return value


def poly_from_json(data: Sequence) -> Poly:
    try:
        return Poly(tuple(complex(re, im) for re, im in data))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed polynomial JSON: {exc}") from exc
