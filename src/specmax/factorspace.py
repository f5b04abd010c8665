"""Local factorization coordinates around a monic polynomial.

A monic p with distinct roots lam_j of multiplicities n_j factors as
prod_j (lambda - lam_j)**n_j.  Perturbations of p are coordinatized by a
scalar mu0 (leading-coefficient direction) together with one polynomial of
degree <= n_j - 1 per root, and those by their Taylor coordinates in
C^(ntilde+1).  The calculus works on Taylor coordinate vectors only: the
derivative F'(0) of the factored product at the base point is a coordinate
matrix (:func:`_coordinate_matrix`), and :func:`_solve_coords` inverts it.
It is convolved from one power table (lambda - lam_j)**k, k = 0..n_j, per
root and the prefix products of the full powers, with one finiteness check
on the result.
:class:`FactorSpaceElem` with :func:`T_apply` and :func:`T_inverse` is the
polynomial view of a coordinate vector, and :func:`F_deriv0` applies F'(0)
to it.  All values are immutable and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate

import numpy as np

from .cpoly import Poly, RootCluster, elementary, taylor_coeff

__all__ = [
    "FactorSpaceElem",
    "F_deriv0",
    "T_apply",
    "T_inverse",
]

SOLVE_TOL = 1e-10  # relative to max(1, |v|): the residual of the coordinate solve


@dataclass(frozen=True)
class FactorSpaceElem:
    """Element (mu0, u_1, ..., u_m) of the factorization space of ``base``.

    ``factors[j]`` perturbs the factor of root j and has degree bound
    n_j - 1.  The base cluster is stored so dimension agreement can be
    checked instead of assumed.
    """

    base: RootCluster
    mu0: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "mu0", complex(self.mu0))
        factors = tuple(self.factors)
        if len(factors) != self.base.num_distinct:
            raise ValueError("one factor perturbation required per distinct root")
        fixed = []
        for q, n_j in zip(factors, self.base.mults):
            if q.degree_bound > n_j - 1:
                if q.degree() > n_j - 1:
                    raise ValueError(
                        f"factor perturbation degree {q.degree()} exceeds bound {n_j - 1}"
                    )
                q = Poly(q.coeffs[:n_j])
            fixed.append(q.padded(n_j - 1))
        object.__setattr__(self, "factors", tuple(fixed))

    @staticmethod
    def zero(base: RootCluster) -> "FactorSpaceElem":
        return FactorSpaceElem(base, 0j, tuple(Poly.zero(n - 1) for n in base.mults))


def F_deriv0(base: RootCluster, w: FactorSpaceElem) -> Poly:
    """Derivative of F at 0 applied to w: omega0 * p + sum_j r_j * w_j, the
    coordinate matrix of F'(0) times the Taylor coordinates of w."""
    return Poly(tuple(_coordinate_matrix(base) @ T_apply(base, w)))


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


def T_apply(base: RootCluster, u: FactorSpaceElem) -> np.ndarray:
    """Taylor coordinates [mu0, (mu_j1 .. mu_jn_j)_j] with
    mu_js = tau_(n_j - s, lam_j)(u_j)."""
    if u.base != base:
        raise ValueError("factor-space element belongs to a different base polynomial")
    out = [u.mu0]
    for (lam, n_j), q in zip(zip(base.roots, base.mults), u.factors):
        out.extend(taylor_coeff(q, n_j - s, lam) for s in range(1, n_j + 1))
    return np.asarray(out, dtype=complex)


def T_inverse(base: RootCluster, coords: np.ndarray) -> FactorSpaceElem:
    """Rebuild the factor-space element whose Taylor coordinates are given."""
    coords = np.asarray(coords, dtype=complex).ravel()
    if coords.size != base.degree() + 1:
        raise ValueError(
            f"expected {base.degree() + 1} coordinates, got {coords.size}"
        )
    factors = []
    pos = 1
    for lam, n_j in zip(base.roots, base.mults):
        q = Poly.zero(n_j - 1)
        for s in range(1, n_j + 1):
            q = q + coords[pos] * elementary(n_j - s, lam, degree_bound=n_j - 1)
            pos += 1
        factors.append(q)
    return FactorSpaceElem(base, coords[0], tuple(factors))


def _solve_coords(base: RootCluster, v: Poly) -> np.ndarray:
    """The Taylor coordinates (omega_0, omega_11, ..., omega_mn_m) of the
    unique w with F_deriv0(base, w) = v, by a dense coordinate solve.

    The stacked coordinate matrix is nonsingular whenever the base roots are
    distinct; the solve is guarded by a residual check at SOLVE_TOL.
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
    resid = float(np.linalg.norm(M @ coords - rhs))
    if resid > SOLVE_TOL * max(1.0, float(np.linalg.norm(rhs))):
        raise ValueError(f"factor coordinate solve residual {resid:.3e} too large")
    return coords
