"""Local factorization coordinates around a monic polynomial.

A monic p with distinct roots lam_j of multiplicities n_j factors as
prod_j (lambda - lam_j)**n_j.  Perturbations of p are coordinatized by a
scalar mu0 (leading-coefficient direction) together with one polynomial of
degree <= n_j - 1 per root, and those by their Taylor coordinates in
C^(ntilde+1): mu0, then mu_js = tau_(n_j - s, lam_j)(u_j) for s = 1..n_j.
A Taylor coordinate vector is the only element of the factor space.  The
derivative F'(0) of the factored product at the base point is the
coordinate matrix (:func:`_coordinate_matrix`), and :func:`_solve_coords`
inverts it.  The matrix is convolved from one power table
(lambda - lam_j)**k, k = 0..n_j, per root and the prefix products of the
full powers, with one finiteness check on the result.  Every function is
pure.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

import numpy as np

from .cpoly import Poly, RootCluster

__all__ = ["SOLVE_TOL"]

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
