"""Test-side machinery of the characteristic-polynomial lemmas and the
Taylor-coordinate references.

The calculus never forms the characteristic polynomial: the matrix
subderivative reads the factor coordinates of a direction through
``jordan.R_matrix``.  The lemmas behind that route are checked here,
against finite differences of the characteristic polynomial itself
(criteria 5 and 6, ``test_jordan``):

- :func:`char_poly`, det(lambda I - X) by the trace recursion;
- :func:`char_poly_deriv_action`, F'(X) Z as the coordinate matrix of
  ``polysub`` applied to (0, mu), mu the factor coordinates of Z;
- :func:`det_expansion_residual`, the first-order determinant expansion.

The references for the coordinates themselves:

- :func:`factor_coords`, mu_j by traces of sub-blocks, which covers
  derogatory eigenvalues, where R_matrix refuses;
- :func:`taylor_coeff`, a Taylor coefficient by repeated differentiation.
"""

import math

import numpy as np

from specmax.cpoly import Poly
from specmax.polysub import _coordinate_matrix
from specmax.jordan import _lex_cluster


def taylor_coeff(p: Poly, k: int, lam0: complex) -> complex:
    """k-th Taylor coefficient of p at lam0, i.e. p^(k)(lam0) / k!."""
    if k < 0 or k > p.degree_bound:
        raise ValueError(f"Taylor order {k} outside 0..{p.degree_bound}")
    cs = p.array()
    for _ in range(k):
        cs = cs[1:] * np.arange(1, len(cs))
    return Poly(tuple(cs))(lam0) / math.factorial(k)


def factor_coords(spec, j: int, Z) -> np.ndarray:
    """Taylor coordinates mu_j1..mu_jn_j of g_j'(X) Z, the derivative of the
    eigenvalue-j monic factor map in direction Z:
    mu_js = -tr(N_j^(s-1) V_jj) with V = P Z P^{-1}, the (s-1)-th
    subdiagonals of V_jj summed over the sub-blocks.  Entries past m_j are
    zero, so derogatory eigenvalues are covered."""
    V = spec.P @ np.asarray(Z, dtype=complex) @ spec.Pinv
    mu = np.zeros(spec.n_j(j), dtype=complex)
    for sl, b in zip(spec.subblock_slices(j), spec.block_sizes(j)):
        for s in range(b):
            mu[s] -= np.trace(V[sl, sl], offset=-s)
    return mu


def char_poly(X) -> Poly:
    """Characteristic polynomial det(lambda I - X) via the trace recursion,
    coefficients lowest power first."""
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    M = np.zeros_like(X)
    cs = [1.0 + 0j]
    for k in range(1, n + 1):
        M = X @ M + cs[-1] * np.eye(n)
        cs.append(-np.trace(X @ M) / k)
    return Poly(tuple(cs[n - k] for k in range(n + 1)))


def char_poly_deriv_action(spec, Z) -> Poly:
    """Action of the derivative of the characteristic polynomial map at the
    base matrix on a direction Z: the coordinate matrix applied to the
    Taylor coordinates of every eigenvalue's factor derivative, in lex
    order, with mu0 = 0, so the result has degree at most n - 1.  The spec
    must cover the whole spectrum (empty rest block); derogatory
    eigenvalues are covered."""
    order, cluster = _lex_cluster(spec, range(spec.num_eigs))
    mu = np.concatenate([factor_coords(spec, j, Z) for j in order])
    return Poly(tuple(_coordinate_matrix(cluster)[:spec.n, 1:] @ mu))


def det_expansion_residual(n: int, lam, xi_grid) -> float:
    """Deviation of det(xi I - J - sum_s lam_s (J^*)^s) from its linearization
    xi^n - sum_s (n - s) lam_s xi^(n-s-1), maximized over the grid and scaled
    by ||lam||.  Vanishes linearly as lam -> 0.

    The determinant is evaluated by the exact first-column cofactor recursion
    for the banded Toeplitz-plus-superdiagonal form, not by a generic solver.
    """
    lam = np.asarray(lam, dtype=complex).ravel()
    norm = float(np.linalg.norm(lam))
    if norm == 0.0:
        return 0.0
    worst = 0.0
    for xi in xi_grid:
        xi = complex(xi)
        a = np.empty(n, dtype=complex)
        a[0] = xi - lam[0]
        if n > 1:
            a[1:] = -lam[1:]
        dets = [1.0 + 0j]  # det of the empty minor
        for s in range(1, n + 1):
            dets.append(sum(a[s - 1 - k] * dets[k] for k in range(s)))
        linear = xi ** n - sum((n - s) * lam[s] * xi ** (n - s - 1) for s in range(n))
        worst = max(worst, abs(dets[n] - linear))
    return worst / norm
