"""Test-side machinery of the characteristic-polynomial lemmas.

The calculus never forms the characteristic polynomial: the matrix
subderivative reads the factor coordinates of a direction straight off
``jordan._factor_coords``.  The lemmas behind that route are checked here,
against finite differences of the characteristic polynomial itself
(criteria 5 and 6, ``test_jordan``):

- :func:`char_poly`, det(lambda I - X) by the trace recursion;
- :func:`char_poly_deriv_action`, F'(X) Z as the coordinate matrix of
  ``factorspace`` applied to (0, mu), mu the factor coordinates of Z;
- :func:`det_expansion_residual`, the first-order determinant expansion.
"""

import numpy as np

from specmax.cpoly import Poly
from specmax.factorspace import _coordinate_matrix
from specmax.jordan import _factor_coords, _lex_cluster


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
    mu = np.concatenate([_factor_coords(spec, j, Z) for j in order])
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
