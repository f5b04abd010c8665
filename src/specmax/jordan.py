"""Jordan-structured matrices and the matrix-side derivative formulas.

The Jordan structure of a base matrix is *declared*, never inferred: given
distinct eigenvalues with block sizes, a similarity P, and an optional
untyped block B for the remaining spectrum, the base matrix is

    X = P^{-1} Diag(B, J_1, ..., J_m) P,

with J_j the Jordan segment of eigenvalue j.  Numerical Jordan form
recovery is ill-posed; a convenience constructor accepts a raw matrix only
on the diagonalizable path with well separated eigenvalues.

The derivative formulas are two maps.  The Taylor coordinates of the
eigenvalue-j factor's derivative g_j'(X) Z are mu_js = -tr(N_j^(s-1) V_jj)
with V = P Z P^{-1} (:func:`_factor_coords`); the derivative of the
characteristic polynomial map is F'(0) of those coordinates
(:func:`factorspace._coordinate_matrix`).  On a nonderogatory eigenvalue
the coordinates are -R_j^* vec Z, with R_j the columns
vec(P^* (N_j^(s-1))^* P^{-*}) of :func:`R_matrix`, the map the chain route
inverts and the sampler pushes forward through.

Specs and matrices are immutable after construction (derived factorizations
are cached up front), so concurrent reads are safe.

JSON formats: a matrix is a row-major list of rows of [re, im] pairs; a
spec is {"eigs": [{"lambda": [re, im], "blocks": [...]}, ...], "P": matrix,
"B": matrix} with "P" and "B" optional.
"""

from __future__ import annotations

import cmath
import copy
import math

import numpy as np

from .cpoly import Poly, RootCluster, _fvalue, lex_key
from .factorspace import _coordinate_matrix
from .generators import radius_transform

__all__ = [
    "JordanSpec",
    "DerogatoryEigenvalue",
    "DomainError",
    "nilpotent",
    "char_poly",
    "char_poly_deriv_action",
    "det_expansion_residual",
    "declared_active",
    "R_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "spec_to_json",
    "spec_from_json",
]


class DerogatoryEigenvalue(ValueError):
    """An operation needing a single Jordan block met a derogatory eigenvalue."""


class DomainError(ValueError):
    """An eigenvalue fell outside the domain of the generating function."""


def nilpotent(size: int) -> np.ndarray:
    """Ones on the superdiagonal, zeros elsewhere."""
    N = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        N[i, i + 1] = 1.0
    return N


class JordanSpec:
    """Declared Jordan data: eigenvalues with block sizes, similarity, rest-block.

    ``eigs`` is a sequence of (eigenvalue, block_sizes); declaration order
    fixes the block layout (B first, then each eigenvalue's blocks in order).
    """

    MIN_SEPARATION = 1e-8
    MAX_CONDITION = 1e8

    def __init__(self, eigs, P=None, B=None):
        parsed = []
        for lam, blocks in eigs:
            blocks = tuple(blocks)
            try:  # 2.0 is a block size, 1.7 and inf are not
                sizes = tuple(int(b) for b in blocks)
            except (TypeError, ValueError, OverflowError):
                sizes = ()
            if not sizes or any(s < 1 or s != b for s, b in zip(sizes, blocks)):
                raise ValueError("block sizes must be positive integers")
            lam = complex(lam)
            if not cmath.isfinite(lam):
                raise ValueError(f"eigenvalue must be finite, got {lam}")
            parsed.append((lam, sizes))
        if not parsed and (B is None or np.asarray(B).size == 0):
            raise ValueError("a spec needs at least one eigenvalue or a rest block")
        self.eigs = tuple(parsed)

        B = np.zeros((0, 0), dtype=complex) if B is None else np.asarray(B, dtype=complex)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("rest block must be square")
        if B.size and not np.isfinite(B).all():
            raise ValueError("rest block B must have finite entries")
        self.B = B
        self.n0 = B.shape[0]
        self.n = self.n0 + sum(sum(blocks) for _, blocks in self.eigs)

        P = np.eye(self.n, dtype=complex) if P is None else np.asarray(P, dtype=complex)
        if P.shape != (self.n, self.n):
            raise ValueError(f"similarity must be {self.n}x{self.n}, got {P.shape}")
        try:
            cond = np.linalg.cond(P)  # inf for an inf entry
        except np.linalg.LinAlgError as exc:  # a NaN entry stops the SVD
            raise ValueError(f"similarity P must be finite: {exc}") from exc
        if not np.isfinite(cond) or cond > self.MAX_CONDITION:
            raise ValueError(f"similarity condition number {cond:.2e} exceeds bound")
        self.P = P
        Pinv = np.linalg.inv(P)
        Pinv = Pinv + Pinv @ (np.eye(self.n) - P @ Pinv)  # one refinement sweep
        self.Pinv = Pinv
        self.Pstar = P.conj().T
        self.Pinvstar = Pinv.conj().T

        lams = [lam for lam, _ in self.eigs]
        self._b_eigs = np.linalg.eigvals(B) if self.n0 else np.zeros(0, dtype=complex)
        for i, lam in enumerate(lams):
            self._check_separation(lam, lams[i + 1:])

        # layout: [0, n0) is B, then each eigenvalue's sub-blocks in order
        self._eig_slices = []
        self._subblock_slices = []
        pos = self.n0
        for _, blocks in self.eigs:
            subs = []
            start = pos
            for b in blocks:
                subs.append(slice(pos, pos + b))
                pos += b
            self._eig_slices.append(slice(start, pos))
            self._subblock_slices.append(tuple(subs))

    def _check_separation(self, lam: complex, lams) -> None:
        """Raise unless lam is apart from ``lams`` and the rest-block spectrum."""
        for mu in list(lams) + list(self._b_eigs):
            if abs(lam - mu) <= self.MIN_SEPARATION:
                raise ValueError(
                    f"declared eigenvalues must be distinct (and distinct from the "
                    f"rest block): {lam} vs {mu}"
                )

    def with_eigenvalue(self, j: int, lam) -> "JordanSpec":
        """This spec with eigenvalue j moved to ``lam``.

        The copy shares P, its inverse and the block layout, which do not
        depend on the eigenvalues; only the moved eigenvalue's separation
        from the others and from the rest block is checked again.
        """
        lam = complex(lam)
        self._check_separation(lam, [mu for i, (mu, _) in enumerate(self.eigs) if i != j])
        moved = copy.copy(self)
        moved.eigs = self.eigs[:j] + ((lam, self.eigs[j][1]),) + self.eigs[j + 1:]
        return moved

    # -- structure queries ----------------------------------------------------

    @property
    def num_eigs(self) -> int:
        return len(self.eigs)

    def eig_value(self, j: int) -> complex:
        return self.eigs[j][0]

    def block_sizes(self, j: int) -> tuple:
        return self.eigs[j][1]

    def n_j(self, j: int) -> int:
        return sum(self.eigs[j][1])

    def q_j(self, j: int) -> int:
        return len(self.eigs[j][1])

    def m_j(self, j: int) -> int:
        return max(self.eigs[j][1])

    def nonderogatory(self, j: int) -> bool:
        return self.q_j(j) == 1

    def eig_slice(self, j: int) -> slice:
        return self._eig_slices[j]

    def subblock_slices(self, j: int) -> tuple:
        return self._subblock_slices[j]

    @property
    def declared_degree(self) -> int:
        return self.n - self.n0

    @property
    def b_eigenvalues(self) -> np.ndarray:
        return self._b_eigs

    # -- matrices ---------------------------------------------------------------

    def jordan_matrix(self) -> np.ndarray:
        J = np.zeros((self.n, self.n), dtype=complex)
        J[: self.n0, : self.n0] = self.B
        for j, (lam, blocks) in enumerate(self.eigs):
            for k, b in enumerate(blocks):
                sl = self._subblock_slices[j][k]
                J[sl, sl] = lam * np.eye(b) + nilpotent(b)
        return J

    def synth(self) -> np.ndarray:
        """The base matrix P^{-1} Diag(B, J_1, ..., J_m) P."""
        return self.Pinv @ self.jordan_matrix() @ self.P

    def embed_block(self, j: int, M: np.ndarray) -> np.ndarray:
        """Place an n_j x n_j matrix into eigenvalue j's slot of an n x n zero."""
        out = np.zeros((self.n, self.n), dtype=complex)
        sl = self._eig_slices[j]
        out[sl, sl] = M
        return out

    def to_W(self, Y: np.ndarray) -> np.ndarray:
        """Transformed subgradient coordinates W = P^{-*} Y P^{*}."""
        return self.Pinvstar @ np.asarray(Y, dtype=complex) @ self.Pstar

    def from_W(self, W: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_W`: Y = P^{*} W P^{-*}."""
        return self.Pstar @ np.asarray(W, dtype=complex) @ self.Pinvstar

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_matrix(X, min_separation: float = 1e-4) -> "JordanSpec":
        """Diagonalizable path: simple, well separated eigenvalues only."""
        X = np.asarray(X, dtype=complex)
        lams, V = np.linalg.eig(X)
        for i in range(len(lams)):
            for k in range(i + 1, len(lams)):
                if abs(lams[i] - lams[k]) <= min_separation:
                    raise ValueError(
                        "eigenvalues too close for structure-free construction; "
                        "declare the Jordan data explicitly"
                    )
        order = sorted(range(len(lams)), key=lambda i: lex_key(lams[i]))
        V = V[:, order]
        lams = lams[order]
        return JordanSpec([(lam, (1,)) for lam in lams], P=np.linalg.inv(V))

    def __repr__(self) -> str:
        parts = ", ".join(f"{lam}:{list(blocks)}" for lam, blocks in self.eigs)
        return f"JordanSpec(n={self.n}, n0={self.n0}, eigs=[{parts}])"


def char_poly(X) -> Poly:
    """Characteristic polynomial det(lambda I - X) via the trace recursion.

    Exact in rational arithmetic terms for integer inputs at desk scale;
    coefficients are returned lowest power first.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = X.shape[0]
    M = np.zeros_like(X)
    cs = [1.0 + 0j]
    for k in range(1, n + 1):
        M = X @ M + cs[-1] * np.eye(n)
        cs.append(-np.trace(X @ M) / k)
    return Poly(tuple(cs[n - k] for k in range(n + 1)))


def _lex_cluster(spec: JordanSpec, eigs) -> tuple:
    """``(order, cluster)``: the declared eigenvalue indices ``eigs`` in lex
    order of their values, and the monic factor they carry as a root
    cluster, whose coordinates list the eigenvalues in that order."""
    order = sorted(eigs, key=lambda j: lex_key(spec.eig_value(j)))
    return order, RootCluster(tuple(spec.eig_value(j) for j in order),
                              tuple(spec.n_j(j) for j in order))


def _factor_coords(spec: JordanSpec, j: int, Z) -> np.ndarray:
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


def char_poly_deriv_action(spec: JordanSpec, Z) -> Poly:
    """Action of the derivative of the characteristic polynomial map at the
    base matrix on a direction Z: F'(0) of the factorization space (the
    coordinate matrix of :mod:`factorspace`) applied to the Taylor
    coordinates of every eigenvalue's factor derivative, with mu0 = 0, so the
    result has degree at most n - 1.

    Requires the spec to cover the whole spectrum (empty rest block).  Works
    for derogatory eigenvalues as well.
    """
    if spec.n0 != 0:
        raise ValueError("derivative action needs the full spectrum declared")
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (spec.n, spec.n):
        raise ValueError(f"direction must be {spec.n}x{spec.n}")
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
    if lam.size != n:
        raise ValueError(f"need {n} shift coefficients, got {lam.size}")
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


def declared_active(spec: JordanSpec, f, tol: float = 1e-8) -> tuple:
    """The one active-set routine over declared structure.

    Returns ``(g, rho, active)``: the generator and factor of
    :func:`generators.radius_transform` for f over the spectrum, and the
    indices of the declared eigenvalues at which g attains its max.  Raises
    :class:`DomainError` when an eigenvalue lies outside the domain, and
    ValueError when no eigenvalue is declared or a rest-block eigenvalue
    attains the max (its Jordan structure must then be declared).
    """
    lams = [lam for lam, _ in spec.eigs]
    g, rho = radius_transform(f, lams + list(spec.b_eigenvalues))
    value_of = _fvalue(g)
    vals = [float(value_of(lam)) for lam in lams]
    b_vals = [float(value_of(mu)) for mu in spec.b_eigenvalues]
    if any(math.isinf(v) for v in vals + b_vals):
        raise DomainError("an eigenvalue lies outside the domain of the generator")
    if not vals:
        raise ValueError("no declared eigenvalue is active: declare the maximizers")
    value = max(vals + b_vals)
    if any(v >= value - tol for v in b_vals):
        raise ValueError(
            "an eigenvalue of the rest block attains the max; its Jordan "
            "structure must be declared"
        )
    return g, rho, [j for j, v in enumerate(vals) if v >= value - tol]


def R_matrix(spec: JordanSpec, eigs=None) -> np.ndarray:
    """Stacked columns vec(P^* (N_j^s)^* P^{-*}), s = 0..n_j - 1, for the
    declared eigenvalues j listed in ``eigs``, in that order (all of them by
    default): the linear map behind the matrix part of R.  (N_j^s)^* has
    ones at (i + s, i) of eigenvalue j's slot, so a column is the outer
    products of P^*'s columns i + s with P^{-*}'s rows i.  A subset of the
    eigenvalues needs no re-laid-out spec, because a permutation of the
    block layout cancels between P^* and P^{-*}.  Every listed eigenvalue
    must be a single Jordan block."""
    eigs = range(spec.num_eigs) if eigs is None else eigs
    cols = []
    for j in eigs:
        if not spec.nonderogatory(j):
            raise DerogatoryEigenvalue(
                f"eigenvalue {spec.eig_value(j)} has {spec.q_j(j)} Jordan blocks"
            )
        sl = spec.eig_slice(j)
        cols += [(spec.Pstar[:, sl.start + s: sl.stop] @ spec.Pinvstar[sl.start: sl.stop - s])
                 .ravel() for s in range(spec.n_j(j))]
    return np.stack(cols, axis=1)


# -- JSON ---------------------------------------------------------------------


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in M]


def matrix_from_json(data) -> np.ndarray:
    try:
        M = np.array(
            [[complex(re, im) for re, im in row] for row in data], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if M.ndim != 2:
        raise ValueError("matrix JSON must be a list of rows")
    return M


def spec_to_json(spec: JordanSpec) -> dict:
    out = {
        "eigs": [
            {"lambda": [lam.real, lam.imag], "blocks": list(blocks)}
            for lam, blocks in spec.eigs
        ]
    }
    out["P"] = matrix_to_json(spec.P)
    if spec.n0:
        out["B"] = matrix_to_json(spec.B)
    return out


def spec_from_json(data: dict) -> JordanSpec:
    try:
        eigs = [
            (complex(e["lambda"][0], e["lambda"][1]), tuple(e["blocks"]))
            for e in data["eigs"]
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed spec JSON: {exc}") from exc
    P = matrix_from_json(data["P"]) if data.get("P") is not None else None
    B = matrix_from_json(data["B"]) if data.get("B") is not None else None
    return JordanSpec(eigs, P=P, B=B)
