"""Jordan-structured matrices and the matrix-side derivative formulas.

The Jordan structure of a base matrix is *declared*, never inferred: given
distinct eigenvalues with block sizes, a similarity P, and an optional
untyped block B for the remaining spectrum, the base matrix is

    X = P^{-1} Diag(B, J_1, ..., J_m) P,

with J_j the Jordan segment of eigenvalue j.  Numerical Jordan form
recovery is ill-posed, so no constructor takes a raw matrix.

The matrix-side derivative formulas read the Taylor coordinates of the
eigenvalue-j factor's derivative g_j'(X) Z, mu_js = -tr(N_j^(s-1) V_jj)
with V = P Z P^{-1}.  The derivative of the characteristic polynomial map
takes (0, mu) through F'(0), the coordinate matrix of :mod:`polysub`;
the calculus stays in the coordinates and never forms that polynomial.  On
a nonderogatory eigenvalue the coordinates are -R_j^* vec Z, with R_j the
columns vec(P^* (N_j^(s-1))^* P^{-*}) of :func:`R_matrix`: the one
factor-coordinate map, which the chain route inverts, the sampler pushes
forward through and the subderivative applies.

Specs and matrices are immutable after construction (derived factorizations
are cached up front), so concurrent reads are safe.

JSON formats: a matrix is a row-major list of rows of [re, im] pairs; a
spec is {"eigs": [{"lambda": [re, im], "blocks": [...]}, ...], "P": matrix,
"B": matrix} with "P" and "B" optional.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .cpoly import DomainError, RootCluster, active_roots, lex_key

__all__ = [
    "JordanSpec",
    "DerogatoryEigenvalue",
    "DomainError",
    "nilpotent",
    "declared_active",
    "R_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "spec_to_json",
    "spec_from_json",
]


class DerogatoryEigenvalue(ValueError):
    """An operation needing a single Jordan block met a derogatory eigenvalue."""


def nilpotent(size: int) -> np.ndarray:
    """Ones on the superdiagonal, zeros elsewhere."""
    N = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        N[i, i + 1] = 1.0
    return N


def _finite_eigenvalue(lam) -> complex:
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"eigenvalue must be finite, got {lam}")
    return lam


class JordanSpec:
    """Declared Jordan data: eigenvalues with block sizes, similarity, rest-block.

    ``eigs`` is a sequence of (eigenvalue, block_sizes); declaration order
    fixes the block layout (B first, then each eigenvalue's blocks in order).

    P must be finite with cond_2(P) <= MAX_CONDITION.  That is the gate;
    the bound |P|_F |P^-1|_F <= MAX_CONDITION / 2 on the inverse, which the
    refinement sweep needs anyway, is only a shortcut that accepts without
    an SVD: it implies the gate.  Every other P goes to ``np.linalg.cond``,
    so the accepted and the rejected similarities are those of the 2-norm
    gate alone.  ``frob_norms`` keeps the shortcut's ``(|P|_F, |P^-1|_F)``,
    which bound the moduli met in reading a candidate in W coordinates.
    """

    MIN_SEPARATION = 1e-8  # absolute: between declared eigenvalues
    MAX_CONDITION = 1e8

    def __init__(self, eigs, P=None, B=None):
        parsed, lams, size = [], [], 0
        for lam, blocks in eigs:
            blocks = tuple(blocks)
            try:  # 2.0 is a block size, 1.7 and inf are not
                sizes = tuple(map(int, blocks))
            except (TypeError, ValueError, OverflowError):
                sizes = ()
            if not sizes or min(sizes) < 1 or sizes != blocks:
                raise ValueError("block sizes must be positive integers")
            lam = _finite_eigenvalue(lam)
            parsed.append((lam, sizes))
            lams.append(lam)
            size += sum(sizes)
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
        self.n = self.n0 + size

        P = np.eye(self.n, dtype=complex) if P is None else np.asarray(P, dtype=complex)
        if P.shape != (self.n, self.n):
            raise ValueError(f"similarity must be {self.n}x{self.n}, got {P.shape}")
        try:
            Pinv = np.linalg.inv(P)
            self.frob_norms = (math.sqrt(float(np.vdot(P, P).real)),
                               math.sqrt(float(np.vdot(Pinv, Pinv).real)))
        except np.linalg.LinAlgError:
            self.frob_norms = (math.inf, math.inf)
        # cond_2(P) <= |P|_F |P^-1|_F, and the factor 2 covers rounding in
        # the inverse; a NaN or inf bound fails the test and goes to the SVD
        if not self.frob_norms[0] * self.frob_norms[1] <= self.MAX_CONDITION / 2:
            try:
                cond = np.linalg.cond(P)  # inf for an inf entry
            except np.linalg.LinAlgError as exc:  # a NaN entry stops the SVD
                raise ValueError(f"similarity P must be finite: {exc}") from exc
            if not np.isfinite(cond) or cond > self.MAX_CONDITION:
                raise ValueError(f"similarity condition number {cond:.2e} exceeds bound")
        self.P = P
        Pinv = Pinv + Pinv @ (np.eye(self.n) - P @ Pinv)  # one refinement sweep
        self.Pinv = Pinv
        self.Pstar = P.conj().T
        self.Pinvstar = Pinv.conj().T

        self._b_eigs = np.linalg.eigvals(B) if self.n0 else np.zeros(0, dtype=complex)
        others = lams + list(self._b_eigs)
        for i, lam in enumerate(lams):
            self._check_separation(lam, others[i + 1:])

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

    def _check_separation(self, lam: complex, others: list) -> None:
        """Raise unless lam is apart from each of ``others``."""
        for mu in others:
            if abs(lam - mu) <= self.MIN_SEPARATION:
                raise ValueError(
                    f"declared eigenvalues must be distinct (and distinct from the "
                    f"rest block): {lam} vs {mu}"
                )

    def with_eigenvalue(self, j: int, lam) -> "JordanSpec":
        """This spec with eigenvalue j moved to ``lam``.

        The copy shares P, its inverse and the block layout, which do not
        depend on the eigenvalues, through a copy of the attribute dict;
        only the moved eigenvalue's finiteness and its separation from the
        others and from the rest block are checked again.
        """
        lam = _finite_eigenvalue(lam)
        self._check_separation(lam, [mu for i, (mu, _) in enumerate(self.eigs) if i != j]
                               + list(self._b_eigs))
        moved = object.__new__(type(self))
        moved.__dict__ = {**self.__dict__,
                          "eigs": self.eigs[:j] + ((lam, self.eigs[j][1]),) + self.eigs[j + 1:]}
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

    def __repr__(self) -> str:
        parts = ", ".join(f"{lam}:{list(blocks)}" for lam, blocks in self.eigs)
        return f"JordanSpec(n={self.n}, n0={self.n0}, eigs=[{parts}])"


def _lex_cluster(spec: JordanSpec, eigs) -> tuple:
    """``(order, cluster)``: the declared eigenvalue indices ``eigs`` in lex
    order of their values, and the monic factor they carry as a root
    cluster, whose coordinates list the eigenvalues in that order."""
    order = sorted(eigs, key=lambda j: lex_key(spec.eigs[j][0]))
    return order, RootCluster(tuple([spec.eigs[j][0] for j in order]),
                              tuple([sum(spec.eigs[j][1]) for j in order]))


def declared_active(spec: JordanSpec, f) -> tuple:
    """``(g, active)`` of :func:`cpoly.active_roots` over the declared
    eigenvalues, which ``active`` indexes, with the rest-block spectrum as
    the values of unknown structure (ValueError if one attains the max)."""
    return active_roots(f, [lam for lam, _ in spec.eigs], spec.b_eigenvalues)


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
    shifts = []  # (first row of the slot, its end, s) per column
    for j in eigs:
        if not spec.nonderogatory(j):
            raise DerogatoryEigenvalue(
                f"eigenvalue {spec.eig_value(j)} has {spec.q_j(j)} Jordan blocks"
            )
        sl = spec.eig_slice(j)
        for s in range(sl.stop - sl.start):
            shifts.append((sl.start, sl.stop, s))
    # column c as an n x n matrix: each product is written in place, then
    # one copy lays the columns out
    cols = np.empty((len(shifts), spec.n, spec.n), dtype=complex)
    for c, (a, b, s) in enumerate(shifts):
        np.matmul(spec.Pstar[:, a + s:b], spec.Pinvstar[a:b - s], out=cols[c])
    return cols.reshape(len(shifts), -1).T.copy()


# -- JSON ---------------------------------------------------------------------


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in M]


def matrix_from_json(data) -> np.ndarray:
    try:
        M = np.array(
            [[complex(re, im) for re, im in row] for row in data], dtype=complex
        )
    except (TypeError, ValueError, OverflowError) as exc:  # an int too large for a float
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
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed spec JSON: {exc}") from exc
    P = matrix_from_json(data["P"]) if data.get("P") is not None else None
    B = matrix_from_json(data["B"]) if data.get("B") is not None else None
    return JordanSpec(eigs, P=P, B=B)
