"""Spectral max functions: evaluation and subgradient membership tests.

A subgradient candidate Y is analyzed through the transformed coordinates
W = P^{-*} Y P^{*} of the declared Jordan structure.  Regular subgradients
force W to be block diagonal across distinct eigenvalues with each block a
direct sum of lower triangular Toeplitz sub-blocks sharing their diagonal
values.  On top of this structure, the negated diagonals -theta_j of the
active eigenvalues go through the same per-root decision as the polynomial
route (:func:`polysub.block_failures`): weights on the first coordinates,
a halfplane or the squared-generator cone on the second.  The polynomial
route reaches the same set through the factor coordinates of the active
factor, pulled back through the one map :func:`jordan.R_matrix` of the
active eigenvalues, and the two are used as mutual cross-checks; members
are drawn in factor coordinates and pushed forward through the same map.
The spectral radius enters through :func:`generators.radius_transform`.

Tolerances: structural zeros are relative (1e-9 times max(1, |Y|)); the
first and second coordinates of the active blocks are checked within
1e-10 times max(1, |Y|), and the weight sum within 1e-8.

All operations are pure given an immutable spec; batch verification can fan
out freely across samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cpoly import _cluster_rows, _fvalue, _row_cluster, active_set
from .generators import Generator, UnsupportedGenerator, builtin
from .jordan import JordanSpec, R_matrix, _lex_cluster, declared_active
from .polysub import (
    Dp_sample,
    _ActiveBlock,
    _split_blocks,
    block_failures,
)

__all__ = [
    "Violation",
    "ToeplitzParams",
    "MembershipReport",
    "spectral_max",
    "spectral_active",
    "W_extract",
    "rsd_membership",
    "rsd_recession_membership",
    "rsd_sample",
    "chain_rule_membership",
    "radius_rsd_membership",
    "radius_rsd_zero",
    "regularity_verdict",
    "derogatory_witness",
    "STRUCT_TOL",
    "INEQ_SLACK",
]

STRUCT_TOL = 1e-9   # relative, structural zeros and Toeplitz deviations
INEQ_SLACK = 1e-10  # relative, the first and second coordinates of active blocks

_RADIUS = builtin("radius")


@dataclass(frozen=True)
class Violation:
    condition: str
    residual: float
    where: str = ""

    def to_json(self) -> dict:
        return {"condition": self.condition, "residual": self.residual, "where": self.where}


# each W check: the structural flag it clears when it fails, and the format
# of its location
_CHECKS = {
    "cross_block_zero": ("block_diagonal", "{}x{}"),
    "toeplitz": ("toeplitz", "eig{}[{},{}]"),
    "subblock_coupling_zero": ("subblock_coupling_zero", "eig{}[{},{}]"),
    "equal_diagonals": ("equal_diagonals", "eig{} diag {}"),
}


@dataclass
class ToeplitzParams:
    """Extracted Toeplitz data of W = P^{-*} Y P^{*}: per-eigenvalue diagonal
    values theta_j1..theta_jm_j and the residual of every structure check
    made, as ``(condition, residual, at)`` in check order, with ``at`` the
    tuple the check's location is formatted from.  The violations are the
    residuals above ``tol * max(1, norm)``, with ``norm`` = |Y|; the flags
    and ``ok`` summarize them."""

    level: str
    W: np.ndarray
    theta: dict
    residuals: list
    tol: float
    norm: float
    violations: list = field(init=False)

    def __post_init__(self):
        atol = self.tol * max(1.0, self.norm)
        self.violations = [Violation(c, r, _CHECKS[c][1].format(*at))
                           for c, r, at in self.residuals if r > atol]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def flags(self) -> dict:
        failed = {v.condition for v in self.violations}
        return {flag: c not in failed for c, (flag, _) in _CHECKS.items()}

    def theta_of(self, j: int, s: int) -> complex:
        """theta_{j,s} with s starting at 1 (diagonal)."""
        return self.theta[j][s - 1]

    def scaled(self, c: complex) -> "ToeplitzParams":
        """The extraction of c * Y read off this one of Y: W and theta scale
        by c, every residual by |c|, and the tolerance moves with |c| |Y|."""
        size = abs(c)
        return ToeplitzParams(
            self.level, c * self.W, {j: c * t for j, t in self.theta.items()},
            [(cond, size * r, at) for cond, r, at in self.residuals],
            self.tol, size * self.norm)


@dataclass
class MembershipReport:
    verdict: bool
    failed: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "failed_conditions": [v.to_json() for v in self.failed],
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# -- evaluation ----------------------------------------------------------------


def _clustered_spectra(X, cluster_tol: float) -> tuple:
    """Eigenvalues of every matrix of the stack X (..., n, n), one
    ``eigvals`` call for all of them, merged by :func:`cpoly._cluster_rows`
    into clusters of diameter at most ``cluster_tol``.

    Returns the ``(means, mults)`` arrays of shape (matrices, n), one row
    per matrix in row-major order of the leading axes.  The mean of a
    cluster holding all copies of an m-fold eigenvalue is accurate to
    O(eps), while the copies split by about eps^(1/m).
    """
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("spectral max needs square matrices")
    n = X.shape[-1]
    if n == 0:
        raise ValueError("empty matrix: no eigenvalues to maximize over")
    return _cluster_rows(np.linalg.eigvals(X).reshape(-1, n), cluster_tol)


def _values(f, z: np.ndarray) -> np.ndarray:
    """f at every entry of the complex array z, as floats of z's shape.

    One call on the whole array when f accepts it and answers with an
    array of that shape (the builtins are elementwise); otherwise one
    Python call per entry through ``np.frompyfunc``, so scalar-only
    callables work too.
    """
    value_of = _fvalue(f)
    try:
        out = np.asarray(value_of(z), dtype=float)
        if out.shape == z.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.frompyfunc(value_of, 1, 1)(z).astype(float)


def spectral_max(X, f, cluster_tol: float = 1e-6):
    """Max of f over the clustered spectrum of X, taken at the cluster means
    of backward-stable eigenvalues; +inf is returned (not raised) for
    spectra leaving the domain of f.

    X is one matrix (a float is returned) or a stack (..., n, n) (an array
    of shape X.shape[:-2] is returned); the whole stack costs one
    ``eigvals`` call.  f is called once, on the complex array of all
    cluster means, and must then act elementwise; a callable that raises
    TypeError or ValueError on an array, or answers with another shape, is
    called once per mean with a Python complex instead.
    """
    X = np.asarray(X, dtype=complex)
    means, _ = _clustered_spectra(X, cluster_tol)
    values = _values(f, means).max(axis=-1)
    if X.ndim == 2:
        return float(values[0])
    return values.reshape(X.shape[:-2])


def spectral_active(X, f, active_tol: float = 1e-8, cluster_tol: float = 1e-6):
    """Value, clustered spectrum, and active indices of one matrix, for
    reporting; the clusters are those :func:`spectral_max` maximizes over."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ValueError("spectral_active takes one square matrix")
    means, mults = _clustered_spectra(X, cluster_tol)
    cluster = _row_cluster(means[0], mults[0])
    value, idx = active_set(cluster, f, active_tol=active_tol)
    return value, cluster, idx


# -- W structure ----------------------------------------------------------------


def W_extract(spec: JordanSpec, Y, level: str = "regular",
              tol: float = STRUCT_TOL) -> ToeplitzParams:
    """Form W = P^{-*} Y P^{*} and check its block structure.

    ``level="limiting"`` checks block diagonality across distinct eigenvalues
    and the rectangular lower-triangular-Toeplitz pattern of every sub-block
    pair; ``level="regular"`` additionally requires the off-diagonal
    sub-blocks to vanish and all diagonal sub-blocks of one eigenvalue to
    share their diagonal values.  Every check's residual is reported, and
    those above ``tol * max(1, |Y|)`` are the violations; nothing is raised.
    """
    if level not in ("limiting", "regular"):
        raise ValueError("level must be 'limiting' or 'regular'")
    Y, norm = _candidate(spec, Y)
    W = spec.to_W(Y)
    residuals = []
    segments = _segments(spec)
    for a, (name_a, sl_a) in enumerate(segments):
        for b, (name_b, sl_b) in enumerate(segments):
            if a != b:
                r = float(np.abs(W[sl_a, sl_b]).max()) if W[sl_a, sl_b].size else 0.0
                residuals.append(("cross_block_zero", r, (name_a, name_b)))

    theta: dict = {}
    for j in range(spec.num_eigs):
        subs = spec.subblock_slices(j)
        sizes = spec.block_sizes(j)
        for r_i, (sl_r, m_r) in enumerate(zip(subs, sizes)):
            for s_i, (sl_s, m_s) in enumerate(zip(subs, sizes)):
                blk = W[sl_r, sl_s]
                if level == "regular" and r_i != s_i:
                    residuals.append(("subblock_coupling_zero", float(np.abs(blk).max()),
                                      (j, r_i, s_i)))
                else:
                    residuals.append(("toeplitz", _rect_toeplitz_residual(blk, m_r, m_s),
                                      (j, r_i, s_i)))
        # diagonal values shared across diagonal sub-blocks
        m_j = spec.m_j(j)
        vals = np.zeros(m_j, dtype=complex)
        for s in range(1, m_j + 1):
            entries = []
            for sl_k, m_k in zip(subs, sizes):
                if m_k >= s:
                    blk = W[sl_k, sl_k]
                    entries.extend(blk[i + s - 1, i] for i in range(m_k - s + 1))
            center = sum(entries) / len(entries)
            vals[s - 1] = center
            if level == "regular":
                residuals.append(("equal_diagonals", max(abs(e - center) for e in entries),
                                  (j, s)))
        theta[j] = vals

    return ToeplitzParams(level, W, theta, residuals, tol, norm)


def _candidate(spec: JordanSpec, Y) -> tuple:
    """``(Y, |Y|)`` with Y as a complex array; ValueError unless Y is n x n
    with a finite norm, which every tolerance scales with."""
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (spec.n, spec.n):
        raise ValueError(f"candidate must be {spec.n}x{spec.n}")
    norm = float(np.linalg.norm(Y))
    if not math.isfinite(norm):
        raise ValueError(f"candidate must be finite, got norm {norm}")
    return Y, norm


def _segments(spec: JordanSpec) -> list:
    """(name, slice) of the rest block, if any, and of each eigenvalue."""
    rest = [("rest", slice(0, spec.n0))] if spec.n0 else []
    return rest + [(f"eig{j}", spec.eig_slice(j)) for j in range(spec.num_eigs)]


def _rect_toeplitz_residual(blk: np.ndarray, m_r: int, m_s: int) -> float:
    """Deviation from the rectangular lower-triangular Toeplitz pattern:
    entries constant along diagonals, zero above the main diagonal drawn
    from the top left or the bottom right of the block."""
    res = 0.0
    min_d = max(0, m_r - m_s)
    for d in range(-(m_s - 1), m_r):
        entries = [blk[k, k - d] for k in range(max(d, 0), min(m_r, m_s + d))]
        if not entries:
            continue
        if d < min_d:
            res = max(res, max(abs(e) for e in entries))
        else:
            center = sum(entries) / len(entries)
            res = max(res, max(abs(e - center) for e in entries))
    return res


# -- the direct route -------------------------------------------------------------


def _inactive_violations(spec: JordanSpec, W: np.ndarray, active, atol: float):
    kept = {f"eig{j}" for j in active}
    res = [(name, float(np.abs(W[sl, sl]).max()))
           for name, sl in _segments(spec) if name not in kept]
    return [Violation("inactive_block_zero", r, name) for name, r in res if r > atol]


def _membership(spec: JordanSpec, f, params: ToeplitzParams,
                horizon: bool) -> MembershipReport:
    """One active set, the regular W structure of the candidate Y (already
    extracted into ``params``), vanishing inactive blocks, and the active
    blocks -theta_j through :func:`polysub.block_failures` at
    INEQ_SLACK * max(1, |Y|).  The radius transform scales the blocks and
    that tolerance by rho alike, so the core's residuals for the radius are
    those of rho * Y under radius2."""
    f, rho, active = declared_active(spec, f)
    scale = max(1.0, params.norm)
    failed = params.violations + _inactive_violations(spec, params.W, active,
                                                      params.tol * scale)
    data = [_ActiveBlock(f, spec.eig_value(j), spec.n_j(j)) for j in active]
    core, gammas = block_failures(data, [-rho * params.theta[j] for j in active],
                                  rho * INEQ_SLACK * scale, horizon)
    failed += [Violation(c, r, "active" if i is None else f"eig{active[i]}")
               for c, r, i in core]
    details = {"active": active}
    if gammas is not None:
        details["gamma"] = dict(zip(active, gammas.tolist()))
    return MembershipReport(verdict=not failed, failed=failed, details=details)


def rsd_membership(spec: JordanSpec, f: Generator, Y,
                   tol: float = STRUCT_TOL) -> MembershipReport:
    """Regular subgradient test through the transformed coordinates W: the
    regular W structure, vanishing inactive blocks, and weights gamma_j >= 0
    summing to one with theta_j1 in gamma_j / n_j times the subdifferential
    and, for blocks of size at least two, theta_j2 in the weighted halfplane
    Re<theta_j2, (grad f)^2> >= -gamma_j eta_j / n_j (smooth regime) or in
    -q_set (corner regime)."""
    return _membership(spec, f, W_extract(spec, Y, "regular", tol), horizon=False)


def rsd_recession_membership(spec: JordanSpec, f: Generator, Y,
                             tol: float = STRUCT_TOL) -> MembershipReport:
    """Recession-cone test: regular W structure, vanishing inactive blocks,
    zero diagonals on active blocks, and the subdiagonals in -q_set."""
    return _membership(spec, f, W_extract(spec, Y, "regular", tol), horizon=True)


def rsd_sample(spec: JordanSpec, f: Generator, gamma=None, theta2=None,
               seed: int = 0) -> np.ndarray:
    """Construct a regular subgradient: a point of the active factor's
    coordinate set drawn by :func:`polysub.Dp_sample`, mapped through R and
    divided by the factor of :func:`generators.radius_transform`.

    ``gamma`` are convex weights over the active eigenvalues, listed in the
    spec's declared order (a random point of the simplex by default).
    ``theta2`` maps active eigenvalue indices to subdiagonal values of W,
    which replace the drawn ones; ValueError is raised when the result then
    fails :func:`rsd_membership`.  The active eigenvalues must be
    nonderogatory; both regimes of f are supported.
    """
    g, rho, active = declared_active(spec, f)
    order, cluster = _lex_cluster(spec, active)
    M = R_matrix(spec, order)  # raises on derogatory active eigenvalues
    if gamma is not None:
        gamma = np.asarray(gamma, dtype=float).ravel()
        if gamma.size != len(active):
            raise ValueError("gamma needs one weight per active eigenvalue")
        gamma = gamma[[active.index(j) for j in order]]
    c = Dp_sample(cluster, g, gamma, seed)
    theta2 = dict(theta2 or {})
    for j, block in zip(order, _split_blocks(cluster, c)):
        if j in theta2 and len(block) >= 2:
            block[1] = -complex(theta2[j])  # block is a view into c
    Y = -(M @ c[1:]).reshape(spec.n, spec.n) / rho
    if theta2:
        report = rsd_membership(spec, f, Y)
        if not report.verdict:
            raise ValueError("the subdiagonal values leave the subgradient set: "
                             + ", ".join(v.condition for v in report.failed))
    return Y


# -- chain rule route -----------------------------------------------------------


def chain_rule_membership(spec: JordanSpec, f: Generator, Y,
                          tol: float = 1e-8, horizon: bool = False) -> bool:
    """Membership via the polynomial route: invert the coordinate-to-matrix
    map R of the active eigenvalues on its range (least squares plus a
    residual gate) and pass the Taylor coordinates of the active factor to
    :func:`polysub.block_failures`.  The active set is decided once, by
    :func:`jordan.declared_active`: the factor holds only the active
    eigenvalues and its leading coordinate is zero by construction, so no
    inactive block or leading coordinate is left to test.  Needs
    nonderogatory active eigenvalues; supports both the smooth and the
    corner regime of f, and the spectral radius through its transform.
    """
    Y, norm = _candidate(spec, Y)
    g, rho, active = declared_active(spec, f)
    order, cluster = _lex_cluster(spec, active)
    M = R_matrix(spec, order)  # raises on derogatory active eigenvalues
    rhs = -Y.ravel()
    v, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    resid = float(np.linalg.norm(M @ v - rhs))
    if resid > tol * max(1.0, norm):
        return False
    data = [_ActiveBlock(g, lam, n_j) for lam, n_j in zip(cluster.roots, cluster.mults)]
    blocks = _split_blocks(cluster, rho * np.concatenate(([0.0 + 0.0j], v)))
    return not block_failures(data, blocks, rho * tol, horizon)[0]


# -- spectral radius entry points -------------------------------------------------


def radius_rsd_membership(spec: JordanSpec, Y, tol: float = STRUCT_TOL,
                          horizon: bool = False) -> MembershipReport:
    """Regular subgradient (or recession direction) test for the spectral
    radius at a base point with positive radius: the test of radius2 on
    rho * Y."""
    if all(lam == 0 for lam, _ in spec.eigs) and not spec.b_eigenvalues.any():
        raise ValueError("zero spectral radius: use the origin-specific test")
    return _membership(spec, _RADIUS, W_extract(spec, Y, "regular", tol), horizon)


def radius_rsd_zero(spec: JordanSpec, Y, tol: float = STRUCT_TOL,
                    horizon: bool = False) -> MembershipReport:
    """Regular subgradient (or recession direction) test for the spectral
    radius at a nilpotent base point, the corner block of the modulus: |theta_1|
    at most 1/n (zero for the recession variant), theta_2 free."""
    if spec.n0 or spec.num_eigs != 1 or spec.eig_value(0) != 0:
        raise ValueError("origin test needs a single declared eigenvalue 0")
    return _membership(spec, _RADIUS, W_extract(spec, Y, "regular", tol), horizon)


# -- regularity and the derogatory witness ---------------------------------------


def regularity_verdict(spec: JordanSpec, f) -> str:
    """"regular" iff every active eigenvalue is a single Jordan block."""
    _, _, active = declared_active(spec, f)
    ok = all(spec.nonderogatory(j) for j in active)
    return "regular" if ok else "not_regular"


def _split_spec(spec: JordanSpec, j: int, block_index: int, lam_new: complex):
    """Move sub-block ``block_index`` of eigenvalue j to the end of its
    segment, assign it the new eigenvalue, and fold the re-layout into P.
    With at least two sub-blocks, the moved one becomes eigenvalue j + 1."""
    sizes = spec.block_sizes(j)
    subs = spec.subblock_slices(j)
    order = [k for k in range(len(sizes)) if k != block_index] + [block_index]
    perm = list(range(spec.eig_slice(j).start))
    for k in order:
        perm.extend(range(subs[k].start, subs[k].stop))
    perm.extend(range(spec.eig_slice(j).stop, spec.n))
    Pi = np.eye(spec.n)[perm, :]

    eigs = []
    for i, (lam, blocks) in enumerate(spec.eigs):
        if i != j:
            eigs.append((lam, blocks))
            continue
        rest = tuple(sizes[k] for k in order[:-1])
        if rest:
            eigs.append((lam, rest))
        eigs.append((lam_new, (sizes[block_index],)))
    return JordanSpec(eigs, P=Pi @ spec.P, B=spec.B if spec.n0 else None)


def derogatory_witness(spec: JordanSpec, f: Generator, count: int = 100,
                       block_index: int = 0, active_tol: float = 1e-8):
    """Construct the sequence certifying that derogatory active eigenvalues
    break regularity.

    One sub-block of a derogatory active eigenvalue is pushed outward along
    the generator's steepest direction at rates 1/nu, making it the unique
    active (nonderogatory) eigenvalue of each perturbed matrix; the
    associated subgradients converge to a limit M that fails the regular
    test at the base point because the sub-block diagonals of W end up
    unequal.  Returns ``(witnesses, M, report)`` with ``witnesses`` a list
    of (spec_nu, Y_nu) pairs.

    All Y_nu are multiples c_nu * Y_basis of one matrix under one
    similarity, so W is formed and its structure checked once, on Y_basis;
    each nu's residuals are |c_nu| times those, judged at its own tolerance
    STRUCT_TOL * max(1, |c_nu| |Y_basis|).  The verdict is still given per
    nu: each runs its own active set and active-block decision, and gets the
    verdict :func:`rsd_membership` gives on (spec_nu, Y_nu), up to rounding
    in forming W.
    """
    if count < 1:
        raise ValueError(f"the witness sequence needs at least one member, got {count}")
    _, _, active = declared_active(spec, f, active_tol)
    target = next((j for j in active if not spec.nonderogatory(j)), None)
    if target is None:
        raise ValueError("no derogatory active eigenvalue to witness")
    if not 0 <= block_index < spec.q_j(target):
        raise ValueError(f"block index outside 0..{spec.q_j(target) - 1}")
    lam = spec.eig_value(target)
    m_k = spec.block_sizes(target)[block_index]

    # at a corner, such as the radius at the nilpotent origin, the gradient
    # on the ray lam + t (t > 0), where the modulus has a constant one
    g = f.grad(lam)
    if g is None:
        g = f.grad(lam + 1.0)
    if not g:
        raise UnsupportedGenerator(f"witness needs a nonzero gradient of {f.name} at {lam}")
    direction = g / abs(g)

    seps = [abs(lam - spec.eig_value(i)) for i in range(spec.num_eigs) if i != target]
    seps += [abs(lam - mu) for mu in spec.b_eigenvalues]
    step0 = min([1.0] + [s / 4 for s in seps])

    # only the moved eigenvalue differs between nu: one split similarity
    split = _split_spec(spec, target, block_index, lam + step0 * direction)
    idx = target + 1
    Y_basis = split.from_W(split.embed_block(idx, np.eye(m_k)))

    basis = W_extract(split, Y_basis)
    witnesses = []
    per_nu = []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        spec_nu = split.with_eigenvalue(idx, lam_nu)
        c = f.grad(lam_nu) / m_k
        witnesses.append((spec_nu, c * Y_basis))
        per_nu.append(_membership(spec_nu, f, basis.scaled(c), horizon=False).verdict)

    E = np.zeros((spec.n, spec.n), dtype=complex)
    sl = spec.subblock_slices(target)[block_index]
    E[sl, sl] = np.eye(m_k)
    M = (g / m_k) * spec.from_W(E)
    base_rep = rsd_membership(spec, f, M)

    report = {
        "per_nu": per_nu,
        "limit_is_regular_subgradient_at_base": base_rep.verdict,
        "base_failures": [v.to_json() for v in base_rep.failed],
        "ok": all(per_nu) and not base_rep.verdict,
    }
    return witnesses, M, report
