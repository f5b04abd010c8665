"""Spectral max functions: evaluation and subgradient membership tests.

A subgradient candidate Y is analyzed through the transformed coordinates
W = P^{-*} Y P^{*} of the declared Jordan structure.  Regular subgradients
force W to be block diagonal across distinct eigenvalues with each block a
direct sum of lower triangular Toeplitz sub-blocks sharing their diagonal
values; on top of this structure sit the weight conditions on the diagonals
and a halfplane inequality on the subdiagonals.  The same set is reachable
through the polynomial route (factor coordinates of the active factor), and
the two are used as mutual cross-checks.

Tolerances: structural zeros are relative (1e-9 times the candidate norm),
weight-simplex checks use 1e-8, inequality slacks 1e-10 absolute.

All operations are pure given an immutable spec; batch verification can fan
out freely across samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cpoly import RootCluster, _cluster_rows, _fvalue, active_set
from .generators import (
    COND14,
    COND15,
    Generator,
    UnsupportedGenerator,
    condition_check,
    re_cip,
)
from .jordan import (
    DerogatoryEigenvalue,
    DomainError,
    JordanSpec,
    R_matrix,
    active_factor,
    nilpotent,
)
from .polysub import Dp_horizon_membership, Dp_membership

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
    "WEIGHT_TOL",
    "INEQ_SLACK",
]

STRUCT_TOL = 1e-9   # relative, structural zeros and Toeplitz deviations
WEIGHT_TOL = 1e-8   # weight realness/nonnegativity and simplex sum
INEQ_SLACK = 1e-10  # absolute slack on halfplane inequalities


@dataclass(frozen=True)
class Violation:
    condition: str
    residual: float
    where: str = ""

    def to_json(self) -> dict:
        return {"condition": self.condition, "residual": self.residual, "where": self.where}


@dataclass
class ToeplitzParams:
    """Extracted Toeplitz data of W: per-eigenvalue diagonal values theta_j1..
    theta_jm_j, structural flags, and any violations found."""

    ok: bool
    level: str
    W: np.ndarray
    theta: dict
    flags: dict
    violations: list
    sigma: Optional[dict] = None

    def theta_of(self, j: int, s: int) -> complex:
        """theta_{j,s} with s starting at 1 (diagonal)."""
        return self.theta[j][s - 1]


@dataclass
class MembershipReport:
    verdict: bool
    failed: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "failed_conditions": [v.to_json() for v in self.failed],
            "details": {
                k: (v if not isinstance(v, complex) else [v.real, v.imag])
                for k, v in self.details.items()
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# -- evaluation ----------------------------------------------------------------


def _clustered_spectra(X, cluster_tol: float) -> list:
    """Eigenvalues of every matrix of the stack X (..., n, n), one
    ``eigvals`` call for all of them, merged by :func:`cpoly._cluster_rows`
    into clusters of diameter at most ``cluster_tol``.

    Returns one ``(means, multiplicities)`` pair per matrix, in row-major
    order of the leading axes.  The mean of a cluster holding all copies of
    an m-fold eigenvalue is accurate to O(eps), while the copies split by
    about eps^(1/m).
    """
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("spectral max needs square matrices")
    n = X.shape[-1]
    if n == 0:
        raise ValueError("empty matrix: no eigenvalues to maximize over")
    return _cluster_rows(np.linalg.eigvals(X).reshape(-1, n), cluster_tol)


def spectral_max(X, f, cluster_tol: float = 1e-6):
    """Max of f over the clustered spectrum of X, taken at the cluster means
    of backward-stable eigenvalues; +inf is returned (not raised) for
    spectra leaving the domain of f.

    X is one matrix (a float is returned) or a stack (..., n, n) (an array
    of shape X.shape[:-2] is returned); the whole stack costs one
    ``eigvals`` call.  f is called once per cluster mean with a Python
    complex, so scalar-only callables work.
    """
    X = np.asarray(X, dtype=complex)
    value_of = _fvalue(f)
    values = [max(float(value_of(z)) for z in means)
              for means, _ in _clustered_spectra(X, cluster_tol)]
    if X.ndim == 2:
        return values[0]
    return np.array(values).reshape(X.shape[:-2])


def spectral_active(X, f, active_tol: float = 1e-8, cluster_tol: float = 1e-6):
    """Value, clustered spectrum, and active indices of one matrix, for
    reporting; the clusters are those :func:`spectral_max` maximizes over."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ValueError("spectral_active takes one square matrix")
    (means, mults), = _clustered_spectra(X, cluster_tol)
    cluster = RootCluster.sorted(zip(means, mults))
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
    share their diagonal values.  Violations are reported, never raised.
    """
    if level not in ("limiting", "regular"):
        raise ValueError("level must be 'limiting' or 'regular'")
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (spec.n, spec.n):
        raise ValueError(f"candidate must be {spec.n}x{spec.n}")
    W = spec.to_W(Y)
    scale = max(1.0, float(np.linalg.norm(Y)))
    atol = tol * scale
    violations = []
    flags = {
        "block_diagonal": True,
        "toeplitz": True,
        "subblock_coupling_zero": True,
        "equal_diagonals": True,
    }

    segments = []
    if spec.n0:
        segments.append(("rest", slice(0, spec.n0)))
    for j in range(spec.num_eigs):
        segments.append((f"eig{j}", spec.eig_slice(j)))
    for a, (name_a, sl_a) in enumerate(segments):
        for b, (name_b, sl_b) in enumerate(segments):
            if a == b:
                continue
            r = float(np.abs(W[sl_a, sl_b]).max()) if W[sl_a, sl_b].size else 0.0
            if r > atol:
                flags["block_diagonal"] = False
                violations.append(Violation("cross_block_zero", r, f"{name_a}x{name_b}"))

    theta: dict = {}
    for j in range(spec.num_eigs):
        subs = spec.subblock_slices(j)
        sizes = spec.block_sizes(j)
        for r_i, (sl_r, m_r) in enumerate(zip(subs, sizes)):
            for s_i, (sl_s, m_s) in enumerate(zip(subs, sizes)):
                blk = W[sl_r, sl_s]
                if level == "regular" and r_i != s_i:
                    res = float(np.abs(blk).max())
                    if res > atol:
                        flags["subblock_coupling_zero"] = False
                        violations.append(
                            Violation("subblock_coupling_zero", res, f"eig{j}[{r_i},{s_i}]")
                        )
                    continue
                res = _rect_toeplitz_residual(blk, m_r, m_s)
                if res > atol:
                    flags["toeplitz"] = False
                    violations.append(
                        Violation("toeplitz", res, f"eig{j}[{r_i},{s_i}]")
                    )
        # diagonal values shared across diagonal sub-blocks
        m_j = spec.m_j(j)
        vals = np.zeros(m_j, dtype=complex)
        for s in range(1, m_j + 1):
            entries = []
            for sl_k, m_k in zip(subs, sizes):
                if m_k >= s:
                    blk = W[sl_k, sl_k]
                    entries.extend(blk[i + s - 1, i] for i in range(m_k - s + 1))
            center = complex(np.mean(entries))
            vals[s - 1] = center
            dev = max(abs(e - center) for e in entries)
            if level == "regular" and dev > atol:
                flags["equal_diagonals"] = False
                violations.append(Violation("equal_diagonals", dev, f"eig{j} diag {s}"))
        theta[j] = vals

    return ToeplitzParams(
        ok=not violations,
        level=level,
        W=W,
        theta=theta,
        flags=flags,
        violations=violations,
    )


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
            center = complex(np.mean(entries))
            res = max(res, max(abs(e - center) for e in entries))
    return res


# -- active sets over declared structure ---------------------------------------


def _declared_active(spec: JordanSpec, f, active_tol: float = 1e-8):
    value_of = f.value if hasattr(f, "value") else f
    vals = [float(value_of(spec.eig_value(j))) for j in range(spec.num_eigs)]
    b_vals = [float(value_of(mu)) for mu in spec.b_eigenvalues]
    if any(math.isinf(v) for v in vals + b_vals):
        raise DomainError("an eigenvalue lies outside the domain of the generator")
    value = max(vals + b_vals)
    if any(v >= value - active_tol for v in b_vals):
        raise ValueError(
            "an eigenvalue of the rest block attains the max; declare its structure"
        )
    return value, [j for j, v in enumerate(vals) if v >= value - active_tol]


def _require_smooth_regime(spec: JordanSpec, f: Generator, active):
    for j in active:
        lam = spec.eig_value(j)
        if condition_check(f, lam) != COND14:
            raise UnsupportedGenerator(
                f"{f.name} must be quadratic or C^2 positive definite at the "
                f"active eigenvalue {lam}"
            )
        g = f.grad(lam)
        if g is None or g == 0:
            raise UnsupportedGenerator(
                f"gradient of {f.name} vanishes (or is undefined) at {lam}"
            )


def _inactive_violations(spec: JordanSpec, W: np.ndarray, active, atol: float):
    out = []
    if spec.n0:
        r = float(np.abs(W[: spec.n0, : spec.n0]).max())
        if r > atol:
            out.append(Violation("inactive_block_zero", r, "rest"))
    for j in range(spec.num_eigs):
        if j in active:
            continue
        sl = spec.eig_slice(j)
        r = float(np.abs(W[sl, sl]).max())
        if r > atol:
            out.append(Violation("inactive_block_zero", r, f"eig{j}"))
    return out


# -- regular subdifferential, smooth regime ------------------------------------


def rsd_membership(spec: JordanSpec, f: Generator, Y,
                   tol: float = STRUCT_TOL) -> MembershipReport:
    """Regular subgradient test through the transformed coordinates W.

    Conditions: the regular W structure; vanishing inactive blocks; weights
    sigma_j = theta_j1 / grad f real and nonnegative with the multiplicities
    summing them to one over the active eigenvalues; and for blocks of size
    at least two, Re<theta_j2, (grad f)^2> >= -sigma_j * eta_j with eta_j
    the curvature of f orthogonal to its gradient.
    """
    _, active = _declared_active(spec, f)
    _require_smooth_regime(spec, f, active)
    params = W_extract(spec, Y, level="regular", tol=tol)
    scale = max(1.0, float(np.linalg.norm(np.asarray(Y))))
    failed = list(params.violations)
    failed += _inactive_violations(spec, params.W, active, tol * scale)

    sigma = {}
    total = 0.0 + 0.0j
    for j in active:
        lam = spec.eig_value(j)
        g = f.grad(lam)
        s = params.theta_of(j, 1) / g
        sigma[j] = s
        total += spec.n_j(j) * s
        if abs(s.imag) > WEIGHT_TOL:
            failed.append(Violation("weight_real", abs(s.imag), f"eig{j}"))
        if s.real < -WEIGHT_TOL:
            failed.append(Violation("weight_nonnegative", -s.real, f"eig{j}"))
    if abs(total - 1.0) > WEIGHT_TOL:
        failed.append(Violation("weight_sum_one", abs(total - 1.0), "active"))

    for j in active:
        if spec.m_j(j) < 2:
            continue
        lam = spec.eig_value(j)
        g = f.grad(lam)
        lhs = re_cip(params.theta_of(j, 2), g * g)
        rhs = -max(sigma[j].real, 0.0) * f.eta(lam)
        if lhs < rhs - INEQ_SLACK:
            failed.append(Violation("subdiagonal_halfplane", rhs - lhs, f"eig{j}"))

    params.sigma = sigma
    return MembershipReport(
        verdict=not failed,
        failed=failed,
        details={"sigma": {j: [s.real, s.imag] for j, s in sigma.items()},
                 "active": list(active)},
    )


def rsd_recession_membership(spec: JordanSpec, f: Generator, Y,
                             tol: float = STRUCT_TOL) -> MembershipReport:
    """Recession-cone test: regular W structure, vanishing inactive blocks,
    zero diagonals on active blocks, and nonnegative halfplane inequality on
    the subdiagonals."""
    _, active = _declared_active(spec, f)
    _require_smooth_regime(spec, f, active)
    params = W_extract(spec, Y, level="regular", tol=tol)
    scale = max(1.0, float(np.linalg.norm(np.asarray(Y))))
    failed = list(params.violations)
    failed += _inactive_violations(spec, params.W, active, tol * scale)

    for j in active:
        t1 = params.theta_of(j, 1)
        if abs(t1) > tol * scale:
            failed.append(Violation("diagonal_zero", abs(t1), f"eig{j}"))
        if spec.m_j(j) >= 2:
            g = f.grad(spec.eig_value(j))
            lhs = re_cip(params.theta_of(j, 2), g * g)
            if lhs < -INEQ_SLACK:
                failed.append(Violation("subdiagonal_halfplane", -lhs, f"eig{j}"))
    return MembershipReport(verdict=not failed, failed=failed,
                            details={"active": list(active)})


def rsd_sample(spec: JordanSpec, f: Generator, gamma=None, theta2=None,
               deep=None, seed: int = 0) -> np.ndarray:
    """Construct a regular subgradient from explicit parameters.

    ``gamma`` are convex weights over the active eigenvalues, listed in the
    spec's declared order (uniform by default); the block diagonals become
    gamma_j * grad f / n_j.  ``theta2`` maps active eigenvalue indices to
    subdiagonal values (validated against the halfplane inequality; sampled
    inside it when omitted), ``deep`` maps them to the free deeper
    diagonals.  The result always passes :func:`rsd_membership`.
    """
    rng = np.random.default_rng(seed)
    _, active = _declared_active(spec, f)
    _require_smooth_regime(spec, f, active)
    for j in active:
        if not spec.nonderogatory(j):
            raise DerogatoryEigenvalue(
                f"explicit construction needs nonderogatory active eigenvalues; "
                f"eigenvalue {spec.eig_value(j)} has {spec.q_j(j)} blocks"
            )
    if gamma is None:
        gamma = np.full(len(active), 1.0 / len(active))
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != len(active) or gamma.min() < -WEIGHT_TOL or abs(gamma.sum() - 1) > WEIGHT_TOL:
        raise ValueError("gamma must be a point of the simplex over the active set")
    theta2 = dict(theta2 or {})
    deep = dict(deep or {})

    W = np.zeros((spec.n, spec.n), dtype=complex)
    for idx, j in enumerate(active):
        lam, n_j = spec.eig_value(j), spec.n_j(j)
        g = f.grad(lam)
        thetas = np.zeros(n_j, dtype=complex)
        thetas[0] = gamma[idx] * g / n_j
        if n_j >= 2:
            w = g * g
            floor = -(gamma[idx] / n_j) * f.eta(lam)
            if j in theta2:
                t2 = complex(theta2[j])
                if re_cip(t2, w) < floor - INEQ_SLACK:
                    raise ValueError(
                        f"subdiagonal value at eigenvalue {lam} violates the "
                        f"halfplane inequality"
                    )
            else:
                a = floor / abs(w) ** 2 + abs(rng.standard_normal()) * 0.5
                b = rng.standard_normal() * 0.5
                t2 = (a + 1j * b) * w
            thetas[1] = t2
        if n_j >= 3:
            extra = deep.get(j)
            if extra is None:
                extra = 0.5 * (rng.standard_normal(n_j - 2) + 1j * rng.standard_normal(n_j - 2))
            thetas[2:] = np.asarray(extra, dtype=complex)
        sl = spec.eig_slice(j)
        Nt = nilpotent(n_j).T
        block = np.zeros((n_j, n_j), dtype=complex)
        power = np.eye(n_j, dtype=complex)
        for s in range(n_j):
            block += thetas[s] * power
            power = power @ Nt
        W[sl, sl] = block
    return spec.from_W(W)


# -- chain rule route -----------------------------------------------------------


def chain_rule_membership(spec: JordanSpec, f: Generator, Y,
                          tol: float = 1e-8, horizon: bool = False) -> bool:
    """Membership via the polynomial route: invert the coordinate-to-matrix
    map on its range (least squares plus a residual gate) and test the
    coordinate set of the active factor.  Needs nonderogatory active
    eigenvalues; supports both the smooth and the corner regime of f.
    """
    cluster, aspec = active_factor(spec, f)
    M = R_matrix(aspec)  # raises on derogatory active eigenvalues
    Y = np.asarray(Y, dtype=complex)
    rhs = -Y.ravel()
    v, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    resid = float(np.linalg.norm(M @ v - rhs))
    if resid > tol * max(1.0, float(np.linalg.norm(Y))):
        return False
    c = np.concatenate(([0.0 + 0.0j], v))
    if horizon:
        return Dp_horizon_membership(cluster, f, c, tol)
    return Dp_membership(cluster, f, c, tol)


# -- spectral radius specializations ---------------------------------------------


def _radius_active(spec: JordanSpec, active_tol: float = 1e-8):
    mods = [abs(spec.eig_value(j)) for j in range(spec.num_eigs)]
    b_mods = [abs(mu) for mu in spec.b_eigenvalues]
    rho = max(mods + b_mods)
    if any(m >= rho - active_tol for m in b_mods):
        raise ValueError(
            "an eigenvalue of the rest block attains the spectral radius; "
            "declare its structure"
        )
    return rho, [j for j, m in enumerate(mods) if m >= rho - active_tol]


def radius_rsd_membership(spec: JordanSpec, Y, tol: float = STRUCT_TOL,
                          horizon: bool = False) -> MembershipReport:
    """Regular subgradient (or recession direction) test for the spectral
    radius at a base point with positive radius.

    Diagonal values must lie on the outward ray: theta_j1 / lam_j real and
    nonnegative with sum_j n_j theta_j1 |lam_j| / lam_j = 1; for blocks of
    size at least two, Re(conj(theta_j2) lam_j^2) >= -theta_j1 |lam_j|^2 / lam_j.
    The recession variant zeroes the diagonals and drops the right-hand sides.
    """
    rho, active = _radius_active(spec)
    if rho <= 0:
        raise ValueError("zero spectral radius: use the origin-specific test")
    params = W_extract(spec, Y, level="regular", tol=tol)
    scale = max(1.0, float(np.linalg.norm(np.asarray(Y))))
    failed = list(params.violations)
    failed += _inactive_violations(spec, params.W, active, tol * scale)

    if horizon:
        for j in active:
            t1 = params.theta_of(j, 1)
            if abs(t1) > tol * scale:
                failed.append(Violation("diagonal_zero", abs(t1), f"eig{j}"))
            if spec.m_j(j) >= 2:
                lam = spec.eig_value(j)
                lhs = re_cip(params.theta_of(j, 2), lam * lam)
                if lhs < -INEQ_SLACK:
                    failed.append(Violation("subdiagonal_halfplane", -lhs, f"eig{j}"))
        return MembershipReport(verdict=not failed, failed=failed,
                                details={"active": list(active), "rho": rho})

    total = 0.0 + 0.0j
    rays = {}
    for j in active:
        lam = spec.eig_value(j)
        t1 = params.theta_of(j, 1)
        ray = t1 / lam
        rays[j] = ray
        total += spec.n_j(j) * t1 * abs(lam) / lam
        if abs(ray.imag) > WEIGHT_TOL:
            failed.append(Violation("diagonal_ray_real", abs(ray.imag), f"eig{j}"))
        if ray.real < -WEIGHT_TOL:
            failed.append(Violation("diagonal_ray_nonnegative", -ray.real, f"eig{j}"))
    if abs(total - 1.0) > WEIGHT_TOL:
        failed.append(Violation("weight_sum_one", abs(total - 1.0), "active"))
    for j in active:
        if spec.m_j(j) < 2:
            continue
        lam = spec.eig_value(j)
        lhs = re_cip(params.theta_of(j, 2), lam * lam)
        rhs = -np.real(params.theta_of(j, 1) * abs(lam) ** 2 / lam)
        if lhs < rhs - INEQ_SLACK:
            failed.append(Violation("subdiagonal_halfplane", rhs - lhs, f"eig{j}"))
    return MembershipReport(
        verdict=not failed,
        failed=failed,
        details={"active": list(active), "rho": rho,
                 "rays": {j: [r.real, r.imag] for j, r in rays.items()}},
    )


def radius_rsd_zero(spec: JordanSpec, Y, tol: float = STRUCT_TOL,
                    horizon: bool = False) -> MembershipReport:
    """Regular subgradient (or recession direction) test for the spectral
    radius at a nilpotent base point: regular W structure with the single
    diagonal value bounded by 1/n (zero for the recession variant)."""
    if spec.n0 or spec.num_eigs != 1 or spec.eig_value(0) != 0:
        raise ValueError("origin test needs a single declared eigenvalue 0")
    params = W_extract(spec, Y, level="regular", tol=tol)
    scale = max(1.0, float(np.linalg.norm(np.asarray(Y))))
    failed = list(params.violations)
    t1 = params.theta_of(0, 1)
    if horizon:
        if abs(t1) > tol * scale:
            failed.append(Violation("diagonal_zero", abs(t1), "eig0"))
    else:
        if abs(t1) > 1.0 / spec.n + INEQ_SLACK:
            failed.append(
                Violation("diagonal_modulus_bound", abs(t1) - 1.0 / spec.n, "eig0")
            )
    return MembershipReport(verdict=not failed, failed=failed,
                            details={"theta1": [t1.real, t1.imag], "n": spec.n})


def reading_comparison(spec: JordanSpec, f: Generator, Y, tol: float = STRUCT_TOL) -> dict:
    """Strict-mode diagnostic: the adopted convention next to the rejected
    alternative readings of the explicit-representation display.

    Reports the verdict under (a) the adopted convention (diagonals
    +gamma_j grad f / n_j, coordinates W = P^{-*} Y P^{*}), (b) the
    sign-flipped diagonal reading (diagonals -gamma_j grad f / n_j, i.e. the
    candidate -Y under (a)), and (c) the transpose variant that transforms
    with P^{-*} Y P instead of P^{-*} Y P^{*} (structure check only, since
    the weight conditions presuppose reading (a)).
    """
    adopted = rsd_membership(spec, f, Y, tol)
    flipped = rsd_membership(spec, f, -np.asarray(Y, dtype=complex), tol)
    W_alt = spec.Pinvstar @ np.asarray(Y, dtype=complex) @ spec.P
    alt_params = W_extract(spec, spec.from_W(W_alt), level="regular", tol=tol)
    return {
        "adopted": adopted.verdict,
        "sign_flipped": flipped.verdict,
        "transpose_variant_structure": alt_params.ok,
        "adopted_report": adopted,
    }


# -- regularity and the derogatory witness ---------------------------------------


def regularity_verdict(spec: JordanSpec, f) -> str:
    """"regular" iff every active eigenvalue is a single Jordan block."""
    if getattr(f, "name", None) == "radius":
        _, active = _radius_active(spec)
    else:
        _, active = _declared_active(spec, f)
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
    """
    if count < 1:
        raise ValueError(f"the witness sequence needs at least one member, got {count}")
    radius_mode = getattr(f, "name", None) == "radius"
    if radius_mode:
        rho, active = _radius_active(spec, active_tol)
        zero_mode = rho == 0
    else:
        _, active = _declared_active(spec, f, active_tol)
        zero_mode = False
    target = next((j for j in active if not spec.nonderogatory(j)), None)
    if target is None:
        raise ValueError("no derogatory active eigenvalue to witness")
    if not 0 <= block_index < spec.q_j(target):
        raise ValueError(f"block index outside 0..{spec.q_j(target) - 1}")
    lam = spec.eig_value(target)
    m_k = spec.block_sizes(target)[block_index]

    if zero_mode:
        direction = 1.0 + 0j
        grad_at = lambda z: 1.0 + 0j  # grad of the modulus along the positive ray
    else:
        g = f.grad(lam)
        if g is None or g == 0:
            raise UnsupportedGenerator(
                f"witness needs a nonzero gradient of {f.name} at {lam}"
            )
        direction = g / abs(g)
        grad_at = f.grad

    seps = [abs(lam - spec.eig_value(i)) for i in range(spec.num_eigs) if i != target]
    seps += [abs(lam - mu) for mu in spec.b_eigenvalues]
    step0 = min([1.0] + [s / 4 for s in seps])

    # only the moved eigenvalue differs between nu: one split similarity
    split = _split_spec(spec, target, block_index, lam + step0 * direction)
    idx = target + 1
    Y_basis = split.from_W(split.jordan_power_embed(idx, 0))

    witnesses = []
    per_nu = []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        spec_nu = split.with_eigenvalue(idx, lam_nu)
        Y_nu = (grad_at(lam_nu) / m_k) * Y_basis
        if radius_mode:
            rep = radius_rsd_membership(spec_nu, Y_nu)
        else:
            rep = rsd_membership(spec_nu, f, Y_nu)
        witnesses.append((spec_nu, Y_nu))
        per_nu.append(rep.verdict)

    g_lim = 1.0 + 0j if zero_mode else f.grad(lam)
    E = np.zeros((spec.n, spec.n), dtype=complex)
    sl = spec.subblock_slices(target)[block_index]
    E[sl, sl] = np.eye(m_k)
    M = (g_lim / m_k) * spec.from_W(E)
    if radius_mode and zero_mode:
        base_rep = radius_rsd_zero(spec, M)
    elif radius_mode:
        base_rep = radius_rsd_membership(spec, M)
    else:
        base_rep = rsd_membership(spec, f, M)

    report = {
        "per_nu": per_nu,
        "limit_is_regular_subgradient_at_base": base_rep.verdict,
        "base_failures": [v.to_json() for v in base_rep.failed],
        "ok": all(per_nu) and not base_rep.verdict,
    }
    return witnesses, M, report
