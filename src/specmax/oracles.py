"""Formula-free verification: finite-difference quotients and sampled
subgradient-inequality checks.

Fixed-direction difference quotients only bound the lower directional
derivative from above (the defining liminf also varies the direction), so
the verdicts here certify one-sided consistency: a formula value must stay
below the quotient plus a slack absorbing the root-splitting rate, and
equality claims are asserted only on simple-root instances where the
quotient genuinely converges.  Multiple roots split at a Holder rate
t^(1/m), which the slack model c * t^(1/m) tracks with c calibrated from
the observed second differences of the quotients.

Matrix quotients difference :func:`specmax.specsub.spectral_max`, which
clusters backward-stable eigenvalues; each oracle stacks its perturbed
matrices (directions times steps) and evaluates them in one call, or in
blocks of at most STACK_ENTRIES matrix entries so that memory stays
bounded for many directions.

Everything is deterministic given the seed.  The suite's sample directions
come from one generator per call: direction i is a function of
(seed, i, n) alone, so it does not depend on the block size, and the first
k directions of a longer draw are the k directions of a shorter one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cpoly import Poly, poly_root_max
from .jordan import JordanSpec, nilpotent
from .specsub import _candidate, spectral_max

__all__ = [
    "FDReport",
    "fd_phi_quotient",
    "fd_poly_quotient",
    "subgradient_inequality_suite",
    "growth_exponent",
    "slack_coefficient",
]

GROWTH_CUTOFF = -0.25  # log-log slope below which quotients are treated as divergent
GROWTH_FLOOR = 1e-12  # absolute: quotients at or below it give no point of the growth fit
ABS_SLACK = 1e-8
EPS = float(np.finfo(float).eps)
STACK_ENTRIES = 1 << 18  # matrix entries per spectral_max call (4 MB per complex copy)


def eval_noise_floor(order: int, scale: float = 1.0) -> float:
    """Resolution limit of the evaluators: a multiplicity-`order`
    eigenvalue splits under rounding by about eps^(1/order), so values are
    only trustworthy to that times the problem scale (constant measured with
    a ~10x margin)."""
    return 32.0 * EPS ** (1.0 / max(order, 1)) * max(1.0, scale)


@dataclass(frozen=True)
class FDReport:
    """Difference quotients along one direction with derived diagnostics."""

    steps: tuple
    quotients: tuple
    extrapolated: float
    growth_exponent: Optional[float]
    slack_coeff: float
    holder_order: int
    noise: float = 0.0
    formula_value: Optional[float] = None
    verdict: Optional[bool] = None


def growth_exponent(steps: Sequence[float], quotients: Sequence[float]) -> Optional[float]:
    """Slope of log|quotient| against log step; needs at least three usable points."""
    pts = [(t, abs(q)) for t, q in zip(steps, quotients) if abs(q) > GROWTH_FLOOR and t > 0]
    if len(pts) < 3:
        return None
    xs = np.log([t for t, _ in pts])
    ys = np.log([q for _, q in pts])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def slack_coefficient(steps: Sequence[float], quotients, order: int = 1):
    """Calibrate c in the slack model c * t^(1/order) from the quotients.

    c is ten times the largest divided slope of the quotient sequence in the
    variable t^(1/order); for quotients of the form q0 + b * t^alpha on a
    decaying grid this covers |q(t) - q0| at every step regardless of how
    alpha compares to 1/order.  Non-finite quotients are skipped, slopes join
    consecutive finite points in step order, equal abscissae give no slope,
    and c is 0 without any slope.

    ``quotients`` is one sequence of shape (k,), giving a float, or a stack
    of shape (..., k), giving one coefficient per row.
    """
    x = np.array([t ** (1.0 / max(order, 1)) for t in steps], dtype=float)
    perm = np.argsort(x, kind="stable")
    x = x[perm]
    q = np.asarray(quotients, dtype=float)[..., perm]
    finite = np.isfinite(q)
    q = np.where(finite, q, 0.0)
    # for each point, the index of the latest finite point at or before it
    last = np.maximum.accumulate(np.where(finite, np.arange(len(x)), -1), axis=-1)
    prev = np.maximum(last[..., :-1], 0)
    dx = x[1:] - x[prev]
    ok = finite[..., 1:] & (last[..., :-1] >= 0) & (dx > 0)
    slopes = np.abs(q[..., 1:] - np.take_along_axis(q, prev, axis=-1)) / np.where(ok, dx, 1.0)
    best = np.where(ok, slopes, -1.0).max(axis=-1, initial=-1.0)
    coeff = np.where(best >= 0, 10.0 * best, 0.0)
    return float(coeff) if coeff.ndim == 0 else coeff


def _extrapolate(steps, quotients) -> float:
    """Linear-in-t extrapolation of the two smallest steps to t = 0."""
    order = np.argsort(steps)
    t1, t2 = steps[order[0]], steps[order[1]]
    q1, q2 = quotients[order[0]], quotients[order[1]]
    if not (math.isfinite(q1) and math.isfinite(q2)) or t1 == t2:
        return q1
    return q1 + (q1 - q2) * t1 / (t2 - t1)


def _margin(quotients, coeff, steps, order: int, noise: float) -> np.ndarray:
    """The quotients at ``steps`` (last axis) plus the slack
    c * t^(1/order) + noise / t + ABS_SLACK that a formula value or a
    subgradient pairing may exceed them by."""
    powers = np.array([t ** (1.0 / order) for t in steps])
    return quotients + coeff * powers + noise / np.asarray(steps, dtype=float) + ABS_SLACK


def _build_report(steps, quotients, holder_order, formula, scale=1.0) -> FDReport:
    steps = tuple(float(t) for t in steps)
    quotients = tuple(float(q) for q in quotients)
    expo = growth_exponent(steps, quotients)
    coeff = slack_coefficient(steps, quotients, holder_order)
    noise = eval_noise_floor(holder_order, scale)
    verdict = None
    if formula is not None:
        if math.isinf(formula):
            verdict = expo is not None and expo <= GROWTH_CUTOFF
        else:
            verdict = bool(np.all(formula <= _margin(np.array(quotients), coeff, steps,
                                                     holder_order, noise)))
    return FDReport(
        steps=steps,
        quotients=quotients,
        extrapolated=_extrapolate(steps, quotients),
        growth_exponent=expo,
        slack_coeff=coeff,
        holder_order=holder_order,
        noise=noise,
        formula_value=formula,
        verdict=verdict,
    )


def fd_phi_quotient(X, f, Z, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                    holder_order: int = 1, formula: Optional[float] = None) -> FDReport:
    """Quotients (phi(X + tZ) - phi(X)) / t along a fixed matrix direction.

    These are upper evidence for the lower directional derivative; quotients
    growing like t^(1/k - 1) flag eigenvalue splitting of order k.
    """
    if any(t <= 0 or t > 1e-1 for t in t_grid):
        raise ValueError("steps must lie in (0, 0.1]")
    X = np.asarray(X, dtype=complex)
    Z = np.asarray(Z, dtype=complex)
    steps = np.asarray(t_grid, dtype=float)
    base = spectral_max(X, f)
    quotients = (spectral_max(X + steps[:, None, None] * Z, f) - base) / steps
    return _build_report(t_grid, quotients, holder_order, formula,
                         scale=max(1.0, abs(base), float(np.linalg.norm(X))))


def fd_poly_quotient(p: Poly, f, v: Poly, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                     holder_order: int = 1, formula: Optional[float] = None) -> FDReport:
    """Quotients of the root max function along a polynomial direction,
    recomputing roots at every step."""
    if any(t <= 0 or t > 1e-1 for t in t_grid):
        raise ValueError("steps must lie in (0, 0.1]")
    n = max(p.degree_bound, v.degree_bound)
    p, v = p.padded(n), v.padded(n)
    base = poly_root_max(p, f)
    quotients = [(poly_root_max(p + t * v, f) - base) / t for t in t_grid]
    return _build_report(t_grid, quotients, holder_order, formula,
                         scale=max(1.0, abs(base), p.coeff_norm()))


def _structured_probes(spec: JordanSpec) -> list:
    """Directions along which the spectral max stays finite-differentiable
    enough to expose subgradient-inequality violations (identity shifts and
    per-eigenvalue block identities)."""
    probes = []
    eye = np.eye(spec.n, dtype=complex)
    probes.append(eye)
    probes.append(-eye)
    for j in range(spec.num_eigs):
        E = spec.embed_block(j, np.eye(spec.n_j(j), dtype=complex))
        D = spec.Pinv @ E @ spec.P
        probes.append(D)
        probes.append(-D)
        if spec.n_j(j) >= 2:
            # push along the transposed nilpotent: splits the eigenvalue
            Nt = np.zeros((spec.n, spec.n), dtype=complex)
            sl = spec.eig_slice(j)
            Nt[sl, sl] = nilpotent(spec.n_j(j)).T
            probes.append(spec.Pinv @ Nt @ spec.P)
    return [p / np.linalg.norm(p) for p in probes if np.linalg.norm(p) > 0]


def _sample_directions(n: int, n_samples: int, seed: int, out=None) -> np.ndarray:
    """Seeded unit-norm complex n x n directions, shape (n_samples, n, n).

    One generator fills the array in blocks (consecutive draws continue one
    normal stream), so direction i depends only on (seed, i, n) and the
    float draw never holds more than STACK_ENTRIES numbers.
    """
    if out is None:
        out = np.empty((n_samples, n, n), dtype=complex)
    rng = np.random.default_rng(seed)
    block = max(1, STACK_ENTRIES // (2 * n * n))
    for a in range(0, n_samples, block):
        g = rng.standard_normal((min(block, n_samples - a), 2, n, n))
        Z = out[a:a + len(g)]
        Z.real = g[:, 0]
        Z.imag = g[:, 1]
        Z /= np.linalg.norm(Z, axis=(1, 2))[:, None, None]
    return out


def subgradient_inequality_suite(spec: JordanSpec, f, Y, n_samples: int = 500,
                                 radii=(1e-2, 1e-3, 1e-4), seed: int = 0,
                                 include_probes: bool = True) -> dict:
    """Sampled test of Re<Y, Z> <= quotient(t) + slack(t) over seeded unit
    directions (plus structured probes), aggregating the worst violation."""
    X = spec.synth()
    Y, _ = _candidate(spec, Y)
    m_max = max(spec.m_j(j) for j in range(spec.num_eigs)) if spec.num_eigs else 1
    probes = _structured_probes(spec) if include_probes else []
    D = np.empty((len(probes) + n_samples, spec.n, spec.n), dtype=complex)
    D[:len(probes)] = np.reshape(probes, (-1, spec.n, spec.n))
    _sample_directions(spec.n, n_samples, seed, out=D[len(probes):])

    steps = np.asarray(radii, dtype=float)
    base = spectral_max(X, f)
    noise = eval_noise_floor(m_max, max(1.0, abs(base), float(np.linalg.norm(X))))
    lhs = np.einsum("ki,dki->d", Y.conj(), D).real
    quotients = np.empty((len(D), len(steps)))
    block = max(1, STACK_ENTRIES // (len(steps) * spec.n ** 2))
    for a in range(0, len(D), block):
        stack = X + steps[:, None, None] * D[a:a + block, None]
        quotients[a:a + block] = (spectral_max(stack, f) - base) / steps
    coeff = slack_coefficient(radii, quotients, m_max)
    margin = _margin(quotients, coeff[:, None], radii, m_max, noise)
    gap = (lhs[:, None] - margin).max(axis=1)
    positive = np.where(gap > 0, gap, 0.0)
    violations = int(np.count_nonzero(positive))
    worst_idx = int(np.argmax(positive)) if violations else -1
    worst = float(positive[worst_idx]) if violations else 0.0
    return {
        "n_directions": len(D),
        "violations": violations,
        "max_violation": worst,
        "worst_direction": worst_idx,
        "seed": seed,
        "radii": list(radii),
    }
