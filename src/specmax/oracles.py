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
clusters backward-stable eigenvalues.  Both matrix oracles, the inequality
suite and :func:`fd_phi_quotient`, run in the declared Jordan basis: with
X = P^-1 J P, X + tZ = P^-1 (J + t P Z P^-1) P has the spectrum of
J + t P Z P^-1, so they difference phi(J + t P Z P^-1) against phi(J).
The spectra are the same, and no subgradient formula enters; but the base
value is exact (J is triangular but for the rest block), a direction
whose image only couples one block to a later one leaves J + tV block
triangular up to the rounding of the image, so no multiple eigenvalue
splits along it as rounding in the basis of X splits it, the identity
and block-identity probes give exactly triangular matrices and the
transposed nilpotents exactly tridiagonal ones (their images are the
sparse matrices they are built from), and LAPACK does less work on the
sampled perturbations of a nearly triangular matrix.  The identity and
block-identity probe rows, like the base value, hold each multiple
eigenvalue as exact repeats, which :func:`specmax.cpoly._cluster_rows`
groups by equality with no linkage.  The pairing Re<Y, Z> stays in the
basis of X.  One routine stacks the perturbed matrices (directions times
steps) and evaluates them in one call, or in blocks of at most
STACK_ENTRIES matrix entries so that memory stays bounded for many
directions.

One least-squares slope of log|q| against log t serves both the reported
growth exponent and the one rule by which quotients diverge to +inf
(:func:`_diverging`): the suite sets such directions aside, and a report
reads an infinite formula by it.

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

from .cpoly import DomainError, Poly, poly_root_max
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
RADII = (1e-2, 1e-3, 1e-4)  # the inequality suite's steps


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
    return float(_log_slope([t for t, _ in pts], np.log([q for _, q in pts])))


def _log_slope(steps, y):
    """Least-squares slope of ``y`` (last axis) against log t over
    ``steps``, in closed form over the centred log steps: one per row."""
    x = np.log(steps)
    x -= x.mean()
    return (y - y.mean(axis=-1, keepdims=True)) @ x / (x @ x)


def _diverging(steps, quotients) -> np.ndarray:
    """Per row of quotients at ``steps`` (last axis), whether it diverges
    to +inf: at least three steps, every |q| above GROWTH_FLOOR and finite,
    the least-squares slope of log|q| against log t at most GROWTH_CUTOFF,
    and the quotient at the smallest step positive.  No finite pairing can
    violate the limit inequality along such a direction, and it is the
    limit an infinite formula claims."""
    size = np.abs(quotients)
    usable = ((size > GROWTH_FLOOR) & np.isfinite(size)).all(axis=-1) & (len(steps) >= 3)
    # no zero reaches the log
    slope = _log_slope(steps, np.log(np.where(usable[..., None], size, 1.0)))
    return usable & (slope <= GROWTH_CUTOFF) & (quotients[..., np.argmin(steps)] > 0)


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


def _finite_norm(a) -> float:
    """|a| of a matrix or a coefficient vector, which the noise term of a
    quotient scales with; :class:`DomainError` where numpy's norm overflows
    (it squares, so from about 1.34e154), since an inf noise term would let
    every formula and every candidate pass."""
    with np.errstate(over="ignore"):  # refused, not warned of
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):
        raise DomainError(f"the noise term needs a finite norm, got {norm}")
    return norm


def _build_report(steps, quotients, holder_order, formula, scale=1.0) -> FDReport:
    steps = tuple(float(t) for t in steps)
    quotients = tuple(float(q) for q in quotients)
    expo = growth_exponent(steps, quotients)
    coeff = slack_coefficient(steps, quotients, holder_order)
    noise = eval_noise_floor(holder_order, scale)
    verdict = None
    if formula is not None:
        if formula == math.inf:
            verdict = bool(_diverging(steps, np.array(quotients)))
        else:  # -inf included, which every margin passes
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


def _check_steps(t_grid) -> None:
    if len(t_grid) < 2:
        raise ValueError("need at least two steps")
    if any(t <= 0 or t > 1e-1 for t in t_grid):
        raise ValueError("steps must lie in (0, 0.1]")


def fd_phi_quotient(spec: JordanSpec, f, Z, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                    holder_order: int = 1, formula: Optional[float] = None) -> FDReport:
    """Quotients (phi(X + tZ) - phi(X)) / t at the spec's base matrix X
    along a fixed finite n x n direction Z, taken in the declared Jordan
    basis (module docstring).

    These are upper evidence for the lower directional derivative; quotients
    growing like t^(1/k - 1) flag eigenvalue splitting of order k.  Raises
    :class:`DomainError` where |X|, and so the noise term, is inf.
    """
    _check_steps(t_grid)
    Z, _ = _candidate(spec, Z, "direction")
    D = Z[None]  # one direction, no exact image
    scale, quotients = _jordan_quotients(spec, f, D, D[:0], t_grid)
    return _build_report(t_grid, quotients[0], holder_order, formula, scale)


def fd_poly_quotient(p: Poly, f, v: Poly, t_grid=(1e-2, 1e-3, 1e-4, 1e-5),
                     holder_order: int = 1, formula: Optional[float] = None) -> FDReport:
    """Quotients of the root max function along a polynomial direction,
    recomputing roots at every step.  The noise term scales with the
    monic p, p over its leading coefficient, whose roots are the root max
    function's; :class:`DomainError` where |p| or |p| over that coefficient
    overflows."""
    _check_steps(t_grid)
    n = max(p.degree_bound, v.degree_bound)
    p, v = p.padded(n), v.padded(n)
    _finite_norm(p.array())
    base = poly_root_max(p, f)
    # the roots, and so the root max, are those of the monic p
    with np.errstate(over="ignore"):  # refused by _finite_norm, not warned of
        norm = _finite_norm(p.array() / p.coeffs[p.degree()])
    quotients = [(poly_root_max(p + t * v, f) - base) / t for t in t_grid]
    return _build_report(t_grid, quotients, holder_order, formula,
                         scale=max(1.0, abs(base), norm))


def _structured_probes(spec: JordanSpec) -> tuple:
    """Directions along which the spectral max stays finite-differentiable
    enough to expose subgradient-inequality violations (identity shifts,
    per-eigenvalue block identities and transposed nilpotents).

    Returns ``(D, V)``, each of shape (k, n, n): the unit probes D in the
    basis of X, and their images P D P^-1 in the Jordan basis, which are the
    sparse matrices the probes are built from over the same norms."""
    eye = np.eye(spec.n, dtype=complex)
    pairs = [(eye, eye), (-eye, -eye)]
    for j in range(spec.num_eigs):
        E = spec.embed_block(j, np.eye(spec.n_j(j), dtype=complex))
        D = spec.Pinv @ E @ spec.P
        pairs += [(D, E), (-D, -E)]
        if spec.n_j(j) >= 2:
            # push along the transposed nilpotent: splits the eigenvalue
            Nt = spec.embed_block(j, nilpotent(spec.n_j(j)).T)
            pairs.append((spec.Pinv @ Nt @ spec.P, Nt))
    norms = [np.linalg.norm(D) for D, _ in pairs]
    kept = [(D / s, E / s) for (D, E), s in zip(pairs, norms) if s > 0]
    return np.array([D for D, _ in kept]), np.array([V for _, V in kept])


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


def _jordan_images(spec: JordanSpec, Z: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """The images P Z P^-1 of a stack Z of directions in the Jordan basis,
    each factor one matrix product over the whole stack; the first
    ``len(exact)`` are ``exact`` instead."""
    ZPinv = (Z.reshape(-1, spec.n) @ spec.Pinv).reshape(Z.shape)
    V = np.tensordot(spec.P, ZPinv, axes=(1, 1)).transpose(1, 0, 2)
    V[:len(exact)] = exact
    return V


def _jordan_quotients(spec: JordanSpec, f, Z: np.ndarray, exact: np.ndarray,
                      steps) -> tuple:
    """``(scale, quotients)``: the quotients (phi(J + tV) - phi(J)) / t,
    shape (len(Z), len(steps)), of the directions Z through their images
    V = P Z P^-1 in the Jordan basis, the first ``len(exact)`` of which are
    ``exact`` (:func:`_jordan_images`), and the scale max(1, |phi(J)|, |X|)
    of their noise term; :class:`DomainError` where |X| overflows."""
    norm = _finite_norm(spec.synth())
    J = spec.jordan_matrix()
    base = spectral_max(J, f)
    steps = np.asarray(steps, dtype=float)
    quotients = np.empty((len(Z), len(steps)))
    block = max(1, STACK_ENTRIES // (len(steps) * spec.n ** 2))
    # one buffer for every block: a fresh stack per block left the heap of
    # a 10,011-direction n = 20 suite 2.5 MB larger at its peak
    stack = np.empty((min(block, len(Z)), len(steps), spec.n, spec.n), dtype=complex)
    for a in range(0, len(Z), block):
        chunk = Z[a:a + block]  # rows J + tV, V = P Z P^-1: the spectra of X + tZ
        rows = np.multiply(steps[:, None, None],
                           _jordan_images(spec, chunk, exact[a:a + block])[:, None],
                           out=stack[:len(chunk)])
        rows += J
        quotients[a:a + block] = (spectral_max(rows, f) - base) / steps
    return max(1.0, abs(base), norm), quotients


def subgradient_inequality_suite(spec: JordanSpec, f, Y, n_samples: int = 500,
                                 seed: int = 0) -> dict:
    """Sampled test of Re<Y, Z> <= quotient(t) + slack(t) at the steps t of
    RADII, over the structured probes and seeded unit directions,
    aggregating the worst violation.  A direction whose quotients diverge
    to +inf (:func:`_diverging`) counts no violation; ``"diverging"`` is the
    number of directions above the margin set aside so.  The quotients are
    taken in the declared Jordan basis (module docstring).  Raises
    :class:`DomainError` where |X|, and so the noise term, is inf."""
    Y, _ = _candidate(spec, Y)
    m_max = max(spec.m_j(j) for j in range(spec.num_eigs)) if spec.num_eigs else 1
    probes, images = _structured_probes(spec)
    D = np.empty((len(probes) + n_samples, spec.n, spec.n), dtype=complex)
    D[:len(probes)] = probes
    _sample_directions(spec.n, n_samples, seed, out=D[len(probes):])

    scale, quotients = _jordan_quotients(spec, f, D, images, RADII)
    noise = eval_noise_floor(m_max, scale)
    lhs = np.einsum("ki,dki->d", Y.conj(), D).real
    coeff = slack_coefficient(RADII, quotients, m_max)
    margin = _margin(quotients, coeff[:, None], RADII, m_max, noise)
    gap = (lhs[:, None] - margin).max(axis=1)
    flagged = gap > 0
    diverging = 0
    if flagged.any():  # only a flagged direction needs the growth fit
        set_aside = _diverging(RADII, quotients[flagged])
        diverging = int(np.count_nonzero(set_aside))
        flagged[flagged] = ~set_aside
    positive = np.where(flagged, gap, 0.0)
    violations = int(np.count_nonzero(positive))
    worst_idx = int(np.argmax(positive)) if violations else -1
    worst = float(positive[worst_idx]) if violations else 0.0
    return {
        "n_directions": len(D),
        "violations": violations,
        "diverging": diverging,
        "max_violation": worst,
        "worst_direction": worst_idx,
        "seed": seed,
        "radii": list(RADII),
    }
