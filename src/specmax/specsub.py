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
The subderivative along a direction Z reads the factor coordinates of Z
through the adjoint of that map, at nonderogatory active eigenvalues.
The spectral radius, zero radius included, enters through
:func:`generators.radius_transform`.

Tolerances are module constants: structural zeros within STRUCT_TOL and
the active blocks' coordinates within INEQ_SLACK, both times max(1, |Y|),
the weight sum within polysub.SIMPLEX_TOL, and the chain route's
coordinates within polysub.COORD_TOL.

All operations are pure given an immutable spec; batch verification can fan
out freely across samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cpoly import CLUSTER_TOL, _checked_norm, _cluster_rows, _reading, _safe_norm, _values
from .generators import Generator, UnsupportedGenerator, builtin
from .jordan import JordanSpec, R_matrix, _lex_cluster, declared_active
from .polysub import COORD_TOL, _sample, _split_blocks, _subderivative, block_failures

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
    "subderivative",
    "chain_rule_membership",
    "radius_rsd_membership",
    "regularity_verdict",
    "derogatory_witness",
    "STRUCT_TOL",
    "INEQ_SLACK",
]

STRUCT_TOL = 1e-9   # relative, structural zeros and Toeplitz deviations
INEQ_SLACK = 1e-10  # relative, the first and second coordinates of active blocks
_READ_LIMIT = 1e300  # 4n times the largest modulus of W or of the chain coordinates

_RADIUS = builtin("radius")


@dataclass(frozen=True)
class Violation:
    condition: str
    residual: float
    where: str = ""

    def to_json(self) -> dict:
        return {"condition": self.condition, "residual": self.residual, "where": self.where}


# each W check: the format of its location
_CHECKS = {
    "cross_block_zero": "{}x{}",
    "toeplitz": "eig{}[{},{}]",
    "subblock_coupling_zero": "eig{}[{},{}]",
    "equal_diagonals": "eig{} diag {}",
}


@dataclass
class ToeplitzParams:
    """Extracted Toeplitz data of W = P^{-*} Y P^{*}: per-eigenvalue diagonal
    values theta_j1..theta_jm_j, the residual of every structure check
    made, as ``(condition, residual, at)`` in check order, with ``at`` the
    tuple the check's location is formatted from, and the largest modulus
    in each segment's diagonal block, by segment name ("rest", "eig0",
    ...), which the inactive-block test reads.  The violations are the
    residuals above ``STRUCT_TOL * max(1, norm)``, with ``norm`` = |Y|, and
    ``ok`` says there are none."""

    W: np.ndarray
    theta: dict
    residuals: list
    norm: float
    segment_max: dict
    violations: list = field(init=False)

    def __post_init__(self):
        atol = STRUCT_TOL * max(1.0, self.norm)
        self.violations = [Violation(c, r, _CHECKS[c].format(*at))
                           for c, r, at in self.residuals if r > atol]

    @property
    def ok(self) -> bool:
        return not self.violations


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


def _clustered_spectra(X) -> tuple:
    """Eigenvalues of every matrix of the stack X (..., n, n), one
    ``eigvals`` call for all of them, merged by :func:`cpoly._cluster_rows`
    into clusters of diameter at most CLUSTER_TOL.

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
    return _cluster_rows(np.linalg.eigvals(X).reshape(-1, n), CLUSTER_TOL)


def spectral_max(X, f):
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
    means, _ = _clustered_spectra(X)
    values = _values(f, means).max(axis=-1)
    if X.ndim == 2:
        return float(values[0])
    return values.reshape(X.shape[:-2])


def spectral_active(X, f):
    """Value, clustered spectrum, and active indices of one matrix, for
    reporting: the :func:`spectral_max` value of the clusters it maximizes over."""
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2:
        raise ValueError("spectral_active takes one square matrix")
    return _reading(f, *_clustered_spectra(X))


# -- W structure ----------------------------------------------------------------


def W_extract(spec: JordanSpec, Y, level: str = "regular") -> ToeplitzParams:
    """Form W = P^{-*} Y P^{*} and check its block structure.

    ``level="limiting"`` checks block diagonality across distinct eigenvalues
    and the rectangular lower-triangular-Toeplitz pattern of every sub-block
    pair; ``level="regular"`` additionally requires the off-diagonal
    sub-blocks to vanish and all diagonal sub-blocks of one eigenvalue to
    share their diagonal values.  Every check's residual is reported, and
    those above ``STRUCT_TOL * max(1, |Y|)`` are the violations; nothing is
    raised but :func:`_candidate`'s refusals and a ValueError where W
    overflows (:func:`_guarded_read`).

    The max-|.| numbers (``segment_max``, ``cross_block_zero`` and
    ``subblock_coupling_zero``) are read from one table, the largest entry
    of ``np.abs(W)`` over each pair of layout blocks (the rest block and
    each Jordan sub-block), taken by two ``np.maximum.reduceat`` calls.
    Everything else runs on Python numbers from ``W.tolist()``: each
    diagonal of a diagonal sub-block is read once, and its entries, center
    and largest deviation give the Toeplitz residual, theta_j and, pooled
    over a derogatory eigenvalue's sub-blocks, ``equal_diagonals``.
    numpy's array modulus may differ from the scalar ``abs`` in the last
    bit, so the maxima come from the one array and every other modulus
    from ``abs``, which keeps each residual bit-equal to the block-by-block
    numpy reading.
    """
    if level not in ("limiting", "regular"):
        raise ValueError("level must be 'limiting' or 'regular'")
    Y, norm = _candidate(spec, Y)
    W, = _guarded_read(spec, norm, "W = P^-* Y P^*", lambda: (spec.to_W(Y),))
    L = W.tolist()
    names, heads, starts = _segments(spec)
    table = np.maximum.reduceat(np.maximum.reduceat(np.abs(W), starts, axis=1), starts, axis=0)
    T = table.tolist()
    S = T if len(heads) == len(starts) else (  # merge the sub-blocks of each segment
        np.maximum.reduceat(np.maximum.reduceat(table, heads, axis=1), heads, axis=0).tolist())
    segment_max = {name: S[a][a] for a, name in enumerate(names)}
    residuals = [("cross_block_zero", S[a][b], (name_a, name_b))
                 for a, name_a in enumerate(names) for b, name_b in enumerate(names) if a != b]

    regular = level == "regular"
    theta: dict = {}
    for j, head in enumerate(heads[bool(spec.n0):]):
        subs, sizes = spec.subblock_slices(j), spec.block_sizes(j)
        # (entries, center, largest deviation) of each diagonal of each diagonal sub-block
        diags = [[_spread([L[sl.start + i + s][sl.start + i] for i in range(m - s)])
                  for s in range(m)] for sl, m in zip(subs, sizes)]
        for r_i, (sl_r, m_r) in enumerate(zip(subs, sizes)):
            for s_i, (sl_s, m_s) in enumerate(zip(subs, sizes)):
                if r_i == s_i:  # the diagonals' deviations and the moduli above them
                    r0, r1 = sl_r.start, sl_r.stop
                    devs = [abs(e) for i, row in enumerate(L[sl_r]) for e in row[r0 + i + 1:r1]]
                    residuals.append(("toeplitz", max(devs + [dev for _, _, dev in diags[r_i]]),
                                      (j, r_i, s_i)))
                elif regular:
                    residuals.append(("subblock_coupling_zero", T[head + r_i][head + s_i],
                                      (j, r_i, s_i)))
                else:
                    residuals.append(("toeplitz", _rect_toeplitz_residual(
                        L, sl_r.start, sl_s.start, m_r, m_s), (j, r_i, s_i)))
        # the shared diagonals, pooled over the sub-blocks that reach them
        shared = diags[0] if len(diags) == 1 else [
            _spread([e for d in diags if len(d) > s for e in d[s][0]])
            for s in range(spec.m_j(j))]
        theta[j] = np.array([center for _, center, _ in shared])
        if regular:
            residuals += [("equal_diagonals", dev, (j, s + 1))
                          for s, (_, _, dev) in enumerate(shared)]

    return ToeplitzParams(W, theta, residuals, norm, segment_max)


def _candidate(spec: JordanSpec, Y, label: str = "candidate") -> tuple:
    """``(Y, |Y|)`` with Y as a complex array; ValueError, naming the matrix
    by ``label``, unless Y is n x n with a finite norm, which every
    tolerance scales with (:func:`cpoly._checked_norm`).  The one check of a
    candidate or a direction."""
    Y = np.asarray(Y, dtype=complex)
    if Y.shape != (spec.n, spec.n):
        raise ValueError(f"{label} must be {spec.n}x{spec.n}")
    return Y, _checked_norm(Y, label)


def _bounded(spec: JordanSpec, norm: float) -> bool:
    """Whether a candidate of norm ``norm`` is read in W and in the chain
    coordinates without leaving the floats, so that neither needs a check.
    With p = |P|_F and q = |P^-1|_F: the products P^-* Y and W, partial
    sums included, stay within q max(1, p) |Y|, the chain coordinates within
    cond(P) |Y| <= p q |Y| and their image under R within n p q times that,
    and :func:`W_extract`'s sums and deviations of at most n entries within
    4n times W's largest modulus.  So 4n |Y| max(1, p) max(1, q) p q below
    _READ_LIMIT bounds them all; past it, :func:`_guarded_read` checks the
    reading itself."""
    p, q = spec.frob_norms
    return 4 * spec.n * norm * max(1.0, p) * max(1.0, q) * p * q < _READ_LIMIT


def _guarded_read(spec: JordanSpec, norm: float, where: str, read) -> tuple:
    """``read()``: an array formed from a candidate of norm ``norm``,
    followed by the residual norms of its solve, if any.  It is read as is
    where :func:`_bounded` holds; past that with overflow ignored, and
    refused with a ValueError naming ``where`` unless 4n times the array's
    largest modulus stays below _READ_LIMIT and every residual is finite."""
    if _bounded(spec, norm):
        return read()
    with np.errstate(over="ignore", invalid="ignore"):
        out = read()
        top = float(np.abs(out[0]).max())  # NaN where the array holds one
    if not (4 * spec.n * top < _READ_LIMIT and all(map(math.isfinite, out[1:]))):
        raise ValueError(f"the candidate overflows in {where}: largest modulus {top}"
                         + "".join(f", residual {r}" for r in out[1:]))
    return out


def _segments(spec: JordanSpec) -> tuple:
    """``(names, heads, starts)``: the names of W's segments ("rest" if
    there is a rest block, then "eig0", "eig1", ...), the index in
    ``starts`` of each segment's first layout block, and the first row of
    each layout block: the rest block, then each eigenvalue's sub-blocks."""
    rest = [0] * bool(spec.n0)
    starts = rest + [sl.start for j in range(spec.num_eigs) for sl in spec.subblock_slices(j)]
    heads = rest + [starts.index(spec.eig_slice(j).start) for j in range(spec.num_eigs)]
    return ["rest"] * bool(spec.n0) + [f"eig{j}" for j in range(spec.num_eigs)], heads, starts


def _spread(entries: list) -> tuple:
    """``(entries, center, largest deviation from it)``; the center is the
    sum times 1 / k, as numpy divides a complex by a real."""
    center = sum(entries) * (1.0 / len(entries))
    return entries, center, max([abs(e - center) for e in entries])


def _rect_toeplitz_residual(L: list, r0: int, s0: int, m_r: int, m_s: int) -> float:
    """Deviation from the rectangular lower-triangular Toeplitz pattern of
    the m_r x m_s sub-block at row r0, column s0 of the rows ``L``: entries
    constant along diagonals, zero above the main diagonal drawn from the
    top left or the bottom right of the block."""
    devs = []
    min_d = max(0, m_r - m_s)
    for d in range(-(m_s - 1), m_r):
        entries = [L[r0 + k][s0 + k - d] for k in range(max(d, 0), min(m_r, m_s + d))]
        if d < min_d:
            devs += map(abs, entries)
        else:
            center = sum(entries) * (1.0 / len(entries))
            devs += [abs(e - center) for e in entries]
    return max(devs)


# -- the direct route -------------------------------------------------------------


def _inactive(params: ToeplitzParams, active) -> list:
    """``(name, max |W|)`` of the diagonal blocks of the segments outside
    the active eigenvalues ``active``, in segment order."""
    kept = {f"eig{j}" for j in active}
    return [(name, r) for name, r in params.segment_max.items() if name not in kept]


def _membership(spec: JordanSpec, declared: tuple, params: ToeplitzParams,
                horizon: bool) -> MembershipReport:
    """The verdict on a candidate Y, already extracted into ``params``, at
    the active set ``declared`` = ``(g, active)`` of
    :func:`jordan.declared_active`: the regular W structure, vanishing
    inactive blocks, and the active blocks -theta_j through
    :func:`polysub.block_failures` at INEQ_SLACK * max(1, |Y|)."""
    g, active = declared
    scale = max(1.0, params.norm)
    failed = params.violations + [Violation("inactive_block_zero", r, name)
                                  for name, r in _inactive(params, active)
                                  if r > STRUCT_TOL * scale]
    triples = [(spec.eig_value(j), spec.n_j(j), [-t for t in params.theta[j].tolist()])
               for j in active]
    core, gammas = block_failures(g, triples, INEQ_SLACK * scale, horizon)
    failed += [Violation(c, r, "active" if i is None else f"eig{active[i]}")
               for c, r, i in core]
    details = {"active": active}
    if gammas is not None:
        details["gamma"] = dict(zip(active, gammas))
    return MembershipReport(verdict=not failed, failed=failed, details=details)


def rsd_membership(spec: JordanSpec, f: Generator, Y) -> MembershipReport:
    """Regular subgradient test through the transformed coordinates W: the
    regular W structure, vanishing inactive blocks, and weights gamma_j >= 0
    summing to one with theta_j1 in gamma_j / n_j times the subdifferential
    and, for blocks of size at least two, theta_j2 in the weighted halfplane
    Re<theta_j2, (grad f)^2> >= -gamma_j eta_j / n_j (smooth regime) or in
    -q_set (corner regime)."""
    params = W_extract(spec, Y)
    return _membership(spec, declared_active(spec, f), params, horizon=False)


def rsd_recession_membership(spec: JordanSpec, f: Generator, Y) -> MembershipReport:
    """Recession-cone test: regular W structure, vanishing inactive blocks,
    zero diagonals on active blocks, and the subdiagonals in -q_set."""
    params = W_extract(spec, Y)
    return _membership(spec, declared_active(spec, f), params, horizon=True)


def rsd_sample(spec: JordanSpec, f: Generator, seed: int = 0) -> np.ndarray:
    """Construct a regular subgradient: a point of the active factor's
    coordinate set drawn by :func:`polysub.Dp_sample`'s sampler on the
    active eigenvalues of :func:`jordan.declared_active`, mapped through R.
    The active eigenvalues must be nonderogatory; both regimes of f are
    supported.
    """
    g, active = declared_active(spec, f)
    order, cluster = _lex_cluster(spec, active)
    M = R_matrix(spec, order)  # raises on derogatory active eigenvalues
    c = _sample(cluster, g, list(range(len(order))), seed)
    return -(M @ c[1:]).reshape(spec.n, spec.n)


# -- chain rule route -----------------------------------------------------------


def chain_rule_membership(spec: JordanSpec, f: Generator, Y, horizon: bool = False) -> bool:
    """Membership via the polynomial route: invert the coordinate-to-matrix
    map R of the active eigenvalues on its range (least squares plus a
    residual gate) and pass the Taylor coordinates of the active factor to
    :func:`polysub.block_failures`, both at COORD_TOL.  The active set is
    decided once, by :func:`jordan.declared_active`: the factor holds only
    the active eigenvalues and its leading coordinate is zero by
    construction, so no inactive block or leading coordinate is left to
    test.  Needs nonderogatory active eigenvalues; supports both the smooth
    and the corner regime of f, and the spectral radius through its transform.
    """
    Y, norm = _candidate(spec, Y)
    g, active = declared_active(spec, f)
    order, cluster = _lex_cluster(spec, active)
    M = R_matrix(spec, order)  # raises on derogatory active eigenvalues
    v, resid = _guarded_read(spec, norm, "the chain coordinates",
                             lambda: _chain_coordinates(M, -Y.ravel()))
    if resid > COORD_TOL * max(1.0, norm):
        return False
    triples = list(zip(cluster.roots, cluster.mults, _split_blocks(cluster.mults, v.tolist())))
    return not block_failures(g, triples, COORD_TOL, horizon)[0]


def _chain_coordinates(M: np.ndarray, rhs: np.ndarray) -> tuple:
    """``(v, |M v - rhs|)`` for the least-squares solution v of M v = rhs."""
    v, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return v, _safe_norm(M @ v - rhs)


def subderivative(spec: JordanSpec, f: Generator, Z) -> float:
    """Subderivative of phi_f at the base matrix in direction Z, by the
    chain rule through the characteristic polynomial map: the root max
    function's subderivative (:func:`polysub._subderivative`) read off the
    factor coordinates mu = -R^* vec Z of the active eigenvalues
    (:func:`jordan.R_matrix`), no solve.  The chain rule needs F'(X) onto,
    so every active eigenvalue nonderogatory: at a derogatory one the value
    would only be a lower bound, and R_matrix raises DerogatoryEigenvalue.
    A rest block is accepted below the max, and Z must be a finite n x n
    matrix."""
    Z, _ = _candidate(spec, Z, "direction")
    g, active = declared_active(spec, f)
    sizes = [spec.n_j(j) for j in active]
    mu = -(R_matrix(spec, active).conj().T @ Z.ravel())
    return _subderivative(g, [(spec.eig_value(j), n_j, block) for j, n_j, block
                              in zip(active, sizes, _split_blocks(sizes, mu))])


# -- the spectral radius entry point ----------------------------------------------


def radius_rsd_membership(spec: JordanSpec, Y, horizon: bool = False) -> MembershipReport:
    """:func:`rsd_membership` (or, with ``horizon``,
    :func:`rsd_recession_membership`) with the builtin radius, at every
    radius, zero included."""
    return _membership(spec, declared_active(spec, _RADIUS), W_extract(spec, Y), horizon)


# -- regularity and the derogatory witness ---------------------------------------


def regularity_verdict(spec: JordanSpec, f) -> str:
    """"regular" iff every active eigenvalue is a single Jordan block."""
    _, active = declared_active(spec, f)
    ok = all(spec.nonderogatory(j) for j in active)
    return "regular" if ok else "not_regular"


def _scaled_within_tol(r: float, size: float, norm: float) -> bool:
    """Whether a structure residual r of a candidate Y of norm ``norm``
    passes for size * Y: size * r within STRUCT_TOL * max(1, size |Y|),
    the test :func:`W_extract` makes on size * Y, without forming it."""
    return not size * r > STRUCT_TOL * max(1.0, size * norm)


def derogatory_witness(spec: JordanSpec, f: Generator, count: int = 100):
    """Construct the sequence certifying that derogatory active eigenvalues
    break regularity.

    The last sub-block of a derogatory active eigenvalue lam is pushed
    outward along the generator's steepest direction at rates 1/nu, making
    it the unique active (nonderogatory) eigenvalue of each perturbed
    matrix; the associated subgradients converge to a limit M that fails
    the regular test at the base point because the sub-block diagonals of W
    end up unequal.  The pushed block becomes a new eigenvalue right after
    lam's other blocks, where it already sits in the layout, so every
    member keeps the base similarity: no re-layout.  Returns ``(witnesses,
    M, report)`` with ``witnesses`` a list of (spec_nu, Y_nu) pairs;
    ValueError when the last member would come within
    ``JordanSpec.MIN_SEPARATION`` of lam.

    All Y_nu and M are multiples of one matrix Y_basis = P^* E P^{-*}, E
    the identity on the pushed block, so everything but the moved
    eigenvalue and c_nu is done once: W is formed and its structure checked
    on Y_basis, which gives the largest structure residual, each segment's
    diagonal-block maximum and the diagonal values theta as Python numbers.
    Each nu then makes its own active set and its own active-block decision
    on c_nu * theta, and judges the largest of the structure residuals and
    the inactive blocks' maxima, times |c_nu|, at its own tolerance
    STRUCT_TOL * max(1, |c_nu| |Y_basis|).  So it gets the verdict
    :func:`rsd_membership` gives on (spec_nu, Y_nu), up to rounding in
    forming W.  The limit's test at the base point reuses the active set
    that picks the derogatory eigenvalue.
    """
    if count < 1:
        raise ValueError(f"the witness sequence needs at least one member, got {count}")
    declared = declared_active(spec, f)
    target = next((j for j in declared[1] if not spec.nonderogatory(j)), None)
    if target is None:
        raise ValueError("no derogatory active eigenvalue to witness")
    lam = spec.eig_value(target)
    *kept, m_k = spec.block_sizes(target)

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

    # the members approach lam; the gap only shrinks with nu, so the largest
    # count that fits is found by bisection
    def apart(nu):
        return abs(lam + (step0 / nu) * direction - lam) > JordanSpec.MIN_SEPARATION

    if not apart(count):
        fit, over = 0, count
        while over - fit > 1:
            mid = (fit + over) // 2
            fit, over = (mid, over) if apart(mid) else (fit, mid)
        raise ValueError(f"a witness of {count} members comes within "
                         f"JordanSpec.MIN_SEPARATION = {JordanSpec.MIN_SEPARATION:g} of "
                         f"the eigenvalue {lam}; at most {fit} members fit")

    # only the moved eigenvalue differs between nu: one split spec
    eigs = list(spec.eigs)
    eigs[target:target + 1] = [(lam, tuple(kept)), (lam + step0 * direction, (m_k,))]
    split = JordanSpec(eigs, P=spec.P, B=spec.B)
    idx = target + 1
    Y_basis = split.from_W(split.embed_block(idx, np.eye(m_k)))

    basis = W_extract(split, Y_basis)
    struct = max(r for _, r, _ in basis.residuals)
    thetas = {j: t.tolist() for j, t in basis.theta.items()}
    witnesses = []
    per_nu = []
    for nu in range(1, count + 1):
        lam_nu = lam + (step0 / nu) * direction
        spec_nu = split.with_eigenvalue(idx, lam_nu)
        c = f.grad(lam_nu) / m_k
        witnesses.append((spec_nu, c * Y_basis))
        g_nu, active_nu = declared_active(spec_nu, f)
        size = abs(c)
        triples = [(spec_nu.eig_value(j), spec_nu.n_j(j), [-(c * t) for t in thetas[j]])
                   for j in active_nu]
        core, _ = block_failures(g_nu, triples, INEQ_SLACK * max(1.0, size * basis.norm))
        worst = max([struct] + [r for _, r in _inactive(basis, active_nu)])
        per_nu.append(not core and _scaled_within_tol(worst, size, basis.norm))

    M = (g / m_k) * Y_basis
    base_rep = _membership(spec, declared, W_extract(spec, M), horizon=False)

    report = {
        "per_nu": per_nu,
        "limit_is_regular_subgradient_at_base": base_rep.verdict,
        "base_failures": [v.to_json() for v in base_rep.failed],
        "ok": all(per_nu) and not base_rep.verdict,
    }
    return witnesses, M, report
