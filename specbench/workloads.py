"""Inputs, truth and operations of the specmax benchmark workloads.

A workload is a fixed list of slots.  A slot fixes the Jordan structure
(or root cluster) with its eigenvalues (or geometry), the generator, the
verb, the true verdict and the branch the verifier takes; it is drawn from
the slot index alone, so every seed measures the same mix of costs.  Pass
``r`` gives slot ``i`` a fresh input drawn from ``(seed, i, r)``: a fresh
similarity P, candidate, verify seed, free coordinates or rotation.  So a
slot costs the same in every pass, while no input value ever repeats and no
cache can serve one op from an earlier one.

Truth is fixed when the input is built, from the characterisations in the
package documentation (W-coordinate conditions, weight intervals, the
declared spectrum), never by calling specmax.

Every op calls specmax through module attributes looked up at call time, so
the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from specmax import cli, cpoly, generators, jordan, polysub, specsub

EPS = float(np.finfo(float).eps)
GENS = ("abscissa", "radius2", "radius")

# gradient and curvature orthogonal to the gradient, for the smooth generators
GRAD = {"abscissa": lambda lam: 1.0 + 0j, "radius2": lambda lam: complex(lam)}
ETA = {"abscissa": lambda lam: 0.0, "radius2": lambda lam: abs(lam) ** 2}
VALUE = {"abscissa": lambda z: z.real, "radius2": lambda z: 0.5 * abs(z) ** 2, "radius": abs}

# Jordan structures with n from 3 to 6 and blocks of size 3 or less:
# ("a", blocks) is an eigenvalue attaining the max, ("i", blocks) one that
# does not.  Ties between active eigenvalues are exact by construction.
REGULAR = (
    (("a", (3,)),),
    (("a", (2,)), ("i", (1,))),
    (("a", (1,)), ("a", (1,)), ("i", (1,))),
    (("a", (2,)), ("i", (2,))),
    (("a", (3,)), ("i", (1,))),
    (("a", (2,)), ("a", (1,)), ("i", (1,))),
    (("a", (3,)), ("i", (2,))),
    (("a", (2,)), ("a", (2,)), ("i", (1,))),
    (("a", (3,)), ("i", (2,)), ("i", (1,))),
    (("a", (3,)), ("a", (2,)), ("i", (1,))),
)
# an active eigenvalue with two Jordan blocks: verify runs the witness
DEROGATORY = (
    (("a", (1, 1)), ("i", (1,))),
    (("a", (2, 1)), ("i", (1,))),
)


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


def _digest(*parts) -> int:
    """64-bit hash of an op's input."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return int.from_bytes(h.digest(), "little")


def matrix_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[a, b] for a, b in zip(re, im)] for re, im in zip(M.real.tolist(), M.imag.tolist())]


def noise_floor(order: int, scale: float) -> float:
    """Value tolerance of a root-based evaluator at a multiplicity-``order``
    eigenvalue: 32 eps^(1/order) times the problem scale, the same noise
    model the package documents for its oracles."""
    return 32.0 * EPS ** (1.0 / max(order, 1)) * max(1.0, scale)


# -- Jordan data ----------------------------------------------------------------


def draw_eigs(rng, gen: str, template) -> list:
    """Distinct eigenvalues for ``template``: the active ones tie exactly for
    the max of ``gen``, the inactive ones sit at least 0.6 below it, all are
    at least 0.5 apart and 0.4 away from the origin."""
    n_act = sum(role == "a" for role, _ in template)
    n_ina = len(template) - n_act
    while True:
        if gen == "abscissa":
            a = rng.uniform(-1.0, 1.5)
            act = [complex(a, rng.uniform(-2, 2)) for _ in range(n_act)]
            ina = [complex(a - rng.uniform(0.6, 2.5), rng.uniform(-2, 2)) for _ in range(n_ina)]
        else:
            rho = rng.uniform(1.2, 2.2)
            act = [rho * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(n_act)]
            ina = [rng.uniform(0.4, rho - 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                   for _ in range(n_ina)]
        lams = act + ina
        if min(abs(z) for z in lams) < 0.4:
            continue
        if all(abs(lams[p] - lams[q]) >= 0.5 for p in range(len(lams)) for q in range(p)):
            break
    act_it, ina_it = iter(act), iter(ina)
    return [(next(act_it) if role == "a" else next(ina_it), blocks) for role, blocks in template]


def draw_similarity(rng, n: int) -> np.ndarray:
    while True:
        P = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            return P


def spec_json(eigs, P) -> dict:
    return {
        "eigs": [{"lambda": [lam.real, lam.imag], "blocks": list(blocks)} for lam, blocks in eigs],
        "P": matrix_json(P),
    }


def jordan_matrix(eigs) -> np.ndarray:
    n = sum(sum(b) for _, b in eigs)
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, blocks in eigs:
        for b in blocks:
            J[pos:pos + b, pos:pos + b] = lam * np.eye(b) + np.eye(b, k=1)
            pos += b
    return J


def toeplitz_lower(thetas) -> np.ndarray:
    m = len(thetas)
    return sum(t * np.eye(m, k=-s) for s, t in enumerate(thetas))


def from_W(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Y = P^* W P^{-*}, the candidate whose transformed coordinates are W."""
    return P.conj().T @ W @ np.linalg.inv(P).conj().T


def _free(rng, k: int) -> np.ndarray:
    return 0.5 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))


def member_W(rng, eigs, verb: str, gen: str) -> np.ndarray:
    """W of a regular subgradient (or recession direction) built from the
    conditions on the active blocks: diagonal weights, a subdiagonal strictly
    inside its halfplane, free deeper diagonals, zero inactive blocks."""
    active = [k for k, (lam, _) in enumerate(eigs) if _is_active(eigs, k, gen)]
    gamma = rng.dirichlet(np.full(len(active), 3.0))
    n = sum(sum(b) for _, b in eigs)
    W = np.zeros((n, n), dtype=complex)
    pos = 0
    for k, (lam, blocks) in enumerate(eigs):
        n_j = sum(blocks)
        if k in active:
            g_k = gamma[active.index(k)]
            if verb == "radius":
                t1 = g_k * lam / (n_j * abs(lam))
                w = lam * lam
                floor = -g_k * abs(lam) / n_j
            else:
                t1 = g_k * GRAD[gen](lam) / n_j
                w = GRAD[gen](lam) ** 2
                floor = -(g_k / n_j) * ETA[gen](lam)
            if verb == "recession":
                t1, floor = 0.0, 0.0
            thetas = [t1]
            if n_j >= 2:
                a = floor / abs(w) ** 2 + 0.05 + 0.5 * abs(rng.standard_normal())
                thetas.append((a + 1j * 0.5 * rng.standard_normal()) * w)
            thetas.extend(_free(rng, max(n_j - 2, 0)))
            W[pos:pos + n_j, pos:pos + n_j] = toeplitz_lower(thetas[:n_j])
        pos += n_j
    return W


def _is_active(eigs, k: int, gen: str) -> bool:
    vals = [VALUE[gen](lam) for lam, _ in eigs]
    return vals[k] >= max(vals) - 1e-9


# -- ops ------------------------------------------------------------------------


class Op:
    """One call into specmax with its truth.

    ``call`` runs the timed part; ``check`` compares its result with the
    truth and returns "ok", "wrong" (verdict or value differs from the truth)
    or the name of a known defect in ``KNOWN_DEFECTS``.
    """

    __slots__ = ("slot", "kind", "digest", "call", "check")

    def __init__(self, slot, kind, digest, call, check):
        self.slot, self.kind, self.digest = slot, kind, digest
        self.call, self.check = call, check


# Open defects of the seed code that these workloads hit.  They count as
# errors in the error ratio but not as failed ops; a fix shows as a higher
# ok ratio.
KNOWN_DEFECTS = {
    "eval_mult_mismatch": "eval at a defective eigenvalue: value within the noise "
                          "floor, but the fixed absolute cluster radius splits the "
                          "cluster, so multiplicities differ from the declared ones",
    "subderivative_inf_at_noise": "subderivative_f returns inf where the value is finite: "
                                  "at an active multiple root the zero second coordinate "
                                  "comes back as rounding noise, and its square root "
                                  "fails the absolute orthogonality tolerance; counted "
                                  "only where the benchmark's own solve reproduces this",
}


def _verdict_check(truth: bool):
    return lambda res: "ok" if bool(res) == truth else "wrong"


class Workload:
    """``SLOTS`` slots; ``REFERENCE`` names the reference kernel in timing.py
    whose time moves with these ops; a traced run makes ``TRACE_PASSES``
    passes."""

    name = ""
    SLOTS = 0
    REFERENCE = "lapack"
    TRACE_PASSES = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.slots = [self.make_slot(i) for i in range(self.SLOTS)]

    def make_pass(self, r: int) -> list:
        return [self.make_op(i, slot, r) for i, slot in enumerate(self.slots)]

    def make_slot(self, i: int):
        raise NotImplementedError

    def make_op(self, i: int, slot, r: int) -> Op:
        raise NotImplementedError


class OracleSuite(Workload):
    """One in-process ``specmax verify`` per op, stdout captured and parsed."""

    name = "oracle-suite"
    SLOTS = 36
    SAMPLES = 100
    NU = 50

    def make_slot(self, i):
        templates = REGULAR + DEROGATORY
        template = templates[i % len(templates)]
        gen = GENS[(i // len(templates)) % len(GENS)]
        eigs = draw_eigs(_rng(i), gen, template)
        regular = template in REGULAR
        return {"eigs": eigs, "gen": gen, "regular": regular}

    def make_op(self, i, slot, r):
        rng = _rng(self.seed, i, r)
        n = sum(sum(b) for _, b in slot["eigs"])
        P = draw_similarity(rng, n)
        text = json.dumps(spec_json(slot["eigs"], P))
        path = os.path.join(self.workdir, f"spec-{i}.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["verify", path, "--f", slot["gen"], "--samples", str(self.SAMPLES),
                "--nu", str(self.NU), "--seed", str(int(rng.integers(2 ** 31))), "--json"]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        regular = slot["regular"]

        def check(res):
            code, out = res
            if code != 0:
                return "wrong"
            rep = json.loads(out)
            if not rep["ok"] or rep["regularity"] != ("regular" if regular else "not_regular"):
                return "wrong"
            if regular and (rep["violations"] or rep["cross_route_failures"]
                            or rep["members_checked"] != 1):
                return "wrong"
            if not regular and not rep["witness"]["ok"]:
                return "wrong"
            return "ok"

        kind = "verify-regular" if regular else "verify-derogatory"
        return Op(i, kind, _digest(text, argv[2:]), call, check)


class MembershipMix(Workload):
    """Single-shot queries run the way the CLI runs them: rebuild the spec
    from JSON, parse the candidate, call one verb."""

    name = "membership-mix"
    SLOTS = 400
    TRACE_PASSES = 4
    VERBS = ("rsd", "chain", "recession", "radius", "eval")

    def make_slot(self, i):
        verb = self.VERBS[i % len(self.VERBS)]
        template = REGULAR[(i // len(self.VERBS)) % len(REGULAR)]
        member = (i // len(self.VERBS)) % 3 != 2
        block = i // (len(self.VERBS) * len(REGULAR))
        if verb == "radius":
            gen = "radius"
        elif verb == "eval":
            gen = GENS[block % 3]
        else:
            gen = GENS[block % 2]
        eigs = draw_eigs(_rng(i), gen, template)
        return {"verb": verb, "gen": gen, "eigs": eigs, "member": member,
                "f": generators.builtin(gen)}

    def make_op(self, i, slot, r):
        rng = _rng(self.seed, i, r)
        eigs, verb, f = slot["eigs"], slot["verb"], slot["f"]
        n = sum(sum(b) for _, b in eigs)
        P = draw_similarity(rng, n)

        if verb == "eval":
            X = np.linalg.inv(P) @ jordan_matrix(eigs) @ P
            X_json = matrix_json(X)
            value_true = max(VALUE[slot["gen"]](lam) for lam, _ in eigs)
            m_max = max(max(b) for _, b in eigs)
            tol = noise_floor(m_max, max(abs(value_true), float(np.linalg.norm(X))))
            declared = [(lam, sum(b)) for lam, b in eigs]

            def call():
                value, cluster, _ = specsub.spectral_active(jordan.matrix_from_json(X_json), f)
                return value, cluster.roots, cluster.mults

            def check(res):
                value, roots, mults = res
                if not abs(value - value_true) <= tol:
                    return "wrong"
                found = {}
                for z, m in zip(roots, mults):
                    k = min(range(len(declared)), key=lambda q: abs(z - declared[q][0]))
                    found.setdefault(k, []).append(m)
                if all(found.get(k) == [n_k] for k, (_, n_k) in enumerate(declared)):
                    return "ok"
                return "eval_mult_mismatch"

            return Op(i, "eval", _digest("eval", slot["gen"], X.tobytes()), call, check)

        W = member_W(rng, eigs, verb, slot["gen"])
        if not slot["member"]:
            if verb == "recession":
                # a nonzero diagonal on the first active block leaves the cone
                k = next(q for q in range(len(eigs)) if _is_active(eigs, q, slot["gen"]))
                start = sum(sum(b) for _, b in eigs[:k])
                n_k = sum(eigs[k][1])
                t1 = rng.uniform(0.2, 0.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                W[start:start + n_k, start:start + n_k] += t1 * np.eye(n_k)
            else:
                W = 1.5 * W  # weights now sum to 1.5
        Y = from_W(P, W)
        s_json, Y_json = spec_json(eigs, P), matrix_json(Y)

        if verb == "rsd":
            def call():
                spec = jordan.spec_from_json(s_json)
                return specsub.rsd_membership(spec, f, jordan.matrix_from_json(Y_json)).verdict
        elif verb == "chain":
            def call():
                spec = jordan.spec_from_json(s_json)
                return specsub.chain_rule_membership(spec, f, jordan.matrix_from_json(Y_json))
        elif verb == "recession":
            def call():
                spec = jordan.spec_from_json(s_json)
                return specsub.rsd_recession_membership(
                    spec, f, jordan.matrix_from_json(Y_json)).verdict
        else:
            def call():
                spec = jordan.spec_from_json(s_json)
                return specsub.radius_rsd_membership(spec, jordan.matrix_from_json(Y_json)).verdict

        kind = f"{verb}-{'member' if slot['member'] else 'nonmember'}"
        return Op(i, kind, _digest(verb, slot["gen"], P.tobytes(), Y.tobytes()),
                  call, _verdict_check(slot["member"]))


# -- polynomial layer -------------------------------------------------------------


# (active multiplicities, inactive multiplicities); 2 to 4 active roots
CLUSTERS = (
    ((1, 1), ()),
    ((2, 1), (1,)),
    ((1, 1, 1), ()),
    ((2, 1, 1), ()),
    ((1, 1, 1, 1), ()),
    ((2, 1, 1, 1), (1,)),
)


def _linear_power(lam, k: int) -> np.ndarray:
    """Coefficients, lowest power first, of (x - lam)^k."""
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = np.convolve(out, np.array([-lam, 1.0 + 0j]))
    return out


def coords_to_poly(roots, mults, c) -> np.ndarray:
    """v = c0 p + sum_j r_j sum_s c_js (x - lam_j)^(n_j - s): the polynomial
    whose factor-space Taylor coordinates are c, with p = prod (x - lam_j)^n_j
    and r_j = p / (x - lam_j)^n_j."""
    deg = sum(mults)
    p = np.array([1.0 + 0j])
    for lam, m in zip(roots, mults):
        p = np.convolve(p, _linear_power(lam, m))
    v = c[0] * p
    pos = 1
    for j, (lam, n_j) in enumerate(zip(roots, mults)):
        r_j = np.array([1.0 + 0j])
        for k, (mu, m) in enumerate(zip(roots, mults)):
            if k != j:
                r_j = np.convolve(r_j, _linear_power(mu, m))
        w_j = np.zeros(n_j, dtype=complex)
        for s in range(1, n_j + 1):
            w_j[:n_j - s + 1] += c[pos] * _linear_power(lam, n_j - s)
            pos += 1
        term = np.convolve(r_j, w_j)
        v[:term.size] += term
    return v[:deg + 1]


def poly_to_coords(roots, mults, v) -> np.ndarray:
    """The inverse of :func:`coords_to_poly`, by a dense solve in float64."""
    deg = sum(mults)
    M = np.column_stack([coords_to_poly(roots, mults, e) for e in np.eye(deg + 1)])
    return np.linalg.solve(M, np.asarray(v, dtype=complex))


SUBDERIV_TOL = 1e-8  # the default orthogonality tolerance of polysub.subderivative_f


def noise_fails_tolerance(roots, mults, index, polys, v) -> bool:
    """The mechanism of ``subderivative_inf_at_noise``, reproduced on the
    benchmark's own solve: at some active multiple root the second
    coordinate, zero in truth, comes back from :func:`poly_to_coords` as
    rounding noise whose square root fails the absolute orthogonality
    tolerance against a vertex of the root's polygon."""
    c = poly_to_coords(roots, mults, v)
    pos = 1
    for z, n_j, k in zip(roots, mults, index):
        if k is not None and n_j >= 2:
            w = cmath.sqrt(-c[pos + 1])
            if any(abs((g.conjugate() * w).real) > SUBDERIV_TOL * (1.0 + abs(g) * abs(w))
                   for g in polys[z].data):
                return True
        pos += n_j
    return False


class PolyWeights(Workload):
    """Polynomial layer only: root clusters with 2 to 4 active roots under
    generators whose subdifferential at each active root is a rectangle with
    the origin inside one edge (the corner regime), so no weight is forced.

    Per active root j the admissible weights form the interval
    [lo_j, inf) with lo_j = n_j max(p/d, |q|/h), where -c_j1 = u_j (p + iq),
    u_j the outward unit direction, d the depth and h the half-height of the
    rectangle.  A split exists iff sum_j lo_j <= 1; members use a total in
    [0.3, 0.5], which the search grid always hits, non-members one in
    [1.2, 1.6], which sends the search to its fallback.

    The fallback's iteration count depends on the geometry, so the geometry
    (root angles, rectangles, weight shares) is fixed per slot; each pass
    rotates the whole picture by a fresh small angle, which leaves every
    distance, and so the cost, unchanged, and draws fresh free coordinates.
    The angle is drawn again while it would change the lexicographic order
    of the roots, which fixes the block layout and the search order.
    """

    name = "poly-weights"
    SLOTS = 96
    REFERENCE = "python"
    VERBS = ("dp-member", "dp-nonmember", "rsd-f", "subderivative")

    def make_slot(self, i):
        verb = self.VERBS[i % len(self.VERBS)]
        act, ina = CLUSTERS[(i // len(self.VERBS)) % len(CLUSTERS)]
        variant = (i // (len(self.VERBS) * len(CLUSTERS))) % 3
        if verb == "dp-member":
            member = True
        elif verb == "dp-nonmember":
            member = False
        else:
            member = variant != 2
        finite = verb == "subderivative" and (variant != 2 or max(act) < 2)
        rng = _rng(i)
        K = len(act)
        phi0 = rng.uniform(0, 2 * math.pi)
        geometry = {
            "angles": [phi0 + 2 * math.pi * k / K + rng.uniform(-0.3, 0.3) for k in range(K)],
            "inactive": [phi0 + rng.uniform(0, 2 * math.pi) for _ in ina],
            "rects": [(rng.uniform(1.5, 2.5), rng.uniform(1.0, 2.0)) for _ in range(K)],
            "total": rng.uniform(0.3, 0.5) if member else rng.uniform(1.2, 1.6),
            "shares": rng.dirichlet(np.full(K, 3.0)),
            # per active root: which of p/d, |q|/h sets lo_j, and the other's fraction
            "binding": [(rng.uniform() < 0.5, rng.uniform(), rng.choice((-1.0, 1.0)))
                        for _ in range(K)],
        }
        pts = [(cmath.exp(1j * a), k) for k, a in enumerate(geometry["angles"])]
        pts += [(0.35 * cmath.exp(1j * a), None) for a in geometry["inactive"]]
        geometry["order"] = [k for z, k in sorted(pts, key=lambda t: (t[0].real, t[0].imag))]
        return {"verb": verb, "act": act, "ina": ina, "member": member, "finite": finite,
                "geometry": geometry}

    def make_op(self, i, slot, r):
        rng = _rng(self.seed, i, r)
        act, ina, geo = slot["act"], slot["ina"], slot["geometry"]
        while True:
            phi = rng.uniform(-0.2, 0.2)
            pairs = [(cmath.exp(1j * (phi + a)), m, k)
                     for k, (a, m) in enumerate(zip(geo["angles"], act))]
            pairs += [(0.35 * cmath.exp(1j * (phi + a)), m, None)
                      for a, m in zip(geo["inactive"], ina)]
            pairs.sort(key=lambda t: (t[0].real, t[0].imag))
            if [k for _, _, k in pairs] == geo["order"]:
                break
        roots = tuple(z for z, _, _ in pairs)
        mults = tuple(m for _, m, _ in pairs)
        index = [k for _, _, k in pairs]  # active root number, None if inactive

        rect = {}  # root -> (outward unit, depth, half-height)
        for z, k in zip(roots, index):
            if k is not None:
                rect[z] = (z / abs(z), *geo["rects"][k])
        polys = {z: generators.ConvexSet2D.polygon([u * 1j * h, -u * 1j * h, u * (d - 1j * h),
                                                    u * (d + 1j * h)])
                 for z, (u, d, h) in rect.items()}

        def subdiff(z):
            return polys[z]

        def tag(z):
            return "nonsmooth-fullspan" if z in polys else "other"

        f = generators.make_generator(f"corners-{i}", abs, subdiff=subdiff, tag=tag)
        cluster = cpoly.RootCluster(roots, mults)
        deg = sum(mults)
        c = np.zeros(deg + 1, dtype=complex)
        verb = slot["verb"]

        if verb == "subderivative":
            c[0] = complex(*rng.standard_normal(2))
            truth = -math.inf
            pos = 1
            for z, n_j, k in zip(roots, mults, index):
                c[pos] = complex(*rng.standard_normal(2))
                if k is None:
                    c[pos + 1:pos + n_j] = _free(rng, n_j - 1)
                else:
                    d = -c[pos]
                    support = max((np.conj(d) * v).real for v in polys[z].data)
                    truth = max(truth, support / n_j)
                    if n_j >= 2 and not slot["finite"]:
                        c[pos + 1] = complex(*rng.standard_normal(2))
                pos += n_j
            if not slot["finite"]:
                truth = math.inf
            v = cpoly.Poly(tuple(coords_to_poly(roots, mults, c)))
            # only an inf that the documented mechanism explains is excused
            at_noise = (not math.isinf(truth)
                        and noise_fails_tolerance(roots, mults, index, polys, v.coeffs))

            def call():
                return polysub.subderivative_f(cluster, f, v)

            def check(res):
                if math.isinf(truth):
                    return "ok" if math.isinf(res) and res > 0 else "wrong"
                if math.isinf(res) and at_noise:
                    return "subderivative_inf_at_noise"
                return "ok" if abs(res - truth) <= 1e-8 * (1 + abs(truth)) else "wrong"

            kind = "subderivative-" + ("finite" if slot["finite"] else "inf")
            return Op(i, kind, _digest(verb, roots, mults, c.tobytes()), call, check)

        pos = 1
        for z, n_j, k in zip(roots, mults, index):
            if k is not None:
                u, d, h = rect[z]
                t = geo["total"] * geo["shares"][k] / n_j  # lo_j / n_j
                by_depth, frac, sign = geo["binding"][k]
                if by_depth:
                    p, q = t * d, t * h * sign * frac
                else:
                    p, q = t * d * frac, t * h * sign
                c[pos] = -u * complex(p, q)
                c[pos + 1:pos + n_j] = _free(rng, n_j - 1)
            pos += n_j

        if verb == "rsd-f":
            v = cpoly.Poly(tuple(coords_to_poly(roots, mults, c)))

            def call():
                return polysub.rsd_f_membership(cluster, f, v)

            kind = f"rsd-f-{'member' if slot['member'] else 'nonmember'}"
        else:
            def call():
                return polysub.Dp_membership(cluster, f, c)

            kind = verb
        return Op(i, kind, _digest(verb, roots, mults, c.tobytes()), call,
                  _verdict_check(slot["member"]))


WORKLOADS = {w.name: w for w in (OracleSuite, MembershipMix, PolyWeights)}
