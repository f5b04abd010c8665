#!/usr/bin/env python3
"""Randomized verification sweep: sample Jordan specs, construct subgradients,
and confirm that the explicit construction, the direct coordinate test, the
chain route, and the sampled finite-difference inequalities all agree.
On the polynomial route, points of the active roots' coordinate set drawn
by ``Dp_sample`` must pass ``Dp_membership`` and fail it scaled by 1.5, and
so must the polynomials the coordinate matrix maps them to under
``rsd_f_membership``.
Every regular spec is also rebuilt from its JSON text, as the CLI reads a
spec, and ``rsd_membership`` must give the same report JSON on the rebuilt
spec as on the original, for each member and for 1.5 times it.
The specs cycle through the abscissa, radius2 and the spectral radius, which
every route reaches through its transform to radius2.  Every fourth spec gives
its active eigenvalue a second Jordan block instead; there the sweep checks
that the derogatory witness certifies the loss of regularity, and that each
of its per-nu verdicts is the one ``rsd_membership`` gives on that nu's
(spec, subgradient) pair.
Along one random direction per spec, the matrix subderivative
(``specsub.subderivative``) must return a float (inf included) on every
regular spec, and raise ``DerogatoryEigenvalue`` on every derogatory one,
where the chain rule through the characteristic polynomial does not hold.
On every spec's base matrix, ``spectral_active`` must report the value
``spectral_max`` returns, bit for bit; mismatches fail the spec and are
counted in the final tally.
The inequality suite also runs on each 1.5 times member; the tally reports
how many of those non-members it flags (a count, not a check: the suite
only samples directions, so it may miss a non-member).

Prints one line per spec and a final tally; exits nonzero on any failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from specmax.cpoly import Poly, RootCluster
from specmax.polysub import _coordinate_matrix
from specmax.generators import builtin
from specmax.jordan import (
    DerogatoryEigenvalue,
    JordanSpec,
    declared_active,
    spec_from_json,
    spec_to_json,
)
from specmax.oracles import subgradient_inequality_suite
from specmax.polysub import Dp_membership, Dp_sample, rsd_f_membership
from specmax.specsub import (
    chain_rule_membership,
    derogatory_witness,
    rsd_membership,
    rsd_sample,
    spectral_active,
    spectral_max,
    subderivative,
)


def random_spec(rng, n_max, f, derogatory=False):
    """Distinct eigenvalues, one Jordan block each; with ``derogatory``, the
    eigenvalue maximizing f gets a second block of size one (n stays within
    n_max)."""
    n = int(rng.integers(2, n_max + 1)) - derogatory
    parts = []
    left = n
    while left > 0:
        k = int(rng.integers(1, left + 1))
        parts.append(k)
        left -= k
    lams = []
    while len(lams) < len(parts):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.4 or any(abs(z - w) <= 0.5 for w in lams):
            continue
        lams.append(z)
    blocks = [(k,) for k in parts]
    if derogatory:
        top = max(range(len(lams)), key=lambda j: f.value(lams[j]))
        blocks[top] += (1,)
        n += 1
    while True:
        P = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(P) < 50:
            break
    return JordanSpec(list(zip(lams, blocks)), P=P)


def subderivative_reading(spec, f, seed):
    """What the matrix subderivative gives along a random direction drawn
    from ``seed``: "value" for a float that is not NaN, "refused" for
    DerogatoryEigenvalue."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
    try:
        d = subderivative(spec, f, Z)
    except DerogatoryEigenvalue:
        return "refused"
    return "value" if isinstance(d, float) and not math.isnan(d) else repr(d)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--specs", type=int, default=10)
    parser.add_argument("--members", type=int, default=5)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    failures = 0
    eval_mismatches = 0
    scaled_flagged = scaled_runs = 0
    for i in range(args.specs):
        f = builtin(("abscissa", "radius2", "radius")[i % 3])
        derogatory = i % 4 == 3
        spec = random_spec(rng, args.n_max, f, derogatory)
        sizes = "+".join("/".join(map(str, spec.block_sizes(j))) for j in range(spec.num_eigs))
        X = spec.synth()
        mismatch = (np.float64(spectral_active(X, f)[0]).tobytes()
                    != np.float64(spectral_max(X, f)).tobytes())
        eval_mismatches += mismatch
        subderiv = subderivative_reading(spec, f, args.seed + i)
        if derogatory:
            wits, _, report = derogatory_witness(spec, f, count=50)
            per_nu = [rsd_membership(s, f, Y).verdict for s, Y in wits] == report["per_nu"]
            ok = report["ok"] and per_nu and subderiv == "refused" and not mismatch
            status = "ok" if ok else "FAIL"
            failures += status == "FAIL"
            print(f"spec {i:2d} (n={spec.n}, blocks {sizes}, {f.name:9s}): "
                  f"witness ok={report['ok']}, per-nu verdicts match={per_nu:d}, "
                  f"subderivative {subderiv}, eval mismatch={mismatch:d}  [{status}]")
            continue
        _, active = declared_active(spec, f)
        cluster = RootCluster.sorted((spec.eig_value(j), spec.n_j(j)) for j in active)
        M = _coordinate_matrix(cluster)
        fresh = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
        bad_routes = 0
        violations = 0
        for k in range(args.members):
            c = Dp_sample(cluster, f, seed=args.seed + 97 * i + k)
            if not Dp_membership(cluster, f, c) or Dp_membership(cluster, f, 1.5 * c):
                bad_routes += 1
            v = Poly(tuple(M @ c))
            if not rsd_f_membership(cluster, f, v) or rsd_f_membership(cluster, f, 1.5 * v):
                bad_routes += 1
            Y = rsd_sample(spec, f, seed=args.seed + 97 * i + k)
            if not (rsd_membership(spec, f, Y).verdict and chain_rule_membership(spec, f, Y)):
                bad_routes += 1
            if rsd_membership(spec, f, 1.5 * Y).verdict:
                bad_routes += 1  # scaled candidates must fail
            for Z in (Y, 1.5 * Y):
                if rsd_membership(fresh, f, Z).to_json() != rsd_membership(spec, f, Z).to_json():
                    bad_routes += 1
            rep = subgradient_inequality_suite(spec, f, Y, n_samples=args.samples,
                                               seed=args.seed + i)
            violations += rep["violations"]
            rep = subgradient_inequality_suite(spec, f, 1.5 * Y, n_samples=args.samples,
                                               seed=args.seed + i)
            scaled_flagged += rep["violations"] > 0
            scaled_runs += 1
        ok = bad_routes == 0 and violations == 0 and subderiv == "value" and not mismatch
        status = "ok" if ok else "FAIL"
        failures += status == "FAIL"
        print(f"spec {i:2d} (n={spec.n}, blocks {sizes}, {f.name:9s}): "
              f"routes bad={bad_routes}, fd violations={violations}, "
              f"subderivative {subderiv}, eval mismatch={mismatch:d}  [{status}]")
    print(f"{args.specs - failures}/{args.specs} specs clean, "
          f"{eval_mismatches} spectral_active/spectral_max mismatches, "
          f"{scaled_flagged}/{scaled_runs} 1.5x members flagged by the inequality suite")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
