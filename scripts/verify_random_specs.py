#!/usr/bin/env python3
"""Randomized verification sweep: sample Jordan specs, construct subgradients,
and confirm that the explicit construction, the direct coordinate test, the
chain route, and the sampled finite-difference inequalities all agree.
The specs cycle through the abscissa, radius2 and the spectral radius, which
both routes reach through its transform to radius2.  Every fourth spec gives
its active eigenvalue a second Jordan block instead; there the sweep checks
that the derogatory witness certifies the loss of regularity.

Prints one line per spec and a final tally; exits nonzero on any failure.
"""

import argparse
import sys

import numpy as np

from specmax.generators import builtin
from specmax.jordan import JordanSpec
from specmax.oracles import subgradient_inequality_suite
from specmax.specsub import (
    chain_rule_membership,
    derogatory_witness,
    rsd_membership,
    rsd_sample,
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
    for i in range(args.specs):
        f = builtin(("abscissa", "radius2", "radius")[i % 3])
        derogatory = i % 4 == 3
        spec = random_spec(rng, args.n_max, f, derogatory)
        sizes = "+".join("/".join(map(str, spec.block_sizes(j))) for j in range(spec.num_eigs))
        if derogatory:
            _, _, report = derogatory_witness(spec, f, count=50)
            status = "ok" if report["ok"] else "FAIL"
            failures += status == "FAIL"
            print(f"spec {i:2d} (n={spec.n}, blocks {sizes}, {f.name:9s}): "
                  f"witness ok={report['ok']}  [{status}]")
            continue
        bad_routes = 0
        violations = 0
        for k in range(args.members):
            Y = rsd_sample(spec, f, seed=args.seed + 97 * i + k)
            if not (rsd_membership(spec, f, Y).verdict and chain_rule_membership(spec, f, Y)):
                bad_routes += 1
            if not rsd_membership(spec, f, 1.5 * Y).verdict:
                pass  # scaled candidates must fail; count if they somehow pass
            else:
                bad_routes += 1
            rep = subgradient_inequality_suite(spec, f, Y, n_samples=args.samples,
                                               seed=args.seed + i)
            violations += rep["violations"]
        status = "ok" if bad_routes == 0 and violations == 0 else "FAIL"
        failures += status == "FAIL"
        print(f"spec {i:2d} (n={spec.n}, blocks {sizes}, {f.name:9s}): "
              f"routes bad={bad_routes}, fd violations={violations}  [{status}]")
    print(f"{args.specs - failures}/{args.specs} specs clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
