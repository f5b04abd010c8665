"""Command-line front end.

Commands: eval, membership, subderivative (matrix and poly variants),
paper-examples, verify.  Complex numbers travel as [re, im] pairs
everywhere; results print as JSON (sorted keys, so identical inputs and
seeds give byte-identical output).

Exit codes: 0 success or member, 1 non-member / failed checks, 2 usage,
parse or input error (argparse's refusals and every ValueError: unreadable
or unwritable files, malformed or non-finite matrices, unknown
generators), 3 domain error (DomainError).  A ValueError, domain errors
included, prints one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fixtures
from .cpoly import CLUSTER_TOL, poly_from_json, roots
from .generators import builtin
from .jordan import DomainError, matrix_from_json, spec_from_json
from .oracles import subgradient_inequality_suite
from .polysub import subderivative_f
from .specsub import (
    MembershipReport,
    W_extract,
    chain_rule_membership,
    derogatory_witness,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    spectral_active,
    subderivative,
)

EXIT_OK = 0
EXIT_NONMEMBER = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _emit(payload, out) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2), out)


def _write(text: str, out) -> None:
    """Print ``text`` and, given a path ``out``, write it there too."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}")
    print(text)


def _pairs(z: complex):
    return [z.real, z.imag]


# -- commands -------------------------------------------------------------------


def cmd_eval(args) -> int:
    f = builtin(args.f)
    X = matrix_from_json(_load_json(args.matrix))
    if not np.isfinite(X).all():  # not in spectral_max, which the oracle suite calls per stack
        raise ValueError("matrix must be finite")
    value, cluster, active = spectral_active(X, f)
    payload = {
        "value": value if math.isfinite(value) else "inf",
        "eigenvalues": [_pairs(r) for r in cluster.roots],
        "multiplicities": list(cluster.mults),
        "active": sorted(active),
        "active_eigenvalues": [_pairs(cluster.roots[j]) for j in sorted(active)],
    }
    _emit(payload, args.out)
    return EXIT_OK if math.isfinite(value) else EXIT_DOMAIN


def cmd_membership(args) -> int:
    f = builtin(args.f)
    spec = spec_from_json(_load_json(args.spec))
    Y = matrix_from_json(_load_json(args.candidate))

    if args.set == "chain":
        verdict = chain_rule_membership(spec, f, Y)
        _emit({"verdict": verdict, "route": "chain"}, args.out)
        return EXIT_OK if verdict else EXIT_NONMEMBER

    if args.set == "limiting-structure":
        params = W_extract(spec, Y, level="limiting")
        report = MembershipReport(verdict=params.ok, failed=params.violations)
    elif args.set == "recession":
        report = rsd_recession_membership(spec, f, Y)
    else:
        report = rsd_membership(spec, f, Y)
    _emit(json.loads(report.to_json()), args.out)
    return EXIT_OK if report.verdict else EXIT_NONMEMBER


def cmd_subderivative(args) -> int:
    f = builtin(args.f)
    if args.kind == "poly":
        p = poly_from_json(_load_json(args.base))
        v = poly_from_json(_load_json(args.direction))
        cluster = roots(p, cluster_tol=args.cluster_tol)
        value = subderivative_f(cluster, f, v)
    else:
        spec = spec_from_json(_load_json(args.base))
        Z = matrix_from_json(_load_json(args.direction))
        value = subderivative(spec, f, Z)
    _emit({"value": value if math.isfinite(value) else "inf", "kind": args.kind}, args.out)
    return EXIT_OK


def cmd_paper_examples(args) -> int:
    checks = fixtures.worked_example_checks(nu_count=args.nu)
    all_ok = all(ok for _, ok, _ in checks)
    if args.json:
        payload = {
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
            "all_passed": all_ok,
        }
        _emit(payload, args.out)
    else:
        width = max(len(n) for n, _, _ in checks)
        lines = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}" for name, ok, _ in checks]
        lines.append(f"{'total':<{width}}  {sum(ok for _, ok, _ in checks)}/{len(checks)} passed")
        _write("\n".join(lines), args.out)
    return EXIT_OK if all_ok else EXIT_NONMEMBER


def cmd_verify(args) -> int:
    f = builtin(args.f)
    spec = spec_from_json(_load_json(args.spec))
    report = {"spec": {"n": spec.n, "eigs": [[_pairs(l), list(b)] for l, b in spec.eigs]},
              "generator": f.name, "samples": args.samples, "seed": args.seed}

    verdict_ok = True
    regular = regularity_verdict(spec, f) == "regular"
    report["regularity"] = "regular" if regular else "not_regular"

    if regular:
        cross_failures = 0
        suites = []
        rng = np.random.default_rng(args.seed)
        n_members = max(1, args.samples // 100)
        for i in range(n_members):
            Y = rsd_sample(spec, f, seed=int(rng.integers(2 ** 31)))
            cross_failures += not rsd_membership(spec, f, Y).verdict
            cross_failures += not chain_rule_membership(spec, f, Y)
            suites.append(
                subgradient_inequality_suite(
                    spec, f, Y, n_samples=args.samples, seed=args.seed + i
                )
            )
        report["members_checked"] = n_members
        report["cross_route_failures"] = cross_failures
        report["max_violation"] = max(s["max_violation"] for s in suites)
        report["violations"] = sum(s["violations"] for s in suites)
        verdict_ok = cross_failures == 0 and report["violations"] == 0
    if not regular:
        _, M, wreport = derogatory_witness(spec, f, count=args.nu)
        report["witness"] = {
            "sequence_members": all(wreport["per_nu"]),
            "limit_regular_at_base": wreport["limit_is_regular_subgradient_at_base"],
            "ok": wreport["ok"],
        }
        verdict_ok = verdict_ok and wreport["ok"]
    report["ok"] = verdict_ok
    _emit(report, args.out)
    return EXIT_OK if verdict_ok else EXIT_NONMEMBER


# -- argument plumbing ------------------------------------------------------------


def _at_least(low):
    """argparse type: a finite number of the type of ``low``, no smaller than it."""
    def parse(text: str):
        value = type(low)(text)
        if not low <= value < math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be at least {low} and finite, got {value}")
        return value

    parse.__name__ = type(low).__name__  # argparse names the type in "invalid int value"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use (parsing
    keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="specmax",
        description="Spectral max functions: evaluation, subgradient membership, "
                    "subderivatives, and verification suites.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--out", type=str, default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate the spectral max")
    p.set_defaults(func=cmd_eval)
    p.add_argument("matrix", help="matrix JSON path")
    p.add_argument("--f", required=True, help="generator name")

    p = sub.add_parser("membership", parents=[common], help="subgradient membership test")
    p.set_defaults(func=cmd_membership)
    p.add_argument("spec", help="Jordan spec JSON path")
    p.add_argument("candidate", help="candidate matrix JSON path")
    p.add_argument("--f", required=True, help="generator name")
    p.add_argument("--set", default="rsd",
                   choices=["rsd", "recession", "limiting-structure", "chain"])

    p = sub.add_parser("subderivative", parents=[common],
                       help="lower directional derivative along a direction")
    p.set_defaults(func=cmd_subderivative)
    p.add_argument("kind", choices=["poly", "matrix"])
    p.add_argument("base", help="polynomial or Jordan spec JSON path")
    p.add_argument("direction", help="polynomial or matrix JSON path")
    p.add_argument("--f", required=True, help="generator name")
    p.add_argument("--cluster-tol", type=_at_least(0.0), default=CLUSTER_TOL,
                   help="poly: base roots this close are one multiple root")

    p = sub.add_parser("paper-examples", parents=[common],
                       help="run the bundled worked examples")
    p.set_defaults(func=cmd_paper_examples)
    p.add_argument("--nu", type=_at_least(1), default=100,
                   help="perturbation sequence length")

    p = sub.add_parser("verify", parents=[common], help="run the oracle suites")
    p.set_defaults(func=cmd_verify)
    p.add_argument("spec", help="Jordan spec JSON path")
    p.add_argument("--f", required=True, help="generator name")
    p.add_argument("--samples", type=_at_least(0), default=200)
    p.add_argument("--nu", type=_at_least(1), default=50)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:  # UnsupportedGenerator included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
