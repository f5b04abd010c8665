#!/usr/bin/env python3
"""Which functions of ``src/specmax`` no traffic outside the tests enters.

    python3 scripts/traffic.py           # list the functions never entered
    python3 scripts/traffic.py --check   # and compare them with STAYS

The trace starts before ``import specmax`` and records, through
``sys.settrace``, every function that the following traffic calls:
- every op of ``scripts/identity.py``'s corpus (the three benchmark
  workloads at its seeds and passes) and its CLI cases;
- ``specmax paper-examples``, in text and in JSON;
- ``scripts/verify_random_specs.py`` with its defaults;
- every CLI command (``eval``, ``membership`` under each ``--set``,
  ``subderivative matrix`` and ``poly``, ``verify``) under the four
  builtins, on a two-active, a derogatory, a nilpotent and a rest-block spec.

A function is every ``def`` of a module of ``src/specmax``, methods and
nested functions included (lambdas and comprehensions are not); nested
ones are named ``outer.inner``.  The functions never entered are printed
grouped by module, each with its reason from STAYS where it has one.
``--check`` exits 1 when a never-entered function has no reason in STAYS,
or a STAYS entry is entered after all: either the traffic lost a caller,
or a public path found one.  Input files go to a temporary directory.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specmax"

_POLY = "the public polynomial API, which fd_poly_quotient builds on"
_FD = ("formula-free reference oracles of criteria 5-8; items 2, 8 and 24 bring "
       "them into `verify`")
_GEOMETRY = "public geometry, whatever today's builtins happen to build"
_REPR = "a readable value in a session and in a failed assert"
_COMPLETE = ("the calculus always transforms the radius, but a builtin stays a complete "
             "public object")

# never-entered function: why it stays
STAYS = {
    "cpoly.elementary": _POLY,
    "cpoly.RootCluster.as_poly": _POLY,
    "cpoly.Poly.__add__": _POLY,
    "cpoly.Poly.one": _POLY,
    "cpoly.Poly.padded": _POLY,
    "cpoly.poly_root_max": _POLY,
    "oracles.fd_phi_quotient": _FD,
    "oracles.fd_poly_quotient": _FD,
    "oracles._build_report": _FD,
    "oracles.growth_exponent": _FD,
    "oracles._extrapolate": _FD,
    "oracles._check_steps": _FD,
    "generators.ConvexSet2D.segment": _GEOMETRY,
    "generators.ConvexSet2D.rspan_is_plane": _GEOMETRY,
    "generators._segment_distance": _GEOMETRY,
    "generators._halved": _GEOMETRY,
    "generators._unit": _GEOMETRY,
    "generators.make_generator.default_subdiff":
        "the public hook contract for user generators",
    "generators.make_generator.default_tag": "the public hook contract for user generators",
    "generators._radius.hess": _COMPLETE,
    "generators._radius.subdiff": _COMPLETE,
    "generators._radius.tag": _COMPLETE,
    "generators._ell1.sgn": _COMPLETE,
    "generators._ell1.hess": _COMPLETE,
    "generators.Generator.__repr__": _REPR,
    "jordan.JordanSpec.__repr__": _REPR,
}

_BUILTINS = ("abscissa", "radius2", "radius", "ell1")


def _pairs(rows) -> list:
    return [[[float(x), 0.0] for x in row] for row in rows]


# the rest block is upper triangular, so each spec's eigenvalues are the
# diagonal of its Jordan matrix
_SPECS = {
    "two-active": {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2]},
                            {"lambda": [-1.0, 0.0], "blocks": [1]}]},
    "derogatory": {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2, 1]}]},
    "nilpotent": {"eigs": [{"lambda": [0.0, 0.0], "blocks": [2]}]},
    "rest-block": {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2]}],
                   "B": _pairs([[-1.0, 0.5], [0.0, -0.5]]),
                   "P": _pairs([[1, 0.25, 0, 0], [0, 1, 0.5, 0], [0, 0, 1, 0], [0.25, 0, 0, 1]])},
}


def functions() -> dict:
    """``{(file name, first line, qualname): display name}`` of every
    ``def`` in the package, read off the modules' compiled code."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_qualname")]
            if not code.co_name.startswith("<"):
                name = f"{path.stem}.{code.co_qualname.replace('<locals>.', '')}"
                out[(path.name, code.co_firstlineno, code.co_qualname)] = name
    return out


def _commands(workdir: Path) -> list:
    """The argv of every CLI command of the traffic, its input files
    written into ``workdir``."""
    import numpy as np
    from specmax.jordan import matrix_to_json, spec_from_json

    argvs = []
    for name, data in _SPECS.items():
        spec = spec_from_json(data)
        n = spec.n
        p = np.poly(np.diag(spec.jordan_matrix()))[::-1].astype(complex)
        files = {"spec": data, "X": matrix_to_json(spec.synth()),
                 "Y": matrix_to_json(np.eye(n) / n), "Z": matrix_to_json(np.eye(n)),
                 "p": [[c.real, c.imag] for c in p], "v": [[1.0, 0.0], [0.5, 0.0]]}
        path = {k: str(workdir / f"{name}-{k}.json") for k in files}
        for k, payload in files.items():
            Path(path[k]).write_text(json.dumps(payload))
        for f in _BUILTINS:
            argvs.append(["eval", path["X"], "--f", f])
            argvs += [["membership", path["spec"], path["Y"], "--f", f, "--set", s]
                      for s in ("rsd", "recession", "limiting-structure", "chain")]
            argvs.append(["subderivative", "matrix", path["spec"], path["Z"], "--f", f])
            argvs.append(["subderivative", "poly", path["p"], path["v"], "--f", f])
            argvs.append(["verify", path["spec"], "--f", f, "--samples", "100"])
    return argvs


def run_traffic() -> set:
    """``(file name, first line, qualname)`` of every package function the
    traffic enters."""
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.settrace(trace)
    try:
        sys.path.insert(0, str(ROOT / "scripts"))
        import identity  # imports specmax from src/, traced from here on
        from specmax import cli

        sweep = importlib.util.spec_from_file_location(
            "verify_random_specs", ROOT / "scripts" / "verify_random_specs.py")
        sweep_module = importlib.util.module_from_spec(sweep)
        sweep.loader.exec_module(sweep_module)
        with tempfile.TemporaryDirectory() as workdir:
            identity.run_ops(workdir)
            for case in identity.CLI_CASES.values():
                identity.cli_case(*case)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(["paper-examples"])
                cli.main(["paper-examples", "--json"])
                for argv in _commands(Path(workdir)):
                    cli.main(argv)
                argv, sys.argv = sys.argv, [sweep.origin]
                try:
                    sweep_module.main()
                finally:
                    sys.argv = argv
    finally:
        sys.settrace(None)
    return {(Path(file).name, line, qualname) for file, line, qualname in entered
            if Path(file).resolve().parent == PACKAGE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the functions never entered are exactly STAYS")
    args = parser.parse_args(argv)

    names = functions()
    entered = run_traffic()
    never = sorted(name for key, name in names.items() if key not in entered)
    by_module = defaultdict(list)
    for name in never:
        by_module[name.split(".")[0]].append(name)
    for module, group in sorted(by_module.items()):
        print(f"{module}:")
        for name in group:
            print(f"    {name}  ({STAYS.get(name, 'no reason in STAYS')})")
    print(f"{len(never)} of {len(names)} functions never entered")

    missing = [name for name in never if name not in STAYS]
    found = sorted(set(STAYS) - set(never))
    for name in missing:
        print(f"never entered, no reason in STAYS: {name}")
    for name in found:
        print(f"in STAYS, but entered (or gone): {name}")
    return 1 if args.check and (missing or found) else 0


if __name__ == "__main__":
    sys.exit(main())
