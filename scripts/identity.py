#!/usr/bin/env python3
"""Output-identity corpus: every benchmark op's result and status, digested.

    python3 scripts/identity.py --write   # record IDENTITY.json from this checkout
    python3 scripts/identity.py --check   # compare this checkout with IDENTITY.json

The corpus holds every op of the three benchmark workloads of
``specbench/workloads.py`` (imported, never changed) at seeds 902, 77 and
5, passes 0-2: 324 ``oracle-suite``, 3,600 ``membership-mix`` and 864
``poly-weights`` ops.  Each op is stored under its workload, seed, pass
and slot as its kind, its status (the workload's own check: "ok",
"wrong", a known defect, or "raised:<type>" as the benchmark counts it)
and a 64-bit digest of its result.  Results are digested bit for bit:
floats and complex numbers through their exact repr, arrays through their
bytes.  The corpus also holds the sha256 of the stdout of ``specmax
paper-examples --json`` and of ``scripts/verify_random_specs.py`` with its
defaults, and the CLI's error paths and edge inputs: each case writes its
input files into a temporary directory, runs ``cli.main`` in-process with
that directory as the working directory (so paths in messages stay
relative), and is stored
as its exit code (or ``raised:<type>`` for an uncaught exception), the
sha256 of its stdout, its stderr text and the warnings it raised.

LAPACK's last bits depend on the library build and the host, so the file
records the Python, numpy and scipy versions, numpy's BLAS and LAPACK and
the machine type, and ``--check`` refuses to compare across them (exit 2).
``--check`` names every op whose status or result changed, grouped by
workload and op kind, and exits 1 on any change, 0 when all is identical.
A change that alters outputs on purpose writes the file again and lists
the changed ops.  specmax is imported from ``src/`` of this checkout, with
BLAS pinned to one thread as in the benchmark.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "specbench"))
import benchenv  # noqa: E402  (pins BLAS to one thread before numpy loads)

benchenv.load_specmax()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from specmax import cli  # noqa: E402

CORPUS = ROOT / "IDENTITY.json"
SEEDS = (902, 77, 5)
PASSES = 3
WORKLOADS = ("oracle-suite", "membership-mix", "poly-weights")


def environment() -> dict:
    """What the digests hold for: the interpreter, the numeric libraries
    and the machine type."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    libs = {k: {key: deps[k].get(key) for key in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, **libs, "machine": platform.machine()}


def _canon(x) -> str:
    """Text that determines x bit for bit."""
    if isinstance(x, np.ndarray):
        return f"ndarray({x.dtype.str},{x.shape},{x.tobytes().hex()})"
    if isinstance(x, np.generic):
        return f"{type(x).__name__}({_canon(x.item())})"
    if isinstance(x, (tuple, list)):
        return f"{type(x).__name__}({','.join(map(_canon, x))})"
    return repr(x)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_ops(workdir: str) -> dict:
    """``{workload: {"seed/pass/slot": "kind status digest"}}`` over the corpus."""
    out = {}
    for name in WORKLOADS:
        entries = out[name] = {}
        for seed in SEEDS:
            load = workloads.WORKLOADS[name](seed, workdir)
            for r in range(PASSES):
                for op in load.make_pass(r):
                    try:
                        res = op.call()
                    except Exception as exc:  # a status, as the benchmark counts it
                        status = f"raised:{type(exc).__name__}"
                        text = f"{status} {exc}"
                    else:
                        text, status = _canon(res), op.check(res)
                    entries[f"{seed}/{r}/{op.slot}"] = f"{op.kind} {status} {_digest(text)}"
    return out


def _matrix(rows) -> list:
    """Matrix JSON, [re, im] pairs, of a real matrix."""
    return [[[float(x), 0.0] for x in row] for row in rows]


_A = {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2]}, {"lambda": [-1.0, 0.0], "blocks": [1]}]}
_J2 = {"eigs": [{"lambda": [0.0, 0.0], "blocks": [2]}]}
_LAM2 = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # lambda^2
_NAN3 = _matrix(np.full((3, 3), np.nan))
_EYE2 = _matrix(np.eye(2))
_HUGE2 = _matrix([[1.5e308, 1.5e308], [0, 0]])
# |Y| is finite, but W = P^-* Y P^* would read 4e308 below the diagonal
_W_OVER_SPEC = dict(_A, P=_matrix(np.diag([2.0, 0.5, 1.0])))
_W_OVER_Y = _matrix([[0.5, 0, 0], [1e308, 0.5, 0], [0, 0, 0]])

# name: (argv, {file name: JSON payload, or raw text for a str})
CLI_CASES = {
    "eval malformed JSON": (["eval", "bad.json", "--f", "abscissa"], {"bad.json": "{"}),
    "eval missing JSON": (["eval", "missing.json", "--f", "abscissa"], {}),
    "eval unknown generator": (["eval", "I.json", "--f", "nope"], {"I.json": _EYE2}),
    "eval NaN matrix": (["eval", "N.json", "--f", "abscissa"],
                        {"N.json": _matrix([[np.nan, 0], [0, 1]])}),
    "eval non-square matrix": (["eval", "R.json", "--f", "abscissa"],
                               {"R.json": _matrix([[1, 0]])}),
    "eval unwritable --out": (["eval", "I.json", "--f", "abscissa", "--out", "nodir/out.json"],
                              {"I.json": _EYE2}),
    "membership wrong-shape candidate": (
        ["membership", "A.json", "Y.json", "--f", "abscissa", "--set", "chain"],
        {"A.json": _A, "Y.json": _EYE2}),
    "membership NaN candidate": (["membership", "A.json", "Y.json", "--f", "abscissa"],
                                 {"A.json": _A, "Y.json": _NAN3}),
    "membership W overflow": (["membership", "S.json", "Y.json", "--f", "abscissa"],
                              {"S.json": _W_OVER_SPEC, "Y.json": _W_OVER_Y}),
    "membership chain overflow": (
        ["membership", "S.json", "Y.json", "--f", "abscissa", "--set", "chain"],
        {"S.json": _W_OVER_SPEC, "Y.json": _W_OVER_Y}),
    "membership candidate norm overflows": (["membership", "J.json", "Y.json", "--f", "abscissa"],
                                            {"J.json": _J2, "Y.json": _HUGE2}),
    "subderivative NaN direction": (
        ["subderivative", "matrix", "A.json", "Z.json", "--f", "abscissa"],
        {"A.json": _A, "Z.json": _NAN3}),
    "subderivative wrong-shape direction": (
        ["subderivative", "matrix", "A.json", "Z.json", "--f", "abscissa"],
        {"A.json": _A, "Z.json": _EYE2}),
    "subderivative direction norm overflows": (
        ["subderivative", "matrix", "J.json", "Z.json", "--f", "abscissa"],
        {"J.json": _J2, "Z.json": _HUGE2}),
    "subderivative matrix rest block": (
        ["subderivative", "matrix", "S.json", "Z.json", "--f", "abscissa"],
        {"S.json": {"eigs": [{"lambda": [1.0, 0.0], "blocks": [2]}], "B": [[[-1.0, 0.0]]]},
         "Z.json": _matrix(np.eye(3))}),
    "subderivative poly trailing zeros": (
        ["subderivative", "poly", "p.json", "v.json", "--f", "abscissa"],
        {"p.json": _LAM2, "v.json": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
    "subderivative poly degree 3": (
        ["subderivative", "poly", "p.json", "v.json", "--f", "abscissa"],
        {"p.json": _LAM2, "v.json": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
    "verify norm overflows": (["verify", "J.json", "--f", "abscissa", "--samples", "100"],
                              {"J.json": {"eigs": [{"lambda": [1e155, 0.0], "blocks": [2]}]}}),
    "verify radius2 tiny eigenvalue": (
        ["verify", "T.json", "--f", "radius2", "--samples", "100"],
        {"T.json": {"eigs": [{"lambda": [1e-100, 0.0], "blocks": [2]}]}}),
    "verify radius2 witness refusal": (
        ["verify", "D.json", "--f", "radius2"],
        {"D.json": {"eigs": [{"lambda": [0.0, 0.0], "blocks": [1, 1]}]}}),
}


def cli_case(argv: list, files: dict) -> dict:
    """One CLI case, run in a fresh temporary working directory."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        for name, payload in files.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            Path(workdir, name).write_text(text)
        os.chdir(workdir)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback on the command line
                    code = f"raised:{type(exc).__name__}"
                    print(exc, file=sys.stderr)
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]}


def paper_examples() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["paper-examples", "--json"])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def collect() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(benchenv.SRC), os.environ.get("PYTHONPATH")])))
    # the sweep runs in its own process beside the ops
    sweep = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "verify_random_specs.py")],
                             cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            ops = run_ops(workdir)
        outputs = {"paper-examples --json": paper_examples()}
        cases = {name: cli_case(*case) for name, case in CLI_CASES.items()}
    finally:
        stdout, _ = sweep.communicate()
    outputs["scripts/verify_random_specs.py"] = hashlib.sha256(stdout).hexdigest()
    return {"environment": environment(), "seeds": list(SEEDS), "passes": PASSES,
            "outputs": outputs, "cli": cases, "ops": ops}


def compare(old: dict, new: dict) -> list:
    """Lines naming every output and op that differs, ops grouped by
    workload and op kind."""
    lines = [f"output {name}: {old['outputs'].get(name)} -> {digest}"
             for name, digest in new["outputs"].items() if old["outputs"].get(name) != digest]
    was = old.get("cli", {})
    for name, case in new["cli"].items():
        if was.get(name) != case:
            lines.append(f"cli {name}:")
            lines += [f"    {key}: {was.get(name, {}).get(key, 'missing')!r} -> {value!r}"
                      for key, value in case.items() if was.get(name, {}).get(key) != value]
    for name in WORKLOADS:
        was, now = old["ops"].get(name, {}), new["ops"][name]
        groups = defaultdict(list)
        for key in sorted(set(was) | set(now), key=lambda k: tuple(map(int, k.split("/")))):
            if was.get(key) != now.get(key):
                kind = (now.get(key) or was[key]).split()[0]
                groups[kind].append(f"    {key}: {was.get(key, 'missing')} -> "
                                    f"{now.get(key, 'missing')}")
        for kind in sorted(groups):
            lines.append(f"{name} {kind}: {len(groups[kind])} changed")
            lines += groups[kind]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"record {CORPUS.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {CORPUS.name}")
    args = parser.parse_args(argv)

    if args.check:
        try:
            old = json.loads(CORPUS.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {CORPUS}: {exc}", file=sys.stderr)
            return 2
        was, now = old["environment"], environment()
        differ = [f"{key} {was.get(key)} here {now.get(key)}"
                  for key in sorted(set(was) | set(now)) if was.get(key) != now.get(key)]
        if differ:
            print(f"error: {CORPUS.name} was written under another build: "
                  f"{'; '.join(differ)}; write it again on the parent tree", file=sys.stderr)
            return 2
    new = collect()
    count = sum(len(ops) for ops in new["ops"].values())
    if args.write:
        CORPUS.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {count} ops, {len(new['outputs'])} outputs and {len(new['cli'])} "
              f"CLI cases to {CORPUS.name}")
        return 0
    changes = compare(old, new)
    print("\n".join(changes) if changes else f"identical: {count} ops, "
          f"{len(new['outputs'])} outputs and {len(new['cli'])} CLI cases")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
