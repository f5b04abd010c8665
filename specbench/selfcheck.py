#!/usr/bin/env python3
"""Self-checks of the benchmark harness.

1. An untraced run leaves every traced function object unwrapped (run.py
   asserts this at the end of each untraced run; here one short run must
   succeed), and its error ratio is exactly the share of known-defect ops.
2. Two traced runs with the same seed give identical ``.calls`` counts.
3. In a directory that holds only BENCHMARK.json and the benchmark's files,
   run.py exits with a nonzero code and prints no result.
4. The reference kernel reads the same after a chunk of specmax ops as
   after an equally long chunk of a fixed Python loop or of a memory sweep.
   The three are interleaved, and each reading is compared with the
   Python-loop reading of its own cycle, so host drift cancels.  So the
   paired figures do not depend on what specmax leaves in the caches.

    python3 specbench/selfcheck.py [--seconds 2]
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import benchenv

WORKLOADS = ("oracle-suite", "membership-mix", "poly-weights")
REF_CHECK_S = 20  # interleaved measuring per workload
REF_TOL = 0.05  # largest allowed shift of the reference; the smallest timing bound is 0.09


def run(args, cwd=benchenv.ROOT):
    proc = subprocess.run([sys.executable, "specbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_untraced(seconds: str) -> list:
    code, lines = run(["--workload", "membership-mix", "--seed", "3", "--seconds", seconds,
                       "--trace", "0"])
    if code != 0:
        return ["untraced run failed"]
    rec, res = json.loads(lines[-2]), json.loads(lines[-1])
    known = sum(rec["known_defects"].values())
    problems = []
    if not res["correct"] or res["failed"]:
        problems.append(f"untraced run has failed ops: {rec['status']}")
    if rec["error_ratio"] != known / rec["attempted"]:
        problems.append("error ratio differs from the known-defect share")
    if set(rec["known_defects"]) != {"eval_mult_mismatch"}:
        problems.append(f"unexpected defects on membership-mix: {rec['known_defects']}")
    return problems


def check_traced_counts(seconds: str) -> list:
    problems = []
    for name in WORKLOADS:
        counts = []
        for _ in range(2):
            code, lines = run(["--workload", name, "--seed", "5", "--seconds", seconds,
                               "--trace", "1"])
            if code != 0:
                return [f"traced run of {name} failed"]
            metrics = json.loads(lines[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: traced call counts differ: {diff}")
        elif not any(counts[0].values()):
            problems.append(f"{name}: no calls traced")
    return problems


def check_bare_directory(seconds: str) -> list:
    bare = benchenv.work_dir() / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(benchenv.BENCH_DIR, bare / "specbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["--workload", "membership-mix", "--seed", "1", "--seconds", seconds,
                           "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any('"correct"' in line for line in lines):
        return ["run.py succeeded without the specmax sources"]
    return []


def check_reference_independent(seconds: str) -> list:
    benchenv.load_specmax()
    import numpy as np

    from timing import CHUNK_S, Reference
    from workloads import WORKLOADS as CLASSES

    sweep = np.ones(4_000_000)  # 32 MB, larger than the last-level cache

    def python_loop(budget):
        t0, acc = time.perf_counter(), 0
        while time.perf_counter() - t0 < budget:
            for k in range(2000):
                acc += k * k % 7

    def memory_sweep(budget):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget:
            sweep.sum()

    problems = []
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="refcheck-", dir=benchenv.work_dir())
        try:
            w = CLASSES[name](7, workdir)
            ref = Reference(w.REFERENCE)
            after = {"specmax": [], "python_loop": [], "memory_sweep": []}
            ops, r = [], 0
            t_end = time.perf_counter() + REF_CHECK_S
            while time.perf_counter() < t_end:
                if not ops:
                    ops, r = w.make_pass(r), r + 1
                spent = 0.0
                while ops and spent < CHUNK_S:
                    op = ops.pop()
                    t0 = time.perf_counter()
                    op.call()
                    spent += time.perf_counter() - t0
                after["specmax"].append(ref.measure())
                fillers = [("python_loop", python_loop), ("memory_sweep", memory_sweep)]
                if len(after["specmax"]) % 2:
                    fillers.reverse()
                for key, filler in fillers:
                    filler(spent)
                    after[key].append(ref.measure())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        base = after["python_loop"]
        shift = {k: statistics.median(a / b for a, b in zip(after[k], base))
                 for k in ("specmax", "memory_sweep")}
        print(f"  {name}: {ref.kernel} kernel, {len(base)} cycles; reference median "
              f"{1000 * statistics.median(base) * ref.nominal_s:.4f} ms after the Python loop; "
              + ", ".join(f"after {k} x{v:.4f}" for k, v in shift.items()))
        for k, v in shift.items():
            if abs(v - 1) > REF_TOL:
                problems.append(f"{name}: reference after {k} is {v:.3f} of "
                                f"its value after the Python loop")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args()
    problems = []
    for check in (check_bare_directory, check_untraced, check_traced_counts,
                  check_reference_independent):
        found = check(args.seconds)
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
