#!/usr/bin/env python3
"""Set-up probe: in a fresh interpreter, import specmax, build one pass of a
workload's inputs and run one warm-up op.  ``run.py`` times the whole
process from outside; the exit code is 0 only when the op was right.

    python3 specbench/probe.py --workload membership-mix --seed 1
"""

import argparse
import shutil
import sys
import tempfile

import benchenv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    benchenv.load_specmax()
    from workloads import KNOWN_DEFECTS, WORKLOADS

    workdir = tempfile.mkdtemp(prefix="probe-", dir=benchenv.work_dir())
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        op = workload.make_pass(0)[0]
        status = op.check(op.call())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if status == "ok" or status in KNOWN_DEFECTS else 1


if __name__ == "__main__":
    sys.exit(main())
