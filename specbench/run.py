#!/usr/bin/env python3
"""Benchmark of the specmax verifier.

    python3 specbench/run.py --workload oracle-suite --seed 1 --seconds 20 --trace 0
    python3 specbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``oracle-suite`` (in-process ``specmax
verify``), ``membership-mix`` (single-shot membership and eval queries) and
``poly-weights`` (the polynomial layer and its weight search).  Each is one
closed-loop caller in one process, BLAS pinned to one thread.

With ``--trace 0`` the run measures the end-to-end metrics; ``--trace 1``
measures half the time untraced, then a fixed number of passes with spans
around the layer functions, and reports per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full run record.
"""

import argparse
import collections
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

import benchenv

TRACE_PASS_BASE = 1_000_000  # traced passes draw inputs no untraced pass uses
SETUP_PROBES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_info() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_env": {v: os.environ.get(v) for v in benchenv.BLAS_VARS},
    }


def run_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, str(benchenv.BENCH_DIR / "probe.py"), "--workload", name,
           "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=benchenv.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=150)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return dt


def outcome(sampler) -> dict:
    from workloads import KNOWN_DEFECTS

    st = sampler.status
    attempted = sampler.attempted
    failed = sum(n for s, n in st.items() if s != "ok" and s not in KNOWN_DEFECTS)
    known = {s: n for s, n in st.items() if s in KNOWN_DEFECTS}
    return {
        "attempted": attempted,
        "failed": failed,
        "ok": st.get("ok", 0),
        "known_defects": known,
        "error_ratio": (attempted - st.get("ok", 0)) / attempted,
        "status": dict(sorted(st.items())),
        "kinds": dict(sorted(sampler.kinds.items())),
    }


def measure_untraced(w, seconds, seed, digests):
    from timing import Reference, Sampler, slot_stats

    ref = Reference(w.REFERENCE)
    sampler = Sampler(len(w.slots), digests, ref)
    setup = []

    def between(measured):
        # probes one at a time, due at k/n of the measuring time
        if len(setup) < SETUP_PROBES and measured >= seconds * len(setup) / SETUP_PROBES:
            setup.append(run_probe(w.name, seed))
            return True
        return False

    passes = sampler.run(w.make_pass, range(TRACE_PASS_BASE), seconds=seconds,
                         min_passes=2, between=between)
    while len(setup) < SETUP_PROBES:
        setup.append(run_probe(w.name, seed))
    return sampler, passes, setup, slot_stats(sampler.ratios), slot_stats(sampler.raw), ref


def route_agreement(direct, chain):
    """Pairs of a direct-route and a chain-route verdict on one candidate.
    Calls that met no partner in their op get one from the other route,
    computed here, outside the spans."""
    from specmax import specsub

    pairs = []
    open_chain = {}
    for key, verdict, args in chain:
        open_chain.setdefault(key, []).append((verdict, args))
    for key, verdict, args in direct:
        partner = open_chain.get(key)
        if partner:
            pairs.append(verdict == partner.pop()[0])
        else:
            pairs.append(verdict == bool(specsub.chain_rule_membership(*args)))
    for key, rest in open_chain.items():
        for verdict, args in rest:
            pairs.append(verdict == specsub.rsd_membership(*args).verdict)
    return pairs


def measure_traced(w, seconds, digests):
    import numpy as np

    import spans as tr
    from timing import Reference, Sampler, slot_stats

    ref = Reference(w.REFERENCE)
    base = Sampler(len(w.slots), digests, ref)
    base.run(w.make_pass, range(TRACE_PASS_BASE), seconds=seconds / 2, min_passes=2)
    untraced = slot_stats(base.ratios)

    tracer = tr.Tracer()
    directions = [0]
    direct, chain = [], []
    op_scale = {}

    def on_suite(args, out, span):
        directions[0] += out["n_directions"]

    def route_observer(store, verdict_of):
        def observe(args, out, span):
            if len(args) < 3 or (span[3] >= 0 and
                                 tracer.spans[span[3]][0] == "specsub.derogatory_witness"):
                return
            Y = np.asarray(args[2], dtype=complex)
            store.append(((span[4], Y.tobytes()), verdict_of(out), args[:3]))
        return observe

    tracer.observers = {
        "oracles.subgradient_inequality_suite": on_suite,
        "specsub.rsd_membership": route_observer(direct, lambda out: bool(out.verdict)),
        "specsub.chain_rule_membership": route_observer(chain, bool),
    }
    traced = Sampler(len(w.slots), digests, ref)
    pending = collections.deque()  # op ids of the current chunk, in order

    def before_op(op):
        tracer.op += 1
        pending.append(tracer.op)

    def after_op(op, status, ref_mean):
        op_scale[pending.popleft()] = 1.0 / ref_mean

    traced.before_op, traced.after_op = before_op, after_op
    passes = range(TRACE_PASS_BASE, TRACE_PASS_BASE + w.TRACE_PASSES)
    tracer.install()
    try:
        traced.run(w.make_pass, passes)
    finally:
        tracer.remove()
    tr.assert_unwrapped(tr.snapshot())
    traced_stats = slot_stats(traced.ratios)

    ops = traced.attempted
    metrics = {}
    for name, (calls, self_s) in tracer.per_function(op_scale).items():
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        if name in tr.SPANNED:
            metrics[f"{name}.self_ms"] = (1000 * self_s / ops, "ms/op")
    counts = tracer.per_function({})
    pairs = route_agreement(direct, chain)
    eval_ops = traced.kinds.get("eval", 0)
    dp_calls = counts["polysub.Dp_membership"][0]
    metrics.update({
        "oracles.directions": (directions[0] / ops, "count/op"),
        "oracles.evals_per_direction": (
            counts["specsub.spectral_max"][0] / directions[0] if directions[0] else 0.0, "1"),
        "polysub.weight_fallback_ratio": (
            counts["polysub.optimize.minimize"][0] / dp_calls if dp_calls else 0.0, "1"),
        "specsub.route_pairs": (len(pairs) / ops, "count/op"),
        "specsub.route_agreement": (sum(pairs) / len(pairs) if pairs else 0.0, "1"),
        "cpoly.eval_ops": (eval_ops / ops, "1"),
        "cpoly.mult_mismatch_ratio": (
            traced.status.get("eval_mult_mismatch", 0) / eval_ops if eval_ops else 0.0, "1"),
        "trace_overhead": (untraced["verdicts_per_s"] / traced_stats["verdicts_per_s"], "1"),
    })
    spans_path = benchenv.work_dir() / f"spans-{w.name}-{w.seed}.json"
    tracer.write(spans_path)
    record = {
        "untraced_phase": {**untraced, **outcome(base)},
        "traced_phase": {**traced_stats, **outcome(traced), "passes": len(passes)},
        "spans_file": str(spans_path.relative_to(benchenv.ROOT)),
        "spans": len(tracer.spans),
        "ref": ref.summary(),
    }
    return metrics, record, [base, traced]


def run_workload(name, seed, seconds, trace) -> dict:
    from timing import check_no_repeats
    from workloads import WORKLOADS

    import spans as tr

    snap = tr.snapshot()
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=benchenv.work_dir())
    try:
        w = WORKLOADS[name](seed, workdir)
        digests = array("Q")
        # the harness's own long-lived objects should not lengthen the
        # program's garbage collections as the run goes on
        gc.collect()
        gc.freeze()
        if trace:
            metrics, record, samplers = measure_traced(w, seconds, digests)
        else:
            sampler, passes, setup, paired, raw, ref = measure_untraced(w, seconds, seed, digests)
            tr.assert_unwrapped(snap)
            samplers = [sampler]
            out = outcome(sampler)
            metrics = {
                "verdicts_per_s": (paired["verdicts_per_s"], "1/s"),
                "verdict_p50_ms": (paired["verdict_p50_ms"], "ms"),
                "verdict_tail_ms": (paired["verdict_tail_ms"], "ms"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_ratio": (out["ok"] / out["attempted"], "1"),
            }
            record = {
                "passes": passes,
                "slots": paired["slots"],
                "tail_percentile": paired["tail_percentile"],
                "error_ratio": out["error_ratio"],
                "raw": {k: raw[k] for k in ("verdicts_per_s", "verdict_p50_ms", "verdict_tail_ms")},
                "setup_probes_s": setup,
                "ref": ref.summary(),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_no_repeats(digests)
    attempted = sum(s.attempted for s in samplers)
    outcomes = [outcome(s) for s in samplers]
    failed = sum(o["failed"] for o in outcomes)
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed,
        "status": outcomes[-1]["status"] if not trace else [o["status"] for o in outcomes],
        "known_defects": outcomes[-1]["known_defects"],
        "inputs_hashed": len(digests),
        "host": host_info(),
    })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def print_summary(name, res) -> None:
    rec = res["record"]
    n_slots = rec.get("slots")
    for metric, (value, unit) in res["metrics"].items():
        note = ""
        if metric.startswith("verdict"):
            note = f"{n_slots} slots, {rec['attempted']} ops"
            if metric == "verdict_tail_ms":
                note += f", p{rec['tail_percentile']:.1f}"
        elif metric == "setup_s":
            note = f"median of {len(rec['setup_probes_s'])} probes"
        elif metric == "ok_ratio":
            note = f"{rec['attempted']} ops; error_ratio {rec['error_ratio']:.6f}"
        print(f"{name:15s} {metric:45s} {value:14.6g} {unit:9s} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    benchenv.load_specmax()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    for n, res in results.items():
        print_summary(n, res)
    for n, res in results.items():
        print(json.dumps(res["record"], sort_keys=True))
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{n}/{m}" if prefix else m): {"value": v, "unit": u}
                    for n, r in results.items() for m, (v, u) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
