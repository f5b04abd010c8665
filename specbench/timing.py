"""Drift-cancelling timing: every chunk of ops is bracketed by a fixed
reference kernel, and each op is reported relative to the reference.

The host switches between a fast and a slow state that last seconds; raw
rates swing by about 20% between runs.  A chunk is about ``CHUNK_S`` of ops,
or one op when an op takes longer, so the two reference timings around it
see the same host state as the ops inside.

Each timed kernel call follows one untimed call, so it meets the caches as
the kernel itself left them, not as the ops did: a cold kernel read about
19% faster after membership queries than after a plain Python loop, which
would let a change in what specmax leaves in cache move every paired
figure.  ``selfcheck.py`` checks that the warm kernel reads the same after
specmax ops as after a fixed loop.

Each workload names the kernel that slows down like its ops.  In a
four-minute interleaved measurement on the reference machine (kernels timed
cold, windows of 4 s, ops normalised per op), the coefficient of variation
of op time over reference time was:
- spectral_max: lapack 1.8%, python 4.4% (raw 10.5%);
- membership queries: lapack 2.1%, python 6.0% (raw 11.7%);
- Dp_membership: lapack 2.8%, python 1.1% (raw 10.7%).
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

_rng = np.random.default_rng(20151111)
_MATS = [(_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))) for n in (3, 4, 5, 6)]
_LS_A = _rng.standard_normal((36, 9)) + 1j * _rng.standard_normal((36, 9))
_LS_B = _rng.standard_normal(36) + 1j * _rng.standard_normal(36)
_PTS = [complex(a, b) for a, b in _rng.standard_normal((16, 2))]
_VEC = _rng.standard_normal(4)


def lapack_kernel() -> None:
    """About 1 ms of small complex eigvals, np.poly and lstsq calls: many
    tiny LAPACK calls driven from Python, like the evaluator."""
    for _ in range(2):
        for A in _MATS:
            np.linalg.eigvals(A)
            np.poly(A)
        np.linalg.lstsq(_LS_A, _LS_B, rcond=None)


def python_kernel() -> None:
    """About 1 ms of complex arithmetic in Python loops, numpy ufuncs on
    scalars and on 4-element arrays: like the weight search and its
    fallback, which call no LAPACK."""
    acc = 0.0
    for a in _PTS:
        for b in _PTS:
            acc += abs(a - b)
    for a, b in zip(_PTS, _PTS[1:]):
        for _ in range(6):
            acc += float(np.imag(np.conj(b - a) * a))
    for _ in range(60):
        x = np.exp(_VEC - _VEC.max())
        x /= x.sum()
        acc += float(x.copy()[0])


KERNELS = {"lapack": lapack_kernel, "python": python_kernel}
# the warm kernels' median times on the reference machine (see README.md)
NOMINAL_S = {"lapack": 0.00115, "python": 0.00079}
CHUNK_S = 0.01


class Reference:
    """One of the kernels above.  They use no specmax code, so they never
    change between versions.  ``measure()`` returns the warm kernel's time
    over its ``NOMINAL_S``, so an op time divided by it is the op time on
    the reference machine."""

    def __init__(self, kernel: str):
        self.kernel, self.fn, self.nominal_s = kernel, KERNELS[kernel], NOMINAL_S[kernel]
        self.times = array("d")

    def measure(self) -> float:
        self.fn()
        t0 = time.perf_counter()
        self.fn()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt / self.nominal_s

    def summary(self) -> dict:
        return {"kernel": self.kernel, "median_ms": 1000 * statistics.median(self.times),
                "best_ms": 1000 * min(self.times), "count": len(self.times),
                "nominal_ms": 1000 * self.nominal_s}


class Sampler:
    """Runs passes of ops in reference-bracketed chunks.

    The 64-bit hash of every op's input goes to ``digests``; see
    :func:`check_no_repeats`.

    Per slot it keeps the paired op times (op time over the mean of the two
    reference values around its chunk, so seconds on the reference machine)
    and the raw op times.
    """

    def __init__(self, n_slots: int, digests: array, reference: Reference):
        self.reference = reference
        # compact storage, so the harness adds little to the peak RSS it reports
        self.ratios = [array("d") for _ in range(n_slots)]
        self.raw = [array("d") for _ in range(n_slots)]
        self.status = {}
        self.attempted = 0
        self.digests = digests
        self.kinds = {}
        self.before_op = None  # before_op(op), just before the timed call
        self.after_op = None  # after_op(op, status, ref_mean), outside the timing

    def run(self, make_pass, passes, seconds=None, min_passes=1, between=None):
        """Run ``make_pass(r)`` for r in ``passes``.  With ``seconds``, stop at
        the first chunk boundary after that much measuring, once
        ``min_passes`` passes are complete.  ``between(measured_s)`` is
        called between chunks; when it returns True it did other work, whose
        time is not counted and which calls for a fresh reference.
        Returns the number of complete passes."""
        done = 0
        t_begin = time.perf_counter()
        paused = 0.0
        ref_prev = self.reference.measure()
        for r in passes:
            ops = make_pass(r)
            self.digests.extend(op.digest for op in ops)
            k = 0
            while k < len(ops):
                chunk = []
                spent = 0.0
                while k < len(ops) and spent < CHUNK_S:
                    op = ops[k]
                    k += 1
                    if self.before_op is not None:
                        self.before_op(op)
                    t0 = time.perf_counter()
                    try:
                        res = op.call()
                        err = None
                    except Exception as exc:  # counted as a failed op, never fatal
                        res, err = None, exc
                    dt = time.perf_counter() - t0
                    spent += dt
                    chunk.append((op, dt, res, err))
                ref_next = self.reference.measure()
                ref_mean = 0.5 * (ref_prev + ref_next)
                for op, dt, res, err in chunk:
                    self.attempted += 1
                    self.ratios[op.slot].append(dt / ref_mean)
                    self.raw[op.slot].append(dt)
                    st = f"raised:{type(err).__name__}" if err else op.check(res)
                    self.status[st] = self.status.get(st, 0) + 1
                    self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
                    if self.after_op is not None:
                        self.after_op(op, st, ref_mean)
                ref_prev = ref_next
                now = time.perf_counter()
                if between is not None and between(now - t_begin - paused):
                    paused += time.perf_counter() - now
                    ref_prev = self.reference.measure()
                measured = time.perf_counter() - t_begin - paused
                if seconds is not None and done >= min_passes and measured >= seconds:
                    return done
            done += 1
            if seconds is not None and done >= min_passes and \
                    time.perf_counter() - t_begin - paused >= seconds:
                return done
        return done


def check_no_repeats(digests: array) -> None:
    """Fail the run when an input hash repeats: best-of and median
    estimators must never reward caching across identical calls."""
    hashes = np.frombuffer(digests, dtype=np.uint64)
    if np.unique(hashes).size != hashes.size:
        raise RuntimeError(f"{hashes.size - np.unique(hashes).size} op inputs repeat within the run")


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with at least 10
    slots beyond it (the median when there are fewer than 21 slots)."""
    return max(n - 11, (n - 1) // 2)


def slot_stats(per_slot: list) -> dict:
    """Throughput, median and tail over slot costs, where a slot's cost is
    the median of its samples over passes."""
    costs = sorted(statistics.median(s) for s in per_slot if s)
    n = len(costs)
    i_tail = tail_index(n)
    return {
        "verdicts_per_s": n / sum(costs),
        "verdict_p50_ms": 1000 * statistics.median(costs),
        "verdict_tail_ms": 1000 * costs[i_tail],
        "tail_percentile": 100.0 * (i_tail + 1) / n,
        "slots": n,
    }
