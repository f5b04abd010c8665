"""Spans around calls into the specmax layers, installed from outside.

``Tracer.install`` replaces each listed function in every ``specmax``
namespace that binds the same object (``oracles`` binds
``specsub.spectral_max`` by name, so patching one module would miss calls),
and methods on their class; ``remove`` puts the originals back.  Only the
traced run installs anything: untraced runs check with ``assert_unwrapped``
that every listed attribute is still the original object.

Spans live in memory as ``[name, start, end, parent, op, child_time]`` and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer functions: calls and self time per op
SPANNED = (
    "jordan.char_poly",
    "cpoly.roots",
    "cpoly.active_set",
    "specsub.spectral_max",
    "specsub.spectral_active",
    "oracles.subgradient_inequality_suite",
    "cli.main",
    "specsub.W_extract",
    "specsub.rsd_membership",
    "specsub.rsd_recession_membership",
    "specsub.radius_rsd_membership",
    "specsub.chain_rule_membership",
    "specsub.regularity_verdict",
    "specsub.derogatory_witness",
    "specsub.rsd_sample",
    "jordan.spec_from_json",
    "jordan.active_factor",
    "jordan.R_matrix",
    "polysub.Dp_membership",
    "polysub.rsd_f_membership",
    "polysub.subderivative_f",
    "factorspace.F_deriv0_inv",
    "factorspace.T_apply",
)
# called too often for a span each: calls only
COUNTED = (
    "generators.ConvexSet2D.distance",
    "polysub.optimize.minimize",
)
MARK = "__specbench_trace__"


def resolve(dotted: str):
    """(owner, attribute, object) for a dotted name below ``specmax``, or
    None when a later version no longer has it."""
    head, *rest = dotted.split(".")
    try:
        owner = importlib.import_module(f"specmax.{head}")
    except ImportError:
        return None
    for attr in rest[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = getattr(owner, rest[-1], None)
    return None if obj is None else (owner, rest[-1], obj)


def _specmax_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "specmax" or name.startswith("specmax."))]


def snapshot() -> dict:
    """The listed objects as they are now, to check against later."""
    out = {}
    for name in SPANNED + COUNTED:
        hit = resolve(name)
        if hit is not None:
            out[name] = hit[2]
    return out


def assert_unwrapped(snap: dict) -> None:
    """Every listed attribute is the object ``snapshot`` saw, and no specmax
    namespace binds a wrapper."""
    for name, obj in snap.items():
        hit = resolve(name)
        if hit is None or hit[2] is not obj or hasattr(hit[2], MARK):
            raise RuntimeError(f"{name} is wrapped or replaced in an untraced run")
    for m in _specmax_modules():
        for key, val in vars(m).items():
            if hasattr(val, MARK):
                raise RuntimeError(f"{m.__name__}.{key} is a trace wrapper in an untraced run")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for name in COUNTED}
        self.op = -1
        self.observers = {}
        self._restore = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack
        observers = self.observers

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            obs = observers.get(name)
            if obs is not None:
                obs(args, out, span)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self) -> None:
        modules = _specmax_modules()
        for name in SPANNED + COUNTED:
            hit = resolve(name)
            if hit is None:
                continue
            owner, attr, obj = hit
            wrapper = (self._spanned if name in SPANNED else self._counted)(name, obj)
            targets = {(id(owner), attr): owner}
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is obj:
                        targets[(id(m), key)] = m
            for (_, key), holder in targets.items():
                self._restore.append((holder, key, getattr(holder, key)))
                setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, obj in reversed(self._restore):
            setattr(holder, key, obj)
        self._restore.clear()

    # -- summaries --------------------------------------------------------------

    def per_function(self, op_scale: dict) -> dict:
        """{name: (calls, self seconds)}, each span's self time multiplied
        by the pairing scale of its op."""
        out = {name: [0, 0.0] for name in SPANNED}
        for name, t0, t1, _, op, child in self.spans:
            acc = out[name]
            acc[0] += 1
            acc[1] += (t1 - t0 - child) * op_scale.get(op, 1.0)
        for name, n in self.counts.items():
            out[name] = [n, 0.0]
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                       "counts": self.counts}, fh)
