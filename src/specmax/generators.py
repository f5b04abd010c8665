"""Convex generating functions on C and their derived sets.

A generator f is a proper convex lsc function on C with access to values,
gradients, a real 2x2 Hessian form where twice differentiable, and a
subdifferential set, a :class:`ConvexSet2D`: every finite one is the convex
hull of a vertex loop (a point is one vertex, a segment two).  Two
pointwise regimes drive the calculus downstream:

* smooth regime: f is quadratic, or C^2 with positive definite Hessian;
* corner regime: the real linear span of the subdifferential is all of C
  (only possible at nondifferentiable points).

Complex inner-product inequalities throughout this module are read on the
real part Re(conj(a) * b); an order on C itself would be meaningless and
the real-part reading is the one under which all the identities close.

The plane geometry multiplies out the parts of Python complex numbers:
boxing a numpy scalar costs about 1 us, several times the arithmetic, and
numpy's array kernels may fuse a multiply and an add, which moves the last
ulp.  The results equal those of ``np.real(np.conj(a) * b)`` bit for bit,
signed zeros and overflow included; only the sign bit of a NaN may differ.

Generators are immutable after construction; user-supplied hooks must be
pure, under which contract everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConvexSet2D",
    "Generator",
    "UnsupportedGenerator",
    "builtin",
    "make_generator",
    "radius_transform",
    "re_cip",
    "condition_check",
    "q_set",
    "COND14",
    "COND15",
    "NEITHER",
]

COND14 = "cond14"
COND15 = "cond15"
NEITHER = "neither"

# pointwise smoothness tags
TAG_QUADRATIC = "quadratic"
TAG_C2PD = "c2-positive-definite"
TAG_FULLSPAN = "nonsmooth-fullspan"
TAG_OTHER = "other"

POLYGON_TOL = 1e-14  # absolute: the polygon test of a loop of three or more vertices


class UnsupportedGenerator(ValueError):
    """Raised when a generator lies outside the supported calculus."""


def re_cip(a: complex, b: complex) -> float:
    """Real inner product Re(conj(a) * b) identifying C with R^2."""
    a, b = complex(a), complex(b)
    return a.real * b.real + a.imag * b.imag


def _as_vec(z: complex) -> np.ndarray:
    return np.array([complex(z).real, complex(z).imag])


@dataclass(frozen=True)
class ConvexSet2D:
    """Closed convex subset of C in one of a few exact representations.

    kinds: polygon (the convex hull of a vertex loop: one vertex is a point,
    two a segment), halfplane {z : Re(conj(normal) z) <= offset}, plane,
    disk (center + radius).  Distance and support queries are exact for the
    finite representations.
    """

    kind: str
    data: tuple = field(default_factory=tuple)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def point(z: complex) -> "ConvexSet2D":
        return ConvexSet2D("polygon", (complex(z),))

    @staticmethod
    def segment(a: complex, b: complex) -> "ConvexSet2D":
        return ConvexSet2D("polygon", (complex(a), complex(b)))

    @staticmethod
    def polygon(vertices) -> "ConvexSet2D":
        return ConvexSet2D("polygon", tuple(complex(v) for v in vertices))

    @staticmethod
    def halfplane(normal: complex, offset: float) -> "ConvexSet2D":
        if normal == 0:
            raise ValueError("halfplane needs a nonzero normal")
        return ConvexSet2D("halfplane", (complex(normal), float(offset)))

    @staticmethod
    def plane() -> "ConvexSet2D":
        return ConvexSet2D("plane")

    @staticmethod
    def disk(radius: float, center: complex = 0j) -> "ConvexSet2D":
        if radius < 0:
            raise ValueError("disk radius must be nonnegative")
        return ConvexSet2D("disk", (complex(center), float(radius)))

    # -- queries -------------------------------------------------------------

    @property
    def is_singleton(self) -> bool:
        """One vertex, or two equal ones; a longer loop is never read as a point."""
        vs = self.data
        return self.kind == "polygon" and (len(vs) == 1 or len(vs) == 2 and vs[0] == vs[1])

    def the_point(self) -> complex:
        if not self.is_singleton:
            raise ValueError("set is not a singleton")
        return self.data[0]

    def distance(self, z: complex) -> float:
        z = complex(z)
        if self.kind == "polygon":
            vs = self.data
            if len(vs) == 1:
                return abs(z - vs[0])
            if len(vs) == 2:
                return _segment_distance(z, vs[0], vs[1])
            if _polygon_contains(z, vs):
                return 0.0
            return min(
                _segment_distance(z, vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
            )
        if self.kind == "halfplane":
            normal, offset = self.data
            return max(0.0, (re_cip(normal, z) - offset) / abs(normal))
        if self.kind == "plane":
            return 0.0
        if self.kind == "disk":
            center, radius = self.data
            return max(0.0, abs(z - center) - radius)
        raise ValueError(f"unknown set kind {self.kind!r}")

    def support(self, direction: complex) -> float:
        """sup over the set of Re(conj(direction) * z)."""
        d = complex(direction)
        if self.kind == "polygon":
            return max(re_cip(d, v) for v in self.data)
        if self.kind == "disk":
            center, radius = self.data
            return re_cip(d, center) + radius * abs(d)
        if self.kind == "halfplane":
            normal, offset = self.data
            t = normal.real * d.real + normal.imag * d.imag  # Re(conj(normal) * d)
            if abs(normal.real * d.imag - normal.imag * d.real) > 0 or t < 0:
                return math.inf  # finite iff conj(normal) * d = t >= 0
            return (t / abs(normal) ** 2) * offset if offset != 0 else 0.0
        if self.kind == "plane":
            return 0.0 if d == 0 else math.inf
        raise ValueError(f"unknown set kind {self.kind!r}")

    def scaled(self, t: float) -> "ConvexSet2D":
        """Image of the set under multiplication by the real scalar t >= 0."""
        if t < 0:
            raise ValueError("scaling factor must be nonnegative")
        if t == 0:
            return ConvexSet2D.point(0j)
        if self.kind == "polygon":
            vs = self.data
            if len(vs) == 1:  # every membership query scales a point per active block
                return ConvexSet2D("polygon", (complex(t * vs[0]),))
            return ConvexSet2D("polygon", tuple([complex(t * v) for v in vs]))
        if self.kind == "halfplane":
            normal, offset = self.data
            return ConvexSet2D.halfplane(normal, t * offset)
        if self.kind == "plane":
            return self
        if self.kind == "disk":
            center, radius = self.data
            return ConvexSet2D.disk(t * radius, t * center)
        raise ValueError(f"unknown set kind {self.kind!r}")

    def scale_interval(self, z: complex, tol: float = 0.0) -> tuple:
        """Interval (lo, hi) of the scales t >= 0 with z in t * set, each
        bound relaxed by tol; lo > hi when there is none.  It is an interval
        because {(z, t) : z in t * set} is a convex cone.  Each supporting
        halfplane Re(conj(a) z) <= t * support(a) of a polygon, or a
        halfplane itself, bounds t linearly; a disk bounds it by the
        quadratic |z - t * center| <= t * radius + tol.

        The normals of a polygon are a = k * e for every edge unit e and k
        in (1, -1, i, -i), or the axes when all its vertices are equal.
        Their supports come from the two projections x_v = Re(conj(e) v) and
        y_v = Im(conj(e) v) of each vertex, one pass per edge: max x, -min x,
        max y and -min y, equal to the support of each a up to the sign of a
        zero, which no bound reads.  Re(conj(a) z) is taken from a itself:
        the sign of a zero bound follows its parts.
        """
        z = complex(z)
        if self.kind == "disk":
            return _disk_scales(z, *self.data, tol)
        if self.kind == "halfplane":
            normal, offset = self.data
            bounds = [(re_cip(normal / abs(normal), z), offset / abs(normal))]
        elif self.kind == "polygon":
            # along and across every edge, both signs (so the orientation of
            # the loop does not matter), or the axes for a point
            vs = self.data
            edges = [(b - a) / abs(b - a) for a, b in zip(vs, vs[1:] + vs[:1]) if a != b]
            normals = [k * e for e in edges for k in (1, -1, 1j, -1j)] or [1, -1, 1j, -1j]
            supports = []
            for e in edges or [1]:
                xs = [e.real * v.real + e.imag * v.imag for v in vs]
                ys = [e.real * v.imag - e.imag * v.real for v in vs]
                supports += [max(xs), -min(xs), max(ys), -min(ys)]
            bounds = [(a.real * z.real + a.imag * z.imag, s)  # Re(conj(a) z), support(a)
                      for a, s in zip(normals, supports)]
        else:
            raise UnsupportedGenerator(f"no scale interval for set kind {self.kind!r}")
        lo, hi = 0.0, math.inf
        for az, s in bounds:
            r = az - tol  # the bound reads t * s >= r
            if s > 0:
                lo = max(lo, r / s)
            elif s < 0:
                hi = min(hi, r / s)
            elif r > 0:
                return math.inf, 0.0
        return lo, hi

    def rspan_is_plane(self) -> bool:
        """Whether the real linear span {t*z : t real, z in set} is all of C.

        The span is a union of lines through the origin in the directions of
        the set, so it covers the plane exactly when those directions fill a
        closed half circle: a bounded set off a line must contain 0 other
        than as an extreme point; halfplanes always qualify.
        """
        if self.kind == "polygon":
            return _loop_surrounds_origin(self.data) and 0 not in self.data
        if self.kind == "plane":
            return True
        if self.kind == "disk":
            center, radius = self.data
            return radius > 0 and abs(center) <= radius
        if self.kind == "halfplane":
            return True
        raise ValueError(f"unknown set kind {self.kind!r}")


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    if a == b:
        return abs(z - a)
    t = re_cip(b - a, z - a) / abs(b - a) ** 2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * (b - a)))


def _disk_scales(z: complex, center: complex, radius: float, tol: float) -> tuple:
    """Scales t >= 0 with |z - t * center| <= t * radius + tol.  Both sides
    are nonnegative, so squaring gives a t^2 + b t + c <= 0; where |z| or
    tol would overflow it, the scales of z / s and tol / s, times s."""
    s = max(abs(z), tol)
    if s > 1e150:
        lo, hi = _disk_scales(z / s, center, radius, tol / s)
        return lo * s, hi * s
    a = abs(center) ** 2 - radius ** 2
    b = -2.0 * (re_cip(center, z) + radius * tol)
    c = abs(z) ** 2 - tol ** 2
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return math.inf, 0.0
    root = math.sqrt(disc)
    if a > 0:  # origin outside the disk: between the roots
        return max(0.0, (-b - root) / (2 * a)), (-b + root) / (2 * a)
    if c <= 0:  # z within tol of the origin, which every scale reaches
        return 0.0, math.inf
    if root <= b:
        return math.inf, 0.0
    return 2 * c / (root - b), math.inf  # the positive root, stably


def _edge_crosses(z: complex, vertices) -> list:
    """Signed areas Im(conj(b - a) * (z - a)) over the edges a -> b of a loop."""
    return [(b.real - a.real) * (z.imag - a.imag) - (b.imag - a.imag) * (z.real - a.real)
            for a, b in zip(vertices, vertices[1:] + vertices[:1])]


def _polygon_contains(z: complex, vertices) -> bool:
    """Point-in-convex-polygon via signed areas (a loop of three or more
    vertices).  A loop whose vertices lie exactly on one line (its signed
    areas at its own first vertex all vanish) is read as the segment between
    its extreme vertices: a point close to that line passes the sign test
    wherever along the line it lies."""
    signs = _edge_crosses(z, vertices)
    if not (all(s >= -POLYGON_TOL for s in signs) or all(s <= POLYGON_TOL for s in signs)):
        return False
    v0 = vertices[0]
    for a, b in zip(vertices[1:-1], vertices[2:]):  # the first and last edges meet v0
        if (b.real - a.real) * (v0.imag - a.imag) - (b.imag - a.imag) * (v0.real - a.real):
            return True
    ends = sorted(vertices, key=lambda v: (v.real, v.imag))
    return _segment_distance(z, ends[0], ends[-1]) <= POLYGON_TOL


def _loop_surrounds_origin(vertices) -> bool:
    """Whether a loop has three or more vertices, not all on one line
    through 0, and holds 0: a point or a segment never spans the plane."""
    return (len(vertices) > 2 and any(_edge_crosses(0j, vertices))
            and _polygon_contains(0j, vertices))


@dataclass(frozen=True)
class Generator:
    """Convex generating function with pointwise derivative/subgradient access.

    ``grad_fn``/``hess_fn`` return None where the object does not exist;
    ``tag_fn`` classifies each point into one of the smoothness regimes.
    """

    name: str
    value: Callable
    grad_fn: Callable
    hess_fn: Callable
    subdiff_fn: Callable
    tag_fn: Callable

    def grad(self, z: complex) -> Optional[complex]:
        return self.grad_fn(complex(z))

    def hess(self, z: complex) -> Optional[np.ndarray]:
        return self.hess_fn(complex(z))

    def subdiff(self, z: complex) -> ConvexSet2D:
        return self.subdiff_fn(complex(z))

    def tag(self, z: complex) -> str:
        return self.tag_fn(complex(z))

    def dirderiv(self, z: complex, d: complex) -> float:
        """One-sided directional derivative f'(z; d)."""
        g = self.grad(z)
        if g is not None:
            return re_cip(g, d)
        return self.subdiff(z).support(d)

    def second(self, z: complex, d: complex) -> float:
        """Quadratic form f''(z; d, d) of the real Hessian."""
        H = self.hess(z)
        if H is None:
            raise UnsupportedGenerator(f"{self.name} is not twice differentiable at {z}")
        v = _as_vec(d)
        return float(v @ H @ v)

    def eta(self, z: complex) -> float:
        """Curvature f''(z; i*grad, i*grad) orthogonal to the gradient."""
        g = self.grad(z)
        if g is None:
            raise UnsupportedGenerator(f"{self.name} is not differentiable at {z}")
        return self.second(z, 1j * g)

    def __repr__(self) -> str:
        return f"Generator({self.name!r})"


def make_generator(name, value, grad=None, hess=None, subdiff=None, tag=None) -> Generator:
    """Assemble a generator from user hooks, with sensible fallbacks.

    Missing subdifferentials fall back to the gradient singleton; a missing
    tag falls back to classifying from the available pieces.  ``value`` is
    what :func:`specsub.spectral_max` evaluates: it is first called once on
    the complex array of all cluster means and must then act elementwise;
    a scalar-only hook, which raises TypeError or ValueError on an array or
    answers with another shape, is called once per mean instead.
    """
    grad = grad or (lambda z: None)

    def default_subdiff(z):
        g = grad(z)
        if g is None:
            raise UnsupportedGenerator(f"{name}: no subdifferential available at {z}")
        return ConvexSet2D.point(g)

    hess = hess or (lambda z: None)
    subdiff = subdiff or default_subdiff

    def default_tag(z):
        H = hess(z)
        if H is not None and grad(z) is not None:
            evals = np.linalg.eigvalsh(np.asarray(H, dtype=float))
            if evals.min() > 0:
                return TAG_C2PD
            return TAG_OTHER
        if grad(z) is None and subdiff(z).rspan_is_plane():
            return TAG_FULLSPAN
        return TAG_OTHER

    return Generator(name, value, grad, hess, subdiff, tag or default_tag)


# -- builtins ----------------------------------------------------------------


def _abscissa() -> Generator:
    zero_form = np.zeros((2, 2))
    return Generator(
        "abscissa",
        value=lambda z: z.real,
        grad_fn=lambda z: 1.0 + 0j,
        hess_fn=lambda z: zero_form,
        subdiff_fn=lambda z: ConvexSet2D.point(1.0 + 0j),
        tag_fn=lambda z: TAG_QUADRATIC,
    )


def _modulus_squared(name: str, rho: float) -> Generator:
    """|z|^2 / (2 rho): radius2 at rho = 1, the radius's image at rho > 0."""
    form = np.eye(2) / rho

    def value(z):
        a = abs(z)
        return 0.5 * (a * (a / rho))  # finite where a <= rho; radius2 overflows to inf

    def grad(z):
        return complex(z.real / rho, z.imag / rho)  # part by part: z's bits at rho = 1

    return Generator(
        name,
        value=value,
        grad_fn=grad,
        hess_fn=lambda z: form,
        subdiff_fn=lambda z: ConvexSet2D.point(grad(z)),
        tag_fn=lambda z: TAG_QUADRATIC,
    )


def _radius() -> Generator:
    def grad(z):
        return z / abs(z) if z != 0 else None

    def hess(z):
        if z == 0:
            return None
        # real Hessian of |z|: (I - u u^T) / |z| with u the unit radial vector
        u = _as_vec(z / abs(z))
        return (np.eye(2) - np.outer(u, u)) / abs(z)

    def subdiff(z):
        if z == 0:
            return ConvexSet2D.disk(1.0)
        return ConvexSet2D.point(z / abs(z))

    def tag(z):
        # The origin is the corner of the modulus: the raw span test on the
        # unit disk is full-plane, but the calculus reaches it through the
        # corner block of radius_transform, so it is left unclassified here.
        return TAG_OTHER

    return Generator("radius", value=abs, grad_fn=grad, hess_fn=hess,
                     subdiff_fn=subdiff, tag_fn=tag)


def _ell1() -> Generator:
    zero_form = np.zeros((2, 2))

    def sgn(x):
        return math.copysign(1.0, x) if x != 0 else 0.0

    def grad(z):
        if z.real == 0 or z.imag == 0:
            return None
        return complex(sgn(z.real), sgn(z.imag))

    def hess(z):
        return zero_form if (z.real != 0 and z.imag != 0) else None

    def subdiff(z):
        if z.real != 0 and z.imag != 0:
            return ConvexSet2D.point(complex(sgn(z.real), sgn(z.imag)))
        if z.real == 0 and z.imag == 0:
            return ConvexSet2D.polygon([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        if z.real == 0:
            s = sgn(z.imag)
            return ConvexSet2D.segment(complex(-1, s), complex(1, s))
        s = sgn(z.real)
        return ConvexSet2D.segment(complex(s, -1), complex(s, 1))

    def tag(z):
        if z == 0:
            return TAG_FULLSPAN
        return TAG_OTHER

    return Generator(
        "ell1",
        value=lambda z: abs(z.real) + abs(z.imag),
        grad_fn=grad,
        hess_fn=hess,
        subdiff_fn=subdiff,
        tag_fn=tag,
    )


# built once: the calculus recognizes the spectral radius by identity
_BUILTINS = {g.name: g for g in
             (_abscissa(), _radius(), _modulus_squared("radius2", 1.0), _ell1())}


def builtin(name: str) -> Generator:
    """One of the stock generators (one object each): abscissa, radius, radius2, ell1."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown generator {name!r}; choose from {sorted(_BUILTINS)}"
        ) from None


_RADIUS = _BUILTINS["radius"]
# the modulus at the origin as a corner-regime generator; its subdifferential
# is the unit disk only at 0, so it stands for the radius at a nilpotent base
_NILPOTENT_ORIGIN = make_generator(
    "radius at the nilpotent origin", abs,
    subdiff=lambda z: ConvexSet2D.disk(1.0), tag=lambda z: TAG_FULLSPAN)


def radius_transform(f, eigenvalues) -> Generator:
    """The generator the calculus runs on for f over the given spectrum.

    Every generator but the builtin radius (recognized by identity, not by
    name) maps to itself.  At rho = max |lambda| > 0 the spectral radius is
    sqrt(2 rho phi_g) for g(z) = |z|^2 / (2 rho), an increasing transform
    with slope 1 at the base, so the two share their regular subgradients,
    recession directions and subderivative there, in the radius's own units.
    At rho = 0 it maps to the corner block of the modulus at the origin:
    the unit disk as subdifferential, so q_set is the whole plane.
    """
    if f is not _RADIUS:
        return f
    rho = max((abs(z) for z in eigenvalues), default=0.0)
    if rho > 0:
        return _modulus_squared("radius", rho)
    return _NILPOTENT_ORIGIN


# -- condition classification and derived sets --------------------------------


def condition_check(f: Generator, lam: complex) -> str:
    """Classify f at lam into the smooth regime, the corner regime, or neither.

    The two regimes are mutually exclusive: the corner regime needs a
    full-span subdifferential, which cannot happen at points of
    differentiability.
    """
    tag = f.tag(lam)
    if tag in (TAG_QUADRATIC, TAG_C2PD):
        return COND14
    if tag == TAG_FULLSPAN:
        return COND15
    return NEITHER


def q_set(S: ConvexSet2D) -> ConvexSet2D:
    """The cone -cone(S^2) + i * rspan(S^2) built from a subdifferential
    S = subdiff(f)(lam).

    For a singleton {g} this is the exact halfplane
    {theta : Re(conj(g^2) theta) <= 0}; fat subdifferentials whose squared
    generators cover all directions give the whole plane.  Other shapes are
    rejected: there is no finite recipe for them here.
    """
    if S.is_singleton:
        g = S.the_point()
        if g == 0:
            raise ValueError("q_set needs a subdifferential different from {0}")
        return ConvexSet2D.halfplane(g * g, 0.0)
    if S.kind == "polygon" and _loop_surrounds_origin(S.data):
        return ConvexSet2D.plane()
    if S.kind == "disk":
        center, radius = S.data
        if abs(center) < radius:
            return ConvexSet2D.plane()
    raise UnsupportedGenerator(
        f"no exact squared-generator representation for subdifferential {S.kind!r}"
    )
