"""Real Möbius automorphisms of the upper half-plane and maps to the disk."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .extreal import INF, Arc, ArcSet, arc_ends, normalize
from .util import points, quotient, shaped


@dataclass(frozen=True)
class HalfPlaneAuto:
    """z ↦ (az+b)/(cz+d) with real coefficients and ad−bc > 0.

    Coefficients are normalized to determinant 1, which keeps composition
    numerically stable.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det <= 0:
            raise ValueError("ad - bc must be positive for a half-plane automorphism")
        s = math.sqrt(det)
        for name in "abcd":
            object.__setattr__(self, name, getattr(self, name) / s)

    @staticmethod
    def identity() -> "HalfPlaneAuto":
        return HalfPlaneAuto(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def translation(t: float) -> "HalfPlaneAuto":
        return HalfPlaneAuto(1.0, t, 0.0, 1.0)

    @staticmethod
    def scaling(s: float) -> "HalfPlaneAuto":
        if s <= 0:
            raise ValueError("scaling factor must be positive")
        return HalfPlaneAuto(s, 0.0, 0.0, 1.0)

    @staticmethod
    def inversion() -> "HalfPlaneAuto":
        # z ↦ -1/z
        return HalfPlaneAuto(0.0, -1.0, 1.0, 0.0)

    def __call__(self, z):
        """At a point, or each point of an ndarray, by :class:`DiskMap`'s pass:
        complex at a complex z, real at a real one (∞ = ``INF``); the pole → ∞."""
        w = _mobius(z, self.a, self.b, self.c, self.d, INF if self.c == 0 else self.a / self.c)
        if np.iscomplexobj(z):
            return w
        return w.real if isinstance(z, np.ndarray) else float(w.real)

    def inverse(self) -> "HalfPlaneAuto":
        return HalfPlaneAuto(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "HalfPlaneAuto") -> "HalfPlaneAuto":
        """self ∘ other."""
        return HalfPlaneAuto(self.a * other.a + self.b * other.c,
                             self.a * other.b + self.b * other.d,
                             self.c * other.a + self.d * other.c,
                             self.c * other.b + self.d * other.d)


def pullback_arcset(phi: HalfPlaneAuto, o: ArcSet) -> ArcSet:
    """φ⁻¹(O) as a canonical ArcSet.

    Boundary automorphisms preserve the orientation of the circle, so each
    arc (b, a) pulls back to the arc (φ⁻¹(b), φ⁻¹(a)); the wrap convention
    encodes the image correctly even when the arc moves across ∞.
    """
    if o.full or o.is_empty:
        return o
    b, a = phi.inverse()(np.array(arc_ends(o.arcs))).tolist()
    return normalize([Arc(y, x, arc.puncture) for y, x, arc in zip(b, a, o.arcs)])


@dataclass(frozen=True)
class DiskMap:
    """Complex Möbius map w ↦ (aw+b)/(cw+d), used for C⁺ → disk transports.

    Both directions take a point or an ndarray of points, where ∞ is ±inf
    (inf+0j in a complex array); the pole goes to the ∞ marker."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __call__(self, z):
        return _mobius(z, self.a, self.b, self.c, self.d,
                       INF if self.c == 0 else self.a / self.c)

    def inverse_apply(self, w):
        return _mobius(w, self.d, -self.b, -self.c, self.a,
                       INF if self.c == 0 else -self.d / self.c)


def _mobius(z, a, b, c, d, at_inf):
    """(az + b)/(cz + d) at z, or at each point of an ndarray z in one pass
    (a scalar z is the pass on one point, so the two agree bit for bit), in
    complex arithmetic, so that a point of the circle maps to a complex;
    ``at_inf`` is the image of ∞, the pole maps to the ∞ marker."""
    w, inf = points(np.asarray(z, dtype=complex))
    out = quotient(w * a + b, w * c + d)[0]
    if inf is not None:
        out[inf] = at_inf  # even where d = 0
    return shaped(out, z)


def cayley(zeta: complex) -> DiskMap:
    """The map z ↦ (z−ζ)/(z−ζ̄) of C⁺ onto the open unit disk.

    ζ goes to 0, the boundary circle R ∪ {∞} goes to the unit circle, and
    ∞ goes to 1 (so the inverse is defined off w = 1).
    """
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise ValueError("cayley base point needs Im ζ > 0")
    return DiskMap(1.0 + 0j, -zeta, 1.0 + 0j, -zeta.conjugate())


def disk_target_map(alpha: complex, beta: complex) -> DiskMap:
    """Möbius m with m(C⁺) = disk, m(0) = α and m(∞) = β (α, β unimodular).

    m(w) = β (w − p)/(w − p̄) with p = e^{iθ₀}, θ₀ ∈ (0, π) solving
    e^{2iθ₀} = α/β.  The radius of p is a free parameter fixed to 1.
    """
    alpha, beta = complex(alpha), complex(beta)
    for v, name in ((alpha, "alpha"), (beta, "beta")):
        if not abs(abs(v) - 1.0) <= 1e-9:
            raise ValueError(f"{name} must be unimodular")
    if abs(alpha - beta) < 1e-12:
        raise ValueError("alpha and beta must differ")
    arg = cmath.phase(alpha / beta)
    if arg <= 0:
        arg += 2 * math.pi
    p = cmath.exp(1j * (arg / 2.0))
    return DiskMap(beta, -beta * p, 1.0 + 0j, -p.conjugate())
