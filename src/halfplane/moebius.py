"""Real Möbius automorphisms of the upper half-plane and maps to the disk."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .extreal import INF, Arc, ArcSet, Point, is_inf, normalize
from .util import cdiv, cmul


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
        """Apply to a point of C⁺ or of the boundary circle; poles map to ∞."""
        if not isinstance(z, complex):
            return self.apply_point(z)
        den = self.c * z + self.d
        if den == 0:
            return INF
        return (self.a * z + self.b) / den

    def apply_point(self, x: Point):
        if is_inf(x):
            return INF if self.c == 0 else self.a / self.c
        xf = float(x)
        den = self.c * xf + self.d
        if den == 0 or abs(den) < 1e-300:
            return INF
        return (self.a * xf + self.b) / den

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
    inv = phi.inverse()
    arcs = []
    for arc in o.arcs:
        if arc.puncture:
            x = inv.apply_point(arc.b)
            arcs.append(Arc(x, x, puncture=True))
        else:
            arcs.append(Arc(inv.apply_point(arc.b), inv.apply_point(arc.a)))
    return normalize(arcs)


@dataclass(frozen=True)
class DiskMap:
    """Complex Möbius map w ↦ (aw+b)/(cw+d), used for C⁺ → disk transports.

    Both directions take a point or an ndarray of points, where ∞ is a
    real inf; the pole goes to the ∞ marker."""

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
    """(az + b)/(cz + d) at z, or at each point of an ndarray z, rounded as
    CPython rounds it on one point; ``at_inf`` is the image of ∞."""
    w = np.array(np.ravel(z), dtype=complex)
    inf = np.isinf(w.real) & (w.imag == 0)
    if np.count_nonzero(inf):
        w[inf] = 0.0
    den = cmul(w, c) + d
    pole = den == 0
    if np.count_nonzero(pole):
        den[pole] = 1.0
    out = cdiv(cmul(w, a) + b, den)
    out[pole] = INF
    out[inf] = at_inf
    if isinstance(z, np.ndarray):
        return out.reshape(z.shape)
    if pole[0] or (inf[0] and not isinstance(at_inf, complex)):
        return INF
    return complex(out[0])


def cayley(zeta: complex) -> DiskMap:
    """The map z ↦ (z−ζ)/(z−ζ̄) of C⁺ onto the open unit disk.

    ζ goes to 0, the boundary circle R ∪ {∞} goes to the unit circle, and
    ∞ goes to 1 (so the inverse is defined off w = 1).
    """
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise ValueError("cayley base point needs Im ζ > 0")
    return DiskMap(1.0 + 0j, -zeta, 1.0 + 0j, -zeta.conjugate())


def cayley_inverse_point(m: DiskMap, w) -> Point:
    """Pull a unit-circle point back to R ∪ {∞} through a Cayley map."""
    z = m.inverse_apply(w)
    if not isinstance(z, complex):
        return z
    return z.real


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
