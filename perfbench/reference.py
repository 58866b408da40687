"""Closed forms the benchmark checks halfplane's answers against.

Written from the definitions, without importing halfplane, so that a defect
in the library cannot also hide in its own reference:

* the Kreĭn factor p_J of an arc J = (b, a) of R ∪ {∞} is the fractional
  linear map that is negative exactly on J with |p_J(i)| = 1, and k_O is the
  plain product of the factors over the arcs of O;
* an atomic Nevanlinna function is f(z) = αz + β + Σ w (1 + zt)/(t − z);
* the Cayley map based at ζ is C(z) = (z − ζ)/(z − ζ̄).

Arcs are (b, a) pairs of floats with math.inf standing for the point ∞;
b > a (both finite) is the arc through ∞.
"""

from __future__ import annotations

import cmath
import math

INF = math.inf


def point(p) -> float:
    """A JSON point ("inf" marks ∞) as a float."""
    return INF if p in ("inf", "-inf", "oo") else float(p)


def arcs_from_json(obj):
    """(full, [(b, a), ...]) from a ``{"arcs": ...}`` / ``{"full": true}`` object."""
    if obj.get("full"):
        return True, []
    return False, [(point(b), point(a)) for b, a in obj.get("arcs", [])]


def p_factor(b: float, a: float, z):
    """p_(b,a)(z) for complex or real z off the pole b."""
    if b == INF:
        return (z - a) / math.hypot(1.0, a)
    if a == INF:
        return -math.hypot(1.0, b) / (z - b)
    sign = 1.0 if b < a else -1.0
    return sign * math.hypot(1.0, b) / math.hypot(1.0, a) * (z - a) / (z - b)


def krein(arcs, z, full: bool = False):
    """k_O(z) as the direct product of its factors."""
    if full:
        return -1.0
    val = 1.0
    for b, a in arcs:
        val *= p_factor(b, a, z)
    return val


def arc_contains(b: float, a: float, x: float) -> bool:
    if b == INF:
        return x < a
    if a == INF:
        return x > b
    if b < a:
        return b < x < a
    return x > b or x < a


def nevanlinna(alpha: float, beta: float, atoms, z):
    """f(z) = αz + β + Σ w (1 + zt)/(t − z) for atoms (t, w)."""
    val = alpha * z + beta
    for t, w in atoms:
        val += w * (1.0 + z * t) / (t - z)
    return val


def log_factor(b: float, a: float, z: complex) -> complex:
    """Principal log of p_(b,a)(z) for Im z > 0; p maps C⁺ into C⁺."""
    return cmath.log(p_factor(b, a, z))


def cayley_inverse(zeta: complex, w: complex) -> float:
    """The real point z with (z − ζ)/(z − ζ̄) = w for unimodular w ≠ 1."""
    return ((zeta - w * zeta.conjugate()) / (1.0 - w)).real


def close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(y))
