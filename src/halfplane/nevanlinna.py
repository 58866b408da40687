"""Nevanlinna representations f(z) = αz + β + ∫ (1+zt)/(t−z) dρ(t).

Measures are finite and positive, given as atoms plus piecewise-constant
densities (optionally a depth-k atomic stand-in for the Cantor measure).
Both the representation and its derivative have closed forms, so evaluation
never needs quadrature.  ``NevanlinnaRep.eval`` takes a point or an ndarray
of points, broadcast over the atoms and summed term by term in order, with
the array contract of ``krein``: a scalar call is the same pass on one point,
the ∞ marker sits at an atom, ±inf in a real array is ∞.  Boundary recovery
(α, β, atoms, densities) uses geometric ladders with Richardson
extrapolation.  The zeros that bound Γ(f) and the roots of the Boole and
pushforward identities come from secular-matrix seeds, each polished and
sign-bracketed on its own component.  σ's merged support is derived once
per descriptor: Ω's arcs, the branches of the root kernel and the pieces
of Γ all run between its pieces.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, POINT_TOL,
                      complement_ends, complement_of_closed, is_inf,
                      merged_support, regularize)
from .util import (RecoveryError, RootBracketError, branch_roots, cdiv, cmul,
                   ladder_limit)

__all__ = [
    "Measure", "NevanlinnaRep", "SigmaDescriptor", "AnalysisResult",
    "analyze", "recover_alpha", "recover_beta", "stieltjes_density",
    "stieltjes_density_limit", "recover_atom", "cauchy_transform",
    "boole_superlevel_measure", "letac_pushforward_check", "RecoveryError",
]


# the largest depth of a spec's ``cantor_depth`` stand-in: 2^16 atoms, which
# a process builds and evaluates in under 100 MB (2^18 took 225 MB)
MAX_CANTOR_DEPTH = 16


@dataclass(frozen=True)
class Measure:
    """Finite positive Borel measure: atoms (t, w) and constant densities
    (l, r, d) on disjoint intervals."""

    atoms: tuple = ()
    ac: tuple = ()

    def __post_init__(self):
        atoms = tuple(sorted(((float(t), float(w)) for t, w in self.atoms)))
        for t, w in atoms:
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ValueError(f"atom ({t}, {w}) is not finite")
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at {t}")
        for i in range(len(atoms) - 1):
            if atoms[i + 1][0] - atoms[i][0] <= 0:
                raise ValueError("atoms must sit at distinct points")
        ac = tuple(sorted(((float(l), float(r), float(d)) for l, r, d in self.ac)))
        for l, r, d in ac:
            if not (math.isfinite(l) and math.isfinite(r) and math.isfinite(d)):
                raise ValueError(f"density piece ({l}, {r}, {d}) is not finite")
            if not l < r:
                raise ValueError(f"density interval ({l}, {r}) is empty")
            if d < 0:
                raise ValueError("density must be nonnegative")
        for i in range(len(ac) - 1):
            if ac[i + 1][0] < ac[i][1]:
                raise ValueError("density intervals must be disjoint")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "ac", tuple((l, r, d) for l, r, d in ac if d > 0))

    @staticmethod
    def cantor_atoms(depth: int, base=(0.0, 1.0), mass: float = 1.0) -> "Measure":
        """Depth-k atomic stand-in for the Cantor measure: 2^k atoms of weight
        mass·2^(−k) at the midpoints of the surviving level-k intervals."""
        l, r = float(base[0]), float(base[1])
        cur = [(l, r)]
        for _ in range(depth):
            nxt = []
            for u, v in cur:
                t = (v - u) / 3.0
                nxt.append((u, u + t))
                nxt.append((v - t, v))
            cur = nxt
        w = mass / len(cur)
        return Measure(atoms=tuple((0.5 * (u + v), w) for u, v in cur))

    def mass(self) -> float:
        return (sum(w for _, w in self.atoms)
                + sum(d * (r - l) for l, r, d in self.ac))

    def moment1(self) -> float:
        return (sum(w * t for t, w in self.atoms)
                + sum(d * (r * r - l * l) / 2.0 for l, r, d in self.ac))

    def is_atomic(self) -> bool:
        return not self.ac

    def to_json(self):
        out = {}
        if self.atoms:
            out["atoms"] = [[t, w] for t, w in self.atoms]
        if self.ac:
            out["ac"] = [{"interval": [l, r], "density": d} for l, r, d in self.ac]
        return out


def _log_ratio(z, l: float, r: float):
    """log((z−r)/(z−l)); for Im z ≠ 0 the ratio stays off (−∞, 0]."""
    if isinstance(z, complex) and z.imag != 0:
        return cmath.log((z - r) / (z - l))
    x = float(z.real) if isinstance(z, complex) else float(z)
    if l <= x <= r:
        raise ValueError(f"real evaluation at {x} inside the density "
                         f"support [{l}, {r}]")
    # the ratio is 1 + (r−l)/(l−x) left of [l, r] and 1/(1 + (r−l)/(x−r))
    # right of it: log1p of a positive argument keeps every digit
    return math.log1p((r - l) / (l - x)) if x < l else -math.log1p((r - l) / (x - r))


def _log_ratios(x, l, r):
    # _log_ratio for arrays of real x off the intervals [l, r]
    left = x < l
    return np.where(left, 1.0, -1.0) * np.log1p((r - l) / np.where(left, l - x, x - r))


def interval_entries(entries, value_key: str, field: str) -> tuple:
    """(l, r, value) triples of JSON entries {"interval": [l, r], value_key: v};
    a malformed entry raises ValueError naming the field and the entry."""
    out = []
    for k, p in enumerate(entries):
        iv = p.get("interval") if isinstance(p, dict) else None
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2 and value_key in p):
            raise ValueError(f"{field} entry {k} {p!r} is not of the form "
                             f'{{"interval": [l, r], "{value_key}": v}}')
        out.append((iv[0], iv[1], p[value_key]))
    return tuple(out)


@dataclass(frozen=True)
class SigmaDescriptor:
    """Closed support of ρ plus ∞ when α > 0: finite points, closed
    intervals, and an ∞ flag.  Its merged support is derived once and
    shared by the analysis, the root kernel and the factorization's posts."""

    points: tuple = ()
    intervals: tuple = ()
    has_inf: bool = False

    def omega(self) -> ArcSet:
        return complement_of_closed(self.points, self.intervals, self.has_inf)

    @functools.cached_property
    def support(self) -> tuple:
        """(lo, hi): the float ends of ``extreal.merged_support``'s pieces."""
        return merged_support(self.points, self.intervals)[:2]

    def is_measure_zero(self) -> bool:
        return not self.intervals

    def contains(self, x, tol: float = 1e-12) -> bool:
        if is_inf(x):
            return self.has_inf
        xf = float(x)
        return (any(abs(xf - float(p)) <= tol for p in self.points if not is_inf(p))
                or any(l - tol <= xf <= r + tol for l, r in self.intervals))


@dataclass(frozen=True)
class NevanlinnaRep:
    """f(z) = αz + β + Σ w (1+zt)/(t−z) + Σ d ∫_l^r (1+zt)/(t−z) dt."""

    alpha: float
    beta: float
    rho: Measure = Measure()

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha {self.alpha} and beta {self.beta} must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Value at z, or at each point of an ndarray z in its shape.

        The ∞ marker at an atom; at ∞ (±inf in a real array), ∞ when α > 0
        and β − m₁ otherwise.  A complex point is evaluated in complex
        arithmetic even on the real line, a real one in real arithmetic; a
        real point inside a density's support raises ValueError."""
        z_ = np.ravel(z)
        cplx = z_.dtype.kind == "c"
        inf = None if cplx or not np.isinf(z_).any() else np.isinf(z_)
        z_ = z_ if cplx else np.where(inf, 0.0, z_) if inf is not None else z_.astype(float)
        ts, ws = self._atoms
        val, pole = self.alpha * z_ + self.beta, None
        if ts.size:
            # αz + β, then the atoms' terms, summed in order
            terms = np.empty((z_.size, ts.size + 1), dtype=z_.dtype)
            terms[:, 0] = val
            den = ts - z_[:, None]
            hit = den == 0
            if hit.any():
                den[hit], pole = 1.0, hit.any(axis=1)
            num = ws * (1.0 + z_[:, None] * ts)
            terms[:, 1:] = cdiv(num, den) if cplx else num / den
            val = np.add.accumulate(terms, axis=1)[:, -1]
        if self.rho.ac:
            val = self._densities(z_, val, cplx, [m for m in (pole, inf) if m is not None])
        if pole is not None:
            val[pole] = INF
        if inf is not None:
            val[inf] = INF if self.alpha > 0 else self.value_at_inf()
        if isinstance(z, np.ndarray):
            return val.reshape(z.shape)
        marker = pole is not None and pole[0]
        return complex(val[0]) if isinstance(z, complex) and not marker else float(val[0].real)

    def _densities(self, z, val, cplx, skipped):
        """val plus each density's d(z(r − l) + (1 + z²)·log((z−r)/(z−l))), in
        order, leaving the points of the ``skipped`` masks aside."""
        line = z.imag == 0
        real = line & ~np.logical_or.reduce(skipped) if skipped else line
        x, (ls, rs, _) = z.real[:, None], np.array(self.rho.ac).T
        inside = real[:, None] & (ls <= x) & (x <= rs)
        if inside.any():
            k, i = np.unravel_index(np.argmax(inside), inside.shape)
            raise ValueError(f"real evaluation at {float(z.real[k])} inside the density "
                             f"support [{self.rho.ac[i][0]}, {self.rho.ac[i][1]}]")
        for l, r, d in self.rho.ac:
            # on the real line, log1p keeps every digit
            logs = _log_ratios(np.where(real, z.real, l - 1.0), l, r)
            if cplx:
                off = np.where(line, l - 1.0 + 1j, z)
                logs = np.where(line, logs, np.log(cdiv(off - r, off - l)))
                val = val + d * (z * (r - l) + cmul(1.0 + cmul(z, z), logs))
            else:
                val = val + d * (z * (r - l) + (1.0 + z * z) * logs)
        return val

    @functools.cached_property
    def _atoms(self):
        return np.array(self.rho.atoms, dtype=float).reshape(-1, 2).T

    def derivative(self, z):
        """f'(z) = α + ∫ (1+t²)/(t−z)² dρ(t), in closed form."""
        zz = z
        val = self.alpha + 0.0 * zz
        for t, w in self.rho.atoms:
            den = t - zz
            if den == 0:
                return INF
            val += w * (1.0 + t * t) / (den * den)
        for l, r, d in self.rho.ac:
            val += d * _density_slope(zz, l, r, _log_ratio(zz, l, r))
        return val

    def value_at_inf(self) -> float:
        """Common limit of f along both ends of R (finite only when α = 0)."""
        if self.alpha > 0:
            return INF
        return self.beta - self.rho.moment1()

    def sigma(self) -> SigmaDescriptor:
        return SigmaDescriptor(points=tuple(t for t, _ in self.rho.atoms),
                               intervals=tuple((l, r) for l, r, _ in self.rho.ac),
                               has_inf=self.alpha > 0)

    def scale(self, s: float) -> "NevanlinnaRep":
        if s <= 0:
            raise ValueError("scale factor must be positive")
        return NevanlinnaRep(s * self.alpha, s * self.beta,
                             Measure(tuple((t, s * w) for t, w in self.rho.atoms),
                                     tuple((l, r, s * d) for l, r, d in self.rho.ac)))

    def to_json(self):
        out = {"alpha": self.alpha, "beta": self.beta}
        out.update(self.rho.to_json())
        return out

    @staticmethod
    def from_json(obj) -> "NevanlinnaRep":
        atoms = tuple((t, w) for t, w in obj.get("atoms", []))
        ac = interval_entries(obj.get("ac", []), "density", "ac")
        rho = Measure(atoms=atoms, ac=ac)
        if "cantor_depth" in obj:
            depth = obj["cantor_depth"]
            if type(depth) is not int or not 0 <= depth <= MAX_CANTOR_DEPTH:
                raise ValueError(f"cantor_depth must be an integer from 0 to "
                                 f"{MAX_CANTOR_DEPTH}, got {depth!r}")
            extra = Measure.cantor_atoms(depth)
            rho = Measure(atoms=rho.atoms + extra.atoms, ac=rho.ac)
        return NevanlinnaRep(float(obj.get("alpha", 0.0)),
                             float(obj.get("beta", 0.0)), rho)


@dataclass(frozen=True)
class AnalysisResult:
    sigma: SigmaDescriptor
    gamma: ArcSet

    @property
    def omega(self) -> ArcSet:
        return self.sigma.omega()


def analyze(rep: NevanlinnaRep) -> AnalysisResult:
    """σ(f), Ω(f) and Γ(f) = {x ∈ Ω(f): f(x) < 0} for a structured rep.

    On each component of Ω the function is strictly increasing, so it has at
    most one zero there; each component contributes the piece from its left
    endpoint to that zero, read off σ's merged support.  The assembled set is
    Lebesgue regular; Ω itself is built only when asked for.
    """
    sig = rep.sigma()
    if rep.alpha == 0 and rep.rho.mass() == 0:
        if rep.beta == 0:
            raise ValueError("analysis of the zero function is undefined")
        return AnalysisResult(sig, FULL if rep.beta < 0 else EMPTY)
    b = complement_ends(*sig.support, sig.has_inf)[0]
    a = _component_roots(rep, (0.0,), sig.support)[0].tolist()
    for end, zero in zip(b, a):
        if abs(end - zero) <= POINT_TOL:
            raise RootBracketError(f"the zero {zero} of f lies within the point "
                                   f"tolerance of its branch end {end}")
    gamma = ArcSet(tuple(map(Arc, b, a)))
    # regularize joins a piece to the next when its zero meets the next start
    if any(zero != INF and abs(zero - end) <= POINT_TOL for zero, end in zip(a, b[1:] + b[:1])):
        gamma = regularize(gamma)
    return AnalysisResult(sig, gamma)


# ---------------------------------------------------------------------------
# boundary recovery


def recover_alpha(f, *, k_min: int = 3, k_max: int = 14,
                  consistency: float = 1e-6) -> float:
    """α = lim_{y→∞} f(iy)/(iy), via a y = 2^k ladder with Richardson
    extrapolation.  Raises RecoveryError when the estimates oscillate."""
    est = ladder_limit(lambda y: complex(f(1j * y)).imag / y,
                       [float(2 ** k) for k in range(k_min, k_max + 1)],
                       consistency=consistency)
    if est < -1e-8:
        raise RecoveryError(f"negative alpha estimate {est}")
    return max(est, 0.0)


def recover_beta(f) -> float:
    """β = Re f(i): the Nevanlinna integrand at z = i is purely imaginary."""
    return complex(f(1j)).real


def stieltjes_density(f, t: float, eps: float) -> float:
    """Im f(t+iε)/(π(1+t²)), the ε-smoothed density of ρ at t."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return complex(f(t + 1j * eps)).imag / (math.pi * (1.0 + t * t))


def stieltjes_density_limit(f, t: float, *, eps0: float = 1e-1, n: int = 6,
                            consistency: float = 1e-5) -> float:
    """ε↓0 extrapolation of the smoothed density (the a.c. density of ρ)."""
    ladder = [eps0 * 10.0 ** (-k) for k in range(n)]
    return ladder_limit(lambda e: stieltjes_density(f, t, e), ladder,
                        ratio=10.0, consistency=consistency)


def recover_atom(f, t0: float, *, eps0: float = 1e-2, n: int = 9,
                 consistency: float = 1e-6) -> float:
    """Weight at an isolated point of σ(f): w = lim ε·Im f(t0+iε)/(1+t0²)."""
    ladder = [eps0 * 0.5 ** k for k in range(n)]

    def sample(e):
        return e * complex(f(t0 + 1j * e)).imag / (1.0 + t0 * t0)

    w = ladder_limit(sample, ladder, ratio=2.0, consistency=consistency)
    return max(w, 0.0)


# ---------------------------------------------------------------------------
# Cauchy transforms and the Boole / pushforward identities


def cauchy_transform(mu: Measure, z):
    """G_μ(z) = ∫ dμ(t)/(z−t), closed form for atoms and constant densities."""
    val = 0.0 * z if isinstance(z, complex) else 0.0
    for t, w in mu.atoms:
        den = z - t
        if den == 0:
            return INF
        val += w / den
    for l, r, d in mu.ac:
        val -= d * _log_ratio(z, l, r)  # ∫_l^r d/(z−t) dt = d log((z−l)/(z−r))
    return val


def boole_superlevel_measure(mu: Measure, y: float):
    """Total lengths of {G_μ > y} and {G_μ < −y} for a finite atomic μ.

    G is strictly decreasing between consecutive atoms (from +∞ to −∞ on
    bounded gaps), so each gap holds exactly one root of G = y and one of
    G = −y; the superlevel components run from each atom to the next root.
    Both lengths equal μ(R)/y.

    All roots come from one secular-matrix solve: the roots of G = y, one
    right of each atom, are the eigenvalues of diag(t) + zzᵀ with z = √(w/y),
    and those of G = −y, one left of each atom, the eigenvalues of
    diag(t) − zzᵀ (the same problem on the reflected atoms t → −t).  They
    only seed ``util.branch_roots``, which polishes each root on G itself and
    certifies it by a sign bracket inside its gap.  The bracket is the
    certificate: the lengths match μ(R)/y by the trace identity whatever the
    roots' quality.
    """
    if not mu.is_atomic():
        raise ValueError("the superlevel identity is computed for atomic measures")
    if not y > 0:
        raise ValueError(f"y must be positive, got {y}")
    if not mu.atoms:
        return 0.0, 0.0
    ts, ws = (np.array(col) for col in zip(*mu.atoms))
    plus, minus = _boole_roots(ts, ws, float(y))
    return float(np.sum(plus - ts)), float(np.sum(ts - minus))


def letac_pushforward_check(rep: NevanlinnaRep, interval) -> float:
    """Length of f⁻¹((c, d)) for f = z + β + ∫(1+zt)/(t−z)dρ with atomic ρ.

    f increases from −∞ to +∞ on every component of R minus the atoms, so
    each of the N+1 branches contributes f⁻¹(d) − f⁻¹(c), both solved in
    one call; the total equals d − c (f preserves Lebesgue measure).
    """
    c, d = float(interval[0]), float(interval[1])
    if not c < d:
        raise ValueError("need c < d")
    if abs(rep.alpha - 1.0) > 1e-12:
        raise ValueError("the pushforward identity requires alpha = 1")
    if not rep.rho.is_atomic():
        raise ValueError("the pushforward identity is verified for atomic rho")
    at_c, at_d = _component_roots(rep, (c, d), rep.sigma().support)
    return float(np.sum(at_d - at_c))


# ---------------------------------------------------------------------------
# roots on the branches of Ω, seeded from secular matrices


def _boole_roots(ts, ws, y: float):
    """Roots of G = y (one right of each atom) and of G = −y (one left of
    each), for sorted atoms ts with weights ws."""
    z = np.sqrt(ws / y)
    rank_one = np.outer(z, z)
    diag = np.diag(ts)
    seeds = np.linalg.eigvalsh(np.stack((diag + rank_one, diag - rank_one)))
    # by Weyl, every eigenvalue lies within ‖z‖² = μ(R)/y of an atom
    reach = 2.0 * float(np.sum(ws)) / y
    lo = np.concatenate((ts, [ts[0] - reach], ts[:-1]))
    hi = np.concatenate((ts[1:], [ts[-1] + reach], ts))
    target = np.repeat((-y, y), len(ts))
    # the summands of −G_μ, which increases between atoms, and its slope
    roots = branch_roots(lambda x: ws / (ts - x[:, None]), np.ones(len(ts)), target, seeds.ravel(),
                         lo, hi, lambda x: np.sum(ws / (x[:, None] - ts) ** 2, axis=1))
    return roots[:len(ts)], roots[len(ts):]


def _exact_offset(beta: float, ws, ts, ac) -> float:
    # β − m₁ correctly rounded: Dekker's split (by 2^27 + 1) writes each w·t as an
    # exact sum p + e, which fsum adds exactly; density moments join as fractions
    pieces = [beta]
    for w, t in zip(ws.tolist(), ts.tolist()):
        p, wh, th = w * t, w * 134217729.0, t * 134217729.0
        wh, th = wh - (wh - w), th - (th - t)
        pieces += (-p, -(((wh * th - p) + wh * (t - th) + (w - wh) * th) + (w - wh) * (t - th)))
    if not ac:
        return math.fsum(pieces)
    return float(sum(map(Fraction, pieces)) - sum(
        Fraction(d) * (Fraction(r) ** 2 - Fraction(l) ** 2) / 2 for l, r, d in ac))


def _density_terms(x, l, r, d):
    """Three summands of d∫_l^r (1+t²)/(t−x) dt, x off [l, r].  With h = (r − l)/2,
    m = l + h and u = h/(x − m), it is −2u(1 + m²) − 2u(1 + x²)·S(u²) with
    S(v) = Σ_k≥1 v^k/(2k+1), terms of one sign, for |x − m| ≥ 2h; nearer it is
    (1 + x²)·log((x−r)/(x−l)) + x(r − l) + (r² − l²)/2, which cancels by a
    bounded factor there."""
    h = 0.5 * (r - l)
    u = h / ((x - l) - h)
    v = u * u
    far, xx = v <= 0.25, 1.0 + x * x
    s = v * np.polyval(1.0 / np.arange(53.0, 2.0, -2.0), v)
    return [d * np.where(far, -2.0 * u * (1.0 + (0.5 * (l + r)) ** 2), xx * _log_ratios(x, l, r)),
            d * np.where(far, -2.0 * u * xx * s, x * (r - l)),
            d * np.where(far, 0.0, h * (r + l))]


# coefficients of T(v) = Σ_k≥1 (2k−1)/(2k+1)·v^k and Q(v) = Σ_k≥1 2k/(2k+1)·v^k
# for np.polyval, highest power first; 26 terms reach one ulp at v ≤ 1/4
_SLOPE_T = np.append(np.arange(51.0, 0.0, -2.0) / np.arange(53.0, 2.0, -2.0), 0.0)
_SLOPE_Q = np.append(np.arange(52.0, 1.0, -2.0) / np.arange(53.0, 2.0, -2.0), 0.0)


def _density_slope(x, l, r, log_ratio):
    """∫_l^r (1+t²)/(t−x)² dt for x off [l, r], given log_ratio =
    log((x−r)/(x−l)); real or complex scalars, or real arrays.  With h, m and
    u = h/(x − m) as in :func:`_density_terms` and v = u², it is
    2h·T(v) + 4um·Q(v) + 2h(1 + m²)/((x−l)(x−r)) for |x − m| ≥ 2h, the parts
    of 1 + t² = s² + 2ms + (1 + m²), s = t − m, which cancel by at most a
    bounded factor; nearer it is the closed form
    (r − l)(1 + (1 + x²)/((x−l)(x−r))) + 2x·log((x−r)/(x−l)), whose terms
    cancel like x² far out."""
    h = 0.5 * (r - l)
    dl, dr = x - l, x - r
    u = h / (dl - h)
    far = abs(u) <= 0.5
    u = np.where(far, u, 0.0)
    v = u * u
    m = l + h
    series = (2.0 * h * np.polyval(_SLOPE_T, v) + 4.0 * u * m * np.polyval(_SLOPE_Q, v)
              + 2.0 * h * (1.0 + m * m) / (dl * dr))
    closed = (r - l) * (1.0 + (1.0 + x * x) / (dl * dr)) + 2.0 * x * log_ratio
    return np.where(far, series, closed)[()]


def _component_roots(rep: NevanlinnaRep, targets, support):
    """Roots of f = target on the arcs of Ω(f), which run between the pieces
    (lo, hi) of σ's ``support`` in the order of ``SigmaDescriptor.omega``:
    shape (len(targets), arcs), INF marking a zero at ∞.  Unbounded arcs close
    in closed form: f = αx + β′ + ∫(1+t²)/(t−x) dρ with β′ = β − m₁ (exact:
    the kernel w(1+xt)/(t−x) rounds a −w·t into every term, which drowns the
    slope at a far zero), the integral at most K = ∫(1+t²)dρ over the
    distance.  With u = √(w(1+t²)), atomic ρ is seeded by the eigenvalues of
    [[diag t, u/√α], [uᵀ/√α, (target − β′)/α]] (α > 0) or of
    diag(t) + uuᵀ/(β′ − target) (α = 0), densities by midpoints."""
    alpha, ac = rep.alpha, rep.rho.ac
    targets = np.asarray(targets, dtype=float)[:, None]
    ts, ws = rep._atoms
    u2 = ws * (1.0 + ts * ts)
    big_k = float(u2.sum()) + sum(d * (r - l + (r**3 - l**3) / 3) for l, r, d in ac)
    shift = rep.beta - rep.rho.moment1() - targets  # β′ − target

    starts, ends = support
    n_arcs = len(starts) + (alpha > 0)
    lo, hi = np.empty((2, len(targets), n_arcs))
    if alpha > 0:  # far sign at s = max(1, 2(|αm + β′ − target| + K)/α) past an end m
        m = np.array([starts[0], ends[-1]] if starts else [0.0, 0.0])
        far = np.maximum(1.0, 2.0 * (np.abs(alpha * m + shift) + big_k) / alpha)
        lo[:, 1:], hi[:, :-1] = ends, starts
        lo[:, 0], hi[:, -1] = m[0] - far[:, 0], m[1] + far[:, 1]
    else:  # the last arc wraps through ∞; |f − β′| < |β′ − target| at 2K/|β′ − target| past it
        with np.errstate(over="ignore"):  # a reach past the float range leaves no bracket
            reach = 2.0 * big_k / np.abs(np.where(shift == 0, 1.0, shift))[:, 0]
        right = shift[:, 0] > 0
        lo[:], hi[:, :-1] = ends, starts[1:]
        lo[:, -1] = np.where(right, ends[-1], starts[0] - reach)
        hi[:, -1] = np.where(right, ends[-1] + reach, starts[0])
    # a zero at ∞ when α = 0 and β′ = target
    live = (alpha > 0) | (shift != 0) | (np.arange(n_arcs) < n_arcs - 1)

    if ac or len(starts) < len(ts):
        seeds = 0.5 * (lo + hi)
    elif alpha > 0:
        n = len(ts)
        arrow = np.zeros((len(targets), n + 1, n + 1))
        arrow[:, :n, :n] = np.diag(ts)
        arrow[:, :n, n] = arrow[:, n, :n] = np.sqrt(u2 / alpha)
        arrow[:, n, n] = -shift[:, 0] / alpha
        seeds = np.linalg.eigvalsh(arrow)
    else:
        # the root past the support is the top eigenvalue when β′ > target
        # and the bottom one otherwise, which goes last
        scale = np.where(shift == 0, 1.0, shift)[:, :, None]
        with np.errstate(over="ignore"):  # as the reach above
            seeds = np.linalg.eigvalsh(np.diag(ts) + np.sqrt(np.outer(u2, u2)) / scale)
        seeds = np.where(shift < 0, np.roll(seeds, -1, axis=1), seeds)

    beta_a = _exact_offset(rep.beta, ws, ts, ac)
    # rounding bounds in eps: αx and β′, the atoms, each density's three summands
    ulps = np.repeat([1.0, 3.0, 6.0, 14.0, 2.0], [2, len(ts)] + [len(ac)] * 3)
    ls, rs, ds = np.array(ac, dtype=float).T if ac else (None,) * 3

    def terms(x):
        xc = x[:, None]
        cols = [alpha * xc, 0.0 * xc + beta_a, u2 / (ts - xc)]
        return np.concatenate(cols + (_density_terms(xc, ls, rs, ds) if ac else []), axis=1)

    def slope(x):
        xc = x[:, None]
        val = alpha + (u2 / (ts - xc) ** 2).sum(axis=1)
        if ac:
            val += (ds * _density_slope(xc, ls, rs, _log_ratios(xc, ls, rs))).sum(axis=1)
        return val

    roots = np.full(lo.shape, INF)
    roots[live] = branch_roots(terms, ulps, targets.repeat(n_arcs, 1)[live],
                               seeds[live], lo[live], hi[live], slope)
    return roots
