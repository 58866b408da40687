"""Nevanlinna representations f(z) = αz + β + ∫ (1+zt)/(t−z) dρ(t).

Measures are finite and positive, given as atoms plus piecewise-constant
densities (optionally a depth-k atomic stand-in for the Cantor measure).
Both the representation and its derivative have closed forms, so evaluation
never needs quadrature.  Boundary recovery (α, β, atoms, densities) uses
geometric ladders with Richardson extrapolation; the Boole and pushforward
identities are verified from secular-matrix eigenvalues, each root polished
and sign-bracketed on its own component.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, complement_of_closed,
                      is_inf, normalize, regularize)
from .util import (RecoveryError, RootBracketError, bisect_increasing,
                   expand_to_sign, ladder_limit, richardson, shrink_to_sign)

__all__ = [
    "Measure", "NevanlinnaRep", "SigmaDescriptor", "AnalysisResult",
    "analyze", "recover_alpha", "recover_beta", "stieltjes_density",
    "stieltjes_density_limit", "recover_atom", "cauchy_transform",
    "boole_superlevel_measure", "letac_pushforward_check", "RecoveryError",
]


@dataclass(frozen=True)
class Measure:
    """Finite positive Borel measure: atoms (t, w) and constant densities
    (l, r, d) on disjoint intervals."""

    atoms: tuple = ()
    ac: tuple = ()

    def __post_init__(self):
        atoms = tuple(sorted(((float(t), float(w)) for t, w in self.atoms)))
        for t, w in atoms:
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at {t}")
        for i in range(len(atoms) - 1):
            if atoms[i + 1][0] - atoms[i][0] <= 0:
                raise ValueError("atoms must sit at distinct points")
        ac = tuple(sorted(((float(l), float(r), float(d)) for l, r, d in self.ac)))
        for l, r, d in ac:
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
    return math.log((x - r) / (x - l))


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
    intervals, and an ∞ flag."""

    points: tuple = ()
    intervals: tuple = ()
    has_inf: bool = False

    def omega(self) -> ArcSet:
        return complement_of_closed(self.points, self.intervals, self.has_inf)

    def is_measure_zero(self) -> bool:
        return not self.intervals

    def is_empty(self) -> bool:
        return not self.points and not self.intervals and not self.has_inf

    def finite_boundary(self) -> list:
        pts = [float(p) for p in self.points if not is_inf(p)]
        for l, r in self.intervals:
            pts.extend([float(l), float(r)])
        return sorted(set(pts))

    def contains(self, x, tol: float = 1e-12) -> bool:
        if is_inf(x):
            return self.has_inf
        xf = float(x)
        if any(abs(xf - float(p)) <= tol for p in self.points if not is_inf(p)):
            return True
        return any(l - tol <= xf <= r + tol for l, r in self.intervals)


@dataclass(frozen=True)
class NevanlinnaRep:
    """f(z) = αz + β + Σ w (1+zt)/(t−z) + Σ d ∫_l^r (1+zt)/(t−z) dt."""

    alpha: float
    beta: float
    rho: Measure = Measure()

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        """Value at z; ∞-marker at atoms, β − m₁ at z = ∞ when α = 0."""
        if not isinstance(z, complex) and is_inf(z):
            return INF if self.alpha > 0 else self.value_at_inf()
        zz = z
        val = self.alpha * zz + self.beta
        for t, w in self.rho.atoms:
            den = t - zz
            if den == 0:
                return INF
            val += w * (1.0 + zz * t) / den
        for l, r, d in self.rho.ac:
            val += d * (zz * (r - l) + (1.0 + zz * zz) * _log_ratio(zz, l, r))
        return val

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
            val += d * ((r - l) + 2.0 * zz * _log_ratio(zz, l, r)
                        + (1.0 + zz * zz) * (1.0 / (l - zz) - 1.0 / (r - zz)))
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
            extra = Measure.cantor_atoms(int(obj["cantor_depth"]))
            rho = Measure(atoms=rho.atoms + extra.atoms, ac=rho.ac)
        return NevanlinnaRep(float(obj.get("alpha", 0.0)),
                             float(obj.get("beta", 0.0)), rho)


@dataclass(frozen=True)
class AnalysisResult:
    sigma: SigmaDescriptor
    omega: ArcSet
    gamma: ArcSet


def analyze(rep: NevanlinnaRep) -> AnalysisResult:
    """σ(f), Ω(f) and Γ(f) = {x ∈ Ω(f): f(x) < 0} for a structured rep.

    On each component of Ω the function is strictly increasing, so it has at
    most one zero there; each component contributes the piece from its left
    endpoint to that zero.  The assembled set is Lebesgue regular.
    """
    sig = rep.sigma()
    omega = sig.omega()
    if rep.alpha == 0 and rep.rho.mass() == 0:
        if rep.beta == 0:
            raise ValueError("analysis of the zero function is undefined")
        gamma = FULL if rep.beta < 0 else EMPTY
        return AnalysisResult(sig, omega, gamma)
    pieces = []
    for comp in ([] if omega.full else omega.arcs):
        piece = _gamma_piece(rep, comp)
        if piece is not None:
            pieces.append(piece)
    gamma = regularize(normalize(pieces)) if pieces else EMPTY
    return AnalysisResult(sig, omega, gamma)


def _polish_zero(rep: NevanlinnaRep, x: float, lo: float, hi: float) -> float:
    # a few Newton steps push the bisected zero to machine accuracy,
    # which keeps division residues at the zero below the dust threshold
    for _ in range(3):
        d = rep.derivative(x)
        if not isinstance(d, float) or not math.isfinite(d) or d <= 0:
            break
        x2 = x - rep.eval(x) / d
        if not (lo <= x2 <= hi) or not math.isfinite(x2):
            break
        x = x2
    return x


def _found_zero(rep, lo, hi) -> float:
    x = bisect_increasing(rep.eval, lo, hi)
    return _polish_zero(rep, x, lo, hi)


def _gamma_piece(rep: NevanlinnaRep, comp: Arc):
    fn = rep.eval
    b_inf, a_inf = is_inf(comp.b), is_inf(comp.a)

    if comp.puncture or comp.is_wrap or (b_inf and a_inf):
        if rep.alpha > 0:
            # puncture at ∞: the component is the whole line
            lo = expand_to_sign(fn, 0.0, -1.0, negative=True)
            hi = expand_to_sign(fn, 0.0, 1.0, negative=False)
            return Arc(INF, _found_zero(rep, lo, hi))
        u = float(comp.b)  # right end of the support
        v = float(comp.a)  # left end of the support
        f_inf = rep.value_at_inf()
        if f_inf == 0.0:
            return Arc(comp.b, INF)
        if f_inf > 0:
            lo = shrink_to_sign(fn, u, u + 1.0, negative=True)
            hi = expand_to_sign(fn, u, 1.0, negative=False)
            return Arc(comp.b, _found_zero(rep, lo, hi))
        lo = expand_to_sign(fn, v, -1.0, negative=True)
        hi = shrink_to_sign(fn, v, v - 1.0, negative=False)
        return Arc(comp.b, _found_zero(rep, lo, hi))

    if b_inf:  # component (-oo, a): α > 0, f runs from -∞ up to +∞ at a⁻
        a = float(comp.a)
        lo = expand_to_sign(fn, a - 1.0, -1.0, negative=True)
        hi = shrink_to_sign(fn, a, a - 1.0, negative=False)
        return Arc(INF, _found_zero(rep, lo, hi))
    if a_inf:  # component (b, +oo)
        b = float(comp.b)
        lo = shrink_to_sign(fn, b, b + 1.0, negative=True)
        hi = expand_to_sign(fn, b + 1.0, 1.0, negative=False)
        return Arc(comp.b, _found_zero(rep, lo, hi))

    b, a = float(comp.b), float(comp.a)
    lo = shrink_to_sign(fn, b, a, negative=True)
    hi = shrink_to_sign(fn, a, b, negative=False)
    return Arc(comp.b, _found_zero(rep, lo, hi))


# ---------------------------------------------------------------------------
# boundary recovery


def recover_alpha(f, *, k_min: int = 3, k_max: int = 14,
                  consistency: float = 1e-6) -> float:
    """α = lim_{y→∞} f(iy)/(iy), via a y = 2^k ladder with Richardson
    extrapolation.  Raises RecoveryError when the estimates oscillate."""
    vals = [complex(f(1j * float(2 ** k))).imag / float(2 ** k)
            for k in range(k_min, k_max + 1)]
    est = richardson(vals, 2.0)
    prev = richardson(vals[:-1], 2.0)
    if abs(est - prev) > consistency * max(1.0, abs(est)):
        raise RecoveryError(f"alpha ladder did not settle: {prev} vs {est}")
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
        val += d * _log_ratio(z, r, l)  # ∫_l^r d/(z−t) dt = d log((z−l)/(z−r))
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
    diag(t) − zzᵀ (the same problem on the reflected atoms t → −t).  The
    eigenvalues only seed the roots: each is polished by Newton steps on
    G itself and accepted after a sign bracket of width 4e-12·max(1, |x|)
    inside its gap (see ``_secular_roots``).  The bracket is the certificate;
    the lengths alone would match μ(R)/y by the trace identity whatever the
    roots' quality.
    """
    if not mu.is_atomic():
        raise ValueError("the superlevel identity is computed for atomic measures")
    if y <= 0:
        raise ValueError("y must be positive")
    if not mu.atoms:
        return 0.0, 0.0
    ts, ws = (np.array(col) for col in zip(*mu.atoms))
    plus, minus = _boole_roots(ts, ws, float(y))
    return float(np.sum(plus - ts)), float(np.sum(ts - minus))


def letac_pushforward_check(rep: NevanlinnaRep, interval) -> float:
    """Length of f⁻¹((c, d)) for f = z + β + ∫(1+zt)/(t−z)dρ with atomic ρ.

    f increases from −∞ to +∞ on every component of R minus the atoms, so
    each of the N+1 branches contributes f⁻¹(d) − f⁻¹(c); the total equals
    d − c (f preserves Lebesgue measure).

    With u = √(w(1+t²)) and s = target − β + Σ w t, the N+1 roots of
    f = target are the eigenvalues of the arrowhead matrix
    [[diag t, u], [uᵀ, s]]; both targets are solved in one call.  As for
    Boole, the eigenvalues only seed the roots: Newton steps on the original
    kernel w(1+xt)/(t−x) (the rewritten form loses digits for large |t|)
    polish them, and each is accepted after a sign bracket inside its branch.
    """
    c, d = float(interval[0]), float(interval[1])
    if not c < d:
        raise ValueError("need c < d")
    if abs(rep.alpha - 1.0) > 1e-12:
        raise ValueError("the pushforward identity requires alpha = 1")
    if not rep.rho.is_atomic():
        raise ValueError("the pushforward identity is verified for atomic rho")
    if not rep.rho.atoms:
        return d - c
    ts, ws = (np.array(col) for col in zip(*rep.rho.atoms))
    at_c, at_d = _letac_roots(ts, ws, rep.beta, (c, d))
    return float(np.sum(at_d - at_c))


# ---------------------------------------------------------------------------
# the secular-equation kernel behind the Boole and Letac identities

_BRACKET = 4e-12  # relative half-width of the sign bracket that accepts a root


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

    def neg_g(x):  # −G_μ, increasing between atoms
        return -np.sum(ws / (x[:, None] - ts), axis=1)

    def neg_g_slope(x):
        return np.sum(ws / (x[:, None] - ts) ** 2, axis=1)

    roots = _secular_roots(neg_g, neg_g_slope, target, seeds.ravel(), lo, hi)
    return roots[:len(ts)], roots[len(ts):]


def _letac_roots(ts, ws, beta: float, targets):
    """Roots of f = target, one per branch of R minus the atoms, for
    f(x) = x + β + Σ w(1+xt)/(t−x) and each target in turn."""
    n = len(ts)
    u = np.sqrt(ws * (1.0 + ts * ts))
    s = np.asarray(targets, dtype=float) - beta + float(np.sum(ws * ts))
    arrow = np.zeros((len(s), n + 1, n + 1))
    arrow[:, np.arange(n), np.arange(n)] = ts
    arrow[:, :n, n] = u
    arrow[:, n, :n] = u
    arrow[:, n, n] = s
    seeds = np.linalg.eigvalsh(arrow)
    # by Weyl, the spectrum lies within ‖u‖ of the diagonal's range
    reach = 2.0 * float(np.sqrt(np.sum(u * u))) + 1.0
    lo = np.tile(np.concatenate(([0.0], ts)), len(s))
    lo[::n + 1] = np.minimum(ts[0], s) - reach
    hi = np.tile(np.concatenate((ts, [0.0])), len(s))
    hi[n::n + 1] = np.maximum(ts[-1], s) + reach
    target = np.repeat(np.asarray(targets, dtype=float), n + 1)

    def f(x):
        return x + beta + np.sum(ws * (1.0 + x[:, None] * ts) / (ts - x[:, None]),
                                 axis=1)

    def f_slope(x):
        return 1.0 + np.sum(ws * (1.0 + ts * ts) / (ts - x[:, None]) ** 2, axis=1)

    roots = _secular_roots(f, f_slope, target, seeds.ravel(), lo, hi)
    return roots.reshape(len(s), n + 1)


def _secular_roots(fn, slope, target, seeds, lo, hi):
    """Certified roots of fn(x) = target[k], one in each branch (lo[k], hi[k])
    on which fn increases; all arguments are aligned arrays.

    The seeds are clipped into their branches and polished by two Newton
    steps.  A root is accepted only on a sign bracket
    fn(x − δ) ≤ target ≤ fn(x + δ) with δ = 4e-12·max(1, |x|) and x ± δ
    inside the branch.  Roots that fail are bisected inside their branches
    and checked again; a root that still fails raises RootBracketError.
    """
    with np.errstate(all="ignore"):
        x = np.clip(seeds, np.nextafter(lo, hi), np.nextafter(hi, lo))
        for _ in range(2):
            step = x - (fn(x) - target) / slope(x)
            x = np.where((lo < step) & (step < hi), step, x)
        ok = _bracketed(fn, target, x, lo, hi)
        if not ok.all():
            bad = ~ok
            x[bad] = _bisect_branches(fn, target[bad], lo[bad], hi[bad])
            ok = _bracketed(fn, target, x, lo, hi)
    if not ok.all():
        k = int(np.argmin(ok))
        raise RootBracketError(f"no sign bracket for the root {x[k]!r} of "
                               f"f = {target[k]!r} on ({lo[k]!r}, {hi[k]!r})")
    return x


def _bracketed(fn, target, x, lo, hi):
    delta = _BRACKET * np.maximum(1.0, np.abs(x))
    left, right = x - delta, x + delta
    values = fn(np.concatenate((left, right))) - np.concatenate((target, target))
    m = len(x)
    return (lo < left) & (right < hi) & (values[:m] <= 0) & (values[m:] >= 0)


def _bisect_branches(fn, target, lo, hi):
    # the branch ends are poles or outer bounds: their signs are known, so
    # only midpoints are evaluated
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all(hi - lo <= _BRACKET * np.maximum(1.0, np.abs(mid))):
            break
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
