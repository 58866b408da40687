"""Nevanlinna representations f(z) = αz + β + ∫ (1+zt)/(t−z) dρ(t).

Measures are finite and positive, given as atoms plus piecewise-constant
densities (optionally a depth-k atomic stand-in for the Cantor measure);
``cli`` reads them from a spec.  Evaluation is a closed form, with no
quadrature.  ``NevanlinnaRep.eval`` and ``cauchy_transform`` take a point or
an ndarray of points, broadcast over the atoms and summed term by term in
order, with the array contract whose one home is ``util``: a scalar call is
the same pass on one point, the ∞ marker sits at an atom, and ∞ is ±inf in a
real array and inf+0j in a complex one.  Boundary recovery (α, β, atoms,
densities) uses geometric ladders with Richardson extrapolation.  The zeros
that bound Γ(f) and the roots of the Boole and pushforward identities come
from secular-matrix seeds, each sign-bracketed on its own component and
stepped by the secant of the same evaluation, tabled again from that step
where the first table does not settle it.
σ's merged support is derived once per descriptor: Ω's arcs, the branches
of the root kernel and the pieces of Γ all run between its pieces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, POINT_TOL, SigmaDescriptor,
                      cantor_levels, complement_ends, regularize)
from .util import (BRACKET, RecoveryError, RootBracketError, branch_roots, excess,
                   ladder_limit, points, quotient, root_radii, shaped)

__all__ = [
    "Measure", "NevanlinnaRep", "SigmaDescriptor", "AnalysisResult",
    "analyze", "recover_alpha", "recover_beta", "stieltjes_density",
    "stieltjes_density_limit", "recover_atom", "cauchy_transform",
    "boole_superlevel_measure", "boole_tolerance", "letac_pushforward_check",
    "RecoveryError",
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
    def cantor_atoms(depth: int) -> "Measure":
        """Depth-k atomic stand-in for the Cantor measure on [0, 1]: 2^k atoms
        of weight 2^(−k) at the midpoints of the surviving level-k intervals."""
        *_, kept = cantor_levels((0.0, 1.0), depth)
        w = 1.0 / len(kept)
        return Measure(atoms=tuple((0.5 * (u + v), w) for u, v in kept))

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


def _log_ratios(z, l, r):
    """log((z−r)/(z−l)) at real or complex points z off [l, r], broadcast.  On
    the line the ratio is 1 + (r−l)/(l−x) left of [l, r], 1/(1 + (r−l)/(x−r))
    right of it: log1p of a positive argument keeps every digit."""
    if z.dtype.kind != "c":
        left = z < l
        return np.where(left, 1.0, -1.0) * np.log1p((r - l) / np.where(left, l - z, z - r))
    line = z.imag == 0
    off = np.where(line, l - 1.0 + 1j, z)
    return np.where(line, _log_ratios(np.where(line, z.real, l - 1.0), l, r),
                    np.log(quotient(off - r, off - l)[0]))


def _off_supports(z, ls, rs, *skipped):
    """The array z as a column against the supports [l, r], the points of the
    ``skipped`` masks (None for none) moved off each to l − 1; ValueError at
    the first other real point inside one."""
    skip = [m for m in skipped if m is not None]
    skip = np.logical_or.reduce(skip) if skip else None
    real = z.imag == 0 if skip is None else (z.imag == 0) & ~skip
    x = z[:, None]
    inside = real[:, None] & (ls <= x.real) & (x.real <= rs)
    if inside.any():
        k, i = np.unravel_index(np.argmax(inside), inside.shape)
        raise ValueError(f"real evaluation at {float(z.real[k])} inside the density "
                         f"support [{float(ls[i])}, {float(rs[i])}]")
    return x if skip is None else np.where(skip[:, None], ls - 1.0, x)


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

        The ∞ marker at an atom; at ∞ (±inf in a real array, inf+0j in a
        complex one), ∞ when α > 0 and β − m₁ otherwise.  A complex point is
        evaluated in complex arithmetic even on the real line, a real one in
        real arithmetic; a real point inside a density's support raises
        ValueError."""
        z_, inf = points(z)
        ts, ws, *_ = self._atoms
        val, pole = self.alpha * z_ + self.beta, None
        if ts.size:
            # αz + β, then the atoms' terms, summed in order
            terms = np.empty((z_.size, ts.size + 1), dtype=z_.dtype)
            terms[:, 0] = val
            terms[:, 1:], hit = quotient(ws * (1.0 + z_[:, None] * ts), ts - z_[:, None])
            val = np.add.accumulate(terms, axis=1)[:, -1]
            pole = None if hit is None else hit.any(axis=1)
        if self.rho.ac:
            val = self._densities(z_, val, pole, inf)
        if pole is not None:
            val[pole] = INF
        if inf is not None:
            val[inf] = self.value_at_inf()
        return shaped(val, z)

    def _densities(self, z, val, *skipped):
        """val plus each density's d(z(r − l) + (1 + z²)·log((z−r)/(z−l))), in
        one pass, summed in order, leaving the ``skipped`` masks aside.  With
        h, m and u = h/(z − m) as in :func:`_density_terms`, the bracket is
        −2u(1 + zm) − 2u(1 + z²)·S(u²) where |u| ≤ 1/2: the closed form
        cancels like |z|² far from the support, the series not at all; past
        |z| = 1e150 its brackets come from :func:`_huge_brackets`."""
        ls, rs, ds = self._ac
        z = _off_supports(z, ls, rs, *skipped)
        h = 0.5 * (rs - ls)
        w = (z - ls) - h  # near a support far from 0, z − m is off by m's rounding
        far = np.abs(w) >= 2.0 * h
        u = h / np.where(far, w, 2.0 * h)
        with np.errstate(over="ignore", invalid="ignore"):  # both overflow past |z| ~ 1e154
            zz, v = 1.0 + z * z, u * u
            s = np.polyval(_ARTANH, v)
            series = -2.0 * u * (1.0 + z * (ls + h)) - 2.0 * u * zz * v * s
            huge = np.abs(z) > _HUGE
            if huge.any():
                c, b = _huge_brackets(z, h, ls + h, w)
                series = np.where(huge, -2.0 * c - 2.0 * b * u * u * s, series)
            terms = ds * np.where(far, series, z * (rs - ls) + zz * _log_ratios(z, ls, rs))
        return np.add.accumulate(np.column_stack((val, terms)), axis=1)[:, -1]

    @functools.cached_property
    def _atoms(self):
        # t, w, u² = w(1 + t²), an atom's weight in the root kernel, and
        # Σ u²; inf past the float range, which the kernel refuses
        ts, ws = np.array(self.rho.atoms, dtype=float).reshape(-1, 2).T
        with np.errstate(over="ignore"):
            u2 = ws * (1.0 + ts * ts)
            return ts, ws, u2, float(u2.sum())

    @functools.cached_property
    def _ac(self):
        return np.array(self.rho.ac, dtype=float).T

    def value_at_inf(self) -> float:
        """Common limit of f along both ends of R (finite only when α = 0)."""
        if self.alpha > 0:
            return INF
        return self.beta - self.rho.moment1()

    def sigma(self) -> SigmaDescriptor:
        return SigmaDescriptor(points=tuple(t for t, _ in self.rho.atoms),
                               intervals=tuple((l, r) for l, r, _ in self.rho.ac),
                               has_inf=self.alpha > 0)

    def to_json(self):
        out = {"alpha": self.alpha, "beta": self.beta}
        out.update(self.rho.to_json())
        return out


@dataclass(frozen=True)
class AnalysisResult:
    """σ(f) and Γ(f); for an atomic representation also ``zeros``, the
    pairs (e, r) that bound f/(|f(i)|·k_Γ), which is ∏ N_z/N_e over them
    with N_p(z) = (z − p)/|i − p| and N_∞ = 1: a zero z of f lies within r
    of the end e of Γ that stands for it (a zero end, the pole it merged
    with, or the atom whose pole it cancels within POINT_TOL), and for
    e = ∞, r bounds 1/|z|."""

    sigma: SigmaDescriptor
    gamma: ArcSet
    zeros: Optional[tuple] = None

    @property
    def omega(self) -> ArcSet:
        return self.sigma.omega()


def analyze(rep: NevanlinnaRep, narrow: bool = False) -> AnalysisResult:
    """σ(f), Ω(f) and Γ(f) = {x ∈ Ω(f): f(x) < 0} for a structured rep.

    On each component of Ω the function is strictly increasing, so it has at
    most one zero there; each component contributes the piece from its left
    endpoint to that zero, read off σ's merged support.  The assembled set is
    Lebesgue regular; Ω itself is built only when asked for.  For an atomic
    rep the result also carries ``zeros``, each zero's certified radius: the
    accepted 4e-12·max(1, |x|), or with ``narrow`` the narrower bracket of
    ``util.root_radii``, at the cost of one more evaluation.
    """
    sig = rep.sigma()
    if rep.alpha == 0 and rep.rho.mass() == 0:
        if rep.beta == 0:
            raise ValueError("analysis of the zero function is undefined")
        return AnalysisResult(sig, FULL if rep.beta < 0 else EMPTY, ())
    lo, hi = sig.support
    b = complement_ends(lo, hi, sig.has_inf)[0]
    atomic = rep.rho.is_atomic()
    roots = _component_roots(rep, (0.0,), sig.support, radii=atomic and narrow)
    a = (roots[0] if atomic and narrow else roots)[0].tolist()
    for end, zero in zip(b, a):
        if abs(end - zero) <= POINT_TOL:
            raise RootBracketError(f"the zero {zero} of f lies within the point "
                                   f"tolerance of its branch end {end}")
    gamma = ArcSet(tuple(map(Arc, b, a)))
    # regularize joins a piece to the next when its zero meets the next start
    nxt = b[1:] + b[:1]
    merged = [zero != INF and abs(zero - end) <= POINT_TOL for zero, end in zip(a, nxt)]
    if any(merged):
        gamma = regularize(gamma)
    if not atomic:
        return AnalysisResult(sig, gamma)
    radii = roots[1][0].tolist() if narrow else [BRACKET * max(1.0, abs(x)) for x in a]
    # a zero at ∞ has a bound on 1/|zero|; a zero merged with the next pole
    # stands at that pole; atoms within POINT_TOL of the next share one piece
    # of σ's support, of which k_Γ keeps one pole, the last: each zero
    # between two of them stands at the first of the two
    zeros = [(INF, _far_radius(rep, lo, hi)) if zero == INF
             else (end, float(np.nextafter(r + abs(zero - end), INF))) if join else (zero, r)
             for zero, r, end, join in zip(a, radii, nxt, merged)]
    ts = sig.points
    zeros += [(t, u - t) for t, u in zip(ts, ts[1:]) if u - t <= POINT_TOL]
    return AnalysisResult(sig, gamma, tuple(zeros))


def _far_radius(rep: NevanlinnaRep, lo, hi) -> float:
    """A bound on 1/|zero| for an atomic rep's zero at ∞ (α = 0): past the
    float range where β′ = β − m₁ is not 0 in floats (the root kernel saw
    f keep its sign there), else past K/|β′| − t for the exact β′, with
    K = Σ w(1 + t²) and t the support's reach, as f − β′ lies between
    −K/(x − t) and −K/(x + t) past it."""
    if rep.beta - rep.rho.moment1() != 0.0:
        return 1.0 / _FMAX
    ts, ws, _, atoms_k = rep._atoms
    # twice the correctly rounded β′, and the smallest subnormal for one that underflows
    gap = 2.0 * abs(_exact_offset(rep.beta, ws, ts, ())) + 5e-324
    reach = 0.5 * atoms_k / gap - max(abs(lo[0]), abs(hi[-1]))
    return 1.0 / reach if reach > 1.0 else INF


# ---------------------------------------------------------------------------
# boundary recovery


def recover_alpha(f) -> float:
    """α = lim_{y→∞} f(iy)/(iy), via a y = 2^k ladder (k = 3 … 14) with
    Richardson extrapolation.  Raises RecoveryError when the last two
    extrapolations differ by more than 1e-6."""
    est = ladder_limit(lambda y: complex(f(1j * y)).imag / y,
                       [float(2 ** k) for k in range(3, 15)], consistency=1e-6)
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


def stieltjes_density_limit(f, t: float) -> float:
    """ε↓0 extrapolation of the smoothed density (the a.c. density of ρ),
    along ε = 0.1 … 1e-6, settled to 1e-5."""
    ladder = [1e-1 * 10.0 ** (-k) for k in range(6)]
    return ladder_limit(lambda e: stieltjes_density(f, t, e), ladder,
                        ratio=10.0, consistency=1e-5)


def recover_atom(f, t0: float) -> float:
    """Weight at an isolated point of σ(f): w = lim ε·Im f(t0+iε)/(1+t0²),
    along ε = 1e-2·2^−k (k = 0 … 8), settled to 1e-6."""
    ladder = [1e-2 * 0.5 ** k for k in range(9)]

    def sample(e):
        return e * complex(f(t0 + 1j * e)).imag / (1.0 + t0 * t0)

    w = ladder_limit(sample, ladder, ratio=2.0, consistency=1e-6)
    return max(w, 0.0)


# ---------------------------------------------------------------------------
# Cauchy transforms and the Boole / pushforward identities


def cauchy_transform(mu: Measure, z):
    """G_μ(z) = ∫ dμ(t)/(z−t), atoms and constant densities, in one pass over
    the points (a scalar z is the pass on one point); the ∞ marker at an
    atom, and 0 at ∞."""
    ts, ws = np.array(mu.atoms, dtype=float).reshape(-1, 2).T
    x, inf = points(z)
    terms, hit = quotient(-ws, ts - x[:, None])
    val = 0.0 + terms.sum(axis=1)  # a sum of −0.0 reads 0.0
    pole = None if hit is None else hit.any(axis=1)
    if mu.ac:
        ls, rs, ds = np.array(mu.ac).T
        # ∫_l^r d/(z−t) dt = d log((z−l)/(z−r))
        val += (ds * -_log_ratios(_off_supports(x, ls, rs, pole, inf), ls, rs)).sum(axis=1)
    if pole is not None:
        val[pole] = INF
    if inf is not None:
        val[inf] = 0.0
    return shaped(val, z)


def boole_superlevel_measure(mu: Measure, y: float):
    """Total lengths of {G_μ > y} and {G_μ < −y} for a finite atomic μ.

    G is strictly decreasing between consecutive atoms (from +∞ to −∞ on
    bounded gaps), so each gap holds exactly one root of G = y and one of
    G = −y; the superlevel components run from each atom to the next root.
    Both lengths equal μ(R)/y.

    All roots come from one secular-matrix solve: the roots of G = y, one
    right of each atom, are the eigenvalues of diag(t) + zzᵀ with z = √(w/y),
    and those of G = −y, one left of each atom, the eigenvalues of
    diag(t) − zzᵀ (the same problem on the reflected atoms t → −t); at
    small y the solve runs at a level where its error leaves the gaps between
    atoms apart, and the outer two seeds move out to y.  They
    only seed ``util.branch_roots``: a seed certifies by a sign bracket of
    G itself inside its gap, from the same table that gives its last
    (secant) step; one that does not is tabled again from that step.  The
    bracket is the certificate: the lengths match μ(R)/y by the trace
    identity whatever the roots' quality.
    """
    if not mu.is_atomic():
        raise ValueError("the superlevel identity is computed for atomic measures")
    if not 0 < y < INF:
        raise ValueError(f"y must be positive and finite, got {y}")
    if not mu.atoms:
        return 0.0, 0.0
    ts, ws = (np.array(col) for col in zip(*mu.atoms))
    plus, minus = _boole_roots(ts, ws, float(y))
    return float(np.sum(plus - ts)), float(np.sum(ts - minus))


def boole_tolerance(mu: Measure, target: float, plus: float, minus: float) -> float:
    """A bound on |length − μ(R)/y| for the two lengths that
    :func:`boole_superlevel_measure` returns at level y, with target the
    float μ(R)/y: each root x lies within 4e-12·max(1, |x|) of the true one,
    and |x| ≤ |t| + |x − t| for its atom t, so the brackets sum to at most
    4e-12·(n·max(1, |t|) + the length) over n atoms; the length, μ(R) and
    μ(R)/y add their rounding."""
    n = len(mu.atoms)
    reach = n * max(1.0, abs(mu.atoms[0][0]), abs(mu.atoms[-1][0])) if n else 0.0
    length = max(plus, minus)
    return BRACKET * (reach + length) + (n + 2) * _EPS * (length + target)


def letac_pushforward_check(rep: NevanlinnaRep, interval) -> float:
    """Length of f⁻¹((c, d)) for f = z + β + ∫(1+zt)/(t−z)dρ with atomic ρ.

    f increases from −∞ to +∞ on every component of R minus the atoms, so
    each of the N+1 branches contributes f⁻¹(d) − f⁻¹(c), both solved in
    one call; the total equals d − c (f preserves Lebesgue measure).
    """
    c, d = float(interval[0]), float(interval[1])
    if not c < d:
        raise ValueError("need c < d")
    if not (math.isfinite(c) and math.isfinite(d)):
        raise ValueError(f"the interval ({c}, {d}) must be finite")
    if abs(rep.alpha - 1.0) > 1e-12:
        raise ValueError("the pushforward identity requires alpha = 1")
    if not rep.rho.is_atomic():
        raise ValueError("the pushforward identity is verified for atomic rho")
    at_c, at_d = _component_roots(rep, (c, d), rep.sigma().support)
    return float(np.sum(at_d - at_c))


# ---------------------------------------------------------------------------
# roots on the branches of Ω, seeded from secular matrices


def _secular_seeds(ts, ws, mass, shifts):
    """Seeds for the roots of Σ w/(t − x) = −s over sorted atoms ts with
    weights ws of sum ``mass``, one row for each s in ``shifts``: the
    eigenvalues of diag(t) ± zzᵀ (the sign of s), z = √(w/|v|), at a level
    v = ±max(|s|, n·1e4·eps·mass/(the narrowest gap)), where eigvalsh's
    error leaves the gaps between atoms apart (v = 1 for s = 0).  The outer
    seed, near ±mass/v, moves out to ±mass/|s|.  z takes w/|v| first, as
    the products w·w overflow for weights past 1.3e154."""
    floor = 1e4 * len(ts) * _EPS * mass / (ts[1:] - ts[:-1]).min(initial=INF).item()
    rows, moves = [], []
    for s in shifts:
        v = math.copysign(max(abs(s), floor), s) if s else 1.0
        with np.errstate(over="ignore"):  # a lone atom has no gap to floor v: its seed may be inf
            z = np.sqrt(ws / abs(v))
        rows.append(np.diag(ts) + math.copysign(1.0, v) * np.outer(z, z))
        moves.append(mass / s - mass / v if s else 0.0)
    seeds = np.linalg.eigvalsh(np.stack(rows))
    for row, s, move in zip(seeds, shifts, moves):
        row[0 if s < 0 else -1] += move
    return seeds


def _boole_roots(ts, ws, y: float):
    """Roots of G = y (one right of each atom) and of G = −y (one left of
    each), for sorted atoms ts with weights ws."""
    # by Weyl, every eigenvalue lies within ‖z‖² = μ(R)/y of an atom
    mass = float(np.sum(ws))
    reach = 2.0 * mass / y
    if not (math.isfinite(ts[0] - reach) and math.isfinite(ts[-1] + reach)):
        raise ValueError(f"y = {y} is too small: the outer roots' brackets reach "
                         f"2μ(R)/y = {reach:.3g} past the atoms, out of the float range")
    seeds = _secular_seeds(ts, ws, mass, (y, -y))
    lo = np.concatenate((ts, [ts[0] - reach], ts[:-1]))
    hi = np.concatenate((ts[1:], [ts[-1] + reach], ts))
    # the summands of −G_μ, which increases between atoms, times 4^m ≈ 1/y,
    # m ≥ 0 (exactly, through the weights and the target): at small y the
    # table's differences f(x + w) − f(x − w) would fall into the subnormal
    # range and lose their digits
    m = max(0, -math.frexp(y)[1]) // 2
    r = 2.0 ** -m
    sw = ws / r / r
    target = np.repeat((-y / r / r, y / r / r), len(ts))
    roots = branch_roots(lambda x: sw / (ts - x[:, None]), np.ones(len(ts)), target, seeds.ravel(),
                         lo, hi)
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
    S(v) = Σ_k≥1 v^k/(2k+1), terms of one sign, for |x − m| ≥ 2h (past
    |x| = 1e150, u(1 + x²) from :func:`_huge_brackets`); nearer it is
    (1 + x²)·log((x−r)/(x−l)) + x(r − l) + (r² − l²)/2, which cancels by a
    bounded factor there."""
    h, m = 0.5 * (r - l), 0.5 * (l + r)
    w = (x - l) - h
    u = h / w
    v = u * u
    far, xx, s = v <= 0.25, 1.0 + x * x, np.polyval(_ARTANH, v)
    series = -2.0 * u * xx * v * s
    huge = np.abs(x) > _HUGE
    if huge.any():
        series = np.where(huge, -2.0 * _huge_brackets(x, h, m, w)[1] * u * u * s, series)
    return [d * np.where(far, -2.0 * u * (1.0 + m ** 2), xx * _log_ratios(x, l, r)),
            d * np.where(far, series, x * (r - l)),
            d * np.where(far, 0.0, h * (r + l))]


def _huge_brackets(z, h, m, w):
    """(u(1 + zm), u(1 + z²)) for u = h/w, w = z − m, where |z| > 1e150: z·m
    and z² overflow from |z| ~ 1e154 on, so they are h(m + (1 + m²)/w) and
    hz plus that.  The sums keep every digit while |z| ≥ |m|; nearer the
    origin they cancel, which is why smaller |z| keep the plain products.
    Callers multiply the second by u twice, not by u², which underflows."""
    c = h * (m + (1.0 + m * m) / w)
    return c, h * z + c


# S(v) = Σ_k≥1 v^k/(2k+1) = v·polyval(_ARTANH, v), so that artanh(u) = u + u·S(u²);
# 26 terms reach one ulp at |v| ≤ 1/4
_ARTANH = 1.0 / np.arange(53.0, 2.0, -2.0)
_FMAX = float(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)
_HUGE = 1e150  # past it, the density brackets avoid z² (see _huge_brackets)


def _density_k(l, r, d):
    # d∫_l^r (1 + t²) dt, a density's share of K; r**3 may raise OverflowError
    return d * (r - l + (r**3 - l**3) / 3)


def _refuse_past_float_range(ts, ws, u2, ac):
    """ValueError naming the first atom whose u² = w(1 + t²), or density piece
    whose d∫(1 + t²)dt, is past the float range (an atom past |t| ≈ 1.3e154,
    a piece past |t| ≈ 5.6e102, or a huge weight), else naming the measure,
    whose K, a far bracket's end or a row's exact sum leaves the range."""
    for t, w, u in zip(ts.tolist(), ws.tolist(), u2.tolist()):
        if not math.isfinite(u):
            raise ValueError(f"the atom ({t}, {w}) is past the float range of the root "
                             "kernel: its w(1 + t²) overflows")
    for l, r, d in ac:
        try:
            k = _density_k(l, r, d)
        except OverflowError:
            k = INF
        if not math.isfinite(k):
            raise ValueError(f"the density piece ({l}, {r}, {d}) is past the float range of "
                             "the root kernel: its d∫(1 + t²)dt overflows")
    raise ValueError("the measure is past the float range of the root kernel: its "
                     "∫(1 + t²)dρ, a far bracket's end or an exact sum over it overflows")


def _component_roots(rep: NevanlinnaRep, targets, support, radii=False):
    """Roots of f = target on the arcs of Ω(f), which run between the pieces
    (lo, hi) of σ's ``support`` in the order of ``SigmaDescriptor.omega``:
    shape (len(targets), arcs), INF marking a zero at ∞; with ``radii``, also
    each finite root's ``util.root_radii`` in that shape.  Unbounded arcs close
    in closed form: f = αx + β′ + ∫(1+t²)/(t−x) dρ with β′ = β − m₁ (exact:
    the kernel w(1+xt)/(t−x) rounds a −w·t into every term, which drowns the
    slope at a far zero), the integral at most K = ∫(1+t²)dρ over the
    distance.  With u = √(w(1+t²)), atomic ρ is seeded by the eigenvalues of
    [[diag t, u/√α], [uᵀ/√α, (target − β′)/α]] (α > 0) or, as Boole's
    roots, of diag(t) + uuᵀ/(β′ − target) (α = 0, :func:`_secular_seeds`),
    densities by midpoints; a ρ whose K, far brackets or exact sums
    overflow is refused.  ``util.branch_roots``
    certifies a seed and takes its last step from one table of f at it and
    at its bracket's ends, and tables it again from that step (every
    midpoint seed) where that fails."""
    alpha, ac = rep.alpha, rep.rho.ac
    targets = [float(t) for t in targets]
    ts, ws, u2, atoms_k = rep._atoms
    try:
        big_k = atoms_k + sum(_density_k(*piece) for piece in ac)
    except OverflowError:
        big_k = INF
    offset = rep.beta - rep.rho.moment1()
    shifts = [offset - t for t in targets]  # β′ − target

    # each target's branch ends, in Python floats (IEEE, so numpy's bits);
    # max and min take the possibly-NaN bound first, as numpy keeps a NaN
    starts, ends = support
    n_arcs = len(starts) + (alpha > 0)
    lo, hi, live = [], [], []
    for s in shifts:
        if alpha > 0:  # far sign at max(1, 2(|αm + β′ − target| + K)/α) past an end m
            m0, m1 = (starts[0], ends[-1]) if starts else (0.0, 0.0)
            lo += [m0 - max(2.0 * (abs(alpha * m0 + s) + big_k) / alpha, 1.0), *ends]
            hi += [*starts, m1 + max(2.0 * (abs(alpha * m1 + s) + big_k) / alpha, 1.0)]
        else:  # the last arc wraps through ∞; |f − β′| < |β′ − target| at 2K/|β′ − target| past it,
            # or at the largest double, where a zero not yet reached is the one at ∞
            reach = 2.0 * big_k / abs(s if s != 0 else 1.0)
            lo += ends
            hi += [*starts[1:], starts[0]]
            if s > 0:
                hi[-1] = min(ends[-1] + reach, _FMAX)
            else:
                lo[-1] = max(starts[0] - reach, -_FMAX)
        # a zero at ∞ when α = 0 and β′ = target
        live += [True] * (n_arcs - 1) + [alpha > 0 or s != 0]
    if not (math.isfinite(big_k) and math.isfinite(min(lo)) and math.isfinite(max(hi))):
        _refuse_past_float_range(ts, ws, u2, ac)
    lo, hi = np.array(lo), np.array(hi)

    if ac or len(starts) < len(ts):
        seeds = 0.5 * (lo + hi)
    elif alpha > 0:
        n = len(ts)
        arrow = np.zeros((len(targets), n + 1, n + 1))
        arrow[:, :n, :n] = np.diag(ts)
        arrow[:, :n, n] = arrow[:, n, :n] = np.sqrt(u2 / alpha)
        arrow[:, n, n] = [-s / alpha for s in shifts]
        seeds = np.linalg.eigvalsh(arrow).ravel()
    else:
        # the root past the support is the top eigenvalue when β′ > target
        # and the bottom one otherwise, which goes last
        seeds = np.concatenate([np.roll(row, -1) if s < 0 else row for row, s in
                                zip(_secular_seeds(ts, u2, big_k, shifts), shifts)])

    beta_a = _exact_offset(rep.beta, ws, ts, ac)
    # rounding bounds in eps: αx and β′, the atoms, each density's three summands
    n, k = len(ts), len(ac)
    ulps = np.array([1.0, 1.0] + [3.0] * n + [6.0] * k + [14.0] * k + [2.0] * k)

    def terms(x):
        # one table: αx, β′, the atoms' block, the densities' three blocks
        out = np.empty((len(x), 2 + n + 3 * k))
        xc = x[:, None]
        np.multiply(alpha, x, out=out[:, 0])
        np.multiply(0.0, x, out=out[:, 1])
        out[:, 1] += beta_a
        atoms = out[:, 2:2 + n]
        np.subtract(ts, xc, out=atoms)
        np.divide(u2, atoms, out=atoms)
        if ac:
            out[:, 2 + n:] = np.concatenate(_density_terms(xc, *rep._ac), axis=1)
        return out

    try:
        if alpha == 0:
            for j, (target, s) in enumerate(zip(targets, shifts)):
                last = (j + 1) * n_arcs - 1
                edge = float(hi[last] if s > 0 else lo[last])
                if abs(edge) == _FMAX and live[last]:
                    # f still on the target's side there: the zero lies past the float
                    # range, and k_Γ with the zero at ∞ differs by under 1e-300 relative;
                    # an uncertain sign (density summands overflow there) keeps the branch
                    with np.errstate(all="ignore"):
                        values, rounding, _ = excess(terms, ulps, np.array([target]),
                                                     np.array([edge]))
                    live[last] = not (values[0] <= -rounding[0] if s > 0
                                      else values[0] >= rounding[0])
        target = np.array(targets).repeat(n_arcs)
        if all(live):
            roots = branch_roots(terms, ulps, target, seeds, lo, hi)
        else:
            live = np.array(live)
            roots = np.full(len(live), INF)
            roots[live] = branch_roots(terms, ulps, target[live], seeds[live], lo[live], hi[live])
        shape = len(targets), n_arcs
        if not radii:
            return roots.reshape(shape)
        finite = roots != INF
        r = np.full(len(roots), INF)
        r[finite] = root_radii(terms, ulps, target[finite], roots[finite], lo[finite], hi[finite])
        return roots.reshape(shape), r.reshape(shape)
    except OverflowError:  # math.fsum's partials of a row leave the float range
        _refuse_past_float_range(ts, ws, u2, ac)
