"""Kreĭn factors p_J and Kreĭn products k_O.

A factor p_J is the unique fractional-linear self-map of C⁺ that is negative
exactly on the arc J and satisfies |p_J(i)| = 1:

    p_(b,a)(z)   = |i−b|/|i−a| · (z−a)/(z−b)          (b < a finite)
    p_(−∞,a)(z)  = (z−a)/|i−a|
    p_J          = −1/p_J'   for J the complement of the closure of J'
    p_∅ = 1,  p_full = −1.

A product k_O multiplies the factors over the components of an open set O.
Over explicit arcs it is the direct product of the closed-form factors, at
every point alike: above or below the real line, on it, and at ∞.  Arcs
that share an end (∞ included) are merged first, by p_(b,c)·p_(c,a) =
p_(b,a), so a zero of one factor never meets the pole of the next; the
zeros, poles, σ and Γ of k_O are read from the same merged arcs.

Every evaluator keeps the array contract whose one home is ``util``
(``points``, ``quotient``, ``shaped``): it takes one point or an ndarray of
points, and an array is evaluated in one pass over points × arcs in numpy's
own arithmetic.  A scalar call is that pass on one point, so an array value
equals the scalar call at its point bit for bit; k_O and log p_J return a
complex off the real line, else a float, and p_J a complex at any complex
point.  The explicit product splits the points once by the real line:
those off it in complex arithmetic, those on it in real arithmetic, whose
pass gives three per-point masks: an exact real pole (the ∞ marker,
math.inf), a real point within ``REAL_GUARD`` of a pole (refused:
EvaluationDomainError), and the point ∞ (±inf in a real array, inf+0j in a
complex one).

A Cantor-complement generator contributes the factors of its middle thirds
(b, a) down to a depth d, read from ``extreal.cantor_starts`` like every
Cantor end here.  Since every factor has |p_J(i)| = 1, their
product is R_d(z)/|R_d(i)| with R_d(z) = ∏ (z−a)/(z−b); R_d is reduced
pairwise, in blocks of a fixed size, from the factors' deviations from 1,
one point at a time, in grid order, at each point the explicit pass leaves
unmarked: where it put the ∞ marker (an exact pole, and ∞ where σ holds it)
the marker stays, with tail 0.  Generator tails carry a certified bound
derived from |v_J(z)| ≤ len(J)·sup_J |1/(t−z) − t/(1+t²)|, the sup taken
over the 2^L intervals that survive L = min(d, 5) steps of the
construction, which hold every arc past depth d (:func:`_tail_sups`); the
depth grows until the tail of the whole value, explicit factor included,
is within tolerance, up to one last depth, min(cap, ``_MAX_DEPTH``), run
only where its bound is within log(1 + tol).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL, INF,
                      SigmaDescriptor, arc_ends, cantor_starts, is_regular, normalize)
from .moebius import HalfPlaneAuto, pullback_arcset
from .util import points, quotient, shaped

REAL_GUARD = 1e-9
_MAX_DEPTH = 20  # eval's deepest generator level: 2^20 − 1 factors


class TailNotCertified(RuntimeError):
    """The generator tail could not be bounded below the requested tolerance."""


class EvaluationDomainError(ValueError):
    """Evaluation point too close to the singular set for the continuation."""


class _Factors:
    """Arcs as arrays, to evaluate their factors p_J = N/D at many points, all
    kinds in one form: N = P·(z − A) + Q, D = (z − B)·R + S, side by side in
    three operations on the rows (A|B), (P|R), (Q|S).  Finite ends (b > a
    wraps through ∞): P = ±|i−b|/|i−a|, A = a, B = b, R = 1; (−∞, a): P = 1,
    A = a, R = 0, S = |i − a|; (b, +∞): P = 0, Q = −|i − b|, B = b, R = 1;
    the punctured circle: P = R = 0, Q = −1, S = 1.  An unused Q or S is
    −0.0, as x + (−0.0) is x, signed zeros included.  The table is built
    from the arcs' lists of ends (``extreal.arc_ends``)."""

    def __init__(self, b, a):
        rows = []  # A, B, P, R, Q, S and the value at ∞ of each arc in turn
        for y, x in zip(b, a):
            hy, hx = math.hypot(1.0, y), math.hypot(1.0, x)
            s = hy / hx if y < x else -hy / hx
            rows += ((0.0, 0.0, 0.0, 0.0, -1.0, 1.0, -1.0) if y == x else
                     (x, 0.0, 1.0, 0.0, -0.0, hx, INF) if y == INF else
                     (0.0, y, 0.0, 1.0, -hy, -0.0, 0.0) if x == INF else
                     (x, y, s, 1.0, -0.0, -0.0, s))
        self.n = len(b)
        table = np.array(rows).reshape(-1, 7).T
        self.rows, self.at_inf = table[:6].reshape(3, 2 * self.n), table[6]
        # cast once, where numpy would cast in every complex operation
        self.complex_rows = self.rows.astype(complex)

    @functools.cached_property
    def poles(self):  # the finite poles: B where R = 1
        return self.rows[0, self.n:][self.rows[1, self.n:] != 0]

    def columns(self, pts, inf=None):
        """(values, poles), shape (points, arcs): p_J at each point of a flat
        array, in complex arithmetic for a complex array, else in real
        arithmetic, the points of ``inf`` (read as 0, as ``util.points``
        reads them) at ∞.  An exact pole holds the ∞ marker, which ``poles``
        marks (None when there is none)."""
        vals, poles = quotient(*self._num_den(pts[:, None]))
        if inf is not None:
            vals[inf] = self.at_inf
            if poles is not None:
                poles[inf] = False
        return vals, poles

    def _num_den(self, z):
        # N and D at a column of points; a point so far out that one leaves
        # the float range has its row divided through by z, keeping each N/D
        shift, scale, offset = self.complex_rows if z.dtype.kind == "c" else self.rows
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            nd = (z - shift) * scale + offset
            if not np.isfinite(nd).all():
                far = ~np.isfinite(nd).all(axis=1)
                nd[far] = (1.0 - shift / z[far]) * scale + offset / z[far]
        return nd[:, :self.n], nd[:, self.n:]

    def _scaled_product(self, pts):
        """∏ p_J at points off the real line where the plain product is not
        finite.  Each factor is (N/(D·2^−e))·2^−e with |D·2^−e| near 1, and
        the running product is kept near 1 by powers of two, so a part of the
        value is ±inf only where it exceeds the float range, and a part that
        is exactly 0 stays 0."""
        num, den = self._num_den(pts[:, None])
        e = np.frexp(np.maximum(np.abs(den.real), np.abs(den.imag)))[1]
        scaled = np.empty(den.shape, dtype=complex)
        scaled.real, scaled.imag = np.ldexp(den.real, -e), np.ldexp(den.imag, -e)
        with np.errstate(over="ignore", invalid="ignore"):
            vals, out, power = num / scaled, np.ones(len(pts), dtype=complex), -e.sum(axis=1)
            for k in range(self.n):
                out = out * vals[:, k]
                e = np.frexp(np.maximum(np.abs(out.real), np.abs(out.imag)))[1]
                out.real, out.imag, power = np.ldexp(out.real, -e), np.ldexp(out.imag, -e), power + e
            out.real, out.imag = np.ldexp(out.real, power), np.ldexp(out.imag, power)
        return out

    def product(self, pts):
        """(∏ p_J in order, pole, near) at the points of a flat array, split
        once by the real line: those off it in complex arithmetic, where a
        product past the float range is multiplied out again, and those on it,
        ∞ included (``util.points``), in real arithmetic.  ``pole`` marks the
        ∞ marker at an exact pole, ``near`` a real point within REAL_GUARD of
        a pole."""
        off = pts.imag != 0
        n_off = np.count_nonzero(off)
        out = np.empty(pts.size, dtype=pts.dtype)
        pole, near = np.zeros(pts.size, dtype=bool), np.zeros(pts.size, dtype=bool)
        if n_off:
            part = off if n_off < pts.size else slice(None)  # a slice takes a view
            z = pts[part]
            # a factor or a partial product past the float range turns into
            # inf or NaN parts; only those points are multiplied out again
            with np.errstate(invalid="ignore", over="ignore"):
                v = np.multiply.reduce(self.columns(z)[0], axis=1, initial=1 + 0j)
            big = ~np.isfinite(v)
            if np.count_nonzero(big):
                v[big] = self._scaled_product(z[big])
            out[part] = v
        if n_off < pts.size:
            part = ~off if n_off else slice(None)
            x = pts.real[part]
            vals, poles = self.columns(*points(x))
            if poles is not None:
                pole[part] = at = poles.any(axis=1)
                vals[at] = 1.0  # the ∞ marker goes in after the product
            out[part] = np.multiply.reduce(vals, axis=1, initial=1.0)
            near[part] = (np.abs(x[:, None] - self.poles) < REAL_GUARD).any(axis=1)
            if poles is not None:
                out[pole], near = INF, near & ~pole
        return out, pole, near


@functools.lru_cache(maxsize=64)
def _factors(arcs: tuple) -> _Factors:
    # one exponent's pieces are evaluated many times in a row; a table is a
    # dozen small arrays, so only a few recent ones are kept
    return _Factors(*arc_ends(arcs))


def _single_arc(j):
    # an ArcSet as its one arc: the full circle as the circle punctured at ∞,
    # the empty set as None (the factor 1)
    if not isinstance(j, ArcSet):
        return j
    if len(j.arcs) > 1:
        raise TypeError("expected a single arc")
    return Arc(INF, INF, puncture=True) if j.full else (j.arcs[0] if j.arcs else None)


def p_eval(j, z):
    """Value of the Kreĭn factor p_J at z (complex, real, or the point ∞), or
    at each point of an ndarray z.

    Real z must differ from the pole b; evaluation exactly at the pole
    returns the ∞ marker (math.inf).  A complex z is evaluated in complex
    arithmetic even on the real line; ∞ is ±inf in a real array and inf+0j
    in a complex one.
    """
    j = _single_arc(j)
    if j is None:
        return shaped(np.ones_like(points(z)[0]), z)
    return shaped(_factors((j,)).columns(*points(z))[0][:, 0], z)


def log_p(j, z):
    """Logarithm of p_J(z) on the closed upper half-plane, at a point or at
    each point of an ndarray.

    For Im z > 0 it is the principal logarithm, with imaginary part in
    [0, π]; it equals the integral v_J(z) = ∫_J (1+tz)/(t−z) · dt/(1+t²),
    which for a finite arc is log((a−z)/(b−z)) − ½ log((1+a²)/(1+b²)).  At a
    real point or ∞ where p_J is positive it is the real logarithm, and
    where p_J is not, EvaluationDomainError.
    """
    j = _single_arc(j)
    if j is None:
        return shaped(np.zeros_like(points(z)[0]), z, line=True)
    return shaped(log_factors((j,), z)[0][..., 0], z, line=True)


def log_factors(arcs, z, strict: bool = True):
    """(logs, refused): log p_J(z) as :func:`log_p` takes it, for each arc J
    at each point of z, shape z.shape + (len(arcs),).  ``refused`` marks the
    points on the real line (or ∞) where some p_J is not positive: the first
    raises EvaluationDomainError, or with ``strict=False`` their logs are
    placeholders."""
    pts = np.ravel(z)
    pts = pts if pts.dtype.kind == "c" else pts.astype(float)
    if np.count_nonzero(pts.imag < 0):
        raise ValueError("log_p requires Im z ≥ 0")
    table, off = _factors(tuple(arcs)), pts.imag != 0
    # p_J maps C⁺ into C⁺, so the principal branch keeps Im in (0, π)
    logs = np.log(table.columns(pts)[0]) if off.all() else np.zeros(
        (pts.size, table.n), dtype=pts.dtype)
    refused = np.zeros(pts.size, dtype=bool)
    if not off.all():
        if off.any():
            logs[off] = np.log(table.columns(pts[off])[0])
        v = table.columns(*points(pts.real[~off]))[0]
        bad = ~((v > 0) & (v < INF))
        logs[~off], refused[~off] = np.log(np.where(bad, 1.0, v)), bad.any(axis=1)
    if strict and refused.any():
        x = float(pts[np.argmax(refused)].real)
        raise EvaluationDomainError(f"p_J({x}) is not positive")
    return logs.reshape(np.shape(z) + (table.n,)), refused.reshape(np.shape(z))


# steps of the construction whose surviving intervals bound a generator's
# tail: 2^_TAIL_LEVELS intervals at most
_TAIL_LEVELS = 5
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=256)
def _tail_intervals(l: float, r: float):
    """(ends, umax, sq, first): the intervals that survive 0.._TAIL_LEVELS
    steps of the construction on [l, r] (``extreal.cantor_starts``), level
    after level, as ends of shape (2, n), each widened by a few ulps of the
    base's ends (their own rounding) and clipped to the base; on each, max
    |t|/(1+t²) and 1 + min t²; and where each level starts."""
    levels = range(_TAIL_LEVELS + 1)
    s = np.concatenate([cantor_starts(k) for k in levels])
    width = np.concatenate([np.full(2 ** k, 3.0 ** -k) for k in levels])
    ends = l + (r - l) * np.array([s, s + width])
    slack = 32 * _EPS * max(abs(l), abs(r))
    ends = np.clip(ends + [[-slack], [slack]], l, r)
    lo, hi = ends
    with np.errstate(over="ignore", divide="ignore"):
        # |t|/(1+t²) rises up to |t| = 1 and falls after, below 1/|t|
        t = np.abs(ends)
        u = np.where(t < 1e150, t / (1.0 + t * t), 1.0 / t).max(axis=0)
        sq = 1.0 + np.where((lo <= 0) & (hi >= 0), 0.0, (t * t).min(axis=0))
    umax = np.where((lo <= 1) & (hi >= 1) | (lo <= -1) & (hi >= -1), 0.5, u)
    first = 2 ** np.arange(_TAIL_LEVELS + 1) - 1
    for a in (ends, umax, sq, first):
        a.flags.writeable = False
    return ends, umax, sq, first


def _tail_sups(base, z, gap) -> list:
    """Bounds on sup |k(t)|, k(t) = 1/(t−z) − t/(1+t²) = (1+tz)/((t−z)(1+t²)),
    over the intervals that survive L steps of the construction, for
    L = 0.._TAIL_LEVELS: every arc of a level past L lies in them.

    On each interval the bound is the smaller of |1+tz| at its ends (|1+tz|
    is convex in t) over dist(z, interval)·(1 + min t²), and 1/dist + max
    |t|/(1+t²); the largest over the intervals, raised by a few ulps, bounds
    the level.  A real z inside an enumerated gap reads its distance to the
    gap's ends: no tail arc enters the gap.  At ∞, k(t) is −t/(1+t²).
    """
    ends, umax, sq, first = _tail_intervals(*base)
    x, y = (z.real, z.imag) if isinstance(z, complex) else (z, 0.0)
    if math.isinf(x):
        bound = umax
    else:
        with np.errstate(all="ignore"):
            # the distance to each interval; a gap's ends where it holds z
            dist = np.maximum(np.maximum(ends[0] - x, x - ends[1]),
                              min(x - gap[0], gap[1] - x) if gap is not None else 0.0)
            if y:
                dist = np.hypot(dist, y)
            # |1 + tz| at the ends, with the rounding of 1 + tx added
            tx = ends * x
            num = (np.hypot(1.0 + tx, ends * y) + _EPS * np.abs(tx)).max(axis=0)
            # NaN only where inf meets inf or 0; fmin takes the other bound there
            bound = np.fmin(num / dist / sq, 1.0 / dist + umax)
    return (np.maximum.reduceat(bound, first) * (1.0 + 16 * _EPS)).tolist()


@dataclass(frozen=True)
class KreinStructure:
    sigma: SigmaDescriptor  # the poles, ∞ as the flag
    gamma: ArcSet
    zeros: tuple
    poles: tuple


@dataclass(frozen=True)
class KreinProduct:
    """k_O for O = explicit arcs plus an optional Cantor-complement generator.

    ``tol`` is the tail tolerance τ: evaluation enumerates generator arcs in
    decreasing length until the certified tail bound at the evaluation point
    drops below τ, up to the last depth min(depth cap, ``_MAX_DEPTH``), and
    returns that bound alongside the value.  The last depth runs only where
    its bound is within log(1 + τ): past it no value of modulus ≥ 1 certifies.
    """

    arcs: ArcSet = EMPTY
    cantor: CantorComplement | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if not 0 <= self.tol < INF:
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")

    def __call__(self, z):
        return self.eval(z)[0]

    @functools.cached_property
    def _ends(self) -> tuple:
        return _merged_ends(self.arcs)

    @functools.cached_property
    def _table(self) -> _Factors:
        return _Factors(*self._ends)

    @functools.cached_property
    def structure(self) -> KreinStructure:
        """σ, Γ, zeros and poles of the explicit arcs' product, read from the
        merged arcs it multiplies (:func:`_merged_ends`): the poles (σ) are
        their pole ends and the zeros their zero ends, ∞ included, and Γ is
        the merged arcs (O when none merged).  A shared end, ∞ included, is
        no pole or zero; a closed chain is the constant −1."""
        b, a = self._ends
        if b == a:  # no arc, or the one puncture arc of a closed chain
            return KreinStructure(SigmaDescriptor(), FULL if b else EMPTY, (), ())
        o = self.arcs
        gamma = o if len(b) == len(o.arcs) else normalize([Arc(y, x) for y, x in zip(b, a)])
        sigma = SigmaDescriptor(tuple(p for p in b if p != INF), (), INF in b)
        return KreinStructure(sigma, gamma, tuple(a), tuple(b))

    def eval(self, z, strict: bool = True):
        """(value, tail_bound) with |true value − value| ≤ tail_bound, at a
        point or, as two arrays in its shape, at each point of an ndarray.

        The first point in grid order that a scalar call refuses (within
        REAL_GUARD of a pole, on the generator's set, tail not certified)
        raises; with ``strict=False`` an array marks every such point by a
        NaN value and an infinite tail bound instead."""
        return self._eval(z, None, strict)

    def eval_at_depth(self, z, depth: int):
        """(value, tail_bound) for a fixed truncation depth of the generator;
        the tail is infinite where its bound leaves the float range, and the
        value there NaN where the kernel's floats cannot hold it."""
        if self.cantor is None:
            raise ValueError("no generator attached")
        return self._eval(z, depth, True)

    def _eval(self, z, depth, strict):
        pts = np.ravel(z)
        pts = pts if pts.dtype.kind == "c" else pts.astype(float)
        values, pole, refused = self._table.product(pts)
        tails = np.zeros(pts.size)
        if self.cantor is not None:
            # the ∞ marker stays where the explicit pass put it: at an exact
            # pole, and at ∞ where σ holds it
            if self.structure.sigma.has_inf:
                pole |= np.isinf(pts.real) & (pts.imag == 0)
            # the generator runs in grid order on the other points; a strict
            # call stops at the first refusal
            stop = np.argmax(refused) if strict and np.count_nonzero(refused) else pts.size
            for k in np.flatnonzero(~(pole | refused)[:stop]).tolist():
                point, value = pts.item(k), values.item(k)
                if not point.imag:
                    point, value = point.real, value.real
                try:
                    values[k], tails[k] = self._generator(value, point, depth)
                except (EvaluationDomainError, TailNotCertified):
                    if strict:
                        raise
                    refused[k] = True
        if np.count_nonzero(refused):
            if strict:
                raise self._near_pole(float(pts[np.argmax(refused)].real))
            values[refused], tails[refused] = np.nan, INF
        return shaped(values, z, line=True), shaped(tails, z)

    def _near_pole(self, x: float) -> EvaluationDomainError:
        near = [b for b in self._table.poles.tolist() if abs(x - b) < REAL_GUARD]
        return EvaluationDomainError(
            f"real evaluation at {x} is within {abs(x - near[-1]):.2e} "
            f"of the singular point {near[-1]}")

    def _generator(self, explicit, z, depth):
        """(value, tail) of the whole product at one point z (complex off the
        real line, else float) from its explicit factor's value there."""
        base, cap = self.cantor.base, self.cantor.depth
        l, r = base
        gap, level = _gap(base, cap, z)
        sups = _tail_sups(base, z, gap)

        def exponent(d):  # the arcs of levels past d lie in the intervals of level d
            return (r - l) * (2.0 / 3.0) ** d * sups[min(d, _TAIL_LEVELS)]

        def value_at(d):
            gen = (1.0 + _ratio_minus_one(l, r - l, d, z)) / _ratio_norm_at_i(l, r, d)
            return explicit * (complex(gen) if isinstance(z, complex) else float(gen))

        def truncation(d):
            try:
                bound = math.expm1(exponent(d))
            except OverflowError:  # e^x − 1 past the float range bounds nothing
                bound = INF
            if bound < INF:
                value = value_at(d)
                return value, abs(value) * bound
            # so close above the base that the kernel's floats may not hold
            # the value (dx² + y² is 0 at a gap's end): NaN then, as
            # eval(strict=False) marks a refused point
            with np.errstate(all="ignore"):
                value = value_at(d)
            return (value if np.isfinite(value) else math.nan), INF

        if depth is not None:
            return truncation(min(max(depth, level), cap))
        last = min(cap, _MAX_DEPTH)
        # skip the depths whose bound alone exceeds half the tolerance
        depth = min(max(1, level), last)
        while exponent(depth) > 0.5 * min(self.tol, 0.25) and depth < last:
            depth += 1
        # the gate: the last depth runs only where a value of modulus ≥ 1 can
        # certify there, and no depth for a real point whose gap lies past it
        gate = level <= last and exponent(last) <= math.log1p(self.tol)
        for depth in range(depth, last + gate):
            value, tail = truncation(depth)
            if tail <= self.tol:
                return value, tail
        limit = "the generator's depth cap" if last == cap else "the evaluator's depth limit"
        found = (f"tail bound {tail:.3e} there" if gate else
                 "its tail bound exceeds log(1 + tol) there, so it was not evaluated")
        raise TailNotCertified(f"tail not certified to tol {self.tol:.3e} by depth {last}, "
                               f"{limit}: {found}")

    def support_json(self):
        out = {}
        if not self.arcs.is_empty:
            out["arcs"] = self.arcs.to_json()["arcs"] if not self.arcs.full else "full"
        if self.cantor is not None:
            out.update(self.cantor.to_json())
        return out


def _merged_ends(o: ArcSet) -> tuple:
    """(b, a): O's arcs as ``extreal.arc_ends`` lists, every chain of shared
    ends merged into one arc by p_(b,c)·p_(c,a) = p_(b,a); ∞ counts as a shared
    end, and a chain closing up the circle is the factor −1 of a puncture arc
    (b = a).  Only exactly equal ends merge: the identity is exact for them alone."""
    ends = arc_ends((Arc(INF, INF, puncture=True),) if o.full else o.arcs)
    b, a = [], []
    for y, x in zip(*ends):
        if a and a[-1] == y:
            a[-1] = x
        else:
            b.append(y)
            a.append(x)
    # the sorted arcs follow the circle from ∞, so only the last chain can run
    # on into the first
    if len(b) > 1 and a[-1] == b[0]:
        b[0] = b.pop()
        a.pop()
    return b, a


def _gap(base, cap_depth: int, z):
    """(gap, level) of the removed middle third holding a real z inside the
    base, off its guard band; (None, 0) for any other point.  The walk down
    the construction ends at the cap, or past the first level whose gaps are
    narrower than 2·REAL_GUARD: no deeper gap holds a point off its band.
    It sums z's interval start s as ``extreal.cantor_starts`` does."""
    l, r = base
    if isinstance(z, complex) or not l <= z <= r:
        return None, 0
    if z in (l, r):
        raise EvaluationDomainError(f"{z} lies on the generator's Cantor set: "
                                    f"it is an end of the base interval [{l}, {r}]")
    w, s, level = r - l, 0.0, 0
    for level in range(1, cap_depth + 1):
        t = 3.0 ** -level
        gb, ga = l + w * (s + t), l + w * (s + 2.0 * t)
        if gb < z < ga:
            if min(z - gb, ga - z) < REAL_GUARD:
                raise EvaluationDomainError(f"{z} is within the guard distance of "
                                            "a gap endpoint")
            return (gb, ga), level
        if w * t < 2 * REAL_GUARD:
            break
        if z > gb:
            s += 2.0 * t
    raise EvaluationDomainError(f"{z} lies in no gap of the generator off its guard band "
                                f"down to depth {level}")


# levels of the unit gap table.  A block of 2^_FINE_LEVELS factors is the
# kernel's whole working set (a few arrays of that length, 0.6 MB at 13);
# blocks of 2^12 factors pay numpy's per-call cost visibly, at about twice
# the time per factor
_FINE_LEVELS = 13


@functools.cache
def _fine_gaps():
    """Left ends and widths of the middle thirds removed from [0, 1] in the
    first _FINE_LEVELS steps, level by level: the 2^f − 1 gaps of levels
    1..f are the first 2^f − 1 entries."""
    levels = range(1, _FINE_LEVELS + 1)
    b = np.concatenate([cantor_starts(k - 1) + 3.0 ** -k for k in levels])
    g = np.concatenate([np.full(2 ** (k - 1), 3.0 ** -k) for k in levels])
    b.flags.writeable = g.flags.writeable = False
    return b, g


def _product_minus_one(u):
    """∏(1 + u) − 1 by pairwise halving, in place; len(u) a power of two.

    Kept as (1 + a)(1 + b) − 1 = a + b + ab, factors near 1 keep their
    relative precision where a running product would round each to 1 ± ε."""
    n = u.size
    tmp = np.empty(n // 2, dtype=u.dtype)
    while n > 1:
        h = n // 2
        a, b, ab = u[:h], u[h:n], tmp[:h]
        np.multiply(a, b, out=ab)
        a += b
        a += ab
        n = h
    return u[0]


def _ratio_minus_one(l: float, w: float, depth: int, z):
    """R_d(z) − 1, R_d(z) = ∏ (z−a)/(z−b) over the middle thirds (b, a) of
    levels 1..d of [l, l + w]; complex z off the real line, or real float z
    off the enumerated closure.

    Level k has 2^(k−1) gaps of width g = w/3^k and each factor is
    1 + g/(b − z).  With m = max(0, d − _FINE_LEVELS) and f = d − m, levels
    m+1..d are the first f levels of the fine gap table scaled into each of
    the 2^m intervals that survive m steps, one block of 2^f factors per
    interval; levels 1..m are the same product on the base at depth m.  No
    array longer than a block is built.
    """
    f = min(depth, _FINE_LEVELS)
    m = depth - f
    n = 2 ** f
    fb, fg = _fine_gaps()
    s = w * 3.0 ** -m
    # the last factor of each block is 1 (a zero-width pad) so n is a power of 2
    b = np.zeros(n)
    np.multiply(fb[:n - 1], s, out=b[:n - 1])
    g = np.zeros(n)
    np.multiply(fg[:n - 1], s, out=g[:n - 1])
    cplx = isinstance(z, complex)
    x, y = (z.real, z.imag) if cplx else (z, 0.0)
    dx, den = np.empty(n), np.empty(n)
    u = np.empty(n, dtype=complex if cplx else float)
    starts = l + w * cantor_starts(m)
    blocks = np.empty(starts.size, dtype=u.dtype)
    for i, c in enumerate(starts):
        np.add(b, c - x, out=dx)  # b − x
        if cplx:
            # g/(b − z) = g·(dx + iy)/(dx² + y²)
            np.multiply(dx, dx, out=den)
            den += y * y
            np.divide(g, den, out=den)
            np.multiply(den, dx, out=u.real)
            np.multiply(den, y, out=u.imag)
        else:
            np.divide(g, dx, out=u)
        blocks[i] = _product_minus_one(u)
    out = _product_minus_one(blocks)
    if m:
        coarse = _ratio_minus_one(l, w, m, z)
        out = out + coarse + out * coarse
    return out


@functools.lru_cache(maxsize=256)
def _ratio_norm_at_i(l: float, r: float, depth: int) -> float:
    """|R_d(i)| = ∏|i−a|/|i−b| for the generator on [l, r]."""
    return float(abs(1.0 + _ratio_minus_one(l, r - l, depth, 1j)))


def k_structure(o: ArcSet) -> KreinStructure:
    """σ, Γ, zeros and poles of k_O (:attr:`KreinProduct.structure`) for a
    Lebesgue-regular explicit set.  A pole or zero at ∞ means linear growth
    / decay there."""
    if any(arc.puncture for arc in o.arcs):
        raise ValueError("punctured-circle sets behave as constants; "
                         "regularize before asking for structure")
    if not is_regular(o):
        raise ValueError("set is not Lebesgue regular; call regularize first")
    return KreinProduct(o).structure


def equivariance_transport(k: KreinProduct, phi: HalfPlaneAuto):
    """(k', c) with k' over φ⁻¹(O) and k_{φ⁻¹(O)} = c · k_O ∘ φ, c = 1/|k_O(φ(i))|."""
    if k.cantor is not None:
        raise ValueError("equivariance transport requires a finite explicit set")
    value = k(phi(1j))
    c = 1.0 / abs(value)
    return KreinProduct(pullback_arcset(phi, k.arcs)), c


def cantor_complement_product(base=(0, 1), depth: int = 30, tol: float = 1e-9) -> KreinProduct:
    """Kreĭn product over the full complement of the Cantor set built on base:
    the two half-lines outside [l, r] plus the removed middle thirds.  Its
    value is −1 in the infinite-depth limit."""
    l, r = base
    exterior = normalize([Arc(INF, l), Arc(r, INF)])
    return KreinProduct(arcs=exterior, cantor=CantorComplement((l, r), depth), tol=tol)
