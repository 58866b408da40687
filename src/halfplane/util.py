"""Shared numeric helpers: ``branch_roots``, the one root kernel behind Γ(f),
Boole, Letac and black-box Γ (certified roots of increasing functions, one
per branch, and a narrower certified radius on request), Richardson
ladders, low-discrepancy grids, and the evaluators' array contract.

The contract has one home here.  Every evaluator (p_J, k_O, the Nevanlinna
representation and its Cauchy transform, e^h, the composite, the Möbius
and Cayley maps) reads z's points with :func:`points`, so that ∞ is ±inf
in a real array and inf+0j in a complex one; divides with
:func:`quotient`, which puts the ∞ marker math.inf where a denominator is
0; and returns :func:`shaped` values.  Complex arithmetic is numpy's own:
a scalar call of an evaluator is its array pass on one point, so an array
value equals the scalar one bit for bit by construction, whatever numpy's
last bit is."""

from __future__ import annotations

import functools
import math

import numpy as np


class RootBracketError(RuntimeError):
    """A sign bracket for a monotone root could not be established."""


class RecoveryError(RuntimeError):
    """A boundary-limit ladder failed to converge (oscillating estimates)."""


BRACKET = 4e-12  # relative half-width of the sign bracket that accepts a root
_EPS = float(np.finfo(float).eps)


def branch_roots(terms, ulps, target, seeds, lo, hi):
    """Certified roots of f(x) = target[k], one on each branch (lo[k], hi[k])
    where f increases from below target to above it.  terms maps an array
    of points to the summands of f, one row per point; ulps bounds each
    summand's rounding error in eps (one bound per column).  The other
    arguments are aligned arrays.

    Seeds are clipped into their open branches.  Each root comes from tables
    of f at x and at x ∓ w, w = (1 − 2e-3)·δ(x), δ = 4e-12·max(1, |x|), with
    the ends clipped into the open branch: a bracket end's sign counts where
    it clears a bound on the float error of f, the summands' own rounding
    plus that of summing them.  Where both signs count and the secant step
    s = x − f(x)·(x₊ − x₋)/(f(x₊) − f(x₋)) stays in the bracket and moves x
    by at most 1e-3·δ(x), the root is s, and
    |s − root| ≤ |s − x| + w ≤ (1 − 1e-3)·δ(x) ≤ δ(s).  Otherwise x moves to
    s and is tabled again, while s lies inside the branch, differs from x
    and the root has tables left, eight at a time.  Where it cannot, x is
    bisected to the bracket's width, once, and restarts from the midpoint
    with eight more tables; after those, the root stands at x where the
    signs of the table at x count, within w of the root, and otherwise
    raises RootBracketError."""
    target = np.asarray(target, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inner = np.nextafter(lo, hi), np.nextafter(hi, lo)  # the open branches' float ends
    with np.errstate(all="ignore"):
        x = np.minimum(np.maximum(seeds, inner[0]), inner[1])
        x, ok = _settled(terms, ulps, target, x, inner, _TABLES, True)
    if not ok.all():
        k = int(np.argmin(ok))
        raise RootBracketError(
            f"no sign bracket for the root {float(x[k])} of f = {float(target[k])} "
            f"on the branch ({float(lo[k])}, {float(hi[k])})")
    return x + 0.0  # a root at −0.0 reads 0.0


_TABLES = 8  # tables a row steps through before it is bisected, and after


def _settled(terms, ulps, target, x, inner, left, fresh):
    # (the roots, accepted): the table at x gives the roots it accepts; each
    # other row moves to its step while that lies in its branch and it has
    # tables ``left``, else is bisected once (while ``fresh``), and is
    # tabled again; a row that can do neither stands at x on its signs
    step, ok, signs = _tabled(terms, ulps, target, x, inner)
    if ok.all():
        return step, ok
    rows = (~ok).nonzero()[0]
    lo, hi, s, x = inner[0][rows], inner[1][rows], step[rows], x[rows]
    left = np.broadcast_to(left, ok.shape)[rows] - 1
    fresh = np.broadcast_to(fresh, ok.shape)[rows]
    move = (lo <= s) & (s <= hi) & (s != x) & (left > 0)
    stuck = ~move & fresh
    x[move] = s[move]
    if stuck.any():
        below, above = _bisect(terms, target[rows][stuck], lo[stuck], hi[stuck])
        # in the open branch, as the seeds: adjacent floats' midpoint may round onto an end
        x[stuck] = np.minimum(np.maximum(0.5 * below + 0.5 * above, lo[stuck]), hi[stuck])
        left[stuck] = _TABLES
    again = move | stuck
    stand = rows[~again]
    step[stand], ok[stand] = x[~again], signs[stand]
    if again.any():
        sub = rows[again]
        step[sub], ok[sub] = _settled(terms, ulps, target[sub], x[again], (lo[again], hi[again]),
                                      left[again], fresh[again] & ~stuck[again])
    return step, ok


def _tabled(terms, ulps, target, x, inner):
    # (the secant steps, accepted, signs that count): f at the 3m points x,
    # x − w and x + w in one table, w = (1 − 2e-3)·δ(x), the ends clipped
    # into the open branch
    m = len(x)
    delta = BRACKET * np.maximum(1.0, np.abs(x))
    w = (1.0 - 2e-3) * delta
    pts = np.concatenate((x, np.maximum(x - w, inner[0]), np.minimum(x + w, inner[1])))
    summands, targets = terms(pts), np.concatenate((target, target, target))
    values, rounding, slack = _sum_error(summands, ulps, targets)
    _exact_close(summands[m:], values[m:], rounding[m:] + slack[m:], targets[m:])
    lower, upper = pts[m:2 * m], pts[2 * m:]
    below, above = values[m:2 * m], values[2 * m:]
    step = x - values[:m] * (upper - lower) / (above - below)
    signs = (below <= -rounding[m:2 * m]) & (above >= rounding[2 * m:])
    short = (lower <= step) & (step <= upper) & (np.abs(step - x) <= 1e-3 * delta)
    return step, signs & short, signs


def root_radii(terms, ulps, target, x, lo, hi):
    """Radii r, the root of f = target on (lo[k], hi[k]) within r[k] of each
    root x[k] that :func:`branch_roots` accepted there, with the arguments
    as there: the half-width w of a narrower sign bracket where its signs
    clear f's whole float error (its summands' rounding and the summation's
    slack), else the accepted 4e-12·max(1, |x|).  w is four times that
    error at the accepted bracket over f′, read off that bracket's secant,
    so that the narrow signs clear it without exact sums."""
    target = np.asarray(target, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m = len(x)
    with np.errstate(all="ignore"):
        # the accepted bracket: its lower ends, then its upper ones
        delta = BRACKET * np.maximum(1.0, np.abs(x))
        ends = np.concatenate((np.maximum(x - delta, np.nextafter(lo, hi)),
                               np.minimum(x + delta, np.nextafter(hi, lo))))
        values, rounding, slack = excess(terms, ulps, np.concatenate((target, target)), ends)
        error = rounding + slack
        w = 4.0 * np.maximum(error[:m], error[m:]) * (ends[m:] - ends[:m]) / (values[m:] - values[:m])
        narrow = np.concatenate((x - w, x + w))
        v, rounding, slack = _sum_error(terms(narrow), ulps, np.concatenate((target, target)))
        v /= rounding + slack
    lower, upper = narrow[:m], narrow[m:]
    ok = (w < delta) & (lo < lower) & (upper < hi) & (v[:m] <= -1.0) & (v[m:] >= 1.0)
    # the distance to the bracket's own ends, x ∓ w rounded, rounded up
    return np.where(ok, np.nextafter(np.maximum(x - lower, upper - x), np.inf), delta)


def _sum_error(summands, ulps, target):
    # (the sum less target, the summands' own rounding, the summation's slack):
    # summed in any order, the n summands and the target are within
    # (n + 1)·eps·(their total size) of their exact sum
    size = np.abs(summands)
    rounding = _EPS * np.einsum("ij,j->i", size, ulps)
    slack = (summands.shape[1] + 1) * _EPS * (size.sum(axis=1) + np.abs(target))
    return summands.sum(axis=1) - target, rounding, slack


def excess(terms, ulps, target, x):
    """(f(x) − target, bound, slack) at the points of x, with terms and ulps
    as in :func:`branch_roots`: the sign of the difference is certain where
    it clears the bound on the summands' own rounding.  The slack bounds the
    error of summing them; where it could flip a sign, the values are exact
    sums instead."""
    summands = terms(x)
    values, rounding, slack = _sum_error(summands, ulps, target)
    _exact_close(summands, values, rounding + slack, target)
    return values, rounding, slack


def _exact_close(summands, values, error, target):
    # values (in place) as exact sums of each row less its target where the
    # float error could flip their sign
    close = (np.abs(values) <= error).nonzero()[0].tolist()
    if close:  # as lists: one conversion, not one per row
        rows, targets = summands.tolist(), target.tolist()
        for k in close:
            values[k] = math.fsum([*rows[k], -targets[k]])


def _bisect(terms, target, lo, hi):
    # the branch ends' signs are known, so only midpoints are evaluated;
    # 1100 halvings take any float interval down to the bracket's width;
    # the ends are halved before they are added, so that ends past half the
    # largest double do not overflow
    for _ in range(1100):
        mid = 0.5 * lo + 0.5 * hi
        if np.all(hi - lo <= BRACKET * np.maximum(1.0, np.abs(mid))):
            break
        below = terms(mid).sum(axis=1) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo, hi


def richardson(values, ratio: float) -> float:
    """Extrapolate a ladder v(h), v(h/ratio), ... to h -> 0.

    Successive sweeps eliminate the error terms h, h², h³, h⁴.  Eliminating
    an absent term is harmless, so these orders cover both odd and even
    expansions.
    """
    table = list(values)
    for p in (1, 2, 3, 4):
        if len(table) < 2:
            break
        fac = ratio ** p
        table = [(fac * b - a) / (fac - 1.0) for a, b in zip(table, table[1:])]
    return table[-1]


def ladder_limit(sample, eps_values, *, ratio: float = 2.0,
                 consistency: float = 1e-6) -> float:
    """Richardson limit of sample(eps) along a geometric eps ladder.

    The last two extrapolations must agree within ``consistency`` (absolute
    plus relative); otherwise the ladder is reported as non-convergent.
    """
    vals = [sample(e) for e in eps_values]
    full = richardson(vals, ratio)
    prev = richardson(vals[:-1], ratio)
    if abs(full - prev) > consistency * max(1.0, abs(full)):
        raise RecoveryError(f"boundary ladder did not settle: {prev} vs {full}")
    return full


def halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


@functools.cache
def halton_box(n: int, re_lo: float, re_hi: float, im_lo: float, im_hi: float):
    """n quasi-random complex points in the open box (re, im) ranges,
    im_lo > 0, as a read-only array built once per box."""
    pts = []
    for k in range(1, n + 1):
        x = re_lo + (re_hi - re_lo) * halton(k, 2)
        y = im_lo + (im_hi - im_lo) * halton(k, 3)
        pts.append(complex(x, y))
    return frozen(np.array(pts, dtype=complex))


def frozen(a):
    """a, made read-only: cached grids are shared by every caller."""
    a.flags.writeable = False
    return a


def points(z):
    """(pts, inf): the points of z as a flat array, floats for a real z and
    complexes for a complex one, with ∞ (±inf in a real array, inf+0j in a
    complex one) read as 0, and the mask of ∞, None where no point is ∞."""
    pts = np.ravel(z)
    pts = pts if pts.dtype.kind == "c" else pts.astype(float, copy=False)
    inf = np.isinf(pts.real)
    if pts.dtype.kind == "c" and np.count_nonzero(inf):
        inf &= pts.imag == 0
    if not np.count_nonzero(inf):
        return pts, None
    return np.where(inf, 0.0, pts), inf


def quotient(num, den):
    """(num/den, zero) for arrays by numpy's division, with the ∞ marker
    math.inf where den is 0 and ``zero`` marking those (None where no den
    is 0); where numpy's scaled reciprocal of a tiny den leaves the float
    range, the quotients it leaves non-finite are divided again by CPython's
    Smith division.  Both cases are found from the one finiteness check."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = num / den
    if np.isfinite(out).all():
        return out, None
    bad = ~np.isfinite(out)
    dens = np.broadcast_to(den, out.shape)
    zero = bad & (dens == 0)
    bad &= ~zero
    nums = np.broadcast_to(num, out.shape)[bad]
    out[bad] = [x / y for x, y in zip(nums.tolist(), dens[bad].tolist())]
    out[zero] = math.inf
    return out, zero if zero.any() else None


def shaped(values, z, line=False):
    """An evaluator's values at the points of z: in z's shape for an ndarray
    z; at one point, the value as a complex where the values are complex,
    unless it is the ∞ marker, or ``line`` says that the evaluator takes a
    point of the real line in real arithmetic and z is one; else a float."""
    if isinstance(z, np.ndarray):
        return values.reshape(z.shape)
    v = values.item(0)
    if isinstance(v, complex) and v != math.inf and not (line and z.imag == 0):
        return v
    return float(v.real)
