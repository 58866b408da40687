"""Shared numeric helpers: ``branch_roots``, the one root kernel behind Γ(f),
Boole, Letac and black-box Γ (certified roots of increasing functions, one
per branch, and a narrower certified radius on request), Richardson
ladders, low-discrepancy grids, and the complex quotient of the evaluators.

Complex arithmetic is numpy's own: a scalar call of an evaluator is its
array pass on one point, so an array value equals the scalar one bit for
bit by construction, whatever numpy's last bit is."""

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


def branch_roots(terms, ulps, target, seeds, lo, hi, slope=None):
    """Certified roots of f(x) = target[k], one on each branch (lo[k], hi[k])
    where f increases from below target to above it.  terms maps an array
    of points to the summands of f, one row per point; ulps bounds each
    summand's rounding error in eps (one bound per column); slope maps the
    points to f′.  The other arguments are aligned arrays.

    A root x is accepted on a sign bracket f(x − δ) ≤ target ≤ f(x + δ),
    δ = 4e-12·max(1, |x|), its ends clipped into the open branch, where each
    sign must clear a bound on the float error of f: the summands' own
    rounding plus that of summing them.  Seeds are clipped into their
    branches.  Given the slope, each seed x first certifies from one table
    of f at x and at x ∓ w, w = (1 − 2e-3)·δ(x): where both ends' signs
    clear that bound and the secant step s = x − f(x)·(x₊ − x₋)/(f(x₊) − f(x₋))
    stays in the bracket and moves x by at most 1e-3·δ(x), the root is s,
    and |s − root| ≤ |s − x| + w ≤ (1 − 1e-3)·δ(x) ≤ δ(s).  Every other seed
    is polished by Newton steps inside its branch (given the slope) and
    bracketed at δ; unsettled or unbracketed roots are bisected to the
    bracket's width, polished and checked again; a root that still fails
    raises RootBracketError."""
    target = np.asarray(target, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inner = np.nextafter(lo, hi), np.nextafter(hi, lo)  # the open branches' float ends
    with np.errstate(all="ignore"):
        x = np.minimum(np.maximum(seeds, inner[0]), inner[1])
        if slope is None:
            ok = np.zeros(len(x), dtype=bool)
        else:
            x, ok = _tabled(terms, ulps, target, x, inner)
        if not ok.all():
            bad = ~ok
            x[bad], ok[bad] = _polished(terms, ulps, slope, target[bad], x[bad], lo[bad], hi[bad],
                                        (inner[0][bad], inner[1][bad]))
    if not ok.all():
        k = int(np.argmin(ok))
        raise RootBracketError(
            f"no sign bracket for the root {float(x[k])} of f = {float(target[k])} "
            f"on the branch ({float(lo[k])}, {float(hi[k])})")
    return x + 0.0  # a root at −0.0 reads 0.0


def _tabled(terms, ulps, target, x, inner):
    # (the roots, accepted): f at the 3m points x, x − w and x + w in one
    # table, w = (1 − 2e-3)·δ(x) with the ends clipped into the open branch;
    # an accepted seed is replaced by its secant step, the others are kept
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
    ok = ((below <= -rounding[m:2 * m]) & (above >= rounding[2 * m:])
          & (lower <= step) & (step <= upper) & (np.abs(step - x) <= 1e-3 * delta))
    return np.where(ok, step, x), ok


def _polished(terms, ulps, slope, target, x, lo, hi, inner):
    # (the roots, accepted) by Newton from x, then the bracket at δ, then
    # bisection of the roots that fail it, polished and bracketed again
    x, settled = _newton(terms, slope, target, x, lo, hi)
    ok = settled & _bracketed(terms, ulps, target, x, lo, hi, inner)[0]
    if not ok.all():
        bad = ~ok
        blo, bhi = _bisect(terms, target[bad], lo[bad], hi[bad])
        # in the open branch, as the seeds: adjacent floats' midpoint may round onto an end
        mid = np.minimum(np.maximum(0.5 * blo + 0.5 * bhi, inner[0][bad]), inner[1][bad])
        x[bad] = _newton(terms, slope, target[bad], mid, blo, bhi)[0]
        ok = _bracketed(terms, ulps, target, x, lo, hi, inner)[0]
    return x, ok


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
        _, (delta, ends, values, rounding, slack) = _bracketed(
            terms, ulps, target, x, lo, hi, (np.nextafter(lo, hi), np.nextafter(hi, lo)))
        error = rounding + slack
        w = 4.0 * np.maximum(error[:m], error[m:]) * (ends[m:] - ends[:m]) / (values[m:] - values[:m])
        narrow = np.concatenate((x - w, x + w))
        v, rounding, slack = _sum_error(terms(narrow), ulps, np.concatenate((target, target)))
        v /= rounding + slack
    lower, upper = narrow[:m], narrow[m:]
    ok = (w < delta) & (lo < lower) & (upper < hi) & (v[:m] <= -1.0) & (v[m:] >= 1.0)
    # the distance to the bracket's own ends, x ∓ w rounded, rounded up
    return np.where(ok, np.nextafter(np.maximum(x - lower, upper - x), np.inf), delta)


def _newton(terms, slope, target, x, lo, hi):
    # at most eight steps, each kept only inside the branch; a root settles
    # when its last step moves it by at most 1e-3 of the bracket
    if slope is None:
        return x, np.ones(len(x), dtype=bool)
    for _ in range(8):
        step = x - (terms(x).sum(axis=1) - target) / slope(x)
        inside = (lo < step) & (step < hi)
        settled = inside & (np.abs(step - x) <= 1e-3 * BRACKET * np.maximum(1.0, np.abs(x)))
        if settled.all():  # every step inside: no need to pick
            return step, settled
        x = np.where(inside, step, x)
    return x, settled


def _bracketed(terms, ulps, target, x, lo, hi, inner):
    # (accepted, the bracket): its 2m ends in one array, the lower ends, then
    # the upper ones, with δ, f there less the target and its error bounds
    m = len(x)
    delta = BRACKET * np.maximum(1.0, np.abs(x))
    ends = np.empty(2 * m)
    lower, upper = ends[:m], ends[m:]
    np.maximum(np.subtract(x, delta, out=lower), inner[0], out=lower)
    np.minimum(np.add(x, delta, out=upper), inner[1], out=upper)
    values, rounding, slack = excess(terms, ulps, np.concatenate((target, target)), ends)
    ok = ((lo < lower) & (upper < hi)
          & (values <= -rounding)[:m] & (values >= rounding)[m:])
    return ok, (delta, ends, values, rounding, slack)


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
    """n quasi-random complex points in the open box (re, im) ranges, as a
    read-only array built once per box."""
    pts = []
    for k in range(1, n + 1):
        x = re_lo + (re_hi - re_lo) * halton(k, 2)
        y = im_lo + (im_hi - im_lo) * halton(k, 3)
        if y <= 0:
            y = im_lo + 0.5 * (im_hi - im_lo) * halton(k, 5)
        pts.append(complex(x, y))
    return frozen(np.array(pts, dtype=complex))


def frozen(a):
    """a, made read-only: cached grids are shared by every caller."""
    a.flags.writeable = False
    return a


def quotient(num, den):
    """num/den for arrays, den nonzero everywhere, by numpy's division; where
    its scaled reciprocal of a tiny den leaves the float range, the quotients
    it leaves non-finite are divided again by CPython's Smith division."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = num / den
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out)
        nums, dens = np.broadcast_to(num, out.shape)[bad], np.broadcast_to(den, out.shape)[bad]
        out[bad] = [x / y for x, y in zip(nums.tolist(), dens.tolist())]
    return out
