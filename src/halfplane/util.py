"""Shared numeric helpers: ``branch_roots``, the one root kernel behind Γ(f),
Boole, Letac and black-box Γ (certified roots of increasing functions, one
per branch), Richardson ladders, low-discrepancy grids, and complex array
products and quotients that round as CPython's scalar ones do."""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np


class RootBracketError(RuntimeError):
    """A sign bracket for a monotone root could not be established."""


class RecoveryError(RuntimeError):
    """A boundary-limit ladder failed to converge (oscillating estimates)."""


BRACKET = 4e-12  # relative half-width of the sign bracket that accepts a root


def branch_roots(terms, ulps, target, seeds, lo, hi, slope=None):
    """Certified roots of f(x) = target[k], one on each branch (lo[k], hi[k])
    where f increases from below target to above it.  terms maps an array
    of points to the summands of f, one row per point; ulps bounds each
    summand's rounding error in eps (one bound per column); slope maps the
    points to f′.  The other arguments are aligned arrays.

    Seeds are clipped into their branches and, given the slope, polished by
    Newton steps inside them.  A root x is accepted on a sign bracket
    f(x − δ) ≤ target ≤ f(x + δ), δ = 4e-12·max(1, |x|), its ends clipped
    into the open branch, where each sign must clear a bound on the float
    error of f: the summands' own rounding plus that of summing them.
    Unsettled or unbracketed roots are bisected to the bracket's width,
    polished and checked again; a root that still fails raises
    RootBracketError."""
    target = np.asarray(target, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    inner = np.nextafter(lo, hi), np.nextafter(hi, lo)  # the open branches' float ends
    with np.errstate(all="ignore"):
        x = np.minimum(np.maximum(seeds, inner[0]), inner[1])
        x, settled = _newton(terms, slope, target, x, lo, hi)
        ok = settled & _bracketed(terms, ulps, target, x, lo, hi, inner)
        if not ok.all():
            bad = ~ok
            blo, bhi = _bisect(terms, target[bad], lo[bad], hi[bad])
            x[bad] = _newton(terms, slope, target[bad], 0.5 * (blo + bhi), blo, bhi)[0]
            ok = _bracketed(terms, ulps, target, x, lo, hi, inner)
    if not ok.all():
        k = int(np.argmin(ok))
        raise RootBracketError(
            f"no sign bracket for the root {float(x[k])} of f = {float(target[k])} "
            f"on the branch ({float(lo[k])}, {float(hi[k])})")
    return x + 0.0  # a root at −0.0 reads 0.0


def _newton(terms, slope, target, x, lo, hi):
    # at most eight steps, each kept only inside the branch; a root settles
    # when its last step moves it by at most 1e-3 of the bracket
    if slope is None:
        return x, np.ones(len(x), dtype=bool)
    for _ in range(8):
        step = x - (terms(x).sum(axis=1) - target) / slope(x)
        inside = (lo < step) & (step < hi)
        settled = inside & (np.abs(step - x) <= 1e-3 * BRACKET * np.maximum(1.0, np.abs(x)))
        x = np.where(inside, step, x)
        if settled.all():
            break
    return x, settled


def _bracketed(terms, ulps, target, x, lo, hi, inner):
    delta = BRACKET * np.maximum(1.0, np.abs(x))
    ends = np.concatenate((np.maximum(x - delta, inner[0]), np.minimum(x + delta, inner[1])))
    targets = np.concatenate((target, target))
    summands = terms(ends)
    eps, size = np.finfo(float).eps, np.abs(summands)
    rounding = eps * np.einsum("ij,j->i", size, ulps)
    # summed in any order, the n summands and the target are within
    # (n + 1)·eps·(their total size) of their exact sum; where that slack
    # could flip a sign, fsum sums them exactly
    values = summands.sum(axis=1) - targets
    slack = (summands.shape[1] + 1) * eps * (size.sum(axis=1) + np.abs(targets))
    for k in (np.abs(values) <= rounding + slack).nonzero()[0]:
        values[k] = math.fsum([*summands[k].tolist(), -targets[k]])
    m = len(x)
    return ((lo < ends[:m]) & (ends[m:] < hi)
            & (values <= -rounding)[:m] & (values >= rounding)[m:])


def _bisect(terms, target, lo, hi):
    # the branch ends' signs are known, so only midpoints are evaluated;
    # 1100 halvings take any float interval down to the bracket's width
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
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


# numpy's SIMD loops fuse the products of a complex product and divide by
# scaling with a reciprocal, so their last bit differs from CPython's in a
# third of the cases; these two keep an array value equal, bit for bit, to
# the scalar one.  A real operand (float, or real array) multiplies exactly
# under numpy's own ``*``, and np.multiply.reduce/np.add.accumulate along
# the last axis take their terms one by one in order.  Up to _SMALL values,
# CPython's own operator per value is cheaper than a dozen numpy calls.
_SMALL = 256


def cmul(x, y):
    """x·y for a complex array x and a complex array of its shape or a
    scalar y, by CPython's formula."""
    if x.size <= _SMALL:
        return _by_value(operator.mul, x, y)
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def cdiv(x, y):
    """x/y for a complex array x and a complex array of its shape or a
    scalar y, by CPython's scaled division (Smith's method); y must be
    nonzero everywhere."""
    if x.size <= _SMALL:
        return _by_value(operator.truediv, x, y)
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    swap = abs(yr) < abs(yi)
    p, q = np.where(swap, yi, yr), np.where(swap, yr, yi)
    rat = q / p
    den = p + q * rat
    out = np.empty(x.shape, dtype=complex)
    out.real = np.where(swap, xr * rat + xi, xr + xi * rat) / den
    out.imag = np.where(swap, xi * rat - xr, xi - xr * rat) / den
    return out


def _by_value(op, x, y):
    ys = y.ravel().tolist() if np.ndim(y) else itertools.repeat(complex(y))
    return np.array(list(map(op, x.ravel().tolist(), ys)), dtype=complex).reshape(x.shape)


def cabs(x):
    """|x| for a complex array, as CPython's abs (the C library's hypot)."""
    return np.hypot(x.real, x.imag)
