"""Shared numeric helpers: monotone root bracketing, Richardson ladders,
low-discrepancy grids."""

from __future__ import annotations


class RootBracketError(RuntimeError):
    """A sign bracket for a monotone root could not be established."""


class RecoveryError(RuntimeError):
    """A boundary-limit ladder failed to converge (oscillating estimates)."""


def bisect_increasing(fn, lo: float, hi: float) -> float:
    """Zero of an increasing function on [lo, hi], requiring fn(lo) < 0 < fn(hi)."""
    if lo > hi:
        raise RootBracketError(f"inverted bracket [{lo}, {hi}]")
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0 or fhi < 0:
        raise RootBracketError(f"no sign change on [{lo}, {hi}]: "
                               f"f(lo)={flo:.3g}, f(hi)={fhi:.3g}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def shrink_to_sign(fn, anchor: float, other: float, *, negative: bool) -> float:
    """Point between anchor and other, close to anchor, where fn has the
    requested sign.  Used to bracket roots against a pole-like endpoint."""
    step = (other - anchor) * 0.25
    for _ in range(120):
        x = anchor + step
        v = fn(x)
        if v != 0.0 and (v < 0) == negative:
            return x
        step *= 0.5
    raise RootBracketError(f"no {'negative' if negative else 'positive'} value "
                           f"of f approaching {anchor}")


def expand_to_sign(fn, start: float, direction: float, *, negative: bool) -> float:
    """Point start + direction*2^k with the requested sign of fn."""
    step = 1.0
    for _ in range(200):
        x = start + direction * step
        v = fn(x)
        if v != 0.0 and (v < 0) == negative:
            return x
        step *= 2.0
    raise RootBracketError("sign not reached while expanding toward infinity")


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


def halton_box(n: int, re_lo: float, re_hi: float, im_lo: float, im_hi: float):
    """n quasi-random complex points in the open box (re, im) ranges."""
    pts = []
    for k in range(1, n + 1):
        x = re_lo + (re_hi - re_lo) * halton(k, 2)
        y = im_lo + (im_hi - im_lo) * halton(k, 3)
        if y <= 0:
            y = im_lo + 0.5 * (im_hi - im_lo) * halton(k, 5)
        pts.append(complex(x, y))
    return pts
