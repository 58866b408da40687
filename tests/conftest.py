"""Shared random-instance generators (seeded; no global state), and the
command each example spec runs under."""

import json

import numpy as np
import pytest

from halfplane.extreal import Arc, INF, arc_segments, normalize
from halfplane.moebius import HalfPlaneAuto
from halfplane.nevanlinna import Measure, NevanlinnaRep


def command_for(path):
    """The CLI command an example spec runs under: a function spec whose file
    name starts with "factor" under factor, any other function spec under
    eval, a problem spec under solve."""
    body = json.loads(path.read_text())
    task = next(k for k in body if k not in ("version", "options"))
    if task in ("nevanlinna", "krein", "product"):
        return "factor" if path.name.startswith("factor") else "eval"
    return "solve"


def sep_points(rng, n, lo, hi, gap):
    """n points in (lo, hi) with pairwise separation at least gap."""
    if n == 0:
        return []
    slots = int((hi - lo) / gap) - 1
    idx = rng.choice(slots, size=min(n, slots), replace=False)
    return sorted(lo + gap * (i + 0.5) + rng.uniform(-0.3, 0.3) * gap for i in idx)


def random_arcset(rng, max_arcs=4, styles=("finite", "left", "right", "wrap")):
    n = int(rng.integers(1, max_arcs + 1))
    pts = sep_points(rng, 2 * n, -8.0, 8.0, 0.4)
    arcs = [Arc(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)]
    style = styles[int(rng.integers(0, len(styles)))]
    if style == "left" and arcs:
        arcs[0] = Arc(INF, arcs[0].a)
    elif style == "right" and arcs:
        arcs[-1] = Arc(arcs[-1].b, INF)
    elif style == "wrap" and arcs:
        last = arcs.pop()
        first = arcs.pop(0) if arcs else None
        wrap_a = first.a if first is not None else last.b - 0.7
        arcs.append(Arc(last.b, wrap_a - 17.0 if first is None else first.b - 1.0))
    try:
        return normalize(arcs)
    except ValueError:
        return normalize([Arc(0.0, 1.0)])


def random_bounded_arcset(rng, max_arcs=4):
    return random_arcset(rng, max_arcs, styles=("finite",))


def random_auto(rng):
    phi = HalfPlaneAuto.identity()
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(0, 3)
        if kind == 0:
            phi = phi.compose(HalfPlaneAuto.translation(float(rng.uniform(-3, 3))))
        elif kind == 1:
            phi = phi.compose(HalfPlaneAuto.scaling(float(rng.uniform(0.3, 3.0))))
        else:
            phi = phi.compose(HalfPlaneAuto.inversion())
    return phi


def random_atomic_rep(rng, max_atoms=8, alpha=None):
    n = int(rng.integers(1, max_atoms + 1))
    ts = sep_points(rng, n, -5.0, 5.0, 0.35)
    ws = rng.uniform(0.2, 2.0, size=len(ts))
    if alpha is None:
        alpha = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.7 else 0.0
    beta = float(rng.uniform(-3.0, 3.0))
    atoms = tuple((float(t), float(w)) for t, w in zip(ts, ws))
    return NevanlinnaRep(alpha, beta, Measure(atoms=atoms))


def random_upper_points(rng, n, box=(-6, 6, 0.1, 5)):
    re = rng.uniform(box[0], box[1], size=n)
    im = rng.uniform(box[2], box[3], size=n)
    return [complex(x, y) for x, y in zip(re, im)]


def k_integral(o, z):
    """k_O(z) = e^{v(z)} with v(z) = ∫_O (1+tz)/(t−z) · dt/(1+t²), by
    30-digit quadrature arc by arc; Im z > 0.  Independent of the closed
    forms it cross-checks."""
    mp = pytest.importorskip("mpmath")
    arcs = [Arc(INF, INF, puncture=True)] if o.full else o.arcs
    with mp.workdps(30):
        zz = mp.mpc(z)

        def integrand(t):
            return (1 + t * zz) / ((t - zz) * (1 + t * t))

        v = mp.fsum(mp.quad(integrand, [mp.mpf(lo), mp.mpf(hi)])
                    for arc in arcs for lo, hi in arc_segments(arc)[0])
        return complex(mp.exp(v))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
