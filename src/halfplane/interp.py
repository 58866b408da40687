"""Boundary interpolation: functions with prescribed real zeros and poles.

Given disjoint finite sets A (zeros), B (poles) and Y (allowed singular
points), a Kreĭn product with exactly those zeros and poles exists iff A and
B interlace in each component of the complement of Y.  The construction
sweeps each component, pairing every pole with the nearest following zero;
an unpaired leading zero or trailing pole (a "loner") is paired with the
component endpoint, which may introduce a pole or zero at a point of Y —
reported, never suppressed.  A Cayley transport turns the result into a
disk interpolant with prescribed level sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, INF, arcset_contains_arc,
                      boundary_samples, circle_key, circle_minus_points,
                      closed_complement, is_inf, is_regular, normalize,
                      point_to_json, points_equal, regularize)
from .factor import (Certification, CertificationError, CompositeFunction,
                     ExpRep)
from .krein import KreinProduct, merged_structure
from .moebius import DiskMap, cayley, cayley_inverse_point, disk_target_map
from .util import cabs, frozen, halton


class InterlacingError(ValueError):
    """The prescribed zeros and poles do not interlace."""


@dataclass(frozen=True)
class InterpProblem:
    """Prescribed zeros A, poles B and allowed singular points Y.

    Points live on R ∪ {∞}; ∞ may appear in A or B (it does after pulling a
    disk problem back through a Cayley map) and in Y.  All three sets must
    be pairwise disjoint.
    """

    zeros: tuple = ()
    poles: tuple = ()
    singular: tuple = ()

    def __post_init__(self):
        z = _clean_points(self.zeros)
        p = _clean_points(self.poles)
        y = _clean_points(self.singular)
        for left, right, names in ((z, p, "zeros/poles"), (z, y, "zeros/singular"),
                                   (p, y, "poles/singular")):
            for u in left:
                if any(points_equal(u, v) for v in right):
                    raise ValueError(f"{names} sets are not disjoint at {u}")
        object.__setattr__(self, "zeros", z)
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "singular", y)

    def to_json(self):
        return {"zeros": [point_to_json(x) for x in self.zeros],
                "poles": [point_to_json(x) for x in self.poles],
                "singular": [point_to_json(x) for x in self.singular]}


def _clean_points(pts):
    out = []
    for x in pts:
        if isinstance(x, float) and math.isnan(x):
            raise ValueError("a prescribed point is NaN")
        x = INF if (isinstance(x, float) and math.isinf(x)) else x
        if any(points_equal(x, q) for q in out):
            raise ValueError(f"duplicate point {x}")
        out.append(x)
    return tuple(sorted(out, key=circle_key()))


@dataclass(frozen=True)
class InterlacingReport:
    ok: bool
    witness: Optional[tuple] = None  # (kind, p, q, component)

    def __bool__(self):
        return self.ok


def _components(p: InterpProblem) -> list:
    """(component, points, tags) for each component of (R ∪ {∞}) ∖ Y in the
    circle order of its pole end (the first failing component names the
    witness): the prescribed points in their order along it, tagged "A"
    (zero) or "B" (pole).  Without Y the one component is the full circle,
    None."""
    key = circle_key()
    marked = sorted([(x, "A") for x in p.zeros] + [(x, "B") for x in p.poles]
                    + [(y, "Y") for y in p.singular], key=lambda m: key(m[0]))
    if not p.singular:
        return [(None, [x for x, _ in marked], [t for _, t in marked])]
    comps = list(circle_minus_points(p.singular).arcs)
    if is_inf(comps[0].b) and len(comps) > 1:
        comps = comps[1:] + comps[:1]  # the component from ∞ comes last
    # the points after the first point of Y, then those before it, are in
    # circle order along the components from each point of Y to the next
    start = next(i for i, (_, tag) in enumerate(marked) if tag == "Y")
    walk = []
    for x, tag in marked[start:] + marked[:start]:
        if tag == "Y":
            walk.append((comps[len(walk)], [], []))
        else:
            walk[-1][1].append(x)
            walk[-1][2].append(tag)
    return walk


def check_interlacing(p: InterpProblem) -> InterlacingReport:
    """Between two prescribed zeros of a component there must be a prescribed
    pole, and vice versa; equivalently, the merged sequence alternates.

    In the absence of singular points the circle is cut at ∞ (so wrap
    adjacency is exempt) unless ∞ itself is prescribed, in which case the
    alternation is checked cyclically.
    """
    return _interlacing(_components(p))


def _interlacing(components) -> InterlacingReport:
    for comp, seq, tags in components:
        pairs = list(zip(range(len(seq) - 1), range(1, len(seq))))
        cyclic = (comp is None
                  and any(is_inf(x) for x in seq)
                  and len(seq) > 2)
        if cyclic:
            pairs.append((len(seq) - 1, 0))
        for i, j in pairs:
            if tags[i] == tags[j]:
                kind = "zeros_without_pole" if tags[i] == "A" else "poles_without_zero"
                return InterlacingReport(False, (kind, seq[i], seq[j], comp))
    return InterlacingReport(True)


def construct_O(p: InterpProblem) -> ArcSet:
    """The smallest Lebesgue-regular open set whose Kreĭn product realizes
    the prescription: poles pair with the nearest following zero; loners
    pair with the component endpoint (or wrap through ∞ when both a leading
    zero and a trailing pole remain on the cut circle)."""
    components = _components(p)
    rep = _interlacing(components)
    if not rep.ok:
        raise InterlacingError(f"interlacing violated: {rep.witness}")
    arcs = []
    for comp, seq, tags in components:
        if seq:
            arcs.extend(_sweep_component(comp, seq, tags))
    if not arcs:
        return EMPTY
    return regularize(normalize(arcs))


def _sweep_component(comp, seq, tags):
    arcs = []
    leading_zero = None
    open_pole = None
    for x, tag in zip(seq, tags):
        if tag == "B":
            open_pole = x
        elif open_pole is not None:
            arcs.append(Arc(open_pole, x))
            open_pole = None
        else:
            leading_zero = x
    trailing_pole = open_pole

    if comp is None:
        if any(is_inf(x) for x in seq):
            # cyclic pairing: a trailing pole wraps onto the leading zero
            if (leading_zero is None) != (trailing_pole is None):
                raise InterlacingError(
                    "a zero or pole at ∞ leaves an unmatchable loner")
            if leading_zero is not None:
                arcs.append(Arc(trailing_pole, leading_zero))
            return arcs
        if leading_zero is not None and trailing_pole is not None:
            arcs.append(Arc(trailing_pole, leading_zero))  # wrap through ∞
        elif leading_zero is not None:
            arcs.append(Arc(INF, leading_zero))
        elif trailing_pole is not None:
            arcs.append(Arc(trailing_pole, INF))
        return arcs

    c, d = comp.b, comp.a  # component endpoints (may coincide for a puncture)
    if leading_zero is not None:
        arcs.append(Arc(c, leading_zero))
    if trailing_pole is not None:
        arcs.append(Arc(trailing_pole, d))
    return arcs


@dataclass
class BuildResult:
    problem: InterpProblem
    region: ArcSet
    k: KreinProduct
    certifications: list = field(default_factory=list)
    extra_poles: tuple = ()
    extra_zeros: tuple = ()

    def __call__(self, z):
        return self.k(z)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certifications)


def build_function(p: InterpProblem) -> BuildResult:
    """f = k_O for O = construct_O(p), with certified zeros at A, poles at B,
    and real analyticity off B ∪ Y.  Poles or zeros forced at points of Y by
    loner pairing are reported in extra_poles / extra_zeros."""
    o = construct_O(p)
    certs, extra_poles, extra_zeros = certify_region(o, p)
    result = BuildResult(p, o, KreinProduct(o), certs, extra_poles, extra_zeros)
    if not result.ok:
        raise CertificationError(
            f"build certification failed: {[c.name for c in certs if not c.passed]}",
            worst=result)
    return result


def certify_region(o: ArcSet, p: InterpProblem) -> tuple:
    """(certifications, extra_poles, extra_zeros) of k_O for the prescription
    p, read from the zeros and poles of k_O (``krein.merged_structure``), which
    are exact: k_O is 0.0 at each zero and the ∞ marker at each pole.

    ``zeros`` and ``poles``: the largest distance from a prescribed zero
    (pole) to the nearest zero (pole) of k_O, ∞ being at distance 0 from
    itself and inf from the rest.  ``real_off_singular``: k_O is real
    analytic on the line off B ∪ Y when each finite pole is a point of B ∪ Y,
    so the largest distance from such a pole to the nearest point of B ∪ Y.
    The points of Y that are poles (zeros) of k_O are the extra poles
    (zeros); ∞ between two half-lines of O is neither."""
    s = merged_structure(o)
    certs = [_farthest("zeros", p.zeros, s.zeros, 1e-10),
             _farthest("poles", p.poles, s.poles, 0.0),
             _farthest("real_off_singular", [b for b in s.poles if not is_inf(b)],
                       p.poles + p.singular, 1e-12)]
    extra_poles = tuple(y for y in p.singular if any(points_equal(y, b) for b in s.poles))
    extra_zeros = tuple(y for y in p.singular if any(points_equal(y, a) for a in s.zeros))
    return certs, extra_poles, extra_zeros


def _farthest(name, points, ends, tol) -> Certification:
    # the largest distance from one of the points to the nearest of the ends,
    # against tol; a failure names the farthest point
    worst, at = 0.0, None
    finite = [float(e) for e in ends if not is_inf(e)]
    for x in points:
        if is_inf(x):
            d = 0.0 if len(finite) < len(ends) else INF
        else:
            d = min((abs(e - float(x)) for e in finite), default=INF)
        if d > worst:
            worst, at = d, x
    passed = worst <= tol
    return Certification(name, worst, tol, passed, "" if passed else f"farthest at {at}")


def realizable_pair(omega: ArcSet, o: ArcSet):
    """Can (Ω, O) occur as (Ω(f), Γ(f))?  Checks (a) O ⊆ Ω, (b) O Lebesgue
    regular, (c) Ω = Ω₁ ∖ X with Ω₁ the regularization of Ω and X the left
    endpoints of O.  On success returns the witness f = k_O e^v with ψ = 1/2
    on the complement of Ω₁."""
    failures = []
    if not o.is_empty and not o.full:
        for arc in o.arcs:
            if not arcset_contains_arc(omega, arc):
                failures.append(("a", f"component {arc!r} of O is not inside Omega"))
                break
    elif o.full and not omega.full:
        failures.append(("a", "O is the full circle but Omega is not"))
    if not is_regular(o):
        failures.append(("b", "O is not Lebesgue regular"))
    omega1 = regularize(omega)
    x_pts = () if (o.full or o.is_empty) else o.left_endpoints()
    expected = omega1.remove_points(x_pts)
    if not expected.isclose(omega, 1e-9):
        failures.append(("c", "Omega differs from its regularization minus X"))
    if failures:
        return False, failures, None

    # density 1/2 on the gaps of Ω₁ keeps the exponent's boundary phase
    # strictly inside (0, π); Ω₁ is regular, so no gap is a single finite
    # point, and a gap that is only ∞ carries no interval
    gaps = closed_complement(omega1)[0]
    exp = ExpRep(0.0, tuple((l, r, 0.5) for l, r in gaps)) if gaps else None
    f = CompositeFunction(1.0, KreinProduct(o), exp)

    sign_resid = _sign_certificate(f, omega, o)
    if not sign_resid <= 1e-9:
        return False, [("sign", f"residual {sign_resid:.2e}")], f
    return True, [], f


def _sign_certificate(f, omega: ArcSet, o: ArcSet) -> float:
    """max violation of: f < 0 on O, f > 0 on Ω off the closure of O;
    refused points and the ∞ marker are skipped."""
    ends = ([] if o.full or o.is_empty
            else list(o.left_endpoints()) + list(o.right_endpoints()))
    outside = [x for x in boundary_samples(omega, 12)
               if not (o.contains(x, 1e-7) or any(points_equal(x, e, 1e-7) for e in ends))]
    parts = []
    for xs, sign in ((boundary_samples(o, 12), 1.0), (outside, -1.0)):
        v, refused = f.masked(np.array(xs, dtype=complex))
        parts.append(sign * v.real[~refused & ~np.isinf(v.real)])
    return float(np.max(np.concatenate(parts), initial=0.0))


@dataclass
class DiskInterpolation:
    problem: InterpProblem
    region: ArcSet
    target: DiskMap
    base: DiskMap
    k: KreinProduct
    certifications: list = field(default_factory=list)

    def __call__(self, w):
        """θ(w) for |w| ≤ 1, or at each point of an ndarray."""
        fv = self.k(self._pull(w))
        return self.target(fv if isinstance(w, np.ndarray) else fv.item())

    def masked(self, w):
        """(θ, refused) at the points of an ndarray w: ``refused`` marks the
        points whose Kreĭn value is refused, with placeholder values."""
        values, tails = self.k.eval(self._pull(w), strict=False)
        return self.target(values), np.isinf(tails)

    def _pull(self, w):
        # C⁺ points within 1e-13 of the real line are evaluated on it
        z = self.base.inverse_apply(np.ravel(np.asarray(w, dtype=complex)))
        z.imag[np.abs(z.imag) < 1e-13] = 0.0
        return z.reshape(np.shape(w))

    @property
    def ok(self):
        return all(c.passed for c in self.certifications)


def disk_interpolate(zeros, poles, singular, alpha, beta, zeta) -> DiskInterpolation:
    """Disk-boundary interpolant θ with θ = α exactly on the prescribed zeros
    set, θ = β on the prescribed poles set, |θ| = 1 off the singular set.

    The circle data is pulled back to R ∪ {∞} through the Cayley map based at
    ζ, the Kreĭn product is built there, and the result is pushed forward by
    the target Möbius map sending 0 ↦ α and ∞ ↦ β.
    """
    base = cayley(zeta)
    m = disk_target_map(alpha, beta)

    def pull(w):
        w = complex(w)
        if abs(abs(w) - 1.0) > 1e-9:
            raise ValueError(f"{w} is not on the unit circle")
        return cayley_inverse_point(base, w)

    problem = InterpProblem(zeros=tuple(pull(w) for w in zeros),
                            poles=tuple(pull(w) for w in poles),
                            singular=tuple(pull(w) for w in singular))
    build = build_function(problem)
    theta = DiskInterpolation(problem, build.region, m, base, build.k)
    certs = theta.certifications

    inner, circle = _disk_grids()
    worst_in = float(np.max(cabs(theta(inner))))
    # a trivial prescription gives a unimodular constant, which maps the disk
    # to its boundary rather than strictly inside
    constant = build.region.is_empty or build.region.full
    in_tol = 1.0 + 1e-12 if constant else 1.0 - 1e-12
    certs.append(Certification("interior_contraction", worst_in, in_tol,
                               worst_in <= in_tol))

    avoid = np.array([complex(w) for w in list(singular) + list(poles)])
    ws = circle[~(cabs(circle[:, None] - avoid) < 1e-2).any(axis=1)]
    values, refused = theta.masked(ws)
    worst_bnd = float(np.max(np.abs(cabs(values[~refused]) - 1.0), initial=0.0))
    certs.append(Certification("boundary_unimodular", worst_bnd, 1e-8,
                               worst_bnd <= 1e-8))

    worst_level = float(np.max(np.concatenate(
        [cabs(theta(np.array(pts, dtype=complex)) - complex(v))
         for pts, v in ((zeros, alpha), (poles, beta))]), initial=0.0))
    certs.append(Certification("level_sets", worst_level, 1e-8, worst_level <= 1e-8))
    if not theta.ok:
        raise CertificationError(
            f"disk certification failed: {[c.name for c in certs if not c.passed]}",
            worst=theta)
    return theta


@functools.cache
def _disk_grids():
    """The 100 Halton points of the disk of radius 0.92 and the 72 points of
    the unit circle that certify a disk interpolant."""
    inner = []
    for j in range(1, 101):
        r = 0.92 * math.sqrt(halton(j, 2))
        ang = 2.0 * math.pi * halton(j, 3)
        inner.append(r * complex(math.cos(ang), math.sin(ang)))
    circle = [complex(math.cos(ang), math.sin(ang))
              for ang in (2.0 * math.pi * (j + 0.37) / 72.0 for j in range(72))]
    return frozen(np.array(inner)), frozen(np.array(circle))
