"""Boundary interpolation: functions with prescribed real zeros and poles.

Given disjoint finite sets A (zeros), B (poles) and Y (allowed singular
points), a Kreĭn product with exactly those zeros and poles exists iff A and
B interlace in each component of the complement of Y.  The construction
sweeps each component, pairing every pole with the nearest following zero;
an unpaired leading zero or trailing pole (a "loner") is paired with the
component endpoint, which may introduce a pole or zero at a point of Y —
reported, never suppressed.  A Cayley transport turns the result into a
disk interpolant with prescribed level sets.

Certificates are read from structure where the form decides them.  A
built interpolant's zeros and poles are those of its merged arcs, and a
realizable pair's witness f = k_O·e^v has the sign pattern that checks (a)
to (c) imply: k_O is negative on O and positive off its closure, and e^v is
positive on Ω.  A disk prescription is pulled back in one Cayley pass, and
its interpolant θ = m ∘ k_O ∘ C⁻¹ is certified from the zeros and poles of
k_O and the form of the target map m, without a value of θ: k_O maps C⁺
into C⁺ and the line into the line, and θ is m(0) and m(∞) on the
prescribed zeros and poles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, INF, arcset_contains_arc, as_point,
                      circle_minus_points, closed_complement, is_inf, is_regular,
                      normalize, point_to_json, points_equal, regularize)
from .factor import (Certification, CertificationError, CompositeFunction,
                     ExpRep)
from .krein import KreinProduct
from .moebius import DiskMap, cayley, disk_target_map


class InterlacingError(ValueError):
    """The prescribed zeros and poles do not interlace."""


_SETS = ("zeros", "poles", "singular")


@dataclass(frozen=True)
class InterpProblem:
    """Prescribed zeros A, poles B and allowed singular points Y.

    Points live on R ∪ {∞} (:func:`extreal.as_point`); ∞ may appear in A or
    B (it does after pulling a disk problem back through a Cayley map) and
    in Y.  Each set is kept in circle order from ∞, which is ascending order.
    No two points, in one set or in two, may be ``points_equal``: with the
    three sets sorted together, neighbours are compared.
    """

    zeros: tuple = ()
    poles: tuple = ()
    singular: tuple = ()

    def __post_init__(self):
        sets = [tuple(sorted(as_point(x, "a prescribed point") for x in getattr(self, name)))
                for name in _SETS]
        tagged = sorted((x, k) for k, pts in enumerate(sets) for x in pts)
        for (u, j), (v, k) in zip(tagged, tagged[1:]):
            if points_equal(u, v):
                raise ValueError(f"duplicate point {v}" if j == k else
                                 f"{_SETS[min(j, k)]}/{_SETS[max(j, k)]} sets are not "
                                 f"disjoint at {u}")
        for name, pts in zip(_SETS, sets):
            object.__setattr__(self, name, pts)

    def to_json(self):
        return {"zeros": [point_to_json(x) for x in self.zeros],
                "poles": [point_to_json(x) for x in self.poles],
                "singular": [point_to_json(x) for x in self.singular]}


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
    marked = sorted([(x, "A") for x in p.zeros] + [(x, "B") for x in p.poles]
                    + [(y, "Y") for y in p.singular])
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
    alternation is checked cyclically: a lone ∞ is its own neighbour.
    """
    return _interlacing(_components(p))


def _interlacing(components) -> InterlacingReport:
    for comp, seq, tags in components:
        pairs = list(zip(range(len(seq) - 1), range(1, len(seq))))
        if comp is None and any(is_inf(x) for x in seq):
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
            # cyclic pairing: a trailing pole wraps onto the leading zero, and
            # cyclic alternation leaves both or neither
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
    k = KreinProduct(o)
    certs, extra_poles, extra_zeros = certify_region(k, p)
    result = BuildResult(p, o, k, certs, extra_poles, extra_zeros)
    if not result.ok:
        raise CertificationError(
            f"build certification failed: {[c.name for c in certs if not c.passed]}",
            worst=result)
    return result


def certify_region(k: KreinProduct, p: InterpProblem) -> tuple:
    """(certifications, extra_poles, extra_zeros) of k = k_O for the
    prescription p, read from the zeros and poles of k_O (``k.structure``),
    which are exact: k_O is 0.0 at each zero and the ∞ marker at each pole.

    ``zeros`` and ``poles``: the largest distance from a prescribed zero
    (pole) to the nearest zero (pole) of k_O, ∞ being at distance 0 from
    itself and inf from the rest.  ``real_off_singular``: k_O is real
    analytic on the line off B ∪ Y when each finite pole is a point of B ∪ Y,
    so the largest distance from such a pole to the nearest point of B ∪ Y.
    The points of Y that are poles (zeros) of k_O are the extra poles
    (zeros); ∞ between two half-lines of O is neither."""
    s = k.structure
    certs = [_farthest("zeros", p.zeros, s.zeros, 1e-10),
             _farthest("poles", p.poles, s.poles, 0.0),
             _farthest("real_off_singular", [b for b in s.poles if not is_inf(b)],
                       p.poles + p.singular, 1e-12)]
    extra_poles = tuple(y for y in p.singular if any(points_equal(y, b) for b in s.poles))
    extra_zeros = tuple(y for y in p.singular if any(points_equal(y, a) for a in s.zeros))
    return certs, extra_poles, extra_zeros


def _farthest(name, points, ends, tol) -> Certification:
    # the largest distance from one of the points to the nearest of the ends,
    # ∞ being at distance 0 from itself, against tol; a failure names the
    # first farthest point
    x, e = np.array(points, dtype=float)[:, None], np.array(ends, dtype=float)
    with np.errstate(invalid="ignore"):  # inf − inf
        d = np.where(x == e, 0.0, np.abs(x - e)).min(axis=1, initial=INF)
    worst = float(d.max(initial=0.0))
    passed = worst <= tol
    return Certification(name, worst, tol, passed,
                         "" if passed else f"farthest at {points[d.argmax()]}")


def realizable_pair(omega: ArcSet, o: ArcSet):
    """Can (Ω, O) occur as (Ω(f), Γ(f))?  Checks (a) O ⊆ Ω, (b) O Lebesgue
    regular, (c) Ω = Ω₁ ∖ X with Ω₁ the regularization of Ω and X the poles
    of k_O (``KreinProduct.structure``).  On success returns the witness
    f = k_O e^v with ψ = 1/2 on the complement of Ω₁.  Its signs follow:
    k_O is negative on O and positive off its closure, and e^v is positive
    on Ω₁ ⊇ Ω."""
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
    omega1, k = regularize(omega), KreinProduct(o)
    expected = omega1.remove_points(k.structure.poles)
    if not expected.isclose(omega, 1e-9):
        failures.append(("c", "Omega differs from its regularization minus X"))
    if failures:
        return False, failures, None

    # density 1/2 on the gaps of Ω₁ keeps the exponent's boundary phase
    # strictly inside (0, π); Ω₁ is regular, so no gap is a single finite
    # point, and a gap that is only ∞ carries no interval
    gaps = closed_complement(omega1)[0]
    exp = ExpRep(0.0, tuple((l, r, 0.5) for l, r in gaps)) if gaps else None
    return True, [], CompositeFunction(1.0, k, exp)


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
        # C⁺ points within 1e-13 of the real line are evaluated on it, and so
        # are those below it: a circle point rounded out of the disk near w = 1
        z = self.base.inverse_apply(np.ravel(np.asarray(w, dtype=complex)))
        z.imag[z.imag < 1e-13] = 0.0
        return z.reshape(np.shape(w))

    @property
    def ok(self):
        return all(c.passed for c in self.certifications)


def disk_interpolate(zeros, poles, singular, alpha, beta, zeta) -> DiskInterpolation:
    """Disk-boundary interpolant θ with θ = α exactly on the prescribed zeros
    set, θ = β on the prescribed poles set, |θ| = 1 off the singular set: the
    circle data is pulled back to R ∪ {∞} by the Cayley map based at ζ in one
    pass, and k_O built there is pushed forward by m, m(0) = α and m(∞) = β."""
    base, m = cayley(zeta), disk_target_map(alpha, beta)
    w = np.array(list(zeros) + list(poles) + list(singular), dtype=complex)
    off = np.abs(np.abs(w) - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"{complex(w[off.argmax()])} is not on the unit circle")
    x = base.inverse_apply(w).real.tolist()  # the pole, w = 1, is inf
    i, j = len(zeros), len(zeros) + len(poles)
    build = build_function(InterpProblem(tuple(x[:i]), tuple(x[i:j]), tuple(x[j:])))
    certs = certify_disk(build, m, alpha, beta)
    theta = DiskInterpolation(build.problem, build.region, m, base, build.k, certs)
    if not theta.ok:
        raise CertificationError(
            f"disk certification failed: {[c.name for c in certs if not c.passed]}",
            worst=theta)
    return theta


def certify_disk(build: BuildResult, m: DiskMap, alpha, beta) -> list:
    """θ = m ∘ k_O ∘ C⁻¹'s certificates from the zeros and poles of the built
    k_O and the form of m, with no value of θ.  ``interior_contraction``: a
    k_O with zeros and poles is over disjoint arcs, neither none nor all,
    which subtend less than π in all, so it maps C⁺ into C⁺, and m maps C⁺
    onto the disk: 0; else k_O is ±1, and the residual is |m(±1)|.
    ``boundary_unimodular``: k_O is real on the line off its poles, and m
    maps R ∪ {∞} onto the circle of radius |β| = |m(∞)|: ||β| − 1|.
    ``level_sets``: θ is m(0) (m(∞)) at each prescribed zero (pole) when
    ``certify_region`` finds it exactly: max(|m(0) − α|, |m(∞) − β|), else inf."""
    s, (at_0, at_inf) = build.k.structure, m(np.array([0.0, INF])).tolist()
    region = {c.name: c.residual for c in build.certifications}
    constant, exact = not (s.zeros or s.poles), region["zeros"] == region["poles"] == 0.0
    inner = abs(m(-1.0 if s.gamma.full else 1.0)) if constant else 0.0
    level = max(abs(at_0 - complex(alpha)), abs(at_inf - complex(beta))) if exact else INF
    rows = [("interior_contraction", inner, 1.0 + 1e-12 if constant else 1.0 - 1e-12,
             "structure: a constant" if constant else
             "structure: k_O maps C+ into C+, m maps C+ onto the disk"),
            ("boundary_unimodular", abs(abs(at_inf) - 1.0), 1e-8, "structure: k_O is real "
             "on the line off its poles, m maps it onto the circle of radius |beta|"),
            ("level_sets", level, 1e-8, "structure: theta is m(0) on the zeros and m(inf) "
             "on the poles" if exact else "a prescribed zero or pole is no zero or pole of k_O")]
    return [Certification(name, r, tol, r <= tol, note) for name, r, tol, note in rows]
