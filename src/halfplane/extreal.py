"""Points, open arcs and open subsets of the boundary circle R ∪ {∞}.

The boundary of the upper half-plane is the circle obtained by gluing the
two ends of the real line at a single point ∞.  An ``Arc(b, a)`` is the set
of points strictly between ``b`` and ``a`` in the increasing direction of
the line; when ``b > a`` the arc wraps through ∞, so that
``(b, a) = (b, +oo) ∪ {∞} ∪ (-oo, a)``.  ``ArcSet`` is a canonical disjoint
union of arcs, and ``CantorComplement`` generates the middle thirds removed
from a base interval.

This module is the one home of the circle's geometry; the other modules ask
it rather than splitting on the kinds of arc themselves:

* circle order: :func:`circle_key` sorts points along the circle from just
  after a given start;
* point complements: :func:`circle_minus_points`, and
  :func:`complement_of_closed` for closed sets with intervals;
* segment decomposition: :func:`arc_segments` writes an arc as open segments
  of the line with exact endpoints;
* arc containment: :func:`arc_contains_arc`, :func:`arcset_contains_arc`,
  :func:`arcs_overlap`;
* boundary sampling: :func:`boundary_samples` and :func:`sweep_points`;
* arcs as lists of ends: :func:`arc_ends` and :func:`complement_ends`.

Endpoints may be ``int``, ``Fraction`` or ``float``.  Comparisons between
two exact endpoints are exact; as soon as a float is involved they fall
back to an absolute tolerance of ``POINT_TOL`` so that abutment detection
stays reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

INF = math.inf
POINT_TOL = 1e-12

Point = Union[int, float, Fraction]

_LINE_NEG = float("-inf")  # sweep-line sentinel, distinct from the circle point ∞
_LINE_POS = float("inf")


def is_inf(x: Point) -> bool:
    """True when ``x`` denotes the point at infinity of the circle."""
    return isinstance(x, float) and math.isinf(x)


def points_equal(x: Point, y: Point, tol: float = POINT_TOL) -> bool:
    """Endpoint equality: exact for int/Fraction pairs, ``|x-y| <= tol`` otherwise."""
    xi, yi = is_inf(x), is_inf(y)
    if xi or yi:
        return xi and yi
    if isinstance(x, float) or isinstance(y, float):  # before Fraction's slow ABC check
        return abs(float(x) - float(y)) <= tol
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return x == y
    return abs(float(x) - float(y)) <= tol


def _canon_point(x: Point) -> Point:
    # -inf and +inf are the same point of the circle
    if isinstance(x, float) and math.isinf(x):
        return INF
    return x


@dataclass(frozen=True)
class Arc:
    """Open arc of R ∪ {∞} running from ``b`` (pole end) to ``a`` (zero end).

    * ``b < a`` (finite): the plain interval ``(b, a)``.
    * ``b > a`` (finite): ``(b, +oo) ∪ {∞} ∪ (-oo, a)``, wrapping through ∞.
    * ``b = ∞``: the half line ``(-oo, a)``; ``a = ∞``: the half line ``(b, +oo)``.
    * ``puncture=True`` (then ``b == a``): the circle minus the single point
      ``b``.  Puncture arcs arise from set algebra (e.g. unions that close up
      the circle except for one point); they are not accepted as raw input
      arcs by :func:`normalize`.
    """

    b: Point
    a: Point
    puncture: bool = False

    def __post_init__(self):
        object.__setattr__(self, "b", _canon_point(self.b))
        object.__setattr__(self, "a", _canon_point(self.a))
        if self.puncture:
            if not points_equal(self.b, self.a):
                raise ValueError("puncture arc requires b == a")
        elif points_equal(self.b, self.a):
            raise ValueError(f"degenerate arc ({self.b}, {self.a})")

    @property
    def is_wrap(self) -> bool:
        """True when ∞ lies in the interior of the arc."""
        if self.puncture:
            return not is_inf(self.b)
        if is_inf(self.b) or is_inf(self.a):
            return False
        return float(self.b) > float(self.a)

    @property
    def bounded(self) -> bool:
        if self.puncture or self.is_wrap or is_inf(self.b) or is_inf(self.a):
            return False
        return True

    def length(self) -> Point:
        return self.a - self.b if self.bounded else INF

    def contains(self, x: Point, tol: float = POINT_TOL) -> bool:
        if self.puncture:
            return not points_equal(x, self.b, tol)
        if is_inf(x):
            return self.is_wrap
        xf = float(x)
        if is_inf(self.b):
            return xf < float(self.a) and not points_equal(x, self.a, tol)
        if is_inf(self.a):
            return xf > float(self.b) and not points_equal(x, self.b, tol)
        if points_equal(x, self.b, tol) or points_equal(x, self.a, tol):
            return False
        b, a = float(self.b), float(self.a)
        if b < a:
            return b < xf < a
        return xf > b or xf < a

    def _sort_key(self) -> float:
        if self.puncture:
            return _LINE_NEG
        return _LINE_NEG if is_inf(self.b) else float(self.b)

    def isclose(self, other: "Arc", tol: float = POINT_TOL) -> bool:
        return (self.puncture == other.puncture
                and points_equal(self.b, other.b, tol)
                and points_equal(self.a, other.a, tol))

    def to_json(self):
        if self.puncture:
            return {"puncture": point_to_json(self.b)}
        return [point_to_json(self.b), point_to_json(self.a)]

    def __repr__(self):
        if self.puncture:
            return f"Arc(puncture@{self.b})"
        return f"Arc({self.b}, {self.a})"


def point_to_json(x: Point):
    if is_inf(x):
        return "inf"
    return float(x)


def point_from_json(obj) -> Point:
    if obj in ("inf", "-inf", "oo"):
        return INF
    return obj


@dataclass(frozen=True)
class ArcSet:
    """Canonical disjoint union of open arcs; ``full=True`` is the whole circle."""

    arcs: tuple = ()
    full: bool = False

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.full and self.arcs:
            raise ValueError("the full circle carries no arc list")

    @property
    def is_empty(self) -> bool:
        return not self.full and not self.arcs

    def contains(self, x: Point, tol: float = POINT_TOL) -> bool:
        if self.full:
            return True
        return any(arc.contains(x, tol) for arc in self.arcs)

    def isclose(self, other: "ArcSet", tol: float = POINT_TOL) -> bool:
        if self.full != other.full or len(self.arcs) != len(other.arcs):
            return False
        return all(u.isclose(v, tol) for u, v in zip(self.arcs, other.arcs))

    def left_endpoints(self) -> tuple:
        return tuple(arc.b for arc in self.arcs)

    def right_endpoints(self) -> tuple:
        return tuple(arc.a for arc in self.arcs)

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return FULL
        return normalize(list(self.arcs) + list(other.arcs))

    def remove_points(self, points: Sequence[Point], tol: float = POINT_TOL) -> "ArcSet":
        """Open set obtained by deleting finitely many points."""
        points = list(points)
        if not points:
            return self
        if self.full:
            return circle_minus_points(points)
        out = []
        for arc in self.arcs:
            out.extend(_split_arc(arc, [p for p in points if arc.contains(p, tol)]))
        return ArcSet(tuple(sorted(out, key=Arc._sort_key)))

    def to_json(self):
        if self.full:
            return {"full": True}
        return {"arcs": [arc.to_json() for arc in self.arcs]}

    @staticmethod
    def from_json(obj) -> "ArcSet":
        if obj.get("full"):
            return FULL
        arcs = []
        for item in obj.get("arcs", []):
            if isinstance(item, dict) and "puncture" in item:
                x = point_from_json(item["puncture"])
                arcs.append(Arc(x, x, puncture=True))
            elif isinstance(item, (list, tuple)) and len(item) == 2:
                arcs.append(Arc(point_from_json(item[0]), point_from_json(item[1])))
            else:
                raise ValueError(f"arc {item!r} is not a [b, a] pair of points")
        return normalize(arcs)

    def __repr__(self):
        if self.full:
            return "ArcSet(FULL)"
        return "ArcSet(" + ", ".join(repr(a) for a in self.arcs) + ")"


EMPTY = ArcSet()
FULL = ArcSet((), full=True)


def circle_key(start: Point = INF):
    """Sort key for points in their order along the circle, running in the
    increasing direction from just after ``start``; ``start`` itself sorts
    last.  From ∞ that is the finite points ascending, then ∞."""
    s = None if is_inf(start) else float(start)

    def key(x: Point):
        if is_inf(x):
            return (1, 0.0)
        xf = float(x)
        return (0, xf) if s is None or xf > s else (2, xf)

    return key


def _distinct(points) -> list:
    """The points in their given order, each repeat (``points_equal``) dropped."""
    out = []
    for p in points:
        if not any(points_equal(p, q) for q in out):
            out.append(p)
    return out


def circle_minus_points(points: Sequence[Point]) -> ArcSet:
    """The open complement of finitely many points: the arcs between
    neighbours in circle order, or a puncture arc for a single point."""
    pts = sorted(_distinct(points), key=circle_key())
    if not pts:
        return FULL
    if len(pts) == 1:
        return ArcSet((Arc(pts[0], pts[0], puncture=True),))
    arcs = [Arc(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    return ArcSet(tuple(sorted(arcs, key=Arc._sort_key)))


def _split_arc(arc: Arc, interior: list) -> list:
    if not interior:
        return [arc]
    if arc.puncture:
        # circle minus {arc.b} minus the interior points
        return list(circle_minus_points([arc.b] + interior).arcs)
    ends = [arc.b] + sorted(_distinct(interior), key=circle_key(arc.b)) + [arc.a]
    return [Arc(ends[i], ends[i + 1]) for i in range(len(ends) - 1)]


def normalize(arcs: Iterable[Arc]) -> ArcSet:
    """Canonical disjoint union with the same point set as the given arcs.

    Overlapping arcs are merged.  Open arcs that merely share an endpoint are
    kept separate (the shared point is not in the union); they only merge
    under :func:`regularize`.  Raw degenerate pairs ``b == a`` are rejected;
    puncture arcs produced by this module are accepted, so the operation is
    idempotent.
    """
    arcs = list(arcs)
    for arc in arcs:
        if not isinstance(arc, Arc):
            raise TypeError(f"expected Arc, got {type(arc).__name__}")
    if not arcs:
        return EMPTY

    punctures = [c for c in arcs if c.puncture]
    if punctures:
        x = punctures[0].b
        if any(not points_equal(c.b, x) for c in punctures[1:]):
            return FULL
        if any(c.contains(x) for c in arcs if not c.puncture):
            return FULL
        return ArcSet((punctures[0],))

    intervals = []
    contains_inf = False
    for c in arcs:
        segments, has_inf = arc_segments(c)
        intervals.extend(segments)
        contains_inf = contains_inf or has_inf

    intervals.sort(key=lambda iv: (float(iv[0]), float(iv[1])))
    comps = []
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if _line_equal(s, cur_e) or float(s) > float(cur_e):
            comps.append((cur_s, cur_e))
            cur_s, cur_e = s, e
        elif float(e) > float(cur_e):
            cur_e = e
    comps.append((cur_s, cur_e))

    def _lneg(x):
        return isinstance(x, float) and x == _LINE_NEG

    def _lpos(x):
        return isinstance(x, float) and x == _LINE_POS

    if len(comps) == 1 and _lneg(comps[0][0]) and _lpos(comps[0][1]):
        # the whole line; with ∞ covered that is the full circle
        if contains_inf:
            return FULL
        return ArcSet((Arc(INF, INF, puncture=True),))

    out = []
    if contains_inf:
        # a wrap arc always contributes both unbounded pieces
        assert _lneg(comps[0][0]) and _lpos(comps[-1][1])
        wrap_b, wrap_a = comps[-1][0], comps[0][1]
        for s, e in comps[1:-1]:
            out.append(Arc(s, e))
        if points_equal(wrap_b, wrap_a):
            assert not out
            return ArcSet((Arc(wrap_b, wrap_b, puncture=True),))
        out.append(Arc(wrap_b, wrap_a))
    else:
        for s, e in comps:
            out.append(Arc(INF if _lneg(s) else s, INF if _lpos(e) else e))

    out.sort(key=Arc._sort_key)
    return ArcSet(tuple(out))


def _line_equal(x, y) -> bool:
    xf, yf = float(x), float(y)
    if math.isinf(xf) or math.isinf(yf):
        return xf == yf
    return points_equal(x, y)


def regularize(o) -> ArcSet:
    """Lebesgue regularization of an open set.

    For explicit arc sets this merges arcs that share a finite endpoint and
    chains thereof, and fills a puncture at a finite point.  The point ∞ is
    never adjoined: the regularization is defined by a condition at finite
    points only, so the circle minus ∞ (the whole line) is left unchanged.
    Generators regularize symbolically: a Cantor complement becomes its base
    interval, regardless of depth.
    """
    if isinstance(o, CantorComplement):
        return o.regularized()
    if o.full or o.is_empty:
        return o
    arcs = list(o.arcs)
    if len(arcs) == 1 and arcs[0].puncture:
        return o if is_inf(arcs[0].b) else FULL

    changed = True
    while changed and len(arcs) > 1:
        changed = False
        n = len(arcs)
        for i in range(n):
            j = (i + 1) % n
            if i == j:
                break
            ai, aj = arcs[i], arcs[j]
            if is_inf(ai.a) or not points_equal(ai.a, aj.b):
                continue
            if points_equal(ai.b, aj.a):
                # the two arcs close up the circle around their junctions
                x = ai.b
                if is_inf(x):
                    return ArcSet((Arc(INF, INF, puncture=True),))
                return FULL
            merged = Arc(ai.b, aj.a)
            arcs = [arcs[k] for k in range(n) if k not in (i, j)] + [merged]
            arcs.sort(key=Arc._sort_key)
            changed = True
            break
    if len(arcs) == 1 and arcs[0].puncture and not is_inf(arcs[0].b):
        return FULL
    return ArcSet(tuple(arcs))


def is_regular(o, tol: float = POINT_TOL) -> bool:
    if isinstance(o, CantorComplement):
        return False
    return regularize(o).isclose(o, tol)


def measure(o) -> Point:
    """Total length: sum of finite arc lengths, ∞ if any arc is unbounded."""
    if isinstance(o, CantorComplement):
        return o.measure()
    if o.full:
        return INF
    total = 0
    for arc in o.arcs:
        if not arc.bounded:
            return INF
        total = total + arc.length()
    return total


@dataclass(frozen=True)
class BoundaryDescriptor:
    """Left-endpoint set {b_n}: a finite enumerated part, plus a flag telling
    whether the closure accumulates on a residual set (generator case)."""

    points: tuple
    accumulates: bool = False


def boundary_left(o) -> BoundaryDescriptor:
    if isinstance(o, CantorComplement):
        return BoundaryDescriptor(tuple(g.b for g in o.arcs()), True)
    if o.full or o.is_empty:
        return BoundaryDescriptor((), False)
    return BoundaryDescriptor(tuple(arc.b for arc in o.arcs), False)


def arc_angle(arc: Arc, z: complex) -> float:
    """Angle at z (Im z > 0) subtended by a single arc, in [0, π]."""
    x, y = z.real, z.imag

    def phi(t: Point) -> float:
        # arg(t - z), in (-π, 0) for Im z > 0
        return math.atan2(-y, float(t) - x)

    if arc.puncture:
        return math.pi
    bi, ai = is_inf(arc.b), is_inf(arc.a)
    if bi and not ai:
        return phi(arc.a) + math.pi
    if ai and not bi:
        return -phi(arc.b)
    if arc.is_wrap:
        return (-phi(arc.b)) + (phi(arc.a) + math.pi)
    return phi(arc.a) - phi(arc.b)


def angle_subtended(o, z: complex) -> float:
    """Im z · ∫_O dt/|t−z|², the angle at z subtended by the set O.

    Computed per arc in closed form (difference of arguments) and summed;
    the exact value lies in [0, π], with only rounding in excess.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("angle_subtended requires Im z > 0")
    if isinstance(o, CantorComplement):
        arcs = o.arcs()
    elif o.full:
        return math.pi
    else:
        arcs = o.arcs
    return sum(arc_angle(arc, z) for arc in arcs)


@dataclass(frozen=True)
class CantorComplement:
    """Middle thirds removed from ``base = (l, r)`` down to ``depth`` levels.

    Level m (1 ≤ m ≤ depth) contributes ``2^(m-1)`` open arcs of length
    ``(r-l)·3^(-m)``; enumeration is level by level, i.e. in decreasing arc
    length.  Integer or Fraction bases are propagated exactly.  Explicit
    enumeration is intended for moderate depth; the Kreĭn-product evaluator
    uses its own vectorized enumeration instead.
    """

    base: tuple
    depth: int

    def __post_init__(self):
        l, r = self.base
        if is_inf(l) or is_inf(r) or not float(l) < float(r):
            raise ValueError("base must be a finite interval (l, r) with l < r")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if isinstance(l, (int, Fraction)) and isinstance(r, (int, Fraction)):
            object.__setattr__(self, "base", (Fraction(l), Fraction(r)))

    def levels(self) -> list:
        """Removed arcs grouped by level: levels()[m-1] has 2^(m-1) arcs."""
        l, r = self.base
        out, cur = [], [(l, r)]
        for _ in range(self.depth):
            gaps, nxt = [], []
            for u, v in cur:
                t = (v - u) / 3
                gaps.append(Arc(u + t, v - t))
                nxt.append((u, u + t))
                nxt.append((v - t, v))
            out.append(gaps)
            cur = nxt
        return out

    def arcs(self) -> list:
        return [g for level in self.levels() for g in level]

    def measure(self) -> Point:
        l, r = self.base
        if isinstance(l, Fraction):
            return (r - l) * (1 - Fraction(2, 3) ** self.depth)
        return (r - l) * (1.0 - (2.0 / 3.0) ** self.depth)

    def regularized(self) -> ArcSet:
        # the removed lengths sum to the full base length
        l, r = self.base
        return ArcSet((Arc(l, r),))

    def to_json(self):
        l, r = self.base
        return {"cantor": {"interval": [float(l), float(r)], "depth": self.depth}}

    @staticmethod
    def from_json(obj) -> "CantorComplement":
        spec = obj["cantor"] if "cantor" in obj else obj
        l, r = spec.get("interval", [0, 1])
        return CantorComplement((l, r), int(spec.get("depth", 1)))


def merged_support(points: Sequence[Point], intervals: Sequence[tuple]) -> tuple:
    """A closed set's finite points and intervals [l, r] as the lists
    (lo_f, hi_f, lo, hi) of its sorted pieces' float and exact ends, merged
    where they overlap or their ends are ``points_equal``."""
    pieces = sorted([(float(p), float(p), p, p) for p in points if not is_inf(p)]
                    + [(float(l), float(r), l, r) for l, r in intervals], key=lambda t: t[:2])
    merged = []
    for lo_f, hi_f, lo, hi in pieces:
        if merged and (lo_f < merged[-1][1] or (lo_f - merged[-1][1] <= POINT_TOL
                                                and points_equal(lo, merged[-1][3]))):
            if hi_f > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi_f, merged[-1][2], hi)
        else:
            merged.append((lo_f, hi_f, lo, hi))
    return tuple(map(list, zip(*merged))) or ([], [], [], [])


def complement_of_closed(points: Sequence[Point], intervals: Sequence[tuple],
                         has_inf: bool) -> ArcSet:
    """Open complement in R ∪ {∞} of a closed set given as finite points,
    closed intervals [l, r] (l = -oo or r = +oo allowed, in which case the
    closure contains ∞) and optionally the point ∞ itself."""
    has_inf = (has_inf or any(is_inf(p) for p in points)
               or any(math.isinf(float(v)) for iv in intervals for v in iv))
    lo, hi = merged_support(points, intervals)[2:]
    if not (lo or has_inf):
        return FULL
    b, a = complement_ends(lo, hi, has_inf)
    return ArcSet(tuple(Arc(y, x, puncture=y == x) for y, x in zip(b, a)))


def arc_segments(arc: Arc):
    """The arc as open segments of the line, plus whether it contains ∞.

    Unbounded ends are the float infinities; finite ends keep their exact
    ``int``/``Fraction`` values.
    """
    if arc.puncture:
        if is_inf(arc.b):
            return [(_LINE_NEG, _LINE_POS)], False
        return [(_LINE_NEG, arc.b), (arc.b, _LINE_POS)], True
    if is_inf(arc.b):
        return [(_LINE_NEG, arc.a)], False
    if is_inf(arc.a):
        return [(arc.b, _LINE_POS)], False
    if arc.is_wrap:
        return [(arc.b, _LINE_POS), (_LINE_NEG, arc.a)], True
    return [(arc.b, arc.a)], False


def arcs_overlap(x: Arc, y: Arc, tol: float = POINT_TOL) -> bool:
    """True when the two open arcs intersect in a set of positive length."""
    segs_x, inf_x = arc_segments(x)
    segs_y, inf_y = arc_segments(y)
    if inf_x and inf_y:
        return True
    for s1, e1 in segs_x:
        for s2, e2 in segs_y:
            if min(float(e1), float(e2)) - max(float(s1), float(s2)) > tol:
                return True
    return False


def _arc_midpoint(j: Arc) -> float:
    if j.puncture:
        return float(j.b) + 1.0 if not is_inf(j.b) else 0.0
    bi, ai = is_inf(j.b), is_inf(j.a)
    if bi and ai:
        return 0.0
    if bi:
        return float(j.a) - 1.0
    if ai:
        return float(j.b) + 1.0
    b, a = float(j.b), float(j.a)
    if b < a:
        return 0.5 * (b + a)
    return INF  # wrap arc: ∞ is interior


def arc_contains_arc(outer: Arc, inner: Arc, tol: float = 1e-9) -> bool:
    """inner ⊆ outer, endpoints compared to within tol·max(1, |p|): zeros
    far from the origin carry an absolute roundoff that grows with |p|."""
    if not outer.contains(_arc_midpoint(inner), tol):
        return False
    for p in (inner.b, inner.a):
        t = tol if is_inf(p) else tol * max(1.0, abs(float(p)))
        if not (outer.contains(p, t)
                or points_equal(p, outer.b, t) or points_equal(p, outer.a, t)):
            return False
    return True


def arcset_contains_arc(o: ArcSet, j: Arc, tol: float = 1e-9) -> bool:
    if o.full:
        return True
    return any(arc_contains_arc(arc, j, tol) for arc in o.arcs)


def boundary_samples(o: ArcSet, per_comp: int = 24) -> list:
    """Real sample points inside each component of O (:func:`end_samples`)."""
    return end_samples(*arc_ends((Arc(INF, INF, puncture=True),) if o.full else o.arcs),
                       per_comp)


def end_samples(b, a, per_comp: int = 24) -> list:
    """Real points inside each arc (b, a) of :func:`arc_ends` lists: geometric
    offsets from the finite ends of unbounded arcs, a grid across bounded ones."""
    samples = []
    spread = [10.0 ** k for k in range(-3, 4)]
    for y, x in zip(b, a):
        if y == x == INF:
            samples.extend([-10.0 ** k for k in range(-2, 4)])
            samples.extend([10.0 ** k for k in range(-2, 4)])
        elif y == INF:
            samples.extend([x - s for s in spread])
        elif x == INF:
            samples.extend([y + s for s in spread])
        elif y >= x:  # through ∞, or the circle punctured at y
            samples.extend([y + s for s in spread])
            samples.extend([x - s for s in spread])
        else:
            samples.extend([y + (x - y) * i / (per_comp + 1)
                            for i in range(1, per_comp + 1)])
    return samples


def arc_ends(arcs) -> tuple:
    """(b, a): lists of the arcs' ends as floats, ∞ as inf; b = a marks the
    puncture arcs, the only arcs whose ends coincide."""
    return ([float(arc.b) for arc in arcs],
            [float(arc.b if arc.puncture else arc.a) for arc in arcs])


def complement_ends(lo, hi, has_inf: bool) -> tuple:
    """(b, a) as :func:`arc_ends` gives them for the arcs, in circle order
    from ∞, of the complement of the :func:`merged_support` pieces [lo, hi]
    and of ∞ if ``has_inf``; nothing removed reads as the puncture at ∞."""
    if has_inf:
        # an unbounded piece leaves no arc through ∞ on its side
        first, last = int(bool(lo) and lo[0] == -INF), int(bool(hi) and hi[-1] == INF)
        return [INF, *hi][first:len(hi) + 1 - last], [*lo, INF][first:len(lo) + 1 - last]
    if not lo:
        return [INF], [INF]
    if len(lo) == 1 and points_equal(lo[0], hi[0]):
        return lo, lo  # the circle punctured at one point
    return hi, lo[1:] + lo[:1]


def sweep_points(arc: Arc) -> list:
    """Real points of an arc in their order along it, crowding toward the
    ends, where the sign change of a function increasing along the arc
    hides: geometric offsets 1e-7 … 1e7 from each finite end of an unbounded
    arc (from 0 both ways on the line punctured at ∞), and 33 even steps plus
    offsets 1e-7 … 1e-2 from each end across a bounded one."""
    geoms = [10.0 ** k for k in range(-7, 8)]
    if arc.puncture and is_inf(arc.b):
        # the whole line, from −∞ to +∞
        return [-g for g in reversed(geoms)] + [0.0] + geoms
    if arc.puncture or arc.is_wrap:
        b, a = float(arc.b), float(arc.a)
        return [b + g for g in geoms] + [a - g for g in reversed(geoms)]
    if is_inf(arc.b):
        return [float(arc.a) - g for g in reversed(geoms)]
    if is_inf(arc.a):
        return [float(arc.b) + g for g in geoms]
    b, a = float(arc.b), float(arc.a)
    ends = [10.0 ** (-7 + k) for k in range(6)]
    steps = [i / 34 for i in range(1, 34)]
    grid = sorted(set(ends + steps + [1.0 - u for u in ends]))
    return [b + (a - b) * u for u in grid]
