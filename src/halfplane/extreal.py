"""Points, open arcs and open subsets of the boundary circle R ∪ {∞}.

The boundary of the upper half-plane is the circle obtained by gluing the
two ends of the real line at a single point ∞.  An ``Arc(b, a)`` is the set
of points strictly between ``b`` and ``a`` in the increasing direction of
the line; when ``b > a`` the arc wraps through ∞, so that
``(b, a) = (b, +oo) ∪ {∞} ∪ (-oo, a)``.  ``ArcSet`` is a canonical disjoint
union of arcs, and ``CantorComplement`` generates the middle thirds removed
from a base interval, which :func:`cantor_levels` walks level by level.

This module is the one home of the circle's geometry; the other modules ask
it rather than splitting on the kinds of arc themselves:

* closed sets such as σ(f): :class:`SigmaDescriptor`, their one type;
* complements: :func:`closed_complement` reads an arc set's gaps as a
  closed set and :func:`complement_of_closed` turns a closed set (points,
  intervals, ∞) back into arcs through :func:`merged_support` and
  :func:`complement_ends`; the union (:func:`normalize`, whose gaps between
  the arcs' line segments come sorted and merged, so it hands them to
  :func:`complement_ends` itself), the regularization,
  :meth:`ArcSet.remove_points` and :func:`circle_minus_points` are this one
  round trip;
* segment decomposition: :func:`arc_segments` writes an arc as open segments
  of the line;
* arc membership: :meth:`Arc.contains`, one rule for every kind of arc, on
  which overlap (:func:`arcs_overlap`) and containment
  (:func:`arc_contains_arc`, :func:`arcset_contains_arc`) rest, each read
  off the arcs' ends, as the angle an arc subtends (:func:`arc_angle`) is;
* boundary sampling: :func:`boundary_samples` and :func:`sweep_points`;
* arcs as lists of ends: :func:`arc_ends` and :func:`complement_ends`.

A point of the circle is one float, with ∞ = ``INF`` (+inf).  It is made
once, where an arc, a generator or a prescribed point is made, by
:func:`as_point`: ints, Fractions and numpy scalars become the nearest
float, −inf becomes ``INF``, and anything else is refused; ``cli`` reads a
spec's JSON into these types.  Two points are equal when they are within
the absolute tolerance ``POINT_TOL``, so that abutment detection stays
reliable.  With ∞ the largest float, the circle's order from ∞ is the
floats' order, and one rule decides membership in every kind of arc (see
:meth:`Arc.contains`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

INF = math.inf
POINT_TOL = 1e-12
_CONTAINS_TOL = 1e-9  # relative, for arc containment

_LINE_NEG = float("-inf")  # sweep-line sentinel, distinct from the circle point ∞
_LINE_POS = float("inf")


def is_inf(x) -> bool:
    """True when ``x`` denotes the point at infinity of the circle."""
    return isinstance(x, float) and math.isinf(x)


def as_point(x, what: str = "a point") -> float:
    """The point of R ∪ {∞} that the real number ``x`` names (an int, float,
    Fraction or numpy scalar): the nearest float, with ±inf as ``INF``.
    Booleans, strings, None, NaN, numbers past the float range and all
    other values raise ValueError; ``what`` names the point in the message."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{what} {x!r} is not a real number")
        try:
            x = float(x)
        except OverflowError:
            raise ValueError(f"{what} {x!r} is past the float range") from None
    if x != x:
        raise ValueError(f"{what} is NaN")
    return INF if x == -INF else x


def finite_interval(ends, what: str = "an interval end") -> tuple:
    """(l, r), the two ends made points (:func:`as_point`, ``what`` naming
    them); ValueError unless both are finite and l < r."""
    l, r = (as_point(x, what) for x in ends)
    if not l < r < INF:
        raise ValueError(f"({l}, {r}) is no finite interval l < r")
    return l, r


def points_equal(x: float, y: float, tol: float = POINT_TOL) -> bool:
    """Point equality: ``x == y`` or ``|x - y| <= tol``, so ∞ equals only ∞."""
    return x == y or abs(x - y) <= tol


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

    The ends are made points by :func:`as_point`; a puncture's ``a`` is its ``b``.
    """

    b: float
    a: float
    puncture: bool = False

    def __post_init__(self):
        b, a = self.b, self.a
        if (not self.puncture and type(b) is float is type(a)
                and abs(b - a) > POINT_TOL and b > -INF < a):
            return  # two floats, no NaN or −inf, and no degenerate pair: as they are
        b, a = as_point(b, "an arc end"), as_point(a, "an arc end")
        if self.puncture:
            if not points_equal(b, a):
                raise ValueError("puncture arc requires b == a")
            a = b
        elif points_equal(b, a):
            raise ValueError(f"degenerate arc ({b}, {a})")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def is_wrap(self) -> bool:
        """True when ∞ lies in the interior of the arc."""
        return self.contains(INF)

    @property
    def bounded(self) -> bool:
        return self.b < self.a < INF

    def length(self) -> float:
        return self.a - self.b if self.bounded else INF

    def contains(self, x: float, tol: float = POINT_TOL) -> bool:
        """x lies in the arc: farther than tol from its ends, and b < x < a
        when b < a, else x > b or x < a.  With ∞ = ``INF`` this one rule
        covers bounded arcs, arcs through ∞, both half-lines, punctures and
        the point ∞."""
        b, a = self.b, self.a
        return ((b < x < a if b < a else (x > b or x < a))
                and not (points_equal(x, b, tol) or points_equal(x, a, tol)))

    def _sort_key(self) -> float:
        if self.puncture:
            return _LINE_NEG
        return _LINE_NEG if is_inf(self.b) else self.b

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


def point_to_json(x: float):
    return "inf" if is_inf(x) else x


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

    def contains(self, x: float, tol: float = POINT_TOL) -> bool:
        if self.full:
            return True
        return any(arc.contains(x, tol) for arc in self.arcs)

    def isclose(self, other: "ArcSet", tol: float = POINT_TOL) -> bool:
        if self.full != other.full or len(self.arcs) != len(other.arcs):
            return False
        return all(u.isclose(v, tol) for u, v in zip(self.arcs, other.arcs))

    def union(self, other: "ArcSet") -> "ArcSet":
        if self.full or other.full:
            return FULL
        return normalize(list(self.arcs) + list(other.arcs))

    def remove_points(self, points: Sequence[float]) -> "ArcSet":
        """Open set obtained by deleting finitely many points: the complement
        of its gaps and of the points inside it."""
        inside = [p for p in points if self.contains(p)]
        if not inside:
            return self
        return complement_of_closed(inside, *closed_complement(self))

    def to_json(self):
        if self.full:
            return {"full": True}
        return {"arcs": [arc.to_json() for arc in self.arcs]}

    def __repr__(self):
        if self.full:
            return "ArcSet(FULL)"
        return "ArcSet(" + ", ".join(repr(a) for a in self.arcs) + ")"


EMPTY = ArcSet()
FULL = ArcSet((), full=True)


def circle_minus_points(points: Sequence[float]) -> ArcSet:
    """The open complement of finitely many points: the arcs between
    neighbours in circle order, or a puncture arc for a single point."""
    return complement_of_closed(points, (), False)


def normalize(arcs: Iterable[Arc]) -> ArcSet:
    """Canonical disjoint union with the same point set as the given arcs:
    the complement of its closed complement, the gaps that the arcs' line
    segments (:func:`arc_segments`) leave, with ∞ unless an arc covers it.

    Overlapping arcs are merged.  Open arcs that merely share an endpoint are
    kept separate (the shared point is not in the union); they only merge
    under :func:`regularize`.  Raw degenerate pairs ``b == a`` are rejected;
    puncture arcs produced by this module are accepted, so the operation is
    idempotent.
    """
    segments, covers_inf = [], False
    for c in arcs:
        if not isinstance(c, Arc):
            raise TypeError(f"expected Arc, got {type(c).__name__}")
        segs, has_inf = arc_segments(c)
        segments.extend(segs)
        covers_inf = covers_inf or has_inf
    # the gaps between the merged segments, from −∞ to +∞, as the sorted
    # pieces [lo, hi] that merged_support would make of them (a gap within
    # POINT_TOL of the last joins it); segments that share an end (within
    # POINT_TOL) leave it as a one-point gap, one from −∞ leaves none before
    # it (−∞ − −∞ is NaN), and a last segment at +∞ closes the last gap.
    # A gap reaches ±∞ only where no arc covers ∞, so ∞ is in the closed
    # set exactly when no arc covers it
    lo, hi, reach = [], [], _LINE_NEG
    for s, e in sorted(segments + [(_LINE_POS, _LINE_POS)]):
        if s - reach >= -POINT_TOL:
            if hi and reach - hi[-1] <= POINT_TOL:
                hi[-1] = max(hi[-1], s)
            else:
                lo.append(reach)
                hi.append(s)
        reach = max(reach, e)
    if covers_inf and not lo:
        return FULL
    return _from_ends(*complement_ends(lo, hi, not covers_inf))


def regularize(o) -> ArcSet:
    """Lebesgue regularization of an open set.

    For explicit arc sets this is the complement of the gaps that are more
    than a single finite point: arcs that share a finite endpoint, and chains
    thereof, merge, and a puncture at a finite point fills.  The point ∞ is
    never adjoined: the regularization is defined by a condition at finite
    points only, so the circle minus ∞ (the whole line) is left unchanged.
    Generators regularize symbolically: a Cantor complement becomes its base
    interval, regardless of depth.
    """
    if isinstance(o, CantorComplement):
        return o.regularized()
    gaps, has_inf = closed_complement(o)
    kept = [(l, r) for l, r in gaps if not points_equal(l, r)]
    if len(kept) == len(gaps):
        return o
    return complement_of_closed((), kept, has_inf)


def is_regular(o) -> bool:
    if isinstance(o, CantorComplement):
        return False
    return regularize(o).isclose(o)


def measure(o) -> float:
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


def arc_angle(arc: Arc, z: complex) -> float:
    """Angle at z (Im z > 0) subtended by a single arc, in [0, π]:
    arg(a − z) − arg(b − z), plus π where the arc runs through or from ∞
    (b ≥ a), with arg(∞ − z) = −0.0; a puncture subtends π."""
    if arc.puncture:
        return math.pi
    x, y = z.real, z.imag
    return (math.atan2(-y, arc.a - x) + (math.pi if arc.b >= arc.a else 0.0)
            - math.atan2(-y, arc.b - x))


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
    length.  The base's ends are points (:func:`as_point`).  Explicit
    enumeration is intended for moderate depth; the Kreĭn-product evaluator
    uses its own vectorized enumeration instead.
    """

    base: tuple
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "base", finite_interval(self.base, "a Cantor base end"))
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    def levels(self) -> list:
        """Removed arcs grouped by level: levels()[m-1] has 2^(m-1) arcs."""
        return [[Arc(kept[k][1], kept[k + 1][0]) for k in range(0, len(kept), 2)]
                for kept in list(cantor_levels(self.base, self.depth))[1:]]

    def arcs(self) -> list:
        return [g for level in self.levels() for g in level]

    def measure(self) -> float:
        l, r = self.base
        return (r - l) * (1.0 - (2.0 / 3.0) ** self.depth)

    def regularized(self) -> ArcSet:
        # the removed lengths sum to the full base length
        l, r = self.base
        return ArcSet((Arc(l, r),))

    def to_json(self):
        l, r = self.base
        return {"cantor": {"interval": [l, r], "depth": self.depth}}


def cantor_levels(base, depth: int):
    """The middle-thirds construction on base = [l, r]: the float pairs (u, v)
    that each level 0, 1, …, depth keeps, in order."""
    kept = [(float(base[0]), float(base[1]))]
    yield kept
    for _ in range(depth):
        nxt = []
        for u, v in kept:
            t = (v - u) / 3.0
            nxt += ((u, u + t), (v - t, v))
        kept = nxt
        yield kept


def merged_support(points: Sequence[float], intervals: Sequence[tuple]) -> tuple:
    """A closed set's finite points and intervals [l, r] as the lists
    (lo, hi) of its sorted pieces' ends, merged where they overlap or their
    ends are within ``POINT_TOL``."""
    lo, hi = [], []
    for l, r in sorted([(p, p) for p in points if not is_inf(p)] + list(intervals)):
        if lo and l - hi[-1] <= POINT_TOL:
            hi[-1] = max(hi[-1], r)
        else:
            lo.append(l)
            hi.append(r)
    return lo, hi


def complement_of_closed(points: Sequence[float], intervals: Sequence[tuple],
                         has_inf: bool) -> ArcSet:
    """Open complement in R ∪ {∞} of a closed set given as finite points,
    closed intervals [l, r] (l = -oo or r = +oo allowed, in which case the
    closure contains ∞) and optionally the point ∞ itself."""
    has_inf = (has_inf or any(is_inf(p) for p in points)
               or any(is_inf(v) for iv in intervals for v in iv))
    lo, hi = merged_support(points, intervals)
    if not (lo or has_inf):
        return FULL
    return _from_ends(*complement_ends(lo, hi, has_inf))


def _from_ends(b, a) -> ArcSet:
    # the arc set of complement_ends' lists
    return ArcSet(tuple(Arc(y, x, puncture=y == x) for y, x in zip(b, a)))


@dataclass(frozen=True)
class SigmaDescriptor:
    """The one type of a closed set of the circle, such as σ(f): points,
    closed intervals and an ∞ flag.  Its merged support is derived once and
    shared by the analysis, the root kernel and the factorization's posts."""

    points: tuple = ()
    intervals: tuple = ()
    has_inf: bool = False

    def omega(self) -> ArcSet:
        return complement_of_closed(self.points, self.intervals, self.has_inf)

    @functools.cached_property
    def support(self) -> tuple:
        """(lo, hi): the ends of :func:`merged_support`'s pieces."""
        return merged_support(self.points, self.intervals)

    def is_measure_zero(self) -> bool:
        return not self.intervals

    def contains(self, x) -> bool:
        if is_inf(x):
            return self.has_inf
        return (any(abs(x - p) <= POINT_TOL for p in self.points)
                or any(l - POINT_TOL <= x <= r + POINT_TOL for l, r in self.intervals))


def closed_complement(o: ArcSet) -> tuple:
    """(gaps, has_inf): the closed complement of an explicit arc set as the
    inputs of :func:`complement_of_closed`.  The gaps are the closed
    intervals [l, r] between consecutive arcs, with the arcs' ends;
    a gap through ∞ is cut there into [l, +oo] and [-oo, r], and a gap that
    is one finite point has ``points_equal`` ends.  ``has_inf`` tells whether
    ∞ lies outside the set."""
    if not o.arcs:
        return ([], False) if o.full else ([(-INF, INF)], True)
    gaps, has_inf = [], False
    for arc, nxt in zip(o.arcs, o.arcs[1:] + o.arcs[:1]):
        l, r = arc.a, nxt.b
        if r < INF and (l <= r or points_equal(l, r)):
            gaps.append((l, r))
            continue
        has_inf = True
        if not is_inf(l):
            gaps.append((l, INF))
        if not is_inf(r):
            gaps.append((-INF, r))
    return gaps, has_inf


def arc_segments(arc: Arc):
    """The arc as open segments of the line, plus whether it contains ∞;
    unbounded ends are the float infinities (∞ = ``INF`` is +inf)."""
    b, a = arc.b, arc.a
    if arc.puncture:
        if b == INF:
            return [(_LINE_NEG, _LINE_POS)], False
        return [(_LINE_NEG, b), (b, _LINE_POS)], True
    if b < a:  # bounded, or the half-line (b, +∞)
        return [(b, a)], False
    if b == INF:
        return [(_LINE_NEG, a)], False
    return [(b, _LINE_POS), (_LINE_NEG, a)], True


def arcs_overlap(x: Arc, y: Arc) -> bool:
    """True when the two open arcs intersect in a set of positive length:
    one holds an end of the other, or both run between the same ends in the
    same direction."""
    return (any(x.contains(p) for p in (y.b, y.a))
            or any(y.contains(p) for p in (x.b, x.a))
            or (points_equal(x.b, y.b) and points_equal(x.a, y.a)))


def arc_contains_arc(outer: Arc, inner: Arc) -> bool:
    """inner ⊆ outer: each end of inner lies in outer's closure, inner holds
    neither end of outer, and inner is not outer's complement (outer's ends
    in reverse order, unless outer is a puncture).  A point p is compared to
    within 1e-9·max(1, |p|): zeros far from the origin carry an absolute
    roundoff that grows with |p|."""
    b, a, ib, ia = outer.b, outer.a, inner.b, inner.a
    tb, ta, tib, tia = (_CONTAINS_TOL * (1.0 if p == INF else max(1.0, abs(p)))
                        for p in (b, a, ib, ia))
    if inner.contains(b, tb) or inner.contains(a, ta):
        return False
    for p, t in ((ib, tib), (ia, tia)):
        if not (outer.contains(p, t) or points_equal(p, b, t) or points_equal(p, a, t)):
            return False
    return outer.puncture or not (points_equal(ib, a, tib) and points_equal(ia, b, tia))


def arcset_contains_arc(o: ArcSet, j: Arc) -> bool:
    if o.full:
        return True
    return any(arc_contains_arc(arc, j) for arc in o.arcs)


def boundary_samples(o: ArcSet) -> list:
    """Real sample points inside each component of O (:func:`end_samples`)."""
    return end_samples(*arc_ends((Arc(INF, INF, puncture=True),) if o.full else o.arcs))


def end_samples(b, a) -> list:
    """Real points inside each arc (b, a) of :func:`arc_ends` lists: geometric
    offsets from the finite ends of unbounded arcs, 24 even steps across
    bounded ones."""
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
            samples.extend([y + (x - y) * i / 25 for i in range(1, 25)])
    return samples


def arc_ends(arcs) -> tuple:
    """(b, a): lists of the arcs' ends; b = a marks the puncture arcs, the
    only arcs whose ends coincide."""
    return [arc.b for arc in arcs], [arc.a for arc in arcs]


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
        return hi, hi  # the circle punctured at one point, named by its right end
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
        b, a = arc.b, arc.a
        return [b + g for g in geoms] + [a - g for g in reversed(geoms)]
    if is_inf(arc.b):
        return [arc.a - g for g in reversed(geoms)]
    if is_inf(arc.a):
        return [arc.b + g for g in geoms]
    b, a = arc.b, arc.a
    ends = [10.0 ** (-7 + k) for k in range(6)]
    steps = [i / 34 for i in range(1, 34)]
    grid = sorted(set(ends + steps + [1.0 - u for u in ends]))
    return [b + (a - b) * u for u in grid]
