import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from halfplane.cli import _krein_product
from halfplane.extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL,
                               INF, angle_subtended, arc_contains_arc,
                               arcs_overlap, arcset_contains_arc,
                               as_point, circle_minus_points,
                               closed_complement, complement_of_closed,
                               measure, normalize,
                               points_equal, regularize)
from halfplane.moebius import HalfPlaneAuto, pullback_arcset

from conftest import random_arcset, random_upper_points
from test_krein import chained_arcsets


# compositions of up to three translations, scalings and the inversion z ↦ −1/z
half_plane_autos = st.lists(st.one_of(
    st.floats(-3.0, 3.0).map(HalfPlaneAuto.translation),
    st.floats(0.3, 3.0).map(HalfPlaneAuto.scaling),
    st.just(HalfPlaneAuto.inversion())), min_size=1, max_size=3).map(
        lambda maps: functools.reduce(HalfPlaneAuto.compose, maps))


def arcset(*pairs):
    return normalize([Arc(b, a) for b, a in pairs])


def within_ulps(x, exact, n=4):
    """The float x lies within n ulps of the exact Fraction."""
    return abs(Fraction(x) - exact) <= n * Fraction(math.ulp(float(exact)))


class TestNormalize:
    def test_abutting_arcs_stay_separate(self):
        o = arcset((1, 2), (2, 3))
        assert len(o.arcs) == 2
        assert not o.contains(2)

    def test_overlapping_arcs_merge(self):
        assert arcset((0, 2), (1, 3)).isclose(arcset((0, 3)))

    def test_wrap_convention(self):
        o = arcset((1, 0))
        assert o.contains(INF)
        assert o.contains(5)
        assert o.contains(-1)
        assert not o.contains(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Arc(1, 1)

    def test_idempotent(self, rng):
        for _ in range(40):
            o = random_arcset(rng)
            assert normalize(o.arcs).isclose(o)

    def test_union_closing_circle_minus_point(self):
        o = normalize([Arc(0, 2), Arc(1, 0)])
        assert len(o.arcs) == 1 and o.arcs[0].puncture
        assert not o.contains(0)
        assert o.contains(INF) and o.contains(0.5)

    def test_full_circle(self):
        o = normalize([Arc(-1, 1), Arc(0, -0.5)])
        assert o.full

    def test_half_lines_no_infinity(self):
        o = normalize([Arc(INF, 0), Arc(1, INF)])
        assert len(o.arcs) == 2
        assert not o.contains(INF)

    def test_whole_line_is_punctured_at_infinity(self):
        o = normalize([Arc(INF, 1), Arc(0, INF)])
        assert len(o.arcs) == 1 and o.arcs[0].puncture
        assert not o.contains(INF)
        assert o.contains(123.0)


class TestRegularize:
    def test_merges_shared_endpoint(self):
        assert regularize(arcset((1, 2), (2, 3))).isclose(arcset((1, 3)))

    def test_already_regular(self):
        assert regularize(arcset((0, 1))).isclose(arcset((0, 1)))

    def test_chain(self):
        got = regularize(arcset((0, 1), (1, 2), (2, 3), (5, 6)))
        assert got.isclose(arcset((0, 3), (5, 6)))

    def test_cantor_symbolic(self):
        cc = CantorComplement((0, 1), 7)
        assert regularize(cc).isclose(arcset((Fraction(0), Fraction(1))))

    def test_idempotent(self, rng):
        for _ in range(40):
            o = regularize(random_arcset(rng))
            assert regularize(o).isclose(o)

    def test_superset_and_same_measure(self, rng):
        for _ in range(30):
            o = random_arcset(rng)
            r = regularize(o)
            for x in np.linspace(-9, 9, 50):
                if o.contains(float(x)):
                    assert r.contains(float(x))
            mo, mr = measure(o), measure(r)
            if mo == INF:
                assert mr == INF
            else:
                assert abs(float(mo) - float(mr)) < 1e-12

    def test_circle_closes_to_full(self):
        assert regularize(arcset((0, 1), (1, 0))).full

    def test_finite_puncture_fills(self):
        o = normalize([Arc(0, 2), Arc(1, 0)])
        assert regularize(o).full

    def test_infinity_not_adjoined(self):
        # the whole line stays the whole line: regularization only acts at
        # finite points
        line = normalize([Arc(INF, 1), Arc(0, INF)])
        assert regularize(line).isclose(line)

    def test_wrap_chain(self):
        got = regularize(arcset((3, 1), (1, 2)))
        assert got.isclose(arcset((3, 2)))


class TestMeasure:
    def test_finite(self):
        assert measure(arcset((1, 2), (2, 3))) == 2

    def test_wrap_infinite(self):
        assert measure(arcset((1, 0))) == INF

    def test_cantor_depth(self):
        for k in (1, 3, 6):
            cc = CantorComplement((0, 1), k)
            assert type(measure(cc)) is float
            assert within_ulps(measure(cc), 1 - Fraction(2, 3) ** k)

    def test_cantor_enumeration_counts(self):
        # each level's gaps are the exact middle thirds, their float ends
        # within 4 ulps, in the order of the construction
        cc = CantorComplement((0, 1), 4)
        levels = cc.levels()
        assert [len(lv) for lv in levels] == [1, 2, 4, 8]
        kept = [(Fraction(0), Fraction(1))]
        for lv in levels:
            thirds = [(u, (v - u) / 3, v) for u, v in kept]
            exact = [(u + t, v - t) for u, t, v in thirds]
            kept = [iv for u, t, v in thirds for iv in ((u, u + t), (v - t, v))]
            assert len(lv) == len(exact)
            for g, (b, a) in zip(lv, exact):
                assert within_ulps(g.b, b) and within_ulps(g.a, a)
                assert g.length() == g.a - g.b


class TestAngle:
    def test_symmetric_interval_at_i(self):
        assert angle_subtended(arcset((-1, 1)), 1j) == pytest.approx(math.pi / 2,
                                                                     abs=1e-14)

    def test_empty_and_full(self):
        assert angle_subtended(EMPTY, 2j) == 0.0
        assert angle_subtended(FULL, 0.3 + 2j) == math.pi

    def test_range_and_additivity(self, rng):
        for _ in range(40):
            o = random_arcset(rng)
            z = random_upper_points(rng, 1)[0]
            total = angle_subtended(o, z)
            assert -1e-12 <= total <= math.pi + 1e-12
            parts = sum(angle_subtended(ArcSet((c,)), z) for c in o.arcs)
            assert total == pytest.approx(parts, abs=1e-12)

    def test_monotone_under_inclusion(self, rng):
        for _ in range(20):
            z = random_upper_points(rng, 1)[0]
            small = arcset((0, 1))
            big = arcset((-1, 2))
            assert angle_subtended(small, z) <= angle_subtended(big, z) + 1e-14

    @settings(max_examples=200, deadline=None)
    @given(chained_arcsets(), half_plane_autos, st.floats(-6.0, 6.0), st.floats(0.1, 5.0))
    def test_moebius_equivariance(self, sample, phi, x, y):
        # the angle φ⁻¹(O) subtends at z is the angle O subtends at φ(z)
        o, z = sample[0], complex(x, y)
        lhs = angle_subtended(pullback_arcset(phi, o), z)
        rhs = angle_subtended(o, phi(z))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSetOps:
    def test_remove_points_full(self):
        o = FULL.remove_points([0.0])
        assert len(o.arcs) == 1 and o.arcs[0].puncture
        o2 = FULL.remove_points([0.0, 1.0])
        assert len(o2.arcs) == 2 and o2.contains(INF)

    def test_remove_points_split(self):
        o = arcset((0, 3)).remove_points([1.0, 2.0])
        assert len(o.arcs) == 3

    def test_complement_of_closed(self):
        om = complement_of_closed((0.0,), (), False)
        assert len(om.arcs) == 1 and om.arcs[0].puncture
        om2 = complement_of_closed((), ((-1.0, 1.0),), True)
        assert len(om2.arcs) == 2
        assert not om2.contains(0) and not om2.contains(INF) and om2.contains(5)

    def test_overlap(self):
        assert arcs_overlap(Arc(0, 2), Arc(1, 3))
        assert not arcs_overlap(Arc(0, 1), Arc(1, 2))
        assert arcs_overlap(Arc(3, 1), Arc(4, 5))   # wrap covers (3, oo)
        assert not arcs_overlap(Arc(3, 1), Arc(1.5, 2.5))

    def test_json_roundtrip(self):
        o = arcset((1, 0))
        assert ArcSet.from_json(o.to_json()).isclose(o)
        assert ArcSet.from_json({"arcs": [["inf", 0]]}).arcs[0].b == INF

    def test_generator_json_roundtrip(self):
        # to_json writes a krein body, which the CLI's one reader reads back
        cc = CantorComplement((0, 1), 5)
        assert _krein_product(cc.to_json()).cantor == cc

    def test_puncture_json_roundtrip(self):
        o = normalize([Arc(0, 2), Arc(1, 0)])
        assert ArcSet.from_json(o.to_json()).isclose(o)


class TestNormalizeFuzz:
    def test_membership_oracle(self, rng):
        def rand_arc():
            kind = rng.integers(0, 5)
            a, b = sorted(rng.uniform(-5, 5, size=2))
            if rng.random() < 0.3:
                # integer ends, some 1e-13 off: ends of different arcs that
                # meet within POINT_TOL, where the union's gaps are points
                a, b = (float(np.round(e)) + float(rng.choice((0.0, 1e-13, -1e-13)))
                        for e in (a, b))
            if abs(b - a) < 0.05:
                b = a + 0.5
            if kind == 0:
                return Arc(a, b)
            if kind == 1:
                return Arc(INF, a)
            if kind == 2:
                return Arc(b, INF)
            if kind == 3:
                return Arc(b, a)  # wrap
            return Arc(a, a, puncture=True)

        for _ in range(120):
            arcs = [rand_arc() for _ in range(int(rng.integers(1, 6)))]
            o = normalize(arcs)
            for x in list(np.linspace(-8, 8, 161)) + [INF]:
                x = INF if (isinstance(x, float) and np.isinf(x)) else float(x)
                if any(not c.puncture
                       and any(not points_equal(e, INF) and not points_equal(x, INF)
                               and abs(float(e) - x) < 1e-6 for e in (c.b, c.a))
                       for c in arcs):
                    continue  # boundary ambiguity under tolerance
                want = any(c.contains(x, 1e-9) for c in arcs)
                assert o.contains(x, 1e-9) == want, (arcs, x)
            assert o.full or normalize(list(o.arcs)).isclose(o)


class TestExactEndpoints:
    def test_fraction_abutment_detected(self):
        a = Arc(Fraction(1, 3), Fraction(2, 3))
        b = Arc(Fraction(2, 3), Fraction(1, 1))
        r = regularize(normalize([a, b]))
        assert r.isclose(normalize([Arc(Fraction(1, 3), 1)]))

    def test_float_tolerance(self):
        assert points_equal(0.1 + 0.2, 0.3)
        assert not points_equal(0.3, 0.3 + 1e-11)


@st.composite
def circle_points(draw, max_size=8):
    """Distinct points of R ∪ {∞}: ints, quarter floats or thirds as
    Fractions (one exact type per draw, so no two coincide), maybe ∞."""
    ks = draw(st.sets(st.integers(-40, 40), max_size=max_size))
    as_point = draw(st.sampled_from((int, lambda k: k / 4.0,
                                     lambda k: Fraction(k, 3))))
    pts = [as_point(k) for k in ks]
    if draw(st.booleans()):
        pts.insert(draw(st.integers(0, len(pts))), INF)
    return pts


@st.composite
def raw_arcs(draw):
    arcs = []
    for _ in range(draw(st.integers(1, 5))):
        b, a = draw(st.lists(st.one_of(st.integers(-12, 12), st.just(INF)),
                             min_size=2, max_size=2, unique=True))
        arcs.append(Arc(b, a))
    return arcs


class TestCircleGeometryProperties:
    @settings(max_examples=200, deadline=None)
    @given(circle_points(), st.lists(st.floats(-15.0, 15.0), max_size=12))
    def test_point_complement(self, ys, xs):
        comp = circle_minus_points(ys)
        assert comp == complement_of_closed(ys, (), False)
        for i, u in enumerate(comp.arcs):
            assert not any(u.contains(y) for y in ys)
            for v in comp.arcs[i + 1:]:
                assert not arcs_overlap(u, v)
        # every point off Y lies in exactly one component
        for x in xs + [INF]:
            if any(points_equal(x, y, 1e-9) for y in ys):
                continue
            assert sum(u.contains(x) for u in comp.arcs) == (0 if comp.full else 1)
            assert comp.contains(x)

    @settings(max_examples=200, deadline=None)
    @given(raw_arcs(), st.booleans(), circle_points())
    def test_remove_repeated_points(self, arcs, full, ys):
        o = FULL if full else normalize(arcs)
        assert o.remove_points(ys + ys) == o.remove_points(ys)

    def test_remove_repeated_point_inside_arc(self):
        assert arcset((0, 10)).remove_points([7, 7]) == arcset((0, 7), (7, 10))
        assert FULL.remove_points([7, 7]) == circle_minus_points([7])

    @settings(max_examples=200, deadline=None)
    @given(raw_arcs())
    def test_normalize_and_regularize_idempotent(self, arcs):
        o = normalize(arcs)
        assert o.full or normalize(o.arcs) == o
        r = regularize(o)
        assert regularize(r) == r


# exact points on a 1/12 grid over [-15, 15]: every int, quarter and third
# end of the strategies above, the midpoints between them, and ∞
GRID = [Fraction(k, 12) for k in range(-180, 181)] + [INF]


def in_closed(x, gaps, has_inf):
    """x lies in the closed set of :func:`closed_complement`'s gaps."""
    if x == INF:
        return has_inf
    return any(points_equal(x, l) or points_equal(x, r)
               or float(l) <= float(x) <= float(r) for l, r in gaps)


class TestComplementOracles:
    @settings(max_examples=200, deadline=None)
    @given(raw_arcs(), st.booleans())
    def test_closed_complement_partitions_circle(self, arcs, full):
        o = FULL if full else normalize(arcs)
        gaps, has_inf = closed_complement(o)
        for x in GRID:
            assert o.contains(x) != in_closed(x, gaps, has_inf), (o, x)

    @settings(max_examples=200, deadline=None)
    @given(raw_arcs())
    def test_regularize_fills_isolated_points(self, arcs):
        # the arcs' ends are integers, so a finite point off O is isolated in
        # the complement when O holds the points a quarter to either side
        o = normalize(arcs)
        r = regularize(o)
        for x in GRID:
            isolated = (x != INF and not o.contains(x)
                        and o.contains(x - Fraction(1, 4)) and o.contains(x + Fraction(1, 4)))
            assert r.contains(x) == (o.contains(x) or isolated), (o, x)

    @settings(max_examples=200, deadline=None)
    @given(raw_arcs(), st.booleans(), circle_points())
    def test_remove_points_membership(self, arcs, full, ys):
        o = FULL if full else normalize(arcs)
        got = o.remove_points(ys)
        for x in GRID:
            want = o.contains(x) and not any(points_equal(x, y) for y in ys)
            assert got.contains(x) == want, (o, ys, x)


# ends of every numeric kind: ints, Fractions, floats and ±inf
any_end = st.one_of(st.integers(-40, 40), st.fractions(-40, 40, max_denominator=7),
                    st.floats(-40.0, 40.0), st.sampled_from([INF, -INF]))


@st.composite
def any_arcs(draw):
    """Raw arcs of every kind: bounded, through ∞, both half-lines, and
    punctures at a finite point or at ∞."""
    arcs = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(any_end)
        if draw(st.integers(0, 4)) == 0:
            arcs.append(Arc(b, b, puncture=True))
        else:
            a = draw(any_end.filter(lambda a: not points_equal(as_point(a), as_point(b))))
            arcs.append(Arc(b, a))
    return arcs


def angle(x):
    """The point's angle on the circle: θ = 2·atan(x), with ∞ at π."""
    return math.pi if x == INF else 2.0 * math.atan(x)


def reference_contains(arc, x):
    # x lies in (b, a) when it comes after b and before a going once round
    # the circle in the increasing direction from b; a puncture goes all round
    turn = 2.0 * math.pi
    span = (angle(arc.a) - angle(arc.b)) % turn or turn
    return 0.0 < (angle(x) - angle(arc.b)) % turn < span


def grid_arc(scale):
    """Arcs with ends scale·k (k = −12 … 12) or ∞: bounded, through ∞, both
    half-lines and punctures."""
    end = st.one_of(st.integers(-12, 12).map(lambda k: k * scale), st.just(INF))
    return st.one_of(end.map(lambda p: Arc(p, p, puncture=True)),
                     st.lists(end, min_size=2, max_size=2, unique=True).map(lambda e: Arc(*e)))


# two arcs on one grid, coarse, fine or far from 0, where ends compare to
# within a tolerance that grows with |p|
grid_arc_pairs = st.sampled_from((1.0, 1.0 / 3.0, 1e4)).flatmap(
    lambda s: st.tuples(grid_arc(s), grid_arc(s), st.just(s)))


def grid_cells(scale):
    """A point of each cell that the grid cuts the circle into: the grid
    points, ∞, the midpoints between neighbours and a point past each end;
    arcs with ends on the grid are unions of these cells."""
    return [k / 2 * scale for k in range(-26, 27)] + [INF]


class TestArcRelations:
    @settings(max_examples=400, deadline=None)
    @given(grid_arc_pairs)
    # (2, −1) runs from 2 through ∞ to −1 and holds (−3, −2), which (−2, −3) misses
    @example((Arc(-2.0, -3.0), Arc(2.0, -1.0), 1.0))
    @example((Arc(-2.0, -3.0), Arc(2.0, -4.0), 1.0))
    @example((Arc(0.0, 1.0), Arc(1.0, 0.0), 1.0))  # the complement
    @example((Arc(0.0, 0.0, puncture=True), Arc(1.0, -1.0), 1.0))
    @example((Arc(0.0, 0.0, puncture=True), Arc(0.0, 0.0, puncture=True), 1.0))
    def test_containment_matches_the_cells(self, pair):
        outer, inner, scale = pair
        cells = [x for x in grid_cells(scale) if reference_contains(inner, x)]
        want = all(reference_contains(outer, x) for x in cells)
        assert arc_contains_arc(outer, inner) == want, (outer, inner)
        assert arcset_contains_arc(normalize([outer]), inner) == want

    @settings(max_examples=400, deadline=None)
    @given(grid_arc_pairs)
    def test_overlap_matches_the_cells(self, pair):
        x, y, scale = pair
        want = any(reference_contains(x, p) and reference_contains(y, p)
                   for p in grid_cells(scale))
        assert arcs_overlap(x, y) == arcs_overlap(y, x) == want, (x, y)


class TestPointModel:
    def test_as_point(self):
        assert as_point(3) == 3.0 and type(as_point(3)) is float
        assert as_point(Fraction(1, 3)) == 1 / 3 and type(as_point(np.float64(2.5))) is float
        assert as_point(-INF) is INF and as_point(INF) is INF
        for bad in (True, "1", None, math.nan, [1], 10 ** 400):
            with pytest.raises(ValueError):
                as_point(bad)

    @settings(max_examples=300, deadline=None)
    @given(any_arcs(), st.lists(st.floats(-100.0, 100.0), max_size=20))
    def test_membership_matches_the_angle_reference(self, arcs, xs):
        # away from the ends, Arc.contains and ArcSet.contains agree with
        # the membership read off the angles
        tol = 1e-9
        o = normalize(arcs)
        ends = [e for arc in arcs for e in (arc.b, arc.a)]
        assert all(type(e) is float and e != -INF for e in ends)
        xs = [x for x in xs + [INF] if not any(points_equal(x, e, 1e-6) for e in ends)]
        want = [any(reference_contains(arc, x) for arc in arcs) for x in xs]
        for arc in arcs:
            assert [arc.contains(x, tol) for x in xs] == [reference_contains(arc, x) for x in xs]
        assert [o.contains(x, tol) for x in xs] == want

    @settings(max_examples=300, deadline=None)
    @given(any_end, any_end)
    def test_points_equal_is_symmetric_and_infinity_equals_only_itself(self, x, y):
        x, y = as_point(x), as_point(y)
        assert points_equal(x, y) == points_equal(y, x)
        assert points_equal(x, INF) == (x == INF)
        assert points_equal(x, x)
