import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfplane.extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL,
                               INF, angle_subtended, arcs_overlap,
                               boundary_left, circle_minus_points,
                               complement_of_closed, measure, normalize,
                               points_equal, regularize)
from halfplane.moebius import pullback_arcset

from conftest import random_arcset, random_auto, random_upper_points


def arcset(*pairs):
    return normalize([Arc(b, a) for b, a in pairs])


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


class TestBoundaryLeft:
    def test_explicit(self):
        d = boundary_left(arcset((1, 2), (3, 4)))
        assert d.points == (1, 3) and not d.accumulates

    def test_wrap(self):
        assert boundary_left(arcset((1, 0))).points == (1,)

    def test_cantor_depth2(self):
        d = boundary_left(CantorComplement((0, 1), 2))
        assert d.accumulates
        assert sorted(d.points) == [Fraction(1, 9), Fraction(1, 3), Fraction(7, 9)]


class TestMeasure:
    def test_finite(self):
        assert measure(arcset((1, 2), (2, 3))) == 2

    def test_wrap_infinite(self):
        assert measure(arcset((1, 0))) == INF

    def test_cantor_depth(self):
        for k in (1, 3, 6):
            cc = CantorComplement((0, 1), k)
            assert measure(cc) == 1 - Fraction(2, 3) ** k

    def test_cantor_enumeration_counts(self):
        cc = CantorComplement((0, 1), 4)
        levels = cc.levels()
        assert [len(lv) for lv in levels] == [1, 2, 4, 8]
        for m, lv in enumerate(levels, start=1):
            for g in lv:
                assert g.length() == Fraction(1, 3 ** m)


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

    def test_moebius_equivariance(self, rng):
        for _ in range(25):
            o = random_arcset(rng)
            phi = random_auto(rng)
            z = random_upper_points(rng, 1)[0]
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
        cc = CantorComplement((0, 1), 5)
        back = CantorComplement.from_json(cc.to_json())
        assert back.depth == 5 and float(back.base[1]) == 1.0

    def test_puncture_json_roundtrip(self):
        o = normalize([Arc(0, 2), Arc(1, 0)])
        assert ArcSet.from_json(o.to_json()).isclose(o)


class TestNormalizeFuzz:
    def test_membership_oracle(self, rng):
        def rand_arc():
            kind = rng.integers(0, 4)
            a, b = sorted(rng.uniform(-5, 5, size=2))
            if abs(b - a) < 0.05:
                b = a + 0.5
            if kind == 0:
                return Arc(a, b)
            if kind == 1:
                return Arc(INF, a)
            if kind == 2:
                return Arc(b, INF)
            return Arc(b, a)  # wrap

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
