import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from halfplane.extreal import (Arc, FULL, INF, arc_ends, boundary_samples,
                               closed_complement, is_regular, normalize, points_equal,
                               regularize)
from halfplane.factor import CompositeFunction, analyze_pick
from halfplane.interp import (BuildResult, InterlacingError, InterpProblem,
                              build_function, certify_disk, certify_region,
                              check_interlacing, construct_O, disk_interpolate,
                              realizable_pair)
from halfplane.krein import KreinProduct
from halfplane.moebius import disk_target_map
from halfplane.nevanlinna import SigmaDescriptor

from conftest import sep_points
from test_krein import chained_arcsets


def random_interlaced(rng, max_y=3, max_pts=14):
    """Random interlacing instance: per component of the Y-complement the
    zeros and poles alternate."""
    n_y = int(rng.integers(0, max_y + 1))
    ys = sep_points(rng, n_y, -8.0, 8.0, 1.2)
    pts = sep_points(rng, int(rng.integers(2, max_pts)), -9.5, 9.5, 0.45)
    pts = [p for p in pts if all(abs(p - y) > 0.35 for y in ys)]
    zeros, poles = [], []
    if not ys:
        start = rng.random() < 0.5
        for i, p in enumerate(pts):
            (zeros if (i % 2 == 0) == start else poles).append(p)
    else:
        bounds = [-math.inf] + list(ys) + [math.inf]
        wrap_left, wrap_right = [], []
        for ci in range(len(bounds) - 1):
            members = [p for p in pts if bounds[ci] < p < bounds[ci + 1]]
            if ci == 0:
                wrap_left = members
                continue
            if ci == len(bounds) - 2:
                wrap_right = members
                continue
            start = rng.random() < 0.5
            for i, p in enumerate(members):
                (zeros if (i % 2 == 0) == start else poles).append(p)
        # the wrap component runs from y_max up through ∞ and back to y_min
        members = wrap_right + wrap_left
        start = rng.random() < 0.5
        for i, p in enumerate(members):
            (zeros if (i % 2 == 0) == start else poles).append(p)
    return InterpProblem(tuple(zeros), tuple(poles), tuple(ys))


def residuals(o, p):
    """The structural certificates of k_O for p, by name."""
    return {c.name: c.residual for c in certify_region(KreinProduct(o), p)[0]}


@st.composite
def interp_problems(draw):
    """Up to 8 points a hundredth apart or more, and ∞ at times, each a
    zero, a pole or a point of Y."""
    xs = sorted(draw(st.lists(st.integers(-500, 500), max_size=8, unique=True)))
    pts = [x / 100.0 for x in xs] + ([INF] if draw(st.booleans()) else [])
    roles = draw(st.lists(st.sampled_from("ABY"), min_size=len(pts), max_size=len(pts)))
    return InterpProblem(*(tuple(x for x, t in zip(pts, roles) if t == role)
                           for role in "ABY"))


class TestInterlacing:
    def test_singletons(self):
        assert check_interlacing(InterpProblem((0.0,), (1.0,), ())).ok

    def test_pole_between_zeros(self):
        assert check_interlacing(InterpProblem((0.0, 2.0), (1.0,), ())).ok

    def test_violation_with_witness(self):
        rep = check_interlacing(InterpProblem((0.0, 1.0), (5.0,), ()))
        assert not rep.ok
        kind, p, q, _ = rep.witness
        assert kind == "zeros_without_pole" and (p, q) == (0.0, 1.0)

    def test_component_splitting_saves_it(self):
        assert not check_interlacing(InterpProblem((0.0, 1.0), (), ())).ok
        # one singular point still leaves a single circle component (the two
        # half-lines joined through ∞), so the zeros remain adjacent there
        assert not check_interlacing(InterpProblem((0.0, 1.0), (), (0.5,))).ok
        # two singular points genuinely separate them
        assert check_interlacing(InterpProblem((0.0, 1.0), (), (0.5, 5.0))).ok

    def test_wrap_component_order(self):
        # with Y = {0}: along the circle the order is 1, 5, -1
        assert check_interlacing(InterpProblem((-1.0, 1.0), (5.0,), (0.0,))).ok
        assert not check_interlacing(InterpProblem((-1.0, 1.0), (), (0.0,))).ok

    def test_cyclic_when_infinity_prescribed(self):
        assert check_interlacing(InterpProblem((INF,), (0.0,), ())).ok
        # two zeros adjacent around the circle through ∞
        assert not check_interlacing(InterpProblem((-5.0, INF), (0.0,), ())).ok

    def test_witness_from_first_component_in_circle_order(self):
        # Y = {0, ∞} leaves (0, ∞) and (∞, 0); both hold two adjacent zeros,
        # and the component whose pole end comes first after ∞ names the witness
        rep = check_interlacing(InterpProblem((-2.0, -1.0, 1.0, 2.0), (), (0.0, INF)))
        assert rep.witness[:3] == ("zeros_without_pole", 1.0, 2.0)

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            InterpProblem((0.0,), (0.0,), ())


class TestConstruct:
    def test_wrap_pair(self):
        o = construct_O(InterpProblem((0.0,), (1.0,), ()))
        assert o.isclose(normalize([Arc(1.0, 0.0)]))

    def test_adjacent_pair(self):
        o = construct_O(InterpProblem((2.0,), (1.0,), ()))
        assert o.isclose(normalize([Arc(1.0, 2.0)]))

    def test_loner_zero_pairs_with_component_endpoint(self):
        o = construct_O(InterpProblem((1.0,), (), (0.0,)))
        assert o.isclose(normalize([Arc(0.0, 1.0)]))

    def test_zero_at_infinity(self):
        o = construct_O(InterpProblem((INF,), (0.0,), ()))
        assert o.isclose(normalize([Arc(0.0, INF)]))

    def test_regularized_across_singular_point(self):
        # the trailing pole of one component and the leading zero of the next
        # abut at a point of Y; regularization merges them
        o = construct_O(InterpProblem((3.0,), (1.0,), (0.0, 2.0)))
        assert o.isclose(normalize([Arc(1.0, 3.0)]))

    def test_violation_raises(self):
        with pytest.raises(InterlacingError):
            construct_O(InterpProblem((0.0, 1.0), (5.0,), ()))

    def test_inclusions_on_random_instances(self, rng):
        for _ in range(40):
            p = random_interlaced(rng)
            o = construct_O(p)
            assert is_regular(o)
            lefts, rights = arc_ends(o.arcs)
            allowed_b = list(p.poles) + list(p.singular) + [INF]
            allowed_a = list(p.zeros) + list(p.singular) + [INF]
            for a in p.zeros:
                assert any(points_equal(a, r) for r in rights)
            for b in p.poles:
                assert any(points_equal(b, l) for l in lefts)
            for l in lefts:
                assert any(points_equal(l, x) for x in allowed_b)
            for r in rights:
                assert any(points_equal(r, x) for x in allowed_a)


class TestBuild:
    def test_wrap_pair_function(self):
        b = build_function(InterpProblem((0.0,), (1.0,), ()))
        # k over the wrap arc (1, 0) is -sqrt(2) z/(z-1)
        for x in (3.0, -2.0, 0.5):
            assert b(x) == pytest.approx(-math.sqrt(2) * x / (x - 1), abs=1e-12)
        assert b(0.0) == 0.0

    def test_empty_problem(self):
        b = build_function(InterpProblem((), (), ()))
        assert b.region.is_empty
        assert b(1j) == 1.0

    def test_loner_reports_extra_pole(self):
        b = build_function(InterpProblem((1.0,), (), (0.0,)))
        assert b.extra_poles == (0.0,)
        assert abs(b(0.0 + 1e-7)) > 1e6

    def test_infinity_between_half_lines_is_neither_pole_nor_zero(self):
        # O = (∞, 0) ∪ (1, ∞): ∞ ends one arc and starts the other, and
        # k(∞) = −√2 is finite and nonzero
        b = build_function(InterpProblem((0.0,), (1.0,), (INF,)))
        assert b.region == normalize([Arc(INF, 0.0), Arc(1.0, INF)])
        assert b(INF) == pytest.approx(-math.sqrt(2), rel=1e-14)
        assert b.extra_poles == () and b.extra_zeros == ()
        # one half-line alone leaves a pole at ∞
        lone = build_function(InterpProblem((0.0,), (), (INF,)))
        assert lone.extra_poles == (INF,) and lone.extra_zeros == ()

    def test_certifications(self, rng):
        for _ in range(20):
            p = random_interlaced(rng)
            b = build_function(p)
            assert b.ok
            for a in p.zeros:
                v = b(a)
                assert isinstance(v, float) and abs(v) < 1e-10

    def test_real_off_singular_flags_a_stray_pole(self):
        # a product with a pole at 2, neither prescribed nor singular, is not
        # real analytic there: the residual is that pole's distance to B ∪ Y
        p = InterpProblem(zeros=(1.0,), poles=(0.0,), singular=(5.0,))
        o = construct_O(p)
        assert residuals(o, p)["real_off_singular"] == 0.0
        assert residuals(normalize(list(o.arcs) + [Arc(2.0, 3.0)]), p)["real_off_singular"] == 2.0
        assert residuals(normalize([Arc(2.0, 3.0)]), InterpProblem())["real_off_singular"] == INF

    @pytest.mark.parametrize("zero, pole", [(1e-6, 0.0), (1e-7, 0.0), (1e-9, 0.0),
                                            (1e8 + 0.5, 1e8), (100.0, INF)])
    def test_short_far_and_infinite_arcs_certify(self, zero, pole):
        # the residue of a short arc is tiny, and so is a pole's blow-up at a
        # fixed offset from it; the structure of k_O needs no probe
        b = build_function(InterpProblem((zero,), (pole,), ()))
        assert b.ok and [c.residual for c in b.certifications] == [0.0, 0.0, 0.0]
        assert b(zero) == 0.0
        assert b(pole) == INF

    def test_structural_certificates_fail_on_a_tampered_region(self):
        p = InterpProblem(zeros=(1.0, 3.0, INF), poles=(0.0, 2.0, 4.0), singular=())
        o = construct_O(p)
        assert o == normalize([Arc(0.0, 1.0), Arc(2.0, 3.0), Arc(4.0, INF)])
        assert residuals(o, p) == {"zeros": 0.0, "poles": 0.0, "real_off_singular": 0.0}
        # dropping an arc loses a prescribed zero and a prescribed pole
        lost = residuals(normalize([Arc(0.0, 1.0), Arc(4.0, INF)]), p)
        assert lost == {"zeros": 2.0, "poles": 2.0, "real_off_singular": 0.0}
        lost = residuals(normalize([Arc(0.0, 1.0), Arc(2.0, 3.0)]), p)
        assert lost == {"zeros": INF, "poles": 2.0, "real_off_singular": 0.0}
        # an extra arc leaves a stray pole, 3 from the nearest prescribed one
        stray = residuals(normalize(list(o.arcs) + [Arc(-3.0, -2.0)]), p)
        assert stray == {"zeros": 0.0, "poles": 0.0, "real_off_singular": 3.0}
        certs = certify_region(KreinProduct(normalize([Arc(0.0, 1.0), Arc(4.0, INF)])), p)[0]
        assert [(c.passed, c.note) for c in certs] == [
            (False, "farthest at 3.0"), (False, "farthest at 2.0"), (True, "")]

    def test_equivalence_on_random_instances(self, rng):
        agree = 0
        total = 60
        for _ in range(total):
            # mixed instances: random assignment, often non-interlacing
            pts = sep_points(rng, int(rng.integers(2, 9)), -9, 9, 0.4)
            zeros, poles = [], []
            for t in pts:
                (zeros if rng.random() < 0.5 else poles).append(t)
            try:
                p = InterpProblem(tuple(zeros), tuple(poles), ())
            except ValueError:
                agree += 1
                continue
            ok = check_interlacing(p).ok
            try:
                construct_O(p)
                built = True
            except InterlacingError:
                built = False
            agree += int(ok == built)
        assert agree == total

    @settings(max_examples=300, deadline=None)
    @given(interp_problems())
    def test_interlacing_iff_constructible(self, p):
        # check_interlacing says yes exactly when construct_O builds a set
        # whose product build_function certifies
        try:
            built = build_function(p).ok
        except InterlacingError:
            built = False
        assert check_interlacing(p).ok == built

    def test_nonuniqueness_whole_component(self):
        # a component of the Y-complement free of prescribed points may be
        # added to O wholesale: all certifications still pass
        from halfplane.krein import KreinProduct

        p = InterpProblem((3.0,), (2.0,), (0.0, 1.0))
        o1 = construct_O(p)
        assert not o1.contains(0.5)
        o2 = o1.union(normalize([Arc(0.0, 1.0)]))  # endpoints land in Y
        for o in (o1, o2):
            k = KreinProduct(o)
            assert abs(k(3.0)) < 1e-12                       # prescribed zero
            assert abs(k(2.0 + 1e-7)) > 1e6                  # prescribed pole
            lefts, rights = arc_ends(o.arcs)
            allowed = list(p.singular) + list(p.poles)
            assert all(any(points_equal(l, y) for y in allowed) for l in lefts)
            allowed = list(p.singular) + list(p.zeros)
            assert all(any(points_equal(r, y) for y in allowed) for r in rights)
        # and with no constraints at all, the empty set works
        assert construct_O(InterpProblem((), (), ())).is_empty


class TestRealizable:
    def test_reciprocal_pair(self):
        omega = SigmaDescriptor(points=(0.0,)).omega()
        region = normalize([Arc(0.0, INF)])
        ok, failures, f = realizable_pair(omega, region)
        assert ok and not failures
        assert abs(f(1j) - 1j) < 1e-12  # -1/z at i

    def test_subset_violation(self):
        omega = normalize([Arc(0.0, 5.0)])
        region = normalize([Arc(6.0, 7.0)])
        ok, failures, _ = realizable_pair(omega, region)
        assert not ok and failures[0][0] == "a"

    def test_regularity_violation(self):
        omega = FULL
        region = normalize([Arc(0.0, 1.0), Arc(1.0, 2.0)])
        ok, failures, _ = realizable_pair(omega, region)
        assert not ok and any(code == "b" for code, _ in failures)

    def test_omega_not_matching(self):
        # Omega misses a point that is not a left endpoint of O
        omega = FULL.remove_points([5.0])
        region = normalize([Arc(0.0, 1.0)])
        ok, failures, _ = realizable_pair(omega, region)
        assert not ok and any(code == "c" for code, _ in failures)

    def test_infinity_between_half_lines_is_no_pole(self):
        # O = (−∞, 0) ∪ (1, ∞): k_O(∞) = −√2, so Ω(k_O) is the circle minus {1}
        region = normalize([Arc(INF, 0.0), Arc(1.0, INF)])
        omega = analyze_pick(CompositeFunction(1.0, KreinProduct(region))).omega
        assert omega.isclose(FULL.remove_points([1.0]))
        ok, failures, _ = realizable_pair(omega, region)
        assert ok, failures

    @settings(max_examples=60, deadline=None)
    @given(chained_arcsets())
    def test_product_pair_is_realizable(self, case):
        # (Ω(k_O), O) is realizable for every regular explicit O, shared ends
        # and ∞ between half-lines included; k_O itself is a witness
        region = regularize(case[0])
        omega = analyze_pick(CompositeFunction(1.0, KreinProduct(region))).omega
        ok, failures, _ = realizable_pair(omega, region)
        assert ok, failures

    def test_with_exponent_part(self):
        # Omega leaves out a fat closed set, so the witness needs e^v
        omega = SigmaDescriptor(points=(0.0,), intervals=((2.0, 3.0),),
                                has_inf=True).omega()
        region = normalize([Arc(0.0, 1.0)])
        ok, failures, f = realizable_pair(omega, region)
        assert ok, failures
        assert f.exp is not None
        inside = f(0.5)
        outside = f(1.5)
        assert float(inside) < 0 < float(outside)


def sign_violation(f, omega, o):
    """The largest violation of f < 0 on O and f > 0 on Ω off the closure of
    O, at the boundary samples of O and at those of Ω neither in O nor within
    1e-7 of an end of O; points f refuses and the ∞ marker are skipped."""
    lefts, rights = arc_ends(o.arcs)
    ends = lefts + rights
    inside = boundary_samples(o)
    outside = [x for x in boundary_samples(omega)
               if not (o.contains(x, 1e-7) or any(points_equal(x, e, 1e-7) for e in ends))]
    v, refused = f.masked(np.array(inside + outside, dtype=complex))
    sign = np.repeat((1.0, -1.0), (len(inside), len(outside)))
    keep = ~refused & ~np.isinf(v.real)
    return float(np.max(sign[keep] * v.real[keep], initial=0.0))


@st.composite
def realizable_pairs(draw):
    """(Ω, O) realizable by construction: O a regular chained set (shared
    ends, half-lines, ∞ between them), Ω the Ω of k_O less closed intervals
    drawn inside the gaps of O."""
    o = regularize(draw(chained_arcsets())[0])
    sig = analyze_pick(CompositeFunction(1.0, KreinProduct(o))).sigma
    cuts = []
    for l, r in closed_complement(o)[0]:
        if points_equal(l, r) or not draw(st.booleans()):
            continue
        lo = l if l > -INF else (r - 10.0 if r < INF else -5.0)
        hi = r if r < INF else lo + 10.0
        u = draw(st.floats(0.05, 0.85))
        v = draw(st.floats(u + 0.05, 0.95))
        cuts.append((lo + u * (hi - lo), lo + v * (hi - lo)))
    return SigmaDescriptor(sig.points, tuple(cuts), sig.has_inf).omega(), o


class TestSignCertificate:
    """The witness of a realizable pair has its signs by the checks (a)–(c);
    the grid that sampled them is kept here as a test."""

    @settings(max_examples=150, deadline=None)
    @given(realizable_pairs())
    def test_witness_signs_hold_on_the_sample_grid(self, pair):
        omega, o = pair
        ok, failures, f = realizable_pair(omega, o)
        assert ok, failures
        assert sign_violation(f, omega, o) <= 1e-9

    @pytest.mark.parametrize("omega, region", [
        (FULL.remove_points([0.0]), normalize([Arc(0.0, INF)])),
        (SigmaDescriptor(points=(0.0,), intervals=((2.0, 3.0),), has_inf=True).omega(),
         normalize([Arc(0.0, 1.0)])),
        (FULL.remove_points([-2.0, 6.0]), normalize([Arc(-2.0, 1.0), Arc(6.0, -5.0)]))])
    def test_fails_on_a_composite_built_on_a_wrong_set(self, omega, region):
        # the witness for a realizable pair passes; the same composite built
        # on O shifted by 0.5 changes sign at the wrong points and fails
        ok, failures, f = realizable_pair(omega, region)
        assert ok, failures
        assert sign_violation(f, omega, region) == 0.0
        shifted = normalize([Arc(arc.b + 0.5, arc.a + 0.5) for arc in region.arcs])
        wrong = CompositeFunction(1.0, KreinProduct(shifted), f.exp)
        assert sign_violation(wrong, omega, region) > 1e-9


class TestDisk:
    def test_end_to_end(self):
        theta = disk_interpolate([1.0 + 0j], [-1.0 + 0j], [], -1.0, 1.0, 1j)
        assert abs(theta(1.0 + 0j) - (-1.0)) < 1e-8
        assert abs(theta(-1.0 + 0j) - 1.0) < 1e-8
        w = 0.5 * cmath.exp(1j * math.pi / 3)
        assert abs(theta(w)) < 1.0
        assert theta.ok

    def test_constant_when_empty(self):
        theta = disk_interpolate([], [], [], -1.0, 1.0, 1j)
        vals = [theta(0.3 * cmath.exp(1j * t)) for t in (0.1, 1.0, 2.5)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-12
        assert abs(abs(vals[0]) - 1.0) < 1e-12

    def test_boundary_unimodular_off_singular(self, rng):
        zs = [cmath.exp(1j * 2.2)]
        theta = disk_interpolate([cmath.exp(0.4j)], [cmath.exp(1j * math.pi)],
                                 zs, 1j, -1j, 0.5 + 1.5j)
        for t in np.linspace(0.05, 2 * math.pi - 0.05, 40):
            w = cmath.exp(1j * float(t))
            if min(abs(w - s) for s in zs + [cmath.exp(1j * math.pi)]) < 5e-2:
                continue
            assert abs(abs(theta(w)) - 1.0) < 1e-8

    def test_interior_contraction(self, rng):
        theta = disk_interpolate([1.0 + 0j], [-1.0 + 0j], [], -1.0, 1.0, 1j)
        for _ in range(50):
            w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(w) >= 0.95:
                continue
            assert abs(theta(w)) <= 1.0 - 1e-12

    def test_randomized_pipelines(self, rng):
        # alternating circle points always interlace after the pullback
        done = 0
        while done < 8:
            n = int(rng.integers(1, 4))
            angs = np.sort(rng.uniform(0.1, 2 * math.pi - 0.1, size=2 * n))
            if len(angs) > 1 and np.min(np.diff(angs)) < 0.15:
                continue
            zeros = [cmath.exp(1j * a) for a in angs[0::2]]
            poles = [cmath.exp(1j * a) for a in angs[1::2]]
            alpha = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            beta = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(alpha - beta) < 0.2:
                continue
            zeta = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
            theta = disk_interpolate(zeros, poles, [], alpha, beta, zeta)
            assert theta.ok
            for w in zeros:
                assert abs(theta(w) - alpha) < 1e-8
            for w in poles:
                assert abs(theta(w) - beta) < 1e-8
            done += 1

    def test_singular_at_one_pulls_back_to_infinity(self):
        # w = 1 pulls back to ∞, so Y contains the wrap point; the pipeline
        # must still certify
        zs = [1.0 + 0j]
        theta = disk_interpolate([cmath.exp(0.5j)], [cmath.exp(-0.9j)], zs,
                                 -1.0, 1.0, 1j)
        assert theta.ok
        assert abs(theta(cmath.exp(0.5j)) - (-1.0)) < 1e-8
        assert abs(theta(cmath.exp(-0.9j)) - 1.0) < 1e-8


@st.composite
def disk_prescriptions(draw):
    """(zeros, poles, singular, α, β, ζ): up to 8 points of the circle at
    angles 2πj/1000, each a zero, a pole or a singular point, w = 1 among
    them at times; α and β at least 0.01 apart, ζ in the upper half-plane.
    Each set's pullback interlaces or not: the draws that do not build are
    skipped."""
    js = draw(st.lists(st.integers(0, 999), min_size=1, max_size=8, unique=True))
    roles = draw(st.lists(st.sampled_from("ABY"), min_size=len(js), max_size=len(js)))
    ws = [cmath.exp(2j * math.pi * j / 1000) for j in js]
    zeros, poles, singular = ([w for w, t in zip(ws, roles) if t == role] for role in "ABY")
    a = draw(st.floats(0.0, 2 * math.pi))
    b = a + draw(st.floats(0.01, 2 * math.pi - 0.01))
    zeta = complex(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 3.0)))
    return zeros, poles, singular, cmath.exp(1j * a), cmath.exp(1j * b), zeta


def disk_or_skip(case):
    try:
        return disk_interpolate(*case)
    except InterlacingError:
        assume(False)


class TestDiskStructure:
    """θ = m ∘ k_O ∘ C⁻¹ is certified from its structure; the three grids
    that sampled θ are kept here as properties."""

    @settings(max_examples=150, deadline=None)
    @given(disk_prescriptions(), st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi))
    def test_interior_points_map_inside(self, case, r, t):
        theta = disk_or_skip(case)
        assert theta.ok
        value = abs(theta(r * cmath.exp(1j * t)))
        if theta.region.is_empty or theta.region.full:
            assert abs(value - 1.0) <= 1e-12
        else:
            assert value < 1.0

    @settings(max_examples=150, deadline=None)
    @given(disk_prescriptions(), st.floats(0.0, 2 * math.pi))
    def test_circle_points_map_to_the_circle(self, case, t):
        theta = disk_or_skip(case)
        w = cmath.exp(1j * t)
        zeros, poles, singular = case[:3]
        assume(all(abs(w - s) >= 1e-2 for s in poles + singular))
        value, refused = theta.masked(np.array([w]))
        assume(not refused[0])
        assert abs(abs(value[0]) - 1.0) <= 1e-8

    @settings(max_examples=150, deadline=None)
    @given(disk_prescriptions())
    def test_prescribed_points_take_their_levels(self, case):
        theta = disk_or_skip(case)
        zeros, poles, _, alpha, beta, _ = case
        level = next(c for c in theta.certifications if c.name == "level_sets")
        assert level.passed
        ws = np.array(zeros + poles, dtype=complex)
        values, refused = theta.masked(ws)
        targets = np.repeat((alpha, beta), (len(zeros), len(poles)))
        # a point within the guard band of a pole is refused, not evaluated
        err = np.abs(values - targets)[~refused]
        assert float(err.max(initial=0.0)) <= level.residual + 1e-12

    def test_no_value_of_theta_is_computed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Kreĭn product was evaluated")

        monkeypatch.setattr(KreinProduct, "eval", refuse)
        theta = disk_interpolate([cmath.exp(0.4j)], [cmath.exp(1j * math.pi)],
                                 [cmath.exp(2.2j)], 1j, -1j, 0.5 + 1.5j)
        assert theta.ok and [c.residual for c in theta.certifications][:2] == [0.0, 0.0]
        assert [c.note.startswith("structure: ") for c in theta.certifications] == [True] * 3

    @pytest.mark.parametrize("region", [normalize([Arc(0.0, 1.0)]),
                                        normalize([Arc(0.0, 1.0), Arc(2.0, 3.5)])])
    def test_a_region_missing_a_prescribed_zero_fails_level_sets(self, region):
        p = InterpProblem(zeros=(1.0, 3.0), poles=(0.0, 2.0))
        k = KreinProduct(region)
        build = BuildResult(p, region, k, certify_region(k, p)[0])
        certs = certify_disk(build, disk_target_map(-1.0, 1.0), -1.0, 1.0)
        assert [(c.name, c.passed) for c in certs] == [
            ("interior_contraction", True), ("boundary_unimodular", True),
            ("level_sets", False)]
        assert certs[2].residual == INF
        # the built region passes
        o = construct_O(p)
        build = BuildResult(p, o, KreinProduct(o), certify_region(KreinProduct(o), p)[0])
        assert all(c.passed for c in certify_disk(build, disk_target_map(-1.0, 1.0), -1.0, 1.0))

    @pytest.mark.parametrize("zeros, poles, singular, value", [
        ([], [], [], 1.0), ([], [], [1.0 + 0j, -1.0 + 0j], 1.0)])
    def test_constant_interpolant_reports_its_modulus(self, zeros, poles, singular, value):
        theta = disk_interpolate(zeros, poles, singular, -1.0, 1.0, 1j)
        interior = theta.certifications[0]
        assert interior.tolerance == 1.0 + 1e-12 and interior.passed
        assert interior.residual == abs(theta.target(value))
        assert abs(interior.residual - 1.0) <= 1e-15

    def test_zero_close_to_a_pole_certifies(self):
        # the pulled zero is 2.2e-10 from the pole, inside its guard band
        theta = disk_interpolate([cmath.exp(1j)], [cmath.exp(1j * (1 + 1e-10))], [],
                                 1j, -1j, 0.2 + 1j)
        assert theta.ok
        assert theta.problem.zeros[0] - theta.problem.poles[0] == pytest.approx(
            -2.18e-10, rel=1e-2)
