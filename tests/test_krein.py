import cmath
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from halfplane.extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL, INF,
                               SigmaDescriptor, angle_subtended, arc_ends, is_inf,
                               normalize, regularize)
from halfplane import krein
from halfplane.krein import (REAL_GUARD, EvaluationDomainError, KreinProduct,
                             TailNotCertified, cantor_complement_product,
                             equivariance_transport, k_structure, log_p, p_eval)

from conftest import (k_integral, random_arcset, random_auto,
                      random_bounded_arcset, random_upper_points)


class TestFactor:
    def test_negative_exactly_on_arc(self):
        j = Arc(0, 1)
        assert p_eval(j, 0.5) < 0
        assert p_eval(j, 2.0) > 0
        assert p_eval(j, -1.0) > 0

    def test_negative_set_samples(self, rng):
        for _ in range(30):
            o = random_arcset(rng, 1)
            j = o.arcs[0]
            for x in [-8.7, -3.3, -0.9, 0.3, 1.7, 4.4, 9.1, INF]:
                v = p_eval(j, x)
                if isinstance(v, float) and not math.isinf(v) and v != 0.0:
                    assert (v < 0) == j.contains(x)

    def test_half_line_formula(self):
        # p for (-oo, 0) is the identity map
        for x in (0.5, 3.0, -2.0):
            assert p_eval(Arc(INF, 0), x) == x

    def test_complement_rule(self):
        # (0, oo) is the complement of the closure of (-oo, 0): p = -1/z
        for z in (2.0, 0.5 + 0.5j, -3.0):
            assert p_eval(Arc(0, INF), z) == pytest.approx(-1.0 / z)

    def test_norm_one_at_i(self, rng):
        for _ in range(50):
            j = random_arcset(rng, 1).arcs[0]
            assert abs(p_eval(j, 1j)) == pytest.approx(1.0, abs=1e-13)

    def test_empty_full(self):
        assert p_eval(EMPTY, 1j) == 1.0
        assert p_eval(FULL, 1j) == -1.0

    def test_pole_marker(self):
        assert p_eval(Arc(0, 1), 0.0) == INF

    def test_maps_upper_to_upper(self, rng):
        for _ in range(40):
            j = random_arcset(rng, 1).arcs[0]
            for z in random_upper_points(rng, 4):
                assert complex(p_eval(j, z)).imag > 0


class TestLogP:
    def test_symmetric_arc_argument(self):
        assert log_p(Arc(-1, 1), 1j).imag == pytest.approx(math.pi / 2, abs=1e-14)

    def test_empty(self):
        assert log_p(EMPTY, 2j) == 0

    def test_imag_equals_angle(self, rng):
        for _ in range(40):
            j = random_arcset(rng, 1).arcs[0]
            z = random_upper_points(rng, 1)[0]
            assert log_p(j, z).imag == pytest.approx(
                angle_subtended(ArcSet((j,)), z), abs=1e-12)

    def test_exp_log_identity(self, rng):
        for _ in range(60):
            j = random_arcset(rng, 1).arcs[0]
            z = random_upper_points(rng, 1)[0]
            assert abs(cmath.exp(log_p(j, z)) - p_eval(j, z)) < 1e-12

    def test_closed_form_antiderivative(self, rng):
        # log p = log((a-z)/(b-z)) - 0.5 log((1+a^2)/(1+b^2)) for finite arcs
        for _ in range(20):
            b, a = sorted(rng.uniform(-5, 5, size=2))
            if a - b < 0.1:
                continue
            z = random_upper_points(rng, 1)[0]
            expect = cmath.log((a - z) / (b - z)) - 0.5 * math.log(
                (1 + a * a) / (1 + b * b))
            assert abs(log_p(Arc(b, a), z) - expect) < 1e-12


class TestProduct:
    def test_merging_identity(self, rng):
        k = KreinProduct(normalize([Arc(1, 2), Arc(2, 3)]))
        for z in random_upper_points(rng, 20):
            assert abs(k(z) - p_eval(Arc(1, 3), z)) < 1e-12

    def test_full_is_minus_one(self):
        assert KreinProduct(FULL)(1j) == -1.0

    def test_norm_one_at_i(self, rng):
        for _ in range(40):
            k = KreinProduct(random_arcset(rng))
            val, tail = k.eval(1j)
            assert abs(abs(val) - 1.0) <= tail + 1e-12

    def test_arg_equals_angle(self, rng):
        for _ in range(40):
            o = random_arcset(rng)
            z = random_upper_points(rng, 1)[0]
            val = KreinProduct(o)(z)
            ang = angle_subtended(o, z)
            if ang < math.pi - 1e-9:
                assert cmath.phase(val) == pytest.approx(ang, abs=1e-10)

    def test_regularization_invariance(self, rng):
        for _ in range(30):
            o = random_arcset(rng)
            k1, k2 = KreinProduct(o), KreinProduct(regularize(o))
            for z in random_upper_points(rng, 3):
                assert abs(k1(z) - k2(z)) < 1e-11

    def test_real_sign_structure(self, rng):
        for _ in range(30):
            o = random_arcset(rng)
            k = KreinProduct(o)
            lefts = [float(b) for b in arc_ends(o.arcs)[0] if not math.isinf(float(b))]
            rights = [float(a) for a in arc_ends(o.arcs)[1] if not math.isinf(float(a))]
            for x in [-9.4, -4.1, -1.3, 0.2, 2.7, 6.9]:
                if any(abs(x - p) < 1e-6 for p in lefts + rights):
                    continue
                v = k(x)
                assert isinstance(v, float)
                if o.contains(x):
                    assert v < 0
                elif not any(c.contains(x, 1e-6) for c in o.arcs):
                    assert v > 0

    def test_real_guard(self):
        k = KreinProduct(normalize([Arc(0, 1)]))
        with pytest.raises(EvaluationDomainError):
            k(1e-11)
        assert k(0.0) == INF

    def test_value_at_infinity(self):
        k = KreinProduct(normalize([Arc(0, 1)]))
        assert k(INF) == pytest.approx(math.sqrt(1.0 / 2.0))

    def test_shared_ends_cancel(self):
        # the pole of (−∞, 0) and the zero of (1, ∞) meet at ∞, and the
        # product is p_(1,0), finite there: −√2, the limit of k(±1e8)
        k = KreinProduct(normalize([Arc(INF, 0), Arc(1, INF)]))
        assert k(INF) == pytest.approx(-math.sqrt(2.0), rel=1e-15)
        assert k(1e8) == pytest.approx(-math.sqrt(2.0), rel=1e-7)
        # a finite shared end is no pole: p_(0,1)·p_(1,2) = p_(0,2)
        k = KreinProduct(normalize([Arc(0, 1), Arc(1, 2)]))
        assert k(1.0) == pytest.approx(-1.0 / math.sqrt(5.0), rel=1e-15)
        assert k.support_json() == {"arcs": [[0.0, 1.0], [1.0, 2.0]]}


@st.composite
def chained_arcsets(draw):
    """(O, kept, poles): O is made of the kept (b, a) among the arcs between
    neighbours of up to 40 points in circle order, ∞ possibly among them, so
    kept neighbours share an end; the poles are the kept arcs' finite left
    ends that no kept arc ends at."""
    xs = sorted(draw(st.lists(st.integers(-5000, 5000), min_size=1, max_size=40,
                              unique=True)))
    pts = ([INF] if draw(st.booleans()) else []) + [x / 100.0 for x in xs]
    if len(pts) < 2:
        pts.append(INF)
    pairs = list(zip(pts, pts[1:] + pts[:1]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    if not any(keep):
        keep[0] = True
    kept = [pair for pair, k in zip(pairs, keep) if k]
    poles = [b for b, _ in kept if not is_inf(b) and all(a != b for _, a in kept)]
    return normalize([Arc(b, a) for b, a in kept]), kept, poles


def _mp_krein(pairs, z, exact=False):
    """∏ p_(b,a)(z) over the given (b, a) in 50-digit arithmetic, as
    ±∏ N_a(z)/∏ N_b(z) with N_p(z) = (z − p)/|i − p| and N_∞ = 1.  A factor
    z − p that vanishes at z, or grows at z = ∞, is counted, not evaluated:
    the net count gives 0, the ∞ marker or a finite value.  With ``exact``,
    a finite nonzero value stays an mpmath number, for a caller that works
    on at 50 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        val, order = mp.mpf(1), 0
        for b, a in pairs:
            if is_inf(a) or (not is_inf(b) and b > a):
                val = -val
            for p, power in ((a, 1), (b, -1)):
                if is_inf(p):
                    continue
                c = mp.sqrt(1 + mp.mpf(p) ** 2)
                if is_inf(z) or z == p:
                    order += power if z == p else -power
                    val *= c ** -power
                else:
                    val *= ((mp.mpmathify(z) - p) / c) ** power
        if order:
            return 0.0 if order > 0 else INF
        if exact:
            return val
        if abs(val) > sys.float_info.max:
            return complex(INF, INF)  # beyond the largest double
        return complex(val) if isinstance(z, complex) else float(val)


class TestExplicitProduct:
    @settings(max_examples=150, deadline=None)
    @given(chained_arcsets(), st.lists(st.tuples(st.floats(-60, 60), st.floats(-5, 5)),
                                       min_size=1, max_size=6))
    # at a subnormal Im z the value −1/z of p_(0,∞) lies beyond the largest double
    @example((normalize([Arc(0.0, INF)]), [(0.0, INF)], []), [(0.0, 2.225073858507203e-309)])
    def test_matches_mpmath_product(self, sample, points):
        o, kept, poles = sample
        k = KreinProduct(o)
        zs = [INF] + [complex(x, y) if y else x for x, y in points]
        for z in zs:
            if not isinstance(z, complex) and any(abs(z - b) < 1e-9 for b in poles):
                continue
            val, exact = k(z), _mp_krein(kept, z)
            assert isinstance(val, complex) == isinstance(z, complex)
            if exact == INF:
                assert val == INF
            elif abs(exact) == INF:
                assert abs(val) == INF and not cmath.isnan(val)
            else:
                assert abs(val - exact) <= 64 * 2.0 ** -52 * abs(exact)
        for b in poles:
            assert k(b) == INF
            with pytest.raises(EvaluationDomainError):
                k(b + 5e-10)


    @pytest.mark.filterwarnings("error")
    def test_value_past_float_range_warns_nothing(self):
        # the plain product overflows into NaN parts before the scaled
        # product replaces them; numpy must not warn about it
        k = KreinProduct(normalize([Arc(0.0, INF)]))
        assert k(complex(0.0, 2.225073858507203e-309)) == complex(0.0, INF)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [-8.98e307, 1e308, -1e300, complex(-8.98e307, 1e-3),
                                   complex(1e308, 1.0), complex(0.0, 1e308)])
    def test_far_point_keeps_its_value(self, z):
        # far out an N or a D leaves the float range while its factor does
        # not: the product gave inf at −8.98e307 and NaN at −8.98e307 + 1e-3i
        pairs = [(-80.0, -60.5), (-53.0, -24.4), (-22.7, INF)]
        k = KreinProduct(normalize([Arc(b, a) for b, a in pairs]))
        exact = _mp_krein(pairs, z)
        assert abs(k(z) - exact) <= 64 * 2.0 ** -52 * abs(exact)


@st.composite
def separate_arcsets(draw):
    """O as :func:`chained_arcsets` draws it with every other arc dropped, so
    that no two arcs share an end, ∞ included."""
    arcs = draw(chained_arcsets())[0].arcs
    return ArcSet(arcs if len(arcs) == 1 else arcs[:len(arcs) // 2 * 2:2])


upper_or_lower = st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(0.01, 5.0),
                                    st.booleans()), min_size=1, max_size=6)


class TestProductProperties:
    @settings(max_examples=150, deadline=None)
    @given(chained_arcsets())
    def test_norm_one_at_i(self, sample):
        assert abs(abs(KreinProduct(sample[0])(1j)) - 1.0) <= 1e-13

    @settings(max_examples=150, deadline=None)
    @given(chained_arcsets(), upper_or_lower)
    def test_argument_is_the_angle(self, sample, points):
        # arg k_O(z) is the angle O subtends at z, in [0, π]
        o = sample[0]
        k = KreinProduct(o)
        for x, y, _ in points:
            z = complex(x, y)
            val = k(z)
            assert abs(val / abs(val) - cmath.exp(1j * angle_subtended(o, z))) <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(separate_arcsets(), upper_or_lower, st.lists(st.floats(-60.0, 60.0), max_size=6))
    def test_table_is_the_in_order_product_of_its_factors(self, o, points, xs):
        # with no end shared, the table's rows are the single-arc factors':
        # its product is theirs in order, bit for bit, above and below the
        # line, on it, at ±inf, within REAL_GUARD of a pole and at one, where
        # the ∞ marker stands for the product's ±inf
        table = KreinProduct(o)._table
        poles = [arc.b for arc in o.arcs if not is_inf(arc.b)]
        zs = np.array([complex(x, y if up else -y) for x, y, up in points])
        reals = np.array(xs + [INF, -INF] + poles + [b + 5e-10 for b in poles])
        parts = []
        for pts in (zs, reals):
            out, pole, near = table.product(pts)
            parts.append((out, pole, near))
            # numpy's reduction multiplies in order, one point at a time
            want = np.multiply.reduce(np.stack([p_eval(arc, pts) for arc in o.arcs], axis=1),
                                      axis=1, initial=pts.dtype.type(1))
            at_pole = np.isin(pts, poles) if pts.dtype.kind == "f" else np.zeros(pts.size, bool)
            assert np.array_equal(pole, at_pole)
            assert np.all(out[at_pole] == INF) and np.all(np.abs(want[at_pole]) == INF)
            assert np.array_equal(out[~at_pole].view(np.int64), want[~at_pole].view(np.int64))
            if pts.dtype.kind == "f":
                close = (np.abs(pts[:, None] - np.array(poles + [np.nan])) < REAL_GUARD).any(axis=1)
                assert np.array_equal(near, close & ~at_pole)
        # both interleaved in one complex array: each point keeps its value and
        # masks from its own part
        order = np.argsort(np.r_[2 * np.arange(zs.size), 2 * np.arange(reals.size) + 1])
        mixed = np.concatenate((zs, reals.astype(complex)))[order]
        for got, z_part, x_part in zip(table.product(mixed), *parts):
            want = np.concatenate((z_part, x_part))[order]
            assert got.dtype == want.dtype and np.array_equal(got.view(np.int8), want.view(np.int8))


class TestStructure:
    def test_single_arc(self):
        s = k_structure(normalize([Arc(0, 1)]))
        assert s.sigma.points == (0,)
        assert s.zeros == (1,)
        assert s.poles == (0,)

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            k_structure(normalize([Arc(0, 1), Arc(1, 2)]))

    def test_two_arcs(self):
        s = k_structure(normalize([Arc(0, 1), Arc(2, 3)]))
        assert s.zeros == (1, 3)
        assert s.poles == (0, 2)
        assert s.gamma.isclose(normalize([Arc(0, 1), Arc(2, 3)]))

    def test_shared_infinity_is_neither_pole_nor_zero(self):
        # O = (−∞, 0) ∪ (1, ∞) is p_(1,0), finite at ∞: one pole, one zero,
        # and Γ the wrap arc through ∞, where k is −√2
        s = k_structure(normalize([Arc(INF, 0), Arc(1, INF)]))
        assert s.poles == (1.0,) and s.zeros == (0.0,)
        assert s.sigma.points == (1.0,)
        assert s.gamma == normalize([Arc(1, 0)])
        # a lone half-line keeps its pole at ∞
        assert k_structure(normalize([Arc(INF, 0)])).poles == (INF,)

    def test_closed_chain_is_the_constant_minus_one(self):
        for o in (normalize([Arc(0, 1), Arc(1, 0)]), FULL, ArcSet((Arc(INF, INF, True),))):
            s = KreinProduct(o).structure
            assert s.gamma == FULL and s.poles == s.zeros == () and not s.sigma.points
        assert KreinProduct(EMPTY).structure.gamma == EMPTY

    @settings(max_examples=150, deadline=None)
    @given(chained_arcsets())
    def test_structure_matches_the_evaluator(self, sample):
        o, kept, poles = sample
        s = KreinProduct(o).structure
        assert sorted(b for b in s.poles if not is_inf(b)) == sorted(poles)
        zeros = [a for _, a in kept if not is_inf(a) and all(b != a for b, _ in kept)]
        assert sorted(a for a in s.zeros if not is_inf(a)) == sorted(zeros)
        k = KreinProduct(o)
        assert all(k(b) == INF for b in s.poles if not is_inf(b))
        assert all(k(a) == 0.0 for a in s.zeros if not is_inf(a))
        at_inf = _mp_krein(kept, INF)
        assert (INF in s.poles, INF in s.zeros) == (at_inf == INF, at_inf == 0.0)
        # σ is the closed set of the poles, ∞ as its flag
        assert s.sigma == SigmaDescriptor(tuple(b for b in s.poles if not is_inf(b)), (),
                                          INF in s.poles)

    def test_zero_and_pole_locations_numerically(self):
        k = KreinProduct(normalize([Arc(0, 1), Arc(2, 3)]))
        assert k(1.0) == 0.0
        assert k(3.0) == 0.0
        assert abs(k(2.0 + 1e-7)) > 1e5


class TestIntegral:
    def test_against_closed_form(self, rng):
        for _ in range(15):
            o = random_bounded_arcset(rng, 3)
            z = random_upper_points(rng, 1)[0]
            assert abs(k_integral(o, z) - KreinProduct(o)(z)) < 1e-8

    def test_empty(self):
        assert k_integral(EMPTY, 1j) == 1.0

    def test_angle_identity(self):
        val = k_integral(normalize([Arc(-1, 1)]), 1j)
        assert cmath.phase(val) == pytest.approx(math.pi / 2, abs=1e-8)

    def test_unbounded_arcs(self, rng):
        o = normalize([Arc(INF, -2), Arc(1, 3)])
        z = 0.4 + 1.1j
        assert abs(k_integral(o, z) - KreinProduct(o)(z)) < 1e-8


class TestEquivariance:
    def test_identity_transport(self):
        k = KreinProduct(normalize([Arc(0, 1)]))
        _, c = equivariance_transport(k, __import__("halfplane").HalfPlaneAuto.identity())
        assert c == pytest.approx(1.0)

    def test_translation_constant(self):
        k = KreinProduct(normalize([Arc(0, 1)]))
        _, c = equivariance_transport(
            k, __import__("halfplane").HalfPlaneAuto.translation(1.0))
        assert c == pytest.approx(1.0 / abs(p_eval(Arc(0, 1), 1 + 1j)))

    def test_pointwise_identity(self, rng):
        for _ in range(30):
            o = random_arcset(rng, 3)
            phi = random_auto(rng)
            k = KreinProduct(o)
            kp, c = equivariance_transport(k, phi)
            for z in random_upper_points(rng, 5):
                assert abs(kp(z) - c * k(phi(z))) < 1e-10


class TestCantorProduct:
    def test_converges_to_minus_one(self):
        k = cantor_complement_product((0, 1), depth=24, tol=1e-3)
        for z in (1j, 2j, 1 + 1j):
            val, tail = k.eval(z)
            assert abs(val + 1.0) <= tail
            assert tail <= 1e-3
        # |k(i)| = 1 within the certificate, generator included
        val, tail = k.eval(1j)
        assert abs(abs(val) - 1.0) <= tail + 1e-12

    def test_tail_not_certified(self):
        k = cantor_complement_product((0, 1), depth=4, tol=1e-12)
        with pytest.raises(TailNotCertified, match="at depth 4, the generator's depth cap"):
            k.eval(1j)

    def test_tail_beyond_float_range(self):
        # close above the base the tail's exponent reaches about 3e5, and
        # e^x − 1 past the float range bounds nothing: the tail is infinite
        k = cantor_complement_product((0, 1), 20, 1e-3)
        with pytest.raises(TailNotCertified, match="tail bound inf exceeds tol 1.000e-03 "
                                                   "at depth 20, the generator's depth cap"):
            k.eval(0.5 + 1e-9j)
        val, tail = k.eval_at_depth(0.5 + 1e-9j, 20)
        assert tail == INF and cmath.isfinite(val)

    def test_tail_checked_with_explicit_factor(self, monkeypatch):
        # |explicit| ≈ 1.7 here, so the generator-only tail passed at depth 14
        # while the reported one did not; depth 16 certifies the whole value
        monkeypatch.setattr(krein, "_MAX_FACTORS", 2 ** 18)
        k = KreinProduct(arcs=normalize([Arc(2, 3)]), cantor=CantorComplement((0, 1), 26),
                         tol=1e-2)
        val, tail = k.eval(2.05 + 0.05j)
        assert (val, tail) == k.eval_at_depth(2.05 + 0.05j, 16)
        assert tail <= 1e-2
        # the budget names the depth it could not afford and the last tail
        monkeypatch.setattr(krein, "_MAX_FACTORS", 2 ** 15 - 2)
        with pytest.raises(TailNotCertified, match=r"depth 15 needs 32767 factors, over the "
                           r"budget of 32766; tail bound 1\.724e-02 at depth 14"):
            k.eval(2.05 + 0.05j)

    def test_base_ends(self):
        # 0 is a zero of the exterior factor and lies on the Cantor set: refused,
        # naming why; 1 is the exterior factor's pole: the ∞ marker first
        k = cantor_complement_product((0, 1), 26, 1e-2)
        with pytest.raises(EvaluationDomainError, match="lies on the generator's Cantor set"):
            k.eval(0.0)
        assert k.eval(1.0) == (INF, 0.0)

    def test_value_at_infinity(self):
        # the exterior arcs (−∞, 0) and (1, ∞) meet at ∞, where the product
        # tends to −1 like everywhere else
        val, tail = cantor_complement_product((0, 1), depth=26, tol=1e-3).eval(INF)
        assert abs(val + 1.0) <= tail <= 1e-3

    def test_certificate_bounds_distance_to_limit(self):
        # the infinite product is exactly -1; every truncation must sit
        # within its own certificate of it
        k = cantor_complement_product((0, 1), depth=16, tol=1.0)
        tails = []
        for depth in (6, 9, 12):
            val, tail = k.eval_at_depth(1j, depth)
            assert abs(val + 1.0) <= tail
            tails.append(tail)
        assert tails[2] < tails[1] < tails[0]

    def test_cantor_explicit_matches_vectorized(self):
        cc = CantorComplement((0, 1), 5)
        exterior = normalize([Arc(INF, 0), Arc(1, INF)])
        explicit = KreinProduct(normalize(list(exterior.arcs) + cc.arcs()))
        gen = cantor_complement_product((0, 1), depth=5, tol=1.0)
        z = 0.3 + 0.9j
        assert abs(explicit(z) - gen.eval(z)[0]) < 1e-12

    def test_real_point_inside_gap(self, monkeypatch):
        # x = 1/2 sits in the level-1 gap; the tail distance is to the gap
        # endpoints, so certification needs a deeper budget than at z = i
        monkeypatch.setattr(krein, "_MAX_FACTORS", 20_000_000)
        k = cantor_complement_product((0, 1), depth=26, tol=1e-2)
        val, tail = k.eval(0.5)
        assert abs(val + 1.0) <= tail <= 1e-2
        # outside the base the certificate is cheap again
        val, tail = k.eval(3.0)
        assert abs(val + 1.0) <= tail

    def test_schwarz_reflection(self, rng):
        # real coefficients: k(conj z) = conj(k(z))
        for _ in range(30):
            k = KreinProduct(random_arcset(rng))
            z = random_upper_points(rng, 1)[0]
            assert abs(k(z.conjugate()) - k(z).conjugate()) < 1e-12

    def test_real_point_refusals(self):
        k = cantor_complement_product((0, 1), depth=24, tol=1e-3)
        with pytest.raises(TailNotCertified, match="depth 24 needs 16777215 factors, over "
                           "the budget of 2000000; no depth evaluated"):
            k.eval(0.5)  # budget cannot reach the interior certificate
        with pytest.raises(EvaluationDomainError):
            k.eval(1.0 / 3.0 + 1e-13)  # within the guard of a gap endpoint
        with pytest.raises(EvaluationDomainError):
            # a Cantor point is never inside any gap
            k.eval(0.25)


@functools.cache
def _mp_gaps(depth):
    """The middle thirds (b, a) of levels 1..depth of [0, 1], built level by
    level from 30-digit endpoints, and the scale sqrt(∏ (1+b²)/(1+a²))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        starts, third, gaps = [mp.mpf(0)], mp.mpf(1), []
        for _ in range(depth):
            third /= 3
            gaps += [(s0 + third, s0 + 2 * third) for s0 in starts]
            starts = [t for s0 in starts for t in (s0, s0 + 2 * third)]
        scale = mp.sqrt(mp.fprod(1 + b * b for b, _ in gaps)
                        / mp.fprod(1 + a * a for _, a in gaps))
    return gaps, scale


def _mp_generator(depth, z):
    """The depth-d generator product on [0, 1] in 30-digit arithmetic:
    ∏ (z−a)/(z−b) over the middle thirds, times the scale."""
    mp = pytest.importorskip("mpmath")
    gaps, scale = _mp_gaps(depth)
    with mp.workdps(30):
        zz = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
        value = (mp.fprod(zz - a for _, a in gaps) / mp.fprod(zz - b for b, _ in gaps)
                 * scale)
    return complex(value) if isinstance(z, complex) else float(value)


# complex points from Im z = 0.01 up to 2.5, over and off the base; real
# points in level-1 gaps ((1/3, 2/3)) and level-2 gaps ((1/9, 2/9), (7/9, 8/9))
NEAR = (0.3 + 0.01j, -0.4 + 0.02j, 0.2)
POINTS = NEAR + (0.52 + 0.1j, 0.5 + 0.5j, 1.7 + 2.5j, 3.0 + 0.3j, 0.5, 0.41, 0.8)


class TestGeneratorKernel:
    @pytest.mark.parametrize("depth, z", [(d, z) for d in (8, 12) for z in POINTS]
                             + [(14, z) for z in NEAR])
    def test_matches_mpmath_reference(self, depth, z):
        gen = KreinProduct(cantor=CantorComplement((0, 1), 26), tol=1.0)
        val, _ = gen.eval_at_depth(z, depth)
        assert isinstance(val, complex) == isinstance(z, complex)
        assert abs(val - _mp_generator(depth, z)) <= 1e-12

    def test_value_at_infinity(self):
        # every factor is |i−b|/|i−a| at ∞; the gaps fill [0, 1], so the
        # generator's limit there is |i−0|/|i−1| = 1/√2
        gen = KreinProduct(cantor=CantorComplement((0, 1), 26), tol=1e-3)
        val, tail = gen.eval(INF)
        assert isinstance(val, float)
        assert abs(val - 1.0 / math.sqrt(2.0)) <= tail <= 1e-3

    def test_working_set_bounded(self):
        # 2^19 − 1 factors; no array of that length may be built
        k = cantor_complement_product((0, 1), depth=26, tol=1e-2)
        tracemalloc.start()
        try:
            k.eval_at_depth(0.5 + 0.5j, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
