import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfplane.extreal import Arc, INF, normalize
from halfplane.moebius import (HalfPlaneAuto, cayley, disk_target_map,
                               pullback_arcset)

from conftest import random_arcset, random_auto, random_upper_points
from test_extreal import half_plane_autos


class TestApply:
    def test_identity(self):
        assert HalfPlaneAuto.identity()(1j) == 1j

    def test_translation(self):
        assert HalfPlaneAuto.translation(1.0)(1j) == 1 + 1j

    def test_inversion_fixes_i(self):
        assert HalfPlaneAuto.inversion()(1j) == pytest.approx(1j)

    def test_pole_maps_to_infinity(self):
        phi = HalfPlaneAuto(0, -1, 1, 0)  # -1/z
        assert phi(0.0) == INF
        assert phi(INF) == 0.0

    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            HalfPlaneAuto(1, 0, 0, -1)

    def test_inverse_roundtrip(self, rng):
        for _ in range(30):
            phi = random_auto(rng)
            inv = phi.inverse()
            for z in random_upper_points(rng, 5):
                assert abs(inv(phi(z)) - z) < 1e-12 * max(1.0, abs(z))

    def test_preserves_upper_half_plane(self, rng):
        for _ in range(30):
            phi = random_auto(rng)
            for z in random_upper_points(rng, 5):
                assert phi(z).imag > 0


class TestArrayPass:
    @settings(max_examples=100, deadline=None)
    @given(half_plane_autos, st.lists(st.floats(-1e3, 1e3), max_size=6),
           st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)), max_size=6))
    def test_array_call_is_the_scalar_call(self, phi, xs, zs):
        # real points, ∞ and the pole among them, in a real array; points of
        # C⁺ in a complex one: each value is its scalar call's, bit for bit
        xs = xs + [INF] + ([-phi.d / phi.c] if phi.c != 0 else [])
        for points, kind in ((xs, float), ([complex(x, y) for x, y in zs], complex)):
            values = phi(np.array(points, dtype=kind))
            assert values.dtype.kind == np.dtype(kind).kind
            for z, v in zip(points, values.tolist()):
                got = phi(z)
                assert type(got) is kind and got == v
        assert phi(INF) == (INF if phi.c == 0 else phi.a / phi.c)


class TestPullback:
    def test_translation(self):
        o = normalize([Arc(0, 1)])
        got = pullback_arcset(HalfPlaneAuto.translation(1.0), o)
        assert got.isclose(normalize([Arc(-1, 0)]))

    def test_inversion_maps_interval(self):
        o = normalize([Arc(1, 2)])
        got = pullback_arcset(HalfPlaneAuto.inversion(), o)
        assert got.isclose(normalize([Arc(-1.0, -0.5)]))
        # an interior sample maps into the original set
        phi = HalfPlaneAuto.inversion()
        assert o.contains(phi(-0.8))

    def test_wrap_preserved(self):
        o = normalize([Arc(1, 0)])
        got = pullback_arcset(HalfPlaneAuto.translation(1.0), o)
        assert got.isclose(normalize([Arc(0, -1)]))
        assert got.contains(INF)

    def test_respects_union(self, rng):
        for _ in range(25):
            o1, o2 = random_arcset(rng, 2), random_arcset(rng, 2)
            phi = random_auto(rng)
            lhs = pullback_arcset(phi, o1.union(o2))
            rhs = pullback_arcset(phi, o1).union(pullback_arcset(phi, o2))
            assert lhs.isclose(rhs, 1e-9)

    def test_pointwise_membership(self, rng):
        for _ in range(25):
            o = random_arcset(rng)
            phi = random_auto(rng)
            got = pullback_arcset(phi, o)
            for x in [-7.3, -2.1, -0.4, 0.9, 3.3, 8.2]:
                img = phi(x)
                assert got.contains(x, 1e-9) == o.contains(img, 1e-9)


class TestCayley:
    def test_base_point_to_zero(self):
        m = cayley(1j)
        assert m(1j) == 0

    def test_zero_to_minus_one(self):
        m = cayley(1j)
        assert m(0.0 + 0j) == pytest.approx(-1.0)

    def test_infinity_to_one(self):
        m = cayley(1j)
        assert m(INF) == pytest.approx(1.0)

    def test_real_line_to_circle(self, rng):
        for zeta in (1j, 0.5 + 2j, -3 + 0.7j):
            m = cayley(zeta)
            for x in rng.uniform(-50, 50, size=20):
                assert abs(abs(m(complex(x, 0))) - 1.0) < 1e-12

    def test_inverse(self, rng):
        m = cayley(0.3 + 1.7j)
        for z in random_upper_points(rng, 10):
            w = m(z)
            assert abs(w) < 1
            assert abs(m.inverse_apply(w) - z) < 1e-11 * max(1, abs(z))

    def test_inverse_point_of_one_is_infinity(self):
        m = cayley(2j)
        assert m.inverse_apply(1.0 + 0j) == INF
        assert m.inverse_apply(np.array([1.0 + 0j, -1.0 + 0j])).real.tolist() == [INF, 0.0]

    def test_requires_upper_base(self):
        with pytest.raises(ValueError):
            cayley(-1j)


class TestDiskTarget:
    def test_minus_one_to_one(self):
        m = disk_target_map(-1.0, 1.0)
        # m(w) = (w - i)/(w + i)
        assert m(0j) == pytest.approx(-1.0)
        assert m(INF) == pytest.approx(1.0)
        assert abs(m(1j)) == pytest.approx(0.0, abs=1e-15)

    def test_i_to_one(self):
        m = disk_target_map(1j, 1.0)
        assert m(0j) == pytest.approx(1j)
        assert m(INF) == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            disk_target_map(1.0, 1.0)
        with pytest.raises(ValueError):
            disk_target_map(0.5, 1.0)

    def test_maps_upper_half_plane_into_disk(self, rng):
        for alpha, beta in ((-1, 1), (1j, 1), (cmath.exp(2j), cmath.exp(0.5j))):
            m = disk_target_map(alpha, beta)
            for z in random_upper_points(rng, 15):
                assert abs(m(z)) < 1.0
            for x in rng.uniform(-20, 20, size=10):
                assert abs(abs(m(complex(x, 0))) - 1.0) < 1e-12
