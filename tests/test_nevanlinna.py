import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from halfplane.extreal import Arc, INF, is_regular, normalize
from halfplane.nevanlinna import (Measure, NevanlinnaRep, _BRACKET,
                                  _boole_roots, _letac_roots, _secular_roots,
                                  analyze, boole_superlevel_measure,
                                  cauchy_transform, letac_pushforward_check,
                                  recover_alpha, recover_atom, recover_beta,
                                  stieltjes_density, stieltjes_density_limit)
from halfplane.util import (RecoveryError, bisect_increasing, expand_to_sign,
                            shrink_to_sign)

from conftest import random_atomic_rep, random_upper_points, sep_points


def delta(t, w=1.0):
    return Measure(atoms=((t, w),))


class TestEval:
    def test_single_atom_is_reciprocal(self, rng):
        rep = NevanlinnaRep(0.0, 0.0, delta(0.0))
        for z in random_upper_points(rng, 10):
            assert abs(rep.eval(z) - (-1.0 / z)) < 1e-14

    def test_linear(self):
        assert NevanlinnaRep(1.0, 0.0).eval(1j) == 1j

    def test_value_at_i_identity(self, rng):
        for _ in range(20):
            rep = random_atomic_rep(rng)
            expect = complex(rep.beta, rep.alpha + rep.rho.mass())
            assert abs(rep.eval(1j) - expect) < 1e-12

    def test_value_at_i_with_density(self):
        rep = NevanlinnaRep(0.5, -1.0, Measure(ac=((0.0, 2.0, 0.3),)))
        expect = complex(-1.0, 0.5 + 0.6)
        assert abs(rep.eval(1j) - expect) < 1e-14

    def test_upper_half_plane_preserved(self, rng):
        for _ in range(20):
            rep = random_atomic_rep(rng)
            for z in random_upper_points(rng, 5):
                assert rep.eval(z).imag >= -1e-14

    def test_atom_pole_marker(self):
        rep = NevanlinnaRep(0.0, 0.0, delta(2.0))
        assert rep.eval(2.0) == INF

    def test_cauchy_density_truncation_approximates_shift(self):
        # piecewise-constant approximation of the Cauchy weight recovers
        # f = z + i up to the truncated tail mass
        n, T = 4000, 200.0
        edges = np.linspace(-T, T, n + 1)
        pieces = []
        for l, r in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (l + r)
            pieces.append((l, r, 1.0 / (math.pi * (1.0 + mid * mid))))
        rep = NevanlinnaRep(1.0, 0.0, Measure(ac=tuple(pieces)))
        for z in (1j, 0.5 + 2j, -1 + 1j):
            assert abs(rep.eval(z) - (z + 1j)) < 1e-2

    def test_monotone_on_components(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng, 4)
            ts = [t for t, _ in rep.rho.atoms]
            for i in range(len(ts) - 1):
                xs = np.linspace(ts[i] + 1e-3, ts[i + 1] - 1e-3, 9)
                vals = [rep.eval(float(x)) for x in xs]
                assert all(u < v for u, v in zip(vals, vals[1:]))


class TestDerivative:
    def test_reciprocal(self):
        rep = NevanlinnaRep(0.0, 0.0, delta(0.0))
        for x in (0.5, -2.0, 3.0):
            assert rep.derivative(x) == pytest.approx(1.0 / x ** 2)

    def test_constant_slope(self):
        rep = NevanlinnaRep(1.0, 0.0)
        assert rep.derivative(2j) == 1.0

    def test_matches_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            rep = random_atomic_rep(rng)
            z = 2j
            fd = (rep.eval(z + h) - rep.eval(z - h)) / (2 * h)
            assert abs(rep.derivative(z) - fd) < 1e-7

    def test_positive_off_support(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng)
            for x in sep_points(rng, 5, -9, 9, 0.5):
                if all(abs(x - t) > 0.1 for t, _ in rep.rho.atoms):
                    assert rep.derivative(float(x)) > 0

    def test_density_piece_derivative(self):
        rep = NevanlinnaRep(0.0, 0.0, Measure(ac=((-1.0, 1.0, 0.7),)))
        h = 1e-6
        for z in (2j, 3.0 + 0j, -4.0 + 0j):
            fd = (rep.eval(z + h) - rep.eval(z - h)) / (2 * h)
            assert abs(rep.derivative(z) - fd) < 1e-6


class TestRecovery:
    def test_alpha_shift(self):
        assert recover_alpha(lambda z: z + 1j) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_bounded(self):
        assert recover_alpha(lambda z: -1.0 / z) == pytest.approx(0.0, abs=1e-9)

    def test_alpha_branch(self):
        f = lambda z: z + cmath.sqrt(z - 1) * cmath.sqrt(z + 1)
        assert recover_alpha(f) == pytest.approx(2.0, abs=1e-8)

    def test_beta(self):
        assert recover_beta(lambda z: z + 1j) == pytest.approx(0.0, abs=1e-14)
        assert recover_beta(lambda z: z + 5) == pytest.approx(5.0)
        assert recover_beta(lambda z: -1.0 / z) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_oscillation_reported(self):
        calls = [0]

        def bad(z):
            calls[0] += 1
            return z * (1.5 + math.sin(7.0 * math.log(abs(z))))

        with pytest.raises(RecoveryError):
            recover_alpha(bad)

    def test_density_cauchy(self):
        # Im f(t+iε) = 1 + ε, so the smoothed density carries the ε excess
        # and the extrapolated limit is the Cauchy weight itself
        f = lambda z: z + 1j
        for t in (-3.0, 0.0, 1.7):
            for eps in (1e-1, 1e-4):
                assert stieltjes_density(f, t, eps) == pytest.approx(
                    (1.0 + eps) / (math.pi * (1 + t * t)), abs=1e-12)
            assert stieltjes_density_limit(f, t) == pytest.approx(
                1.0 / (math.pi * (1 + t * t)), abs=1e-12)

    def test_density_zero_for_polynomial(self):
        assert stieltjes_density_limit(lambda z: z, 0.3) == pytest.approx(
            0.0, abs=1e-12)

    def test_density_semicircle_branch(self):
        f = lambda z: z + cmath.sqrt(z - 1) * cmath.sqrt(z + 1)
        for t in (-0.6, 0.0, 0.4):
            expect = math.sqrt(1 - t * t) / (math.pi * (1 + t * t))
            assert stieltjes_density_limit(f, t) == pytest.approx(expect, abs=1e-6)

    def test_atom_weights(self, rng):
        rep = NevanlinnaRep(0.3, -1.0, Measure(atoms=((-2.0, 0.5), (2.0, 0.5))))
        assert recover_atom(rep.eval, 2.0) == pytest.approx(0.5, abs=1e-8)
        assert recover_atom(rep.eval, -2.0) == pytest.approx(0.5, abs=1e-8)

    def test_atom_zero_weight_off_support(self):
        assert recover_atom(lambda z: z, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_roundtrip(self, rng):
        for _ in range(15):
            rep = random_atomic_rep(rng, 6)
            f = rep.eval
            assert recover_alpha(f) == pytest.approx(rep.alpha, abs=1e-6)
            assert recover_beta(f) == pytest.approx(rep.beta, abs=1e-9)
            for t, w in rep.rho.atoms:
                assert recover_atom(f, t) == pytest.approx(w, abs=1e-6)


class TestAnalyze:
    def test_reciprocal(self):
        res = analyze(NevanlinnaRep(0.0, 0.0, delta(0.0)))
        assert res.sigma.points == (0.0,)
        assert res.gamma.isclose(normalize([Arc(0.0, INF)]))

    def test_identity_map(self):
        res = analyze(NevanlinnaRep(1.0, 0.0))
        assert res.sigma.has_inf
        assert res.gamma.isclose(normalize([Arc(INF, 0.0)]))

    def test_constant(self):
        assert analyze(NevanlinnaRep(0.0, -2.0)).gamma.full
        assert analyze(NevanlinnaRep(0.0, 2.0)).gamma.is_empty

    def test_two_atom_components(self):
        rep = NevanlinnaRep(0.0, 0.0, Measure(atoms=((-1.0, 1.0), (1.0, 1.0))))
        gamma = analyze(rep).gamma
        assert len(gamma.arcs) == 2
        # sign-scan oracle
        for x in np.linspace(-30, 30, 500):
            x = float(x)
            if min(abs(x + 1), abs(x - 1)) < 1e-3:
                continue
            v = rep.eval(x)
            assert (v < 0) == gamma.contains(x), x
        assert gamma.contains(INF) == (rep.value_at_inf() < 0)

    def test_gamma_regular_and_exact(self, rng):
        for _ in range(15):
            rep = random_atomic_rep(rng, 5)
            res = analyze(rep)
            assert is_regular(res.gamma)
            for x in np.linspace(-12, 12, 120):
                x = float(x)
                if any(abs(x - t) < 1e-3 for t, _ in rep.rho.atoms):
                    continue
                v = rep.eval(x)
                if abs(v) < 1e-9:
                    continue
                assert (v < 0) == res.gamma.contains(x)

    def test_zero_at_infinity(self):
        # beta - m1 = 0 puts the right gamma endpoint exactly at ∞
        rep = NevanlinnaRep(0.0, 0.0, delta(0.0, 1.0))
        gamma = analyze(rep).gamma
        assert gamma.arcs[0].a == INF

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            analyze(NevanlinnaRep(0.0, 0.0))

    def test_mixed_atoms_and_density(self):
        rep = NevanlinnaRep(0.5, -0.7, Measure(atoms=((-3.0, 1.0), (2.0, 0.8)),
                                               ac=((-1.0, 1.0, 0.4),)))
        res = analyze(rep)
        assert res.sigma.intervals == ((-1.0, 1.0),)
        for x in np.linspace(-25, 25, 1001):
            x = float(x)
            if min(abs(x + 3), abs(x - 2)) < 5e-3 or -1.005 < x < 1.005:
                continue
            v = rep.eval(x)
            if abs(v) < 1e-8:
                continue
            assert (v < 0) == res.gamma.contains(x), x

    def test_wrap_gamma_when_negative_at_infinity(self):
        rep = NevanlinnaRep(0.0, -2.0, Measure(atoms=((-1.0, 1.0), (1.0, 1.0))))
        gamma = analyze(rep).gamma
        assert gamma.contains(INF)
        assert any(a.is_wrap for a in gamma.arcs)


class TestCauchy:
    def test_single_atom(self):
        mu = delta(0.0)
        assert cauchy_transform(mu, 2.0) == pytest.approx(0.5)

    def test_two_atoms(self):
        mu = Measure(atoms=((-1.0, 1.0), (1.0, 1.0)))
        x = 3.0
        assert cauchy_transform(mu, x) == pytest.approx(1 / (x + 1) + 1 / (x - 1))

    def test_uniform_density(self):
        mu = Measure(ac=((0.0, 1.0, 1.0),))
        assert cauchy_transform(mu, 2.0) == pytest.approx(math.log(2.0))


class TestBoole:
    def test_single_atom(self):
        plus, minus = boole_superlevel_measure(delta(0.0), 2.0)
        assert plus == pytest.approx(0.5, abs=1e-10)
        assert minus == pytest.approx(0.5, abs=1e-10)

    def test_two_atoms_closed_form(self):
        mu = Measure(atoms=((-1.0, 1.0), (1.0, 1.0)))
        plus, minus = boole_superlevel_measure(mu, 1.0)
        # roots of G = 1 are 1 ± sqrt(2); components (-1, sqrt(2)-1) and
        # (1, 1+sqrt(2)) have total length 2
        assert plus == pytest.approx(2.0, abs=1e-9)
        assert minus == pytest.approx(2.0, abs=1e-9)

    def test_random_measures(self, rng):
        for _ in range(20):
            mu = random_atomic_rep(rng, 10).rho
            y = float(rng.uniform(0.3, 4.0))
            plus, minus = boole_superlevel_measure(mu, y)
            assert plus == pytest.approx(mu.mass() / y, abs=1e-8)
            assert minus == pytest.approx(mu.mass() / y, abs=1e-8)

    def test_atomic_only(self):
        with pytest.raises(ValueError):
            boole_superlevel_measure(Measure(ac=((0, 1, 1.0),)), 1.0)


class TestLetac:
    def test_pure_shift(self):
        rep = NevanlinnaRep(1.0, 0.7)
        assert letac_pushforward_check(rep, (-1.0, 2.5)) == pytest.approx(3.5)

    def test_single_atom_quadratic(self):
        rep = NevanlinnaRep(1.0, 0.0, delta(0.0))
        # f = z - 1/z; branch roots solve z^2 - cz - 1 = 0
        assert letac_pushforward_check(rep, (0.0, 1.0)) == pytest.approx(
            1.0, abs=1e-9)

    def test_random(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng, 5, alpha=1.0)
            c = float(rng.uniform(-4, 0))
            d = c + float(rng.uniform(0.5, 4))
            assert letac_pushforward_check(rep, (c, d)) == pytest.approx(
                d - c, abs=1e-8)

    def test_requires_unit_alpha(self):
        with pytest.raises(ValueError):
            letac_pushforward_check(NevanlinnaRep(0.5, 0.0, delta(0.0)), (0, 1))

    def test_cantor_measure_stand_in(self):
        # the singular-continuous case is exercised through its depth-k
        # atomic approximation
        rho = Measure.cantor_atoms(6)
        rep = NevanlinnaRep(1.0, 0.3, rho)
        got = letac_pushforward_check(rep, (-0.7, 1.9))
        assert got == pytest.approx(2.6, abs=1e-8)
        plus, minus = boole_superlevel_measure(rho, 2.0)
        assert plus == pytest.approx(0.5, abs=1e-8)
        assert minus == pytest.approx(0.5, abs=1e-8)


@st.composite
def atomic_supports(draw):
    """Sorted atoms and weights: spread out, clustered (gaps down to 1e-6),
    or near |t| = 1e3 on one or both sides of the origin."""
    n = draw(st.integers(1, 80))
    style = draw(st.sampled_from(("spread", "clustered", "far", "far-both")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if style == "spread":
        gaps = rng.uniform(0.05, 2.0, n)
        start = -float(np.sum(gaps)) / 2
    else:
        gaps = 10.0 ** rng.uniform(-6.0, 0.0 if style == "clustered" else 1.0, n)
        start = float(rng.uniform(-5.0, 5.0))
        if style.startswith("far"):
            start += float(rng.choice((-1e3, 1e3)))
    ts = start + np.cumsum(gaps)
    if style == "far-both":
        ts = np.where(np.arange(n) % 2 == 0, ts, -ts)
    ts = np.sort(ts)
    return ts, rng.uniform(0.1, 3.0, n)


def scalar_root(h, left, right):
    """bisect_increasing on one branch (left, right) of an increasing h that
    runs from −∞ to +∞ across it; None marks an unbounded end."""
    if left is None:
        lo = expand_to_sign(h, right - 1.0, -1.0, negative=True)
    else:
        lo = shrink_to_sign(h, left, right if right is not None else left + 1.0,
                            negative=True)
    if right is None:
        hi = expand_to_sign(h, left + 1.0, 1.0, negative=False)
    else:
        hi = shrink_to_sign(h, right, left if left is not None else right - 1.0,
                            negative=False)
    return bisect_increasing(h, lo, hi)


def assert_certified_root(h, x, left, right):
    # strictly inside the branch, sign-bracketed, and where bisection puts it
    delta = _BRACKET * max(1.0, abs(x))
    assert left is None or left < x - delta
    assert right is None or x + delta < right
    assert h(x - delta) <= 0.0 <= h(x + delta)
    assert abs(x - scalar_root(h, left, right)) <= 1e-10 * max(1.0, abs(x))


class TestSecularKernel:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(atomic_supports(), st.floats(0.1, 10.0))
    def test_boole_roots(self, support, y):
        ts, ws = support
        mu = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist())))
        plus, minus = _boole_roots(ts, ws, y)
        edges = [None] + ts.tolist() + [None]
        for k, x in enumerate(plus.tolist()):
            assert_certified_root(lambda v: y - cauchy_transform(mu, v), x,
                                  edges[k + 1], edges[k + 2])
        for k, x in enumerate(minus.tolist()):
            assert_certified_root(lambda v: -y - cauchy_transform(mu, v), x,
                                  edges[k], edges[k + 1])
        p, m = boole_superlevel_measure(mu, y)
        assert abs(p - mu.mass() / y) <= 1e-8
        assert abs(m - mu.mass() / y) <= 1e-8

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(atomic_supports(), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0),
           st.floats(0.1, 5.0))
    def test_letac_roots(self, support, beta, c, width):
        ts, ws = support
        rep = NevanlinnaRep(1.0, beta, Measure(atoms=tuple(zip(ts.tolist(),
                                                               ws.tolist()))))
        d = c + width
        edges = [None] + ts.tolist() + [None]
        for target, roots in zip((c, d), _letac_roots(ts, ws, beta, (c, d))):
            for k, x in enumerate(roots.tolist()):
                assert_certified_root(lambda v: rep.eval(v) - target, x,
                                      edges[k], edges[k + 1])
        assert abs(letac_pushforward_check(rep, (c, d)) - (d - c)) <= 1e-8

    def test_bad_seeds_are_bisected(self):
        # every seed at the right end of its branch: two Newton steps cannot
        # repair that, so each root comes from the bisection fallback
        ts, ws, y = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.3, 2.0]), 0.7
        mu = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist())))
        reach = 2.0 * ws.sum() / y
        # (G = target, branch): G = y right of each atom, G = −y left of it
        cases = [(y, -1.0, 0.5), (y, 0.5, 2.0), (y, 2.0, None),
                 (-y, None, -1.0), (-y, -1.0, 0.5), (-y, 0.5, 2.0)]
        target = np.array([-g for g, _, _ in cases])  # solves −G = −target
        lo = np.array([-1.0 - reach if l is None else l for _, l, _ in cases])
        hi = np.array([2.0 + reach if r is None else r for _, _, r in cases])
        roots = _secular_roots(lambda x: -np.sum(ws / (x[:, None] - ts), axis=1),
                               lambda x: np.sum(ws / (x[:, None] - ts) ** 2, axis=1),
                               target, hi.copy(), lo, hi)
        for (g, left, right), x in zip(cases, roots.tolist()):
            assert_certified_root(lambda v: g - cauchy_transform(mu, v), x,
                                  left, right)


class TestMeasureType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Measure(atoms=((0.0, -1.0),))
        with pytest.raises(ValueError):
            Measure(atoms=((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            Measure(ac=((0.0, 1.0, 0.5), (0.5, 2.0, 0.5)))

    def test_cantor_atoms(self):
        mu = Measure.cantor_atoms(3)
        assert len(mu.atoms) == 8
        assert mu.mass() == pytest.approx(1.0)
        assert all(0 < t < 1 for t, _ in mu.atoms)

    def test_mass_and_moment(self):
        mu = Measure(atoms=((1.0, 2.0),), ac=((0.0, 2.0, 0.5),))
        assert mu.mass() == pytest.approx(3.0)
        assert mu.moment1() == pytest.approx(2.0 + 1.0)
