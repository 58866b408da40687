import cmath
import json
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from halfplane.extreal import Arc, INF, POINT_TOL, is_inf, is_regular, normalize
from halfplane.nevanlinna import (Measure, NevanlinnaRep, _boole_roots,
                                  _component_roots, analyze,
                                  boole_superlevel_measure, boole_tolerance,
                                  cauchy_transform,
                                  letac_pushforward_check, recover_alpha,
                                  recover_atom, recover_beta,
                                  stieltjes_density, stieltjes_density_limit)
from halfplane import util
from halfplane.cli import main
from halfplane.factor import RepFunction, factorize
from halfplane.util import (BRACKET, RecoveryError, RootBracketError,
                            branch_roots)

from conftest import random_atomic_rep, random_upper_points


def delta(t, w=1.0):
    return Measure(atoms=((t, w),))


# a narrow density far from its zeros; the closed forms cancel out here
FAR_REP = NevanlinnaRep(0.0, 0.3, Measure(
    atoms=((-1.0, 1.0),),
    ac=((4179.559412343756, 4180.144823511033, 0.4345293778156328),)))

# a unit density on [0, 1], evaluated far from it
UNIT_DENSITY = NevanlinnaRep(0.0, 0.3, Measure(ac=((0.0, 1.0, 1.0),)))


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

    @pytest.mark.parametrize("x", [-1e5, 2e5, -1.6e6])
    def test_far_from_density_support(self, x):
        # the density's log ratio is 1 + O(1/x) out here: log1p keeps its
        # digits, where log of the ratio was off by up to 1.4e-4
        with mpmath.workdps(50):
            exact = mpmath.fsum(mp_rep(FAR_REP)(x))
        assert abs(FAR_REP.eval(x) - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("z", [1e5 + 1j, -3e4 + 5j, 1e7j, -1.6e6, 1j])
    def test_far_from_wide_density(self, z):
        # log((z−r)/(z−l)) times 1 + z² cancels against z(r − l) like |z|²
        # out here; the closed form was off by up to 2.2e-6 relative
        with mpmath.workdps(50):
            exact = mp_value(UNIT_DENSITY, z)
        got = UNIT_DENSITY.eval(z)
        assert type(got) is type(z)
        assert abs(got - exact) <= 1e-15 * abs(exact)

    @pytest.mark.parametrize("z", [1e160, 1e200, -1e200, 1e200 + 1j, 1e160j, 1e300,
                                   -1e300 + 5j, 1e154, 1e150j])
    def test_past_the_square_of_the_float_range(self, z):
        # 1 + z² overflows from |z| ~ 1.3e154 on: the value read −inf at 1e160
        # and NaN at ±1e200, 1e200 + 1j and 1e160j; it tends to β − m₁ = −0.2
        with mpmath.workdps(700):
            exact = mp_value(UNIT_DENSITY, z)
        got = UNIT_DENSITY.eval(z)
        assert type(got) is type(z)
        assert abs(got - exact) <= 1e-15 * abs(exact)
        assert UNIT_DENSITY.eval(np.array([z])).tolist() == [got]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-500, 500), st.integers(1, 400), st.floats(0.05, 3.0),
           st.floats(2.0, 300.0), st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
           st.sampled_from([0.0, 1e3, -1e6, 1e12, -1e12]))
    def test_far_from_density_against_50_digits(self, l, width, d, exponent, turn, shift):
        # z = m + R·e^{iπ·turn}: real at turns 0 and 1, R from 100 to 1e300,
        # past |z| ~ 1.3e154 where 1 + z² overflows, for supports near 0 and
        # far from it (then z passes near 0 at R = |m|).  The error is
        # measured against the size of the integrand,
        # d·(r − l)·(1 + |z|·max(|l|, |r|))/dist(z, [l, r]); the closed form
        # cancels like |z|², so the digits carried grow with R
        l, r = shift + l / 100.0, shift + (l + width) / 100.0
        rep = NevanlinnaRep(0.0, 0.0, Measure(ac=((l, r, d),)))
        m, big = 0.5 * (l + r), 10.0 ** exponent
        z = m + big * cmath.exp(1j * math.pi * turn)
        z = z.real if turn in (0.0, 1.0) else z
        with mpmath.workdps(50 + 2 * int(exponent)):
            exact = mp_value(rep, z)
        scale = d * (r - l) * (1.0 + abs(z) * max(abs(l), abs(r))) / (big - (r - l))
        assert abs(rep.eval(z) - exact) <= 64 * 2.0 ** -52 * scale

    def test_monotone_on_components(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng, 4)
            ts = [t for t, _ in rep.rho.atoms]
            for i in range(len(ts) - 1):
                xs = np.linspace(ts[i] + 1e-3, ts[i + 1] - 1e-3, 9)
                vals = [rep.eval(float(x)) for x in xs]
                assert all(u < v for u, v in zip(vals, vals[1:]))


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


@st.composite
def measures_and_points(draw):
    """(μ, points): up to 4 atoms and up to 2 densities on a grid of points
    a quarter apart in [−5, 5], and up to 6 points, each real and at least
    1e-3 from the support, or complex with Im z from 1e-3 to 5."""
    cells = sorted(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True)))
    atoms, ac = [], []
    for k, c in enumerate(cells):
        if draw(st.booleans()) or len(ac) == 2 or k + 1 == len(cells):
            atoms.append((c / 4.0, draw(st.floats(0.1, 3.0))))
        elif cells[k + 1] - c > 1 and not (ac and ac[-1][1] >= c / 4.0):
            ac.append((c / 4.0, cells[k + 1] / 4.0 - 0.25, draw(st.floats(0.1, 3.0))))
    mu = Measure(atoms=tuple(atoms[:4]), ac=tuple(ac))
    points = []
    for x, y in draw(st.lists(st.tuples(st.floats(-6.0, 6.0), st.sampled_from(
            [0.0, 1e-3, 0.1, 1.0, 5.0])), min_size=1, max_size=6)):
        if y > 0:
            points.append(complex(x, y))
        elif (all(abs(x - t) >= 1e-3 for t, _ in mu.atoms)
              and all(x < l - 1e-3 or x > r + 1e-3 for l, r, _ in mu.ac)):
            points.append(x)
    return mu, points or [1j]


def _mp_size_and_value(mu, z, kernel, density, size_density):
    # (Σ |terms|, Σ terms) in 50 digits for the atom kernel and a density's
    # closed form, the size of a density's term by quadrature
    with mpmath.workdps(50):
        z = mpmath.mpmathify(z)
        terms = [w * kernel(t, z) for t, w in mu.atoms]
        terms += [d * density(mpmath.mpf(l), mpmath.mpf(r), z) for l, r, d in mu.ac]
        size = mpmath.fsum(abs(u) for u in terms[:len(mu.atoms)])
        size += mpmath.fsum(d * mpmath.quad(lambda t: size_density(t, z), [l, r])
                            for l, r, d in mu.ac)
        return size, mpmath.fsum(terms)


def _scalar_and_array(f, points):
    # each point with its value in one array call on the points of its type:
    # real points in real arithmetic, complex ones in complex arithmetic
    for kind in (float, complex):
        zs = [z for z in points if type(z) is kind]
        yield from zip(zs, f(np.array(zs, dtype=kind)).tolist())


class TestClosedFormPasses:
    """cauchy_transform: one array pass, its scalar call the pass on one
    point, within 64 eps of 50 digits relative to its terms."""

    @settings(max_examples=80, deadline=None)
    @given(measures_and_points())
    def test_cauchy_transform(self, case):
        mu, points = case
        for z, v in _scalar_and_array(lambda z: cauchy_transform(mu, z), points):
            got = cauchy_transform(mu, z)
            assert got == v and type(got) is type(z)
            size, exact = _mp_size_and_value(
                mu, z, lambda t, z: 1 / (z - t),
                lambda l, r, z: mpmath.log((z - l) / (z - r)),
                lambda t, z: 1 / abs(t - z))
            assert abs(got - exact) <= 64 * 2.0 ** -52 * size

    def test_pole_and_density_refusal(self):
        mu = Measure(atoms=((3.0, 1.0),), ac=((0.0, 1.0, 1.0),))
        assert cauchy_transform(mu, 3.0) == INF
        assert cauchy_transform(mu, np.array([3.0, 2.0]))[0] == INF
        with pytest.raises(ValueError, match="real evaluation at 0.5 inside"):
            cauchy_transform(mu, np.array([2.0, 0.5]))


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
        assert cauchy_transform(mu, -1.0) == pytest.approx(-math.log(2.0))
        with pytest.raises(ValueError, match="inside the density support"):
            cauchy_transform(mu, 0.5)


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


def mp_rep(rep, target=0.0):
    """The summands of f − target for a rep, in mpmath arithmetic (use
    inside workdps)."""
    def terms(x):
        x = mpmath.mpf(x)
        out = [rep.alpha * x, mpmath.mpf(rep.beta) - target]
        out += [w * (1 + x * t) / (t - x) for t, w in rep.rho.atoms]
        out += [d * (x * (r - l) + (1 + x * x) * mpmath.log((x - r) / (x - l)))
                for l, r, d in rep.rho.ac]
        return out
    return terms


def mp_value(rep, z):
    """f(z) for a rep in mpmath arithmetic, z real or complex (use inside
    workdps)."""
    z, mpf = mpmath.mpmathify(z), mpmath.mpf
    return mpmath.fsum([rep.alpha * z, rep.beta]
                       + [w * (1 + z * t) / (t - z) for t, w in rep.rho.atoms]
                       + [d * (z * (mpf(r) - l) + (1 + z * z) * mpmath.log((z - r) / (z - l)))
                          for l, r, d in rep.rho.ac])


def mp_cauchy(mu, y):
    """The summands of y − G_μ, in mpmath arithmetic."""
    return lambda x: [mpmath.mpf(y)] + [-w / (mpmath.mpf(x) - t) for t, w in mu.atoms]


def assert_certified_root(h_terms, x, left, right, dps=50):
    """x is a root of an increasing function on its branch (left, right),
    with None for an unbounded end: strictly inside the branch and
    sign-bracketed at 4e-12·max(1, |x|), the bracket's ends clipped into the
    branch as the kernel accepts them.  The signs are those of the exact
    function, the sum of its summands h_terms in dps-digit arithmetic
    (summands that cancel like x² need more than 50 digits far out), with
    no allowance for roundoff: the exact root lies in the bracket, well
    within 1e-10·max(1, |x|) of x."""
    delta = BRACKET * max(1.0, abs(x))
    lo = x - delta if left is None else max(x - delta, math.nextafter(left, INF))
    hi = x + delta if right is None else min(x + delta, math.nextafter(right, -INF))
    assert (left is None or left < lo) and lo <= x <= hi
    assert right is None or hi < right
    with mpmath.workdps(dps):
        assert mpmath.fsum(h_terms(lo)) <= 0 <= mpmath.fsum(h_terms(hi))


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
            assert_certified_root(mp_cauchy(mu, y), x, edges[k + 1], edges[k + 2])
        for k, x in enumerate(minus.tolist()):
            assert_certified_root(mp_cauchy(mu, -y), x, edges[k], edges[k + 1])
        p, m = boole_superlevel_measure(mu, y)
        assert abs(p - mu.mass() / y) <= 1e-8
        assert abs(m - mu.mass() / y) <= 1e-8

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(atomic_supports(), st.floats(1e-12, 1e3))
    def test_tolerance_bounds_the_lengths(self, support, y):
        # each length is μ(R)/y exactly, so the error is what the tolerance bounds
        ts, ws = support
        mu = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist())))
        plus, minus = boole_superlevel_measure(mu, y)
        tol = boole_tolerance(mu, mu.mass() / y, plus, minus)
        exact = sum(map(Fraction, ws.tolist())) / Fraction(y)
        assert max(abs(Fraction(plus) - exact), abs(Fraction(minus) - exact)) <= tol

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
        omega = rep.sigma().omega()
        assert [arc.b for arc in omega.arcs] == [INF] + ts.tolist()
        for target, row in zip((c, d), _component_roots(rep, (c, d), rep.sigma().support)):
            for k, x in enumerate(row.tolist()):
                assert_certified_root(mp_rep(rep, target), x, edges[k], edges[k + 1])
        assert abs(letac_pushforward_check(rep, (c, d)) - (d - c)) <= 1e-8

    @pytest.mark.parametrize("atoms, y", [
        (((0.0, 1.0), (1.0, 2.0)), 1e-160), (((0.0, 1.0), (1.0, 2.0)), 1e-200),
        (((0.0, 1.0), (1e-6, 2.0), (10.0, 0.5), (11.0, 1e-3)), 1e-250),
        (((0.0, 1.0), (1e-6, 2.0), (10.0, 0.5), (11.0, 1e-3)), 1e-300)],
        ids=["1e-160", "1e-200", "near-1e-250", "near-1e-300"])
    def test_far_roots_run_no_bisection(self, atoms, y, monkeypatch):
        # the outer roots lie near ±μ(R)/y, and the eigensolver's error
        # μ(R)·eps/y swamps the inner branches; near atoms 1e-6 apart at
        # y = 1e-300, a slope's scaled differences once squared below the
        # normal float range and sent a root to bisection
        calls = []
        bisect = util._bisect
        monkeypatch.setattr(util, "_bisect", lambda *a: calls.append(a) or bisect(*a))
        mass = sum(w for _, w in atoms)
        plus, minus = boole_superlevel_measure(Measure(atoms=atoms), y)
        assert not calls
        for length in (plus, minus):
            assert abs(length - mass / y) <= 1e-15 * (mass / y)

    @pytest.mark.parametrize("beta", [1e-100, 1e-200, 1e-300, 1e-305, 1e-310, -1e-310, 5e-324])
    def test_tiny_offset_runs_no_bisection(self, beta, monkeypatch, tmp_path, capsys):
        # α = 0 and β′ = β: solved at the level β′, the secular matrix's
        # error swamped the bounded seeds and sent a root to bisection, and
        # past 1e-308 its entries were inf ("Eigenvalues did not converge")
        calls = []
        bisect = util._bisect
        monkeypatch.setattr(util, "_bisect", lambda *a: calls.append(a) or bisect(*a))
        atoms = [[-1, 1], [1, 1], [3, 0.5], [-3, 0.5]]
        rep = NevanlinnaRep(0.0, beta, Measure(atoms=tuple(map(tuple, atoms))))
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"nevanlinna": {"beta": beta, "atoms": atoms}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeros = analyze(rep).zeros
            assert factorize(RepFunction(rep)).ok
            assert main(["factor", "--spec", str(path)]) == 0
        assert not calls
        # a zero at ∞ had a numpy.float64 radius, every other one a float
        assert all(type(e) is float and type(r) is float for e, r in zeros)
        ts = sorted(t for t, _ in atoms)
        for x in [x for x, _ in zeros if x != INF]:
            left = max((t for t in ts if t < x), default=None)
            right = min((t for t in ts if t > x), default=None)
            # far out the summands cancel like |x|: carry its digits too
            assert_certified_root(mp_rep(rep), x, left, right,
                                  dps=50 + 2 * int(math.log10(max(1.0, abs(x)))))

    @pytest.mark.parametrize("weight", [1e150, 1e155, 1e160, 1e200])
    def test_huge_weights_seed_in_float_range(self, weight):
        # α = 0: the seeds' matrix held √(u²·u²) for u² = w(1 + t²), which
        # overflows past u² ≈ 1.3e154 ("Eigenvalues did not converge");
        # Boole's form √(u²/level) does not
        atoms = ((-1.0, weight), (0.0, weight), (2.0, weight))
        rep = NevanlinnaRep(0.0, 0.5, Measure(atoms=atoms))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeros = analyze(rep).zeros
        assert len(zeros) == 3
        ts = [t for t, _ in atoms]
        for x, _ in zeros:
            left = max((t for t in ts if t < x), default=None)
            right = min((t for t in ts if t > x), default=None)
            assert_certified_root(mp_rep(rep), x, left, right)

    def test_bad_seeds_are_bisected(self, monkeypatch):
        # every seed at the right end of its branch: the secant steps from
        # there leave the branch, or creep away from an atom's pole by about
        # the bracket's width per table, so each root comes from the
        # bisection fallback
        calls = []
        bisect = util._bisect
        monkeypatch.setattr(util, "_bisect", lambda *a: calls.append(a) or bisect(*a))
        ts, ws, y = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.3, 2.0]), 0.7
        mu = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist())))
        reach = 2.0 * ws.sum() / y
        # (G = target, branch): G = y right of each atom, G = −y left of it
        cases = [(y, -1.0, 0.5), (y, 0.5, 2.0), (y, 2.0, None),
                 (-y, None, -1.0), (-y, -1.0, 0.5), (-y, 0.5, 2.0)]
        target = np.array([-g for g, _, _ in cases])  # solves −G = −target
        lo = np.array([-1.0 - reach if l is None else l for _, l, _ in cases])
        hi = np.array([2.0 + reach if r is None else r for _, _, r in cases])
        roots = branch_roots(lambda x: ws / (ts - x[:, None]), np.ones(3), target, hi.copy(),
                             lo, hi)
        assert sum(len(args[1]) for args in calls) == len(cases)
        for (g, left, right), x in zip(cases, roots.tolist()):
            assert_certified_root(mp_cauchy(mu, g), x, left, right)


def spy_tables(monkeypatch):
    """(points, secant steps, accepted) of every table the root kernel
    reads, as a list that fills while the kernel runs."""
    out, tabled = [], util._tabled

    def counted(terms, ulps, target, x, inner):
        step, ok, signs = tabled(terms, ulps, target, x, inner)
        out.append((x.copy(), step.copy(), ok.copy()))
        return step, ok, signs
    monkeypatch.setattr(util, "_tabled", counted)
    return out


def separated_atoms(rng, n, half):
    """n atoms on (−half, half), one per random slot of 2n, jittered inside
    it, with weights 0.2 … 2: the draw of the atomic-factor benchmark."""
    width = half / n
    slots = np.sort(rng.choice(2 * n, size=n, replace=False))
    ts = -half + width * (slots + 0.5 + rng.uniform(-0.3, 0.3, n))
    return tuple(zip(ts.tolist(), rng.uniform(0.2, 2.0, n).tolist()))


class TestTableAcceptance:
    """The root kernel's tables: a seed certifies from one table of f at x
    and x ∓ w and returns its secant step; every other seed moves to that
    step and is tabled again."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(atomic_supports(), st.floats(-7.0, 1.0), st.floats(-3.0, 3.0),
           st.floats(-5.0, 5.0), st.floats(0.1, 5.0))
    def test_roots_hold_a_sign_change(self, support, log_y, beta, c, width):
        # Boole levels 1e-7 … 10 and Letac intervals: each root, whether from
        # its first table or a later one, has a sign change of the 50-digit
        # function within 4e-12·max(1, |x|) inside its branch
        ts, ws = support
        mu, y = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist()))), 10.0 ** log_y
        plus, minus = _boole_roots(ts, ws, y)
        edges = [None] + ts.tolist() + [None]
        for k, x in enumerate(plus.tolist()):
            assert_certified_root(mp_cauchy(mu, y), x, edges[k + 1], edges[k + 2])
        for k, x in enumerate(minus.tolist()):
            assert_certified_root(mp_cauchy(mu, -y), x, edges[k], edges[k + 1])
        rep = NevanlinnaRep(1.0, beta, mu)
        targets = (c, c + width)
        for target, row in zip(targets, _component_roots(rep, targets, rep.sigma().support)):
            for k, x in enumerate(row.tolist()):
                assert_certified_root(mp_rep(rep, target), x, edges[k], edges[k + 1])

    @pytest.mark.parametrize("n, half", [(4, 2.0), (8, 4.0)])
    def test_atomic_factorizations_run_no_newton_pass(self, n, half, monkeypatch):
        # the eigvalsh seeds of 4 and 8 separated atoms with α ≥ 0.1 all
        # certify from their first table, with no second pass of any kind,
        # and each zero end of Γ holds a sign change of the 50-digit
        # function within its bracket
        tables = spy_tables(monkeypatch)
        rng = np.random.default_rng(n)
        for _ in range(25):
            atoms = separated_atoms(rng, n, half)
            rep = NevanlinnaRep(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-3.0, 3.0)),
                                Measure(atoms=atoms))
            res = factorize(RepFunction(rep))
            ts = [t for t, _ in atoms]
            for arc in res.gamma.arcs:
                x = float(arc.a)
                left = max((t for t in ts if t < x), default=None)
                right = min((t for t in ts if t > x), default=None)
                assert_certified_root(mp_rep(rep), x, left, right)
        assert tables and all(ok.all() for _, _, ok in tables)

    @staticmethod
    def _boole_kernel(ts, ws, y):
        # the roots of G = y right of each atom, as branch_roots' arguments
        reach = 2.0 * float(ws.sum()) / y
        return (lambda x: ws / (ts - x[:, None]), np.full(len(ts), -y), ts,
                np.append(ts[1:], ts[-1] + reach))

    @pytest.mark.parametrize("shift", [5e-4, 2e-3, 0.3, 5.0])
    def test_displaced_seeds(self, shift, monkeypatch):
        # seeds shift·δ off the roots: within 1e-3·δ the table's step is the
        # root; past it the step is too long or the bracket misses the root,
        # and the root is the step of a second table, read at that step
        ts, ws, y = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.3, 2.0]), 0.7
        mu = Measure(atoms=tuple(zip(ts.tolist(), ws.tolist())))
        terms, target, lo, hi = self._boole_kernel(ts, ws, y)
        roots = _boole_roots(ts, ws, y)[0]
        seeds = roots + shift * BRACKET * np.maximum(1.0, np.abs(roots))
        tables = spy_tables(monkeypatch)
        got = branch_roots(terms, np.ones(3), target, seeds, lo, hi)
        if shift < 1e-3:
            assert len(tables) == 1 and tables[0][2].all()
        else:
            (_, first, rejected), (x, step, ok) = tables
            assert not rejected.any() and ok.all()
            assert x.tolist() == first.tolist() and got.tolist() == step.tolist()
        edges = ts.tolist() + [None]
        for k, x in enumerate(got.tolist()):
            assert_certified_root(mp_cauchy(mu, y), x, edges[k], edges[k + 1])

    def test_density_midpoint_seeds_take_later_tables(self, monkeypatch):
        # branch midpoints are far from the roots: the first table accepts
        # none, and each zero end of Γ is the step of a later table
        rep = NevanlinnaRep(0.0, 0.3, Measure(atoms=((-1.0, 1.0),),
                                              ac=((0.0, 1.0, 1.0), (2.0, 3.0, 0.5))))
        tables = spy_tables(monkeypatch)
        zeros = [float(arc.a) for arc in analyze(rep).gamma.arcs if not is_inf(arc.a)]
        assert zeros and not tables[0][2].any()
        later = set(np.concatenate([step[ok] for _, step, ok in tables[1:]]).tolist())
        assert all(x in later for x in zeros)


class TestFarAtoms:
    @pytest.mark.parametrize("atoms", [
        ((-1e160, 1.0), (0.0, 1.0)), ((0.0, 1.0), (1e160, 2.0)),
        ((-1e200, 1.0), (1e200, 2.0)), ((1e5, 1e300),)],
        ids=["-1e160", "1e160", "pm1e200", "weight1e300"])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_refused_naming_the_atom(self, atoms, alpha):
        # u² = w(1 + t²) leaves the float range: numpy warned of an overflow
        # and eigvalsh raised "Eigenvalues did not converge"
        rep = NevanlinnaRep(alpha, 0.0, Measure(atoms=atoms))
        far = next(f"({t}, {w})" for t, w in atoms if not math.isfinite(w * (1.0 + t * t)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: analyze(rep), lambda: factorize(RepFunction(rep)),
                          lambda: letac_pushforward_check(NevanlinnaRep(1.0, 0.0, rep.rho),
                                                          (0.0, 1.0))):
                with pytest.raises(ValueError, match=re.escape(f"the atom {far} is past")):
                    solve()
            assert math.isfinite(abs(rep(1j)))  # evaluation still runs

    @pytest.mark.parametrize("rho, named", [
        (Measure(atoms=((0.0, 1e308), (1.0, 4e307))), "the measure is past"),
        (Measure(atoms=((0.0, 1.0),), ac=((1e103, 2e103, 1.0),)),
         "the density piece (1e+103, 2e+103, 1.0) is past"),
        (Measure(ac=((0.0, 1.0, 1.5e308), (2.0, 3.0, 1.0))),
         "the density piece (0.0, 1.0, 1.5e+308) is past"),
    ], ids=["atoms-sum", "density-end", "density-weight"])
    def test_refused_naming_the_density_or_the_sum(self, rho, named):
        # a density's ends cubed raised OverflowError, a traceback in the CLI
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(named)):
                analyze(NevanlinnaRep(1.0, 0.0, rho))


@st.composite
def analysis_reps(draw):
    """Reps for analyze: atomic with α = 0 and β′ = β − m₁ above, below or
    at 0, atomic with α > 0, one atom or many (clustered, |t| ≈ 1e3), reps
    whose every other atom is spread into a density of the same mass, and
    atomic reps with two atoms closer than POINT_TOL, which merge into one
    piece of σ's support (midpoint seeds in place of the secular ones)."""
    kind = draw(st.sampled_from(("beta>0", "beta<0", "beta=0", "alpha>0", "ac", "close")))
    ts, ws = draw(atomic_supports())
    if draw(st.integers(0, 3)) == 0:
        ts, ws = ts[:1], ws[:1]
    if kind == "close":
        k = draw(st.integers(0, len(ts) - 1))
        twin = max(ts[k] + draw(st.floats(1e-15, 8e-13)), math.nextafter(ts[k], INF))
        assert 0 < twin - ts[k] <= POINT_TOL
        ts, ws = np.insert(ts, k + 1, twin), np.insert(ws, k + 1, draw(st.floats(0.1, 3.0)))
    atoms, ac = tuple(zip(ts.tolist(), ws.tolist())), ()
    if kind == "ac":
        gaps = np.diff(ts, prepend=-INF, append=INF)
        half = np.minimum(np.minimum(gaps[:-1], gaps[1:]) / 3.0, 1.0)
        widen = np.arange(len(ts)) % 2 == 0
        ac = tuple((t - h, t + h, w / (2.0 * h)) for t, h, w in
                   zip(ts[widen].tolist(), half[widen].tolist(), ws[widen].tolist()))
        atoms = tuple(a for a, k in zip(atoms, widen) if not k)
    rho = Measure(atoms=atoms, ac=ac)
    if kind in ("alpha>0", "ac", "close"):
        alpha = draw(st.sampled_from((0.0, 0.1, 1.0))) if kind != "alpha>0" else \
            draw(st.floats(1e-3, 10.0))
        return NevanlinnaRep(alpha, draw(st.floats(-5.0, 5.0)), rho)
    offset = {"beta>0": draw(st.floats(1e-3, 5.0)), "beta<0": -draw(st.floats(1e-3, 5.0)),
              "beta=0": 0.0}[kind]
    return NevanlinnaRep(0.0, rho.moment1() + offset, rho)


class TestAnalyzeRoots:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(analysis_reps())
    # a zero within an ulp of a density's end: the bisected bracket shrinks
    # to two adjacent floats, whose midpoint can round onto the end, so the
    # kernel clips it into the open branch
    @example(NevanlinnaRep(0.0, 1.0, Measure(
        atoms=((998.9248146475176, 2.649602985999599), (998.9254462545206, 1.1053067184050849),
               (1000.1315322744058, 1.8653994405438425)),
        ac=((998.9144441007993, 998.9196293741584, 27.120237087275992),
            (998.9248356485023, 998.9248566494869, 130713.6740346713),
            (998.925646259589, 998.9258462646574, 2899.8057595315668),
            (1000.1315347593758, 1000.1315372443459, 144542.024427313)))))
    def test_zero_ends_certified(self, rep):
        # one Γ piece per component of Ω, each finite zero end sign-bracketed
        # and at the mpmath root; a rep may instead be refused
        try:
            res = analyze(rep)
        except RootBracketError:
            return
        assert len(res.gamma.arcs) == len(res.omega.arcs)
        starts = [t for t, _ in rep.rho.atoms] + [l for l, _, _ in rep.rho.ac]
        ends = [t for t, _ in rep.rho.atoms] + [r for _, r, _ in rep.rho.ac]
        if rep.alpha == 0 and rep.beta - rep.rho.moment1() == 0:
            assert any(is_inf(arc.a) for arc in res.gamma.arcs)
        for arc in res.gamma.arcs:
            if is_inf(arc.a):
                continue
            x = float(arc.a)
            left = max((e for e in ends if e < x), default=None)
            right = min((s for s in starts if s > x), default=None)
            assert_certified_root(mp_rep(rep), x, left, right)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(analysis_reps())
    # β′ = β − m₁ is 0 in floats but 2.8e-17 exactly: the zero at ∞ lies near 1.1e17
    @example(NevanlinnaRep(0.0, 0.1 * 3.0, Measure(atoms=((0.1, 3.0),))))
    # the zero past the float range, at 2e323
    @example(NevanlinnaRep(0.0, 5e-324, Measure(atoms=((0.0, 1.0),))))
    # a zero 1e-13 left of the next atom, merged with it; a piece of three
    # atoms within POINT_TOL; one that is all of σ
    @example(NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0), (1.0, 5e-14)))))
    @example(NevanlinnaRep(0.5, 0.0, Measure(atoms=((0.0, 1.0), (5e-13, 1.0), (9e-13, 2.0),
                                                    (2.0, 1.0)))))
    @example(NevanlinnaRep(0.0, 0.3, Measure(atoms=((0.0, 1.0), (5e-13, 1.0)))))
    def test_zero_radii_hold_the_zeros(self, rep):
        # each (e, r) of an atomic rep's zeros, accepted or narrowed: f
        # changes sign within r of a zero end (clipped into its branch), left
        # of e within r where a zero merged with the pole e, past |x| = 1/r
        # where e = ∞; an entry between two atoms within POINT_TOL holds by
        # monotonicity alone
        try:
            res = analyze(rep)
        except RootBracketError:
            return
        if not rep.rho.is_atomic():
            assert res.zeros is None
            return
        narrow = analyze(rep, narrow=True)
        assert narrow.gamma == res.gamma
        assert all(e == n and r <= w for (e, w), (n, r) in zip(res.zeros, narrow.zeros))
        ts = [t for t, _ in rep.rho.atoms]
        atoms = set(ts)
        h = mp_rep(rep)
        with mpmath.workdps(60):
            f = lambda x: mpmath.fsum(h(x))
            for e, r in res.zeros + narrow.zeros:
                assert r >= 0
                if is_inf(e):
                    assert r == 0 or f(1 / mpmath.mpf(r)) <= 0 <= f(-1 / mpmath.mpf(r))
                elif e in atoms:
                    assert e + r in atoms or e - r in atoms or f(e - r) <= 0
                else:
                    left = max((t for t in ts if t < e), default=None)
                    right = min((t for t in ts if t > e), default=None)
                    lo = e - r if left is None else max(e - r, math.nextafter(left, INF))
                    hi = e + r if right is None else min(e + r, math.nextafter(right, -INF))
                    assert f(lo) <= 0 <= f(hi)

    @pytest.mark.parametrize("beta", [0.51, 0.5001, 0.500001, 0.49, 0.3])
    def test_far_zero_of_density(self, beta):
        # f = β + ∫_0^1 (1+xt)/(t−x) dt tends to β − 1/2 at ∞, so its zero
        # lies far out when β is near 1/2 (at 133.9 for 0.51, 1.3e6 for
        # 0.500001), where the density's closed form cancels like x²
        rep = NevanlinnaRep(0.0, beta, Measure(ac=((0.0, 1.0, 1.0),)))
        (arc,) = analyze(rep).gamma.arcs
        assert arc.b == 1.0
        x = float(arc.a)
        assert_certified_root(mp_rep(rep), x, 1.0 if x > 1.0 else None,
                              None if x > 1.0 else 0.0)

    @pytest.mark.parametrize("beta", [1e-200, -1e-200, 1e-300])
    def test_zero_past_the_square_of_the_float_range(self, beta):
        # f = β + ∫_−1^1 (1+xt)/(t−x) dt has its zero at about ±(8/3)/|β|,
        # where the density's summands overflowed: β = 1e-200 was refused
        # with "no sign bracket for the root 6.4e161"
        rep = NevanlinnaRep(0.0, beta, Measure(ac=((-1.0, 1.0, 1.0),)))
        (arc,) = analyze(rep).gamma.arcs
        assert arc.b == 1.0
        x = float(arc.a)
        assert abs(x * beta / (8.0 / 3.0) - 1.0) <= 1e-10
        assert_certified_root(mp_rep(rep), x, 1.0 if x > 1.0 else None,
                              None if x > 1.0 else -1.0, dps=1000)

    def test_zero_past_the_float_range_is_infinity(self):
        # the zero at (8/3)·1e310 is past the largest double, so Γ ends at ∞
        rep = NevanlinnaRep(0.0, 1e-310, Measure(ac=((-1.0, 1.0, 1.0),)))
        assert analyze(rep).gamma.arcs == (Arc(1.0, INF),)


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
