"""The array path: every evaluator takes an ndarray of points in one pass.

A scalar call is that pass on one point, so an array value equals the
scalar call at its point bit for bit; both match a 50-digit reference; and
the points a scalar call refuses, or gives the ∞ marker, are the ones the
array's masks mark."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfplane import krein
from halfplane.extreal import Arc, CantorComplement, EMPTY, INF, normalize
from halfplane.factor import CompositeFunction, ExpRep, RepFunction
from halfplane.interp import disk_interpolate
from halfplane.krein import (REAL_GUARD, EvaluationDomainError, KreinProduct,
                             TailNotCertified, cantor_complement_product, log_p,
                             p_eval)
from halfplane.moebius import HalfPlaneAuto, cayley, disk_target_map
from halfplane.nevanlinna import Measure, NevanlinnaRep, cauchy_transform

from test_krein import _mp_krein, chained_arcsets

mp = pytest.importorskip("mpmath")
EPS = 2.0 ** -52


def same(a, b):
    """Equal bit for bit: type, value, the signs of zeros, NaN alike."""
    if type(a) is not type(b):
        return False
    if isinstance(a, complex):
        return same(a.real, b.real) and same(a.imag, b.imag)
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(f, z):
    try:
        return "ok", f(z)
    except (EvaluationDomainError, TailNotCertified, ValueError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the primitives


class TestExactArithmetic:
    def test_reductions_take_terms_in_order(self, rng):
        # the products and sums of the evaluators rely on this
        for shape in ((1, 1), (3, 9), (50, 33)):
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for row, p, s in zip(v.tolist(), np.multiply.reduce(v, axis=1, initial=1 + 0j),
                                 np.add.accumulate(v, axis=1)[:, -1]):
                want_p, want_s = 1 + 0j, row[0]
                for t in row:
                    want_p *= t
                for t in row[1:]:
                    want_s += t
                assert same(complex(p), want_p) and same(complex(s), want_s)


# ---------------------------------------------------------------------------
# agreement with a 50-digit reference


def mp_rep(rep, z):
    """(value, scale) of a rep in 50 digits: scale bounds the terms' sizes
    the closed form adds up, with the logarithm's unit absolute error."""
    with mp.workdps(50):
        zz = mp.mpmathify(z)
        terms = [rep.alpha * zz, mp.mpf(rep.beta)]
        scale = abs(terms[0]) + abs(terms[1])
        for t, w in rep.rho.atoms:
            terms.append(w * (1 + zz * t) / (t - zz))
            scale += abs(terms[-1])
        for l, r, d in rep.rho.ac:
            lg = mp.log((zz - r) / (zz - l))
            terms.append(d * (zz * (r - l) + (1 + zz * zz) * lg))
            scale += abs(d * zz * (r - l)) + abs(d * (1 + zz * zz)) * (abs(lg) + 1)
        return mp.fsum(terms), scale


@st.composite
def reps(draw):
    ts = draw(st.lists(st.integers(-600, 600), max_size=8, unique=True))
    ac = []
    if draw(st.booleans()):
        l = draw(st.integers(-800, 700)) / 100.0
        ac = [(l, l + draw(st.integers(5, 300)) / 100.0,
               draw(st.floats(0.05, 2.0, allow_subnormal=False)))]
        ts = [t for t in ts if not ac[0][0] <= t / 100.0 <= ac[0][1]]
    atoms = [(t / 100.0, draw(st.floats(0.1, 3.0, allow_subnormal=False))) for t in ts]
    return NevanlinnaRep(draw(st.sampled_from([0.0, 0.5, 2.0])),
                         draw(st.floats(-3, 3, allow_subnormal=False)),
                         Measure(atoms=tuple(atoms), ac=tuple(ac)))


# normal doubles only: a subnormal input has no relative precision to keep
points = st.lists(st.tuples(st.floats(-9, 9, allow_subnormal=False),
                            st.sampled_from([0.0, 1e-6, 0.3, 2.0, -0.7])),
                  min_size=1, max_size=8)


def mp_factor(l, r, z):
    """p_(l,r)(z) in mpmath arithmetic, r possibly ∞; the limit at z = ∞."""
    hl = mp.sqrt(1 + mp.mpf(l) ** 2)
    if r == INF:
        return mp.mpf(0) if mp.isinf(z) else -hl / (z - l)
    return hl / mp.sqrt(1 + mp.mpf(r) ** 2) * (1 if mp.isinf(z) else (z - r) / (z - l))


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(chained_arcsets(), points)
    def test_explicit_product(self, sample, pts):
        o, kept, poles = sample
        zs = [INF] + [complex(x, y) if y else x for x, y in pts
                      if y or all(abs(x - b) >= REAL_GUARD for b in poles)]
        values, tails = KreinProduct(o).eval(np.array(zs, dtype=complex))
        assert not tails.any()
        for z, v in zip(zs, values.tolist()):
            exact = _mp_krein(kept, z)
            if exact == INF:
                assert v == INF
            else:
                assert abs(v - exact) <= 64 * EPS * abs(exact)

    @settings(max_examples=80, deadline=None)
    @given(reps(), points)
    def test_nevanlinna(self, rep, pts):
        zs = [complex(x, y) for x, y in pts
              if y or not any(l <= x <= r for l, r, _ in rep.rho.ac)]
        zs = [z for z in zs if all(z != t for t, _ in rep.rho.atoms)]
        values = rep.eval(np.array(zs, dtype=complex))
        for z, v in zip(zs, values.tolist()):
            exact, scale = mp_rep(rep, z)
            assert abs(v - exact) <= 64 * EPS * scale
        if rep.alpha == 0:
            with mp.workdps(50):
                at_inf = mp.mpf(rep.beta) - mp.fsum(
                    [w * t for t, w in rep.rho.atoms]
                    + [d * (r * r - l * l) / 2 for l, r, d in rep.rho.ac])
            v = rep.eval(np.array([INF]))[0]
            assert abs(v - at_inf) <= 64 * EPS * (abs(rep.beta) + rep.rho.mass() * 10)
        else:
            assert rep.eval(np.array([-INF, INF])).tolist() == [INF, INF]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-900, 800), st.integers(5, 200),
                              st.floats(0.0, 1.0, allow_subnormal=False)), min_size=1, max_size=4),
           st.floats(-2, 2, allow_subnormal=False), st.booleans(), points)
    def test_exponent(self, raw, gamma, half_line, pts):
        pieces, end = [], -INF
        for start, width, psi in sorted(raw):
            if start / 100.0 > end:
                pieces.append((start / 100.0, (start + width) / 100.0, psi))
                end = pieces[-1][1]
        if half_line:
            pieces[-1] = (pieces[-1][0], INF, pieces[-1][2])
        e = ExpRep(gamma, tuple(pieces))
        zs = [complex(x, abs(y)) for x, y in pts] + [complex(INF, 0.0)]
        h, refused = e._h(np.array(zs), False)
        for z, v, no in zip(zs, h.tolist(), refused.tolist()):
            on_line = z.imag == 0
            inside = on_line and any(l <= z.real <= r for l, r, _ in e.pieces)
            assert no == inside
            if no:
                continue
            with mp.workdps(50):
                zz = mp.mpf(z.real) if on_line else mp.mpc(z)
                terms, scale = [mp.mpf(gamma)], abs(gamma)
                for l, r, psi in e.pieces:
                    lg = mp.log(mp_factor(l, r, zz))
                    terms.append(psi * lg)
                    scale += psi * (abs(lg) + 1)
                exact = mp.fsum(terms)
            assert abs(v - exact) <= 64 * EPS * scale
            ev = e(z if not on_line else z.real)
            assert abs(ev - mp.exp(exact)) <= 64 * EPS * (scale + 1) * abs(mp.exp(exact))


# ---------------------------------------------------------------------------
# masks


class TestMasks:
    def test_product_marks_poles_and_guard_band(self):
        k = KreinProduct(normalize([Arc(-2.0, -1.0), Arc(0.5, 3.0), Arc(5.0, INF)]))
        poles = (-2.0, 0.5, 5.0)
        near = [b + s * REAL_GUARD * f for b in poles for s in (-1, 1) for f in (0.25, 0.9)]
        far = [b + s * 2 * REAL_GUARD for b in poles for s in (-1, 1)]
        zs = np.array(list(poles) + near + far + [-1.0, 3.0, 0.1, INF, -INF])
        values, tails = k.eval(zs, strict=False)
        refused = np.isinf(tails)
        for z, v, no in zip(zs.tolist(), values.tolist(), refused.tolist()):
            gap = min(abs(z - b) for b in poles)
            assert no == (0 < gap < REAL_GUARD)
            kind, scalar = outcome(k, z)
            assert (kind == "EvaluationDomainError") == no
            if not no:
                assert same(scalar, v) and (v == INF) == (gap == 0)
        # strict, the first refusal in grid order is the one raised
        with pytest.raises(EvaluationDomainError, match=f"real evaluation at {near[0]} "):
            k(zs)

    def test_generator_marks_its_refusals(self, monkeypatch):
        monkeypatch.setattr(krein, "_MAX_DEPTH", 12)
        k = cantor_complement_product((0, 1), 26, 1e-2)
        zs = [0.0, 1.0, 1 / 3, 0.5, 0.49, -1.0, 2.0 + 0.5j, 0.5 + 0.02j, 2j, INF]
        values, tails = k.eval(np.array(zs, dtype=complex), strict=False)
        for z, v, t in zip(zs, values.tolist(), tails.tolist()):
            kind, scalar = outcome(k.eval, z)
            assert (kind != "ok") == math.isinf(t)
            if kind == "ok":
                assert same(complex(scalar[0]), v) and scalar[1] == t
        assert outcome(k.eval, 0.5 + 0.02j)[0] == "TailNotCertified"
        # the surviving intervals' bound certifies 2i at depth 12, the last
        # depth; the whole base's bound needed depth 14
        assert outcome(k.eval, 2j)[0] == "ok"
        with pytest.raises(EvaluationDomainError, match="0.0 lies on the generator's Cantor set"):
            k(np.array(zs))

    def test_generator_keeps_the_marker_at_infinity(self):
        # the explicit arc has its pole at ∞: there the ∞ marker stands with
        # tail 0, as at an exact real pole, and the generator does not run
        k = KreinProduct(normalize([Arc(INF, -1.0)]), CantorComplement((0, 1), 26), tol=1e-2)
        for z in (INF, complex(INF, 0.0)):
            value, tail = k.eval(z)
            assert same(value, INF) and same(tail, 0.0)
        for zs in (np.array([-1.0, INF, 3.0]), np.array([-1.0, INF, 3.0], dtype=complex)):
            values, tails = k.eval(zs)
            assert values[1] == INF and tails[1] == 0.0
            for z, v, t in zip(zs.tolist(), values.tolist(), tails.tolist()):
                value, tail = k.eval(z)
                assert same(type(v)(value), v) and same(tail, t)

    def test_composite_refuses_on_pieces_not_at_poles(self):
        # the piece (−1, 0) meets O = (0, 1) at O's pole end
        f = CompositeFunction(2.0, KreinProduct(normalize([Arc(0.0, 1.0)])),
                              ExpRep(0.3, ((-3.0, -1.0, 0.4), (-1.0, 0.0, 0.5))))
        zs = [0.0, -0.5, 0.5, 1.5, -2.0, -1.0, -3.0, 3.0, 1e-3, -0.5 + 1j]
        values, refused = f.masked(np.array(zs, dtype=complex))
        for z, v, no in zip(zs, values.tolist(), refused.tolist()):
            kind, scalar = outcome(f, z)
            assert (kind != "ok") == no
            if not no:
                assert same(complex(scalar), v)
        # the product's pole at 0 is the ∞ marker before the exponent's piece
        assert f(0.0) == INF and not refused[0] and refused[1]

    def test_disk_boundary_marks_guard_band(self):
        theta = disk_interpolate([1.0 + 0j], [-1.0 + 0j], [], -1.0, 1.0, 1j)
        # w = −1 pulls back to the pole 0 (the ∞ marker, sent to β); a point a
        # hair away lands in the guard band
        base = cayley(1j)
        ws = np.array([-1.0 + 0j, base(complex(4e-10, 0.0)), base(complex(0.3, 0.0)),
                       0.2 + 0.1j])
        values, refused = theta.masked(ws)
        assert refused.tolist() == [False, True, False, False]
        for w, v, no in zip(ws.tolist(), values.tolist(), refused.tolist()):
            kind, scalar = outcome(theta, w)
            assert (kind != "ok") == no
            if not no:
                assert same(scalar, v)


# ---------------------------------------------------------------------------
# shapes and types


def evaluators():
    k = KreinProduct(normalize([Arc(INF, -3.0), Arc(-1.0, 0.5), Arc(1.0, 2.0)]))
    gen = KreinProduct(normalize([Arc(2.0, 3.0)]), CantorComplement((0, 1), 26), tol=1e-2)
    mu = Measure(atoms=((-1.0, 0.7), (2.0, 1.1)), ac=((3.0, 4.0, 0.5),))
    rep = NevanlinnaRep(0.5, -0.3, mu)
    e = ExpRep(0.2, ((-5.0, -4.0, 0.3), (4.5, INF, 0.6)))
    comp = CompositeFunction(1.5, KreinProduct(normalize([Arc(0.0, 1.0)])), e)
    theta = disk_interpolate([1.0 + 0j], [-1.0 + 0j], [], -1.0, 1.0, 1j)
    m = disk_target_map(1j, -1.0)
    return {"product": k, "generator": lambda z: gen(z), "nevanlinna": rep.eval,
            "rep function": RepFunction(rep), "exponent": e.h, "exp": e,
            "composite": comp, "disk map": m, "disk inverse": m.inverse_apply,
            "disk interpolant": theta, "p_eval": lambda z: p_eval(Arc(1.0, 2.0), z),
            "log_p": lambda z: log_p(Arc(1.0, 2.0), z),
            "cauchy transform": lambda z: cauchy_transform(mu, z),
            "half-plane map": HalfPlaneAuto(2.0, 1.0, -1.0, 3.0)}


@pytest.mark.parametrize("name", sorted(evaluators()))
class TestShapes:
    def test_scalar_in_scalar_out(self, name):
        f = evaluators()[name]
        for z in (0.7 + 0.4j, 0.25 + 2j):
            assert type(f(z)) is complex
        real = 0.3 if name.startswith("disk") else -2.0
        assert type(f(real)) is (complex if name.startswith("disk") else float)

    def test_empty_array(self, name):
        f = evaluators()[name]
        for shape in ((0,), (0, 3)):
            out = f(np.zeros(shape, dtype=complex))
            assert isinstance(out, np.ndarray) and out.shape == shape

    def test_grid_in_grid_order(self, name, rng):
        f = evaluators()[name]
        zs = (rng.uniform(-6, 6, (3, 4)) + 1j * rng.uniform(0.2, 3, (3, 4)))
        zs[0, :2] = [-2.0, -2.5]  # real points too
        if name.startswith("disk"):
            zs *= 0.9 / np.abs(zs).max()
        out = f(zs)
        assert out.shape == zs.shape
        # each value is the scalar call's at the array's point, a complex
        for z, v in zip(zs.ravel().tolist(), out.ravel().tolist()):
            assert same(complex(f(z)), v)
        # numpy's vector loops run in blocks of 2, 4 and 8 values with a scalar
        # tail; these lengths end on and beside each block boundary
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 255, 256, 257, 1000):
            zs = rng.uniform(-6, 6, n) + 1j * rng.uniform(0.2, 3, n)
            zs[::3] = rng.uniform(-2.9, -2.1, len(zs[::3]))  # real points too
            if name.startswith("disk"):
                zs *= 0.9 / np.abs(zs).max()
            for z, v in zip(zs.tolist(), f(zs).tolist()):
                assert same(complex(f(z)), v)


def test_quotient_past_float_range_stays_finite_where_it_is():
    # −1/z at z = 5e-324i is i·2e323: its imaginary part leaves the float
    # range, while the real part, 0.1 + 0.25 from β and the other atom, is
    # finite; dividing by a scaled reciprocal alone gives NaN there
    rep = NevanlinnaRep(0.5, 0.1, Measure(atoms=((0.0, 1.0), (2.0, 0.5))))
    z = 5e-324j
    got = rep.eval(z)
    assert abs(got.real - 0.35) <= 1e-16 and got.imag == INF
    zs = np.array([0.5 + 1j, z, 3.0 + 2j])
    assert same(complex(rep.eval(zs)[1]), got)
    # p_(0,1)(z) = (z − 1)/(√2·z) = (1 + i·1e310)/√2 at z = 1e-310i; the
    # subnormal z keeps 44 bits
    got = p_eval(Arc(0.0, 1.0), 1e-310j)
    assert abs(got.real - 2 ** -0.5) <= 1e-12 and got.imag == INF


def test_markers_keep_scalar_types():
    k = KreinProduct(normalize([Arc(0.0, 1.0)]))
    assert k(0.0) == INF and type(k(0.0)) is float
    assert k(complex(0.0, 0.0)) == INF and type(k(complex(0.0, 0.0))) is float
    rep = NevanlinnaRep(1.0, 0.0, Measure(atoms=((0.0, 1.0),)))
    assert type(rep.eval(0.0)) is float and rep.eval(0.0) == INF
    assert type(rep.eval(0j)) is float and rep.eval(0j) == INF
    assert type(rep.eval(0.5 + 0j)) is complex
    assert p_eval(Arc(0.0, 1.0), 0j) == INF and type(p_eval(Arc(0.0, 1.0), 0j)) is float
    assert type(p_eval(Arc(0.0, 1.0), 0.5 + 0j)) is complex
    m = cayley(1j)
    assert m(INF) == 1 and type(m(INF)) is complex
    assert m.inverse_apply(1.0 + 0j) == INF
    # ∞ is inf+0j at a complex point, as ±inf at a real one
    z = complex(INF, 0.0)
    assert same(k(z), k(INF)) and same(m(z), m(INF))
    assert type(rep.eval(z)) is float and rep.eval(z) == INF
    rep0 = NevanlinnaRep(0.0, 0.5, Measure(atoms=((-1.0, 1.0), (2.0, 0.5))))
    assert same(rep0.eval(z), complex(rep0.value_at_inf()))
    assert same(complex(rep0.eval(np.array([z]))[0]), complex(rep0.eval(np.array([INF]))[0]))
    assert p_eval(Arc(INF, 0.0), z) == INF and type(p_eval(Arc(INF, 0.0), z)) is float
    assert same(p_eval(Arc(0.0, 1.0), z), complex(p_eval(Arc(0.0, 1.0), INF)))
    assert same(cauchy_transform(rep0.rho, z), 0j)
    # p_∅ = 1 is complex at any complex point, and log p_∅ = 0 off the line
    assert same(p_eval(EMPTY, 0.5 + 1j), 1 + 0j) and same(p_eval(EMPTY, 0.5 + 0j), 1 + 0j)
    assert same(log_p(EMPTY, 0.5 + 1j), 0j) and same(log_p(EMPTY, 0.5 + 0j), 0.0)
    assert same(p_eval(EMPTY, 0.5), 1.0) and same(log_p(EMPTY, INF), 0.0)
    zs = np.array([0.5 + 1j, 2.0])
    assert p_eval(EMPTY, zs).dtype == log_p(EMPTY, zs).dtype == complex
