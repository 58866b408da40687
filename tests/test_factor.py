import cmath
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from halfplane.extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL, INF,
                               arcset_contains_arc, is_inf, normalize)
from halfplane.factor import (BlackBoxFunction, CertificationError,
                              CompositeFunction, ExpRep, RepFunction,
                              _CONSTANT_GRID, _constant_certificate,
                              _verify_posts, analyze_pick, compose_in_class,
                              constant_factor_check, divide_single,
                              factorize, psi_recover)
from halfplane import krein
from halfplane.krein import EvaluationDomainError, KreinProduct, log_factors, p_eval
from halfplane.nevanlinna import (AnalysisResult, Measure, NevanlinnaRep,
                                  SigmaDescriptor, analyze)
from halfplane.util import halton_box

from conftest import random_atomic_rep, random_upper_points
from test_krein import _mp_krein

EPS = float(np.finfo(float).eps)


def sqrt_branch(z):
    # z + sqrt(z^2 - 1), the branch positive to the right of 1
    z = complex(z)
    return z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


SQRT_BB = BlackBoxFunction(sqrt_branch,
                           SigmaDescriptor(intervals=((-1.0, 1.0),), has_inf=True))


class TestDivideSingle:
    def test_identity_map(self):
        # z = p_(∞,0): dividing it off leaves the composite 1·k_∅
        f = RepFunction(NevanlinnaRep(1.0, 0.0))
        g = divide_single(f, Arc(INF, 0.0))
        assert isinstance(g, CompositeFunction) and g.c == 1.0
        assert g.product.arcs.is_empty and g.exp is None
        for z in (1j, 2 + 3j, 0.5, -4.0):
            assert g(z) == 1.0

    def test_reciprocal(self):
        f = RepFunction(NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0),))))
        g = divide_single(f, Arc(0.0, INF))
        for z in (1j, 2 + 3j):
            assert abs(g(z) - 1.0) < 1e-12

    def test_partial_component(self, rng):
        # dividing off a strict sub-arc of a negativity component
        f = RepFunction(NevanlinnaRep(1.0, 0.0, Measure(atoms=((0.0, 1.0),))))
        g = divide_single(f, Arc(0.0, 0.5))
        for z in random_upper_points(rng, 20):
            assert complex(g(z)).imag > -1e-12
            assert abs(g(z) * p_eval(Arc(0.0, 0.5), z) - f(z)) < 1e-10

    def test_reconstruction(self, rng):
        for _ in range(20):
            rep = random_atomic_rep(rng, 5)
            f = RepFunction(rep)
            gamma = analyze_pick(f).gamma
            if gamma.full or gamma.is_empty:
                continue
            j = gamma.arcs[int(rng.integers(0, len(gamma.arcs)))]
            g = divide_single(f, j)
            for z in random_upper_points(rng, 5):
                assert abs(g(z) * p_eval(j, z) - f(z)) < 1e-10 * max(1, abs(f(z)))

    def test_rejects_arc_outside_gamma(self):
        f = RepFunction(NevanlinnaRep(1.0, 0.0))  # gamma = (-oo, 0)
        with pytest.raises(ValueError):
            divide_single(f, Arc(1.0, 2.0))

    def test_composite_removes_arc(self):
        comp = CompositeFunction(2.0, KreinProduct(normalize([Arc(0, 1), Arc(2, 3)])))
        g = divide_single(comp, Arc(0, 1))
        assert isinstance(g, CompositeFunction)
        assert g.product.arcs.isclose(normalize([Arc(2, 3)]))
        for z in (0.5 + 1j, -2 + 0.5j):
            assert abs(g(z) * p_eval(Arc(0, 1), z) - comp(z)) < 1e-12

    def test_composite_splits_arc(self):
        comp = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 3)])))
        g = divide_single(comp, Arc(1, 2))
        assert g.product.arcs.isclose(normalize([Arc(0, 1), Arc(2, 3)]))
        for z in (0.5 + 1j, 4 + 2j):
            assert abs(g(z) * p_eval(Arc(1, 2), z) - comp(z)) < 1e-12

    def test_blackbox_quotient(self, rng):
        g = divide_single(SQRT_BB, Arc(INF, -1.0))
        for z in random_upper_points(rng, 10):
            assert complex(g(z)).imag > -1e-12

    def test_quotient_refuses_a_shared_pole(self):
        # f = −1/z is p_(0,∞): the quotient is 1, also at 0, where f and p_J
        # both have their pole and a black box cannot read the limit.  The
        # declared σ holds an interval where f is analytic, so it has
        # positive measure and f divides as a quotient
        rep = NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0),)))
        sigma = replace(rep.sigma(), intervals=((-3.0, -2.0),))
        g = divide_single(BlackBoxFunction(rep.eval, sigma), Arc(0.0, INF))
        assert g.label == "quotient"
        for x in (0.0, 1e-12):  # the pole, and a point within REAL_GUARD of it
            with pytest.raises(EvaluationDomainError):
                g(x)
        values, refused = g.masked(np.array([0j, 1e-12 + 0j, 2 + 0j, 1j]))
        assert refused.tolist() == [True, True, False, False]
        assert np.allclose(values[2:], 1.0, rtol=1e-15, atol=0.0)
        # f = z is p_(∞,0): f and p_J both vanish at 0
        rep = NevanlinnaRep(1.0, 0.0)
        sigma = replace(rep.sigma(), intervals=((5.0, 6.0),))
        g = divide_single(BlackBoxFunction(rep.eval, sigma), Arc(INF, 0.0))
        with pytest.raises(EvaluationDomainError):
            g(0.0)
        assert g(1.0) == 1.0

    def test_rejects_an_arc_the_long_way_round(self):
        # Γ = (−2, −3) runs from −2 through ∞ to −3, and J = (2, −1) from 2
        # through ∞ to −1: J holds −2.5, where f > 0, though both its ends
        # and ∞ lie in Γ
        f = CompositeFunction(1.0, KreinProduct(normalize([Arc(-2.0, -3.0)])))
        assert f(-2.5) > 0
        with pytest.raises(ValueError, match="not contained in the negativity set"):
            divide_single(f, Arc(2.0, -1.0))

    def test_blackbox_quotient_by_an_inner_sub_arc(self):
        # f/p_J has a pole at J's zero end −2, where f ≠ 0: the quotient's σ
        # holds it, it reads the ∞ marker there, and its Γ is (−2, −1), where
        # f < 0 < p_J
        g = divide_single(SQRT_BB, Arc(INF, -2.0))
        assert g.sigma.contains(-2.0) and g(-2.0) == INF
        assert analyze_pick(g).gamma.isclose(normalize([Arc(-2.0, -1.0)]), 1e-9)
        res = factorize(g)
        assert res.ok and res.gamma.isclose(normalize([Arc(-2.0, -1.0)]), 1e-9)

    def test_quotient_is_zero_where_only_the_divisor_has_a_pole(self):
        # J = (−3, −2) inside Γ = (∞, −1): p_J has its pole at −3, where f is
        # finite, so the quotient is 0 there
        g = divide_single(SQRT_BB, Arc(-3.0, -2.0))
        assert g(-3.0) == 0.0
        values, refused = g.masked(np.array([-3.0 + 0j]))
        assert values.tolist() == [0j] and refused.tolist() == [False]

    def test_wrap_component_division(self):
        rep = NevanlinnaRep(0.0, -2.0, Measure(atoms=((-1.0, 1.0), (1.0, 1.0))))
        f = RepFunction(rep)
        gamma = analyze_pick(f).gamma
        wrap = next(a for a in gamma.arcs if a.is_wrap)
        for j in (wrap,
                  Arc(float(wrap.b) + 0.2, float(wrap.a) - 0.2),  # still wraps
                  Arc(float(wrap.b) + 0.2, INF)):
            g = divide_single(f, j)
            for z in (0.7 + 0.9j, -5 + 1j):
                assert abs(g(z) * p_eval(j, z) - f(z)) < 1e-9

    def test_mixed_measure_factorization(self):
        rep = NevanlinnaRep(0.5, -0.7, Measure(atoms=((-3.0, 1.0), (2.0, 0.8)),
                                               ac=((-1.0, 1.0, 0.4),)))
        res = factorize(RepFunction(rep))
        assert res.ok
        assert res.constant is None  # sigma has positive measure
        for z in (0.3 + 1.2j, -4 + 0.5j):
            assert abs(res.k(z) * res.g(z) - rep.eval(z)) < 1e-9

    def test_far_from_origin_support(self):
        # large coordinates inflate the (1+t²) kernel factors; the corollary
        # certificate and the structured cofactor must hold regardless
        reps = [
            NevanlinnaRep(0.3, 1e4, Measure(atoms=((1e4, 2.0), (1.00002e4, 1.5)))),
            NevanlinnaRep(1.0, -3e5,
                          Measure(atoms=((-2e5, 5.0), (1e-3, 0.2), (7e5, 8.0)))),
            NevanlinnaRep(0.5, -1.0, Measure(atoms=((-40.0, 1.0), (35.0, 2.0)))),
        ]
        for rep in reps:
            res = factorize(RepFunction(rep))
            assert isinstance(res.g, RepFunction)
            assert res.ok and res.constant_residual <= 1e-9

    @staticmethod
    def far_chain_rep(seed):
        # six atoms in [−1000, 1000]: zeros of the quotients reach 1e4 and
        # sit next to atoms only 2e-4 apart
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(-1000.0, 1000.0, 6))
        ws = rng.uniform(0.2, 2.0, 6)
        alpha, beta = float(rng.uniform(0.1, 2.0)), float(rng.uniform(-3.0, 3.0))
        return NevanlinnaRep(alpha, beta, Measure(atoms=tuple(
            (float(t), float(w)) for t, w in zip(ts, ws))))

    def test_chain_far_from_origin(self):
        # the last zero sits near 2.3e4: dividing every arc of Γ leaves the
        # corollary's constant alone
        rep = self.far_chain_rep(170)
        g = RepFunction(rep)
        for arc in analyze_pick(g).gamma.arcs:
            g = divide_single(g, arc)
        assert isinstance(g, CompositeFunction)
        assert g.product.arcs.is_empty and g.exp is None
        assert g.c == pytest.approx(abs(rep.eval(1j)), rel=1e-9)

    def test_chain_zero_next_to_close_atoms(self):
        # the 4th arc ends at a zero where f' ≈ 4e10, next to atoms 2e-4
        # apart: re-deriving the quotient's data left dust there and then
        # refused the 5th arc; the corollary divides every arc of Γ
        rep = self.far_chain_rep(275)
        g = RepFunction(rep)
        arcs = analyze_pick(g).gamma.arcs
        for arc in arcs:
            g = divide_single(g, arc)
        assert g.product.arcs.is_empty
        # f = c·k_Γ, over a box and one above each atom and each zero
        zs = np.concatenate((halton_box(40, -1500.0, 1500.0, 0.1, 100.0),
                             [t + 1j for t, _ in rep.rho.atoms],
                             [arc.a + 1j for arc in arcs if not is_inf(arc.a)]))
        product = g(zs) * np.prod([p_eval(arc, zs) for arc in arcs], axis=0)
        for z, v in zip(zs.tolist(), product.tolist()):
            f = mp_atomic(rep, z)
            assert abs(v - f) <= 1e-12 * abs(f)

    @pytest.mark.parametrize("half", [2.0, 4.0, 8.0, 16.0])
    def test_many_equally_spaced_atoms(self, half):
        # 64 unit atoms: iterated Möbius division lost these to roundoff
        atoms = tuple((float(t), 1.0) for t in np.linspace(-half, half, 64))
        res = factorize(RepFunction(NevanlinnaRep(0.5, 0.3, Measure(atoms=atoms))))
        assert isinstance(res.g, RepFunction)
        assert all(p.passed and p.note == "" for p in res.posts
                   if p.name != "constant_factor")
        assert res.constant_residual <= 1e-9


class TestFactorize:
    def test_identity_map(self):
        res = factorize(RepFunction(NevanlinnaRep(1.0, 0.0)))
        assert res.gamma.isclose(normalize([Arc(INF, 0.0)]))
        assert res.constant == pytest.approx(1.0)
        assert abs(res.g(1j) - 1.0) < 1e-12

    def test_scaled_identity(self):
        res = factorize(RepFunction(NevanlinnaRep(2.0, 0.0)))
        assert res.constant == pytest.approx(2.0)

    def test_reciprocal(self):
        res = factorize(RepFunction(
            NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0),)))))
        assert res.gamma.isclose(normalize([Arc(0.0, INF)]))
        assert res.constant == pytest.approx(1.0)

    def test_negative_constant(self):
        res = factorize(RepFunction(NevanlinnaRep(0.0, -3.0)))
        assert res.gamma.full
        assert abs(res.g(1j) - 3.0) < 1e-12

    def test_positive_constant(self):
        res = factorize(RepFunction(NevanlinnaRep(0.0, 3.0)))
        assert res.gamma.is_empty

    def test_posts_on_random_reps(self, rng):
        for _ in range(20):
            rep = random_atomic_rep(rng, 6)
            res = factorize(RepFunction(rep))
            assert res.ok
            assert res.constant_residual <= 1e-9

    def test_corollary_identity_pointwise(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng, 5)
            f = RepFunction(rep)
            res = factorize(f)
            for z in random_upper_points(rng, 10):
                assert abs(f(z) - res.constant * res.k(z)) < 1e-8 * max(
                    1.0, abs(f(z)))

    def test_order_independence(self, rng):
        for _ in range(8):
            rep = random_atomic_rep(rng, 5)
            f = RepFunction(rep)
            gamma = analyze_pick(f).gamma
            if gamma.full or gamma.is_empty or len(gamma.arcs) < 2:
                continue
            order = list(range(len(gamma.arcs)))
            rng.shuffle(order)
            g1, g2 = f, f
            for arc in gamma.arcs:
                g1 = divide_single(g1, arc)
            for i in order:
                g2 = divide_single(g2, gamma.arcs[i])
            for z in random_upper_points(rng, 5):
                assert abs(g1(z) - g2(z)) < 1e-9 * max(1.0, abs(g1(z)))

    def test_blackbox_branch_function(self):
        res = factorize(SQRT_BB)
        assert res.gamma.isclose(normalize([Arc(INF, -1.0)]), 1e-9)
        assert res.ok
        g10 = complex(res.g(complex(10.0, 0.0))).real
        assert g10 == pytest.approx(math.sqrt(2) * (10 + math.sqrt(99)) / 11,
                                    abs=1e-10)
        xs = list(np.linspace(-60, -1.3, 50)) + list(np.linspace(1.3, 60, 50))
        for x in xs:
            assert complex(res.g(complex(x, 0.0))).real > 0

    def test_quotient_refuses_a_shared_pole(self):
        # the atom at 0 is a pole of f and of k_Γ: g = f/k_Γ is refused there,
        # where it read INF/INF = NaN
        rep = NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0),), ac=((2.0, 3.0, 0.5),)))
        res = factorize(RepFunction(rep))
        assert res.ok and res.g.label == "quotient"
        with pytest.raises(EvaluationDomainError, match="both have a pole"):
            res.g(0.0)
        values, refused = res.g.masked(np.array([0j, 1.5 + 0j]))
        assert refused.tolist() == [True, False] and np.isfinite(values[1])

    def test_composite_idempotence(self):
        o = normalize([Arc(0, 1), Arc(3, 4)])
        e = ExpRep(0.0, ((1.5, 2.5, 0.5),))
        comp = CompositeFunction(1.0, KreinProduct(o), e)
        res = factorize(comp)
        assert res.gamma.isclose(o)
        # the cofactor is the exponential part itself, exactly
        assert isinstance(res.g, CompositeFunction)
        assert res.g.product.arcs.is_empty
        for z in (0.5 + 1j, -2 + 0.3j):
            assert abs(res.g(z) * res.k(z) - comp(z)) < 1e-12

    def test_composite_overlap_rejected_in_analysis(self):
        # refused when built, so no analysis ever sees such a composite
        with pytest.raises(ValueError, match="overlaps the product set"):
            CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 2)])),
                              ExpRep(0.0, ((1.0, 3.0, 0.5),)))

    def test_wrap_product_and_its_representation_agree(self):
        # k over (−∞, 0) ∪ (1, ∞) is p_(1,0), finite at ∞; as a product and as
        # its Nevanlinna data it has σ = {1} and Γ = (1, 0) through ∞
        w = math.sqrt(0.5)
        forms = (CompositeFunction(1.0, KreinProduct(normalize([Arc(INF, 0), Arc(1, INF)]))),
                 RepFunction(NevanlinnaRep(0.0, -w, Measure(atoms=((1.0, w),)))))
        for f in forms:
            ana = analyze_pick(f)
            assert ana.sigma == SigmaDescriptor(points=(1.0,))
            res = factorize(f)
            assert res.gamma == normalize([Arc(1.0, 0.0)]) and res.gamma.contains(INF)
            assert res.ok and res.constant == pytest.approx(1.0, rel=1e-15)


@st.composite
def corollary_reps(draw):
    """Atomic reps with 1 to 16 atoms at least 0.005 apart, α = 0 or α > 0."""
    n = draw(st.integers(1, 16))
    xs = draw(st.lists(st.integers(-4000, 4000), min_size=n, max_size=n, unique=True))
    ws = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    atoms = tuple(zip((x / 200.0 for x in sorted(xs)), ws))
    return NevanlinnaRep(alpha, draw(st.floats(-5.0, 5.0)), Measure(atoms=atoms))


def _sub_arc(arc, kind):
    """J inside an arc (b, a) of Γ: the arc itself, an inner sub-arc, or one
    at or through ∞ where the arc reaches ∞ (else an inner one)."""
    b, a = arc.b, arc.a
    if kind == "whole":
        return arc
    if kind == "infinity" and (arc.is_wrap or is_inf(b) or is_inf(a)):
        return Arc(b if is_inf(b) else b + 1.0, a if is_inf(a) else a - 1.0)
    if arc.bounded:
        return Arc(b + (a - b) / 3, a - (a - b) / 3)
    return Arc(a - 2.0, a - 1.0) if is_inf(b) else Arc(b + 1.0, b + 2.0)


def mp_atomic(rep, z, exact=False):
    """f(z) = αz + β + Σ w(1 + zt)/(t − z) in 50-digit arithmetic; with
    ``exact``, as an mpmath number."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        z = mp.mpmathify(z)
        val = rep.alpha * z + rep.beta + mp.fsum(w * (1 + z * t) / (t - z) for t, w in rep.rho.atoms)
        return val if exact else complex(val)


def mp_deviation(rep, gamma, c, z) -> float:
    """|f/(c·k_Γ) − 1| at z in 50-digit arithmetic, for an atomic rep."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        ratio = mp_atomic(rep, z, True) / (c * _mp_krein([(a.b, a.a) for a in gamma.arcs], z, True))
        return float(abs(ratio - 1))


def spread_rep(rng, n, half, alpha_min=0.0):
    """n atoms, one in each of n random slots of 2n across (−half, half),
    with weights in [0.2, 2), α in [alpha_min, 2) and β in [−3, 3)."""
    slots = np.sort(rng.choice(2 * n, size=n, replace=False))
    ts = -half + (2.0 * half / (2 * n)) * (slots + 0.5 + rng.uniform(-0.3, 0.3, n))
    atoms = tuple(zip(ts.tolist(), rng.uniform(0.2, 2.0, n).tolist()))
    return NevanlinnaRep(float(rng.uniform(alpha_min, 2.0)), float(rng.uniform(-3.0, 3.0)),
                         Measure(atoms=atoms))


class TestCorollary:
    """f = |f(i)|·k_Γ when σ(f) has measure zero (atomic f)."""

    @settings(max_examples=60, deadline=None)
    @given(corollary_reps(), st.lists(st.tuples(st.floats(-25.0, 25.0), st.floats(0.5, 5.0)),
                                      min_size=1, max_size=5))
    # β this small puts the zero 1/β near or past the largest double
    @example(NevanlinnaRep(0.0, 5e-324, Measure(atoms=((0.0, 1.0),))), [(1.0, 1.0)])
    @example(NevanlinnaRep(0.0, 1e-310, Measure(atoms=((0.0, 1.0),))), [(1.0, 1.0)])
    @example(NevanlinnaRep(0.0, -1e-310, Measure(atoms=((0.0, 1.0),))), [(-3.0, 0.5)])
    @example(NevanlinnaRep(0.0, 1e-308, Measure(atoms=((0.0, 1.0),))), [(2.0, 4.0)])
    @example(NevanlinnaRep(0.0, -1e-308, Measure(atoms=((0.0, 1.0),))), [(-20.0, 1.0)])
    def test_reconstruction(self, rep, points):
        res = factorize(RepFunction(rep))
        arcs = [(arc.b, arc.a) for arc in res.gamma.arcs]
        for x, y in points:
            f = mp_atomic(rep, complex(x, y))
            assert abs(res.constant * _mp_krein(arcs, complex(x, y)) - f) <= 1e-12 * abs(f)
        # σ(k_Γ) = σ(f): the finite left ends are the atoms, ∞ one iff α > 0
        lefts = [arc.b for arc in res.gamma.arcs]
        assert [b for b in lefts if not is_inf(b)] == [t for t, _ in rep.rho.atoms]
        assert any(is_inf(b) for b in lefts) == (rep.alpha > 0)

    @settings(max_examples=60, deadline=None)
    @given(corollary_reps(), st.integers(0, 15), st.sampled_from(["whole", "inner", "infinity"]),
           st.randoms(use_true_random=False),
           st.lists(st.tuples(st.floats(-25.0, 25.0), st.floats(0.5, 5.0)), min_size=1, max_size=5))
    # Γ = (0, −1) through ∞
    @example(NevanlinnaRep(0.0, -1.0, Measure(atoms=((0.0, 1.0),))), 0, "infinity",
             random.Random(0), [(3.0, 1.0)])
    def test_division(self, rep, pick, kind, order, points):
        # f/p_J is c·k_Γ with J cut out of Γ; dividing every arc leaves c
        f = RepFunction(rep)
        arcs = list(analyze_pick(f).gamma.arcs)
        at_inf = [arc for arc in arcs if arc.is_wrap or is_inf(arc.b) or is_inf(arc.a)]
        j = _sub_arc(at_inf[0] if kind == "infinity" and at_inf else arcs[pick % len(arcs)],
                     kind)
        g = divide_single(f, j)
        c = factorize(f).constant
        assert isinstance(g, CompositeFunction) and g.c == c
        for x, y in points:
            z = complex(x, y)
            want = mp_atomic(rep, z)
            assert abs(g(z) * p_eval(j, z) - want) <= 1e-12 * abs(want)
        order.shuffle(arcs)
        g = f
        for arc in arcs:
            g = divide_single(g, arc)
        assert g.product.arcs.is_empty and g.exp is None and g.c == c

    @staticmethod
    def _posts(ana, g):
        return {p.name: p.passed for p in _verify_posts(ana, RepFunction(g),
                                                            KreinProduct(ana.gamma))}

    def test_posts_are_not_vacuous(self):
        rep = NevanlinnaRep(0.5, 0.3, Measure(atoms=((-1.0, 1.0), (0.5, 0.4), (2.0, 1.5))))
        ana = analyze(rep)
        c = abs(rep.eval(1j))
        assert all(self._posts(ana, NevanlinnaRep(0.0, c)).values())
        # a Γ missing one arc leaves a point of σ(f) out of σ(k_Γ) ∪ σ(g)
        for k in range(len(ana.gamma.arcs)):
            short = ArcSet(ana.gamma.arcs[:k] + ana.gamma.arcs[k + 1:])
            assert not self._posts(AnalysisResult(ana.sigma, short),
                                   NevanlinnaRep(0.0, c))["omega_intersection"]
        # a g that is not positive on Ω(g)
        assert not self._posts(ana, NevanlinnaRep(0.0, -c))["g_positive_on_omega"]
        # a g with an atom off σ(f)
        stray = NevanlinnaRep(0.0, c, Measure(atoms=((1.0, 0.2),)))
        assert not self._posts(ana, stray)["sigma_subset"]

    def test_posts_evaluate_no_representation(self, monkeypatch):
        # g's sign is read off its form: a constant's β, and any other
        # representation runs below 0 after each piece of its σ
        rep = NevanlinnaRep(0.5, 0.3, Measure(atoms=((-1.0, 1.0), (0.5, 0.4), (2.0, 1.5))))
        ana = analyze(rep)
        c = abs(rep.eval(1j))

        def refuse(self, z):
            raise AssertionError("a representation was evaluated")

        monkeypatch.setattr(NevanlinnaRep, "eval", refuse)
        assert all(self._posts(ana, NevanlinnaRep(0.0, c)).values())
        posts = {p.name: p for p in _verify_posts(ana, RepFunction(rep), KreinProduct(ana.gamma))}
        assert not posts["g_positive_on_omega"].passed
        assert posts["g_positive_on_omega"].residual == 1.0

    def test_merged_ends_built_once(self, monkeypatch):
        # k_Γ's table and post 4's σ(k_Γ) read one merge of Γ's ends
        calls = []
        merge = krein._merged_ends
        monkeypatch.setattr(krein, "_merged_ends", lambda o: calls.append(o) or merge(o))
        rep = NevanlinnaRep(0.5, 0.3, Measure(atoms=((-1.0, 1.0), (0.5, 0.4), (2.0, 1.5))))
        res = factorize(RepFunction(rep))
        assert res.ok and calls == [res.gamma]

    def test_zero_merged_with_the_next_pole(self):
        # f's zero in (0, 1) lies within POINT_TOL of the atom at 1, so Γ =
        # (0, −2e13) runs through it and k_Γ has no pole there; post 4 counts
        # the atom whose pole that zero cancels, and the constant's bound the
        # zero it stands for
        rep = NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0), (1.0, 5e-14))))
        res = factorize(RepFunction(rep))
        assert res.ok and res.k.structure.sigma.points == (0.0,)
        assert len(res.gamma.arcs) == 1 and res.gamma.arcs[0].b == 0.0
        # a Γ missing that arc still fails post 4
        ana = analyze(rep)
        assert not self._posts(AnalysisResult(ana.sigma, EMPTY, ana.zeros),
                               NevanlinnaRep(0.0, res.constant))["omega_intersection"]


class TestConstantBound:
    """The corollary's constant for an atomic f: c = |f(i)| in closed form and
    a residual bounded from the zeros' radii; neither f nor k_Γ is evaluated."""

    @settings(max_examples=60, deadline=None)
    @given(corollary_reps(), st.lists(st.tuples(st.floats(-25.0, 25.0), st.floats(0.2, 5.0)),
                                      min_size=1, max_size=5))
    # a zero past the float range; a zero at ∞ where β′ = 0 in floats (it lies near 1.1e17)
    @example(NevanlinnaRep(0.0, 5e-324, Measure(atoms=((0.0, 1.0),))), [(1.0, 0.2)])
    @example(NevanlinnaRep(0.0, 0.1 * 3.0, Measure(atoms=((0.1, 3.0),))), [(1.0, 0.2)])
    def test_residual_bounds_the_deviation(self, rep, points):
        res = factorize(RepFunction(rep))
        grid = _CONSTANT_GRID[1:].tolist()
        assert max(mp_deviation(rep, res.gamma, res.constant, z) for z in grid) \
            <= res.constant_residual <= 1e-9
        # read at distance 0.2 from each zero, the bound holds wherever Im z ≥ 0.2
        zeros = analyze(rep).zeros
        if all(not is_inf(e) and r < 0.1 for e, r in zeros):
            near = math.expm1(2.0 * EPS + math.fsum(r / (0.2 - r) + r / (math.hypot(1.0, e) - r)
                                                    for e, r in zeros)) * (1.0 + 4.0 * EPS)
            for x, y in points:
                assert mp_deviation(rep, res.gamma, res.constant, complex(x, y)) <= near

    @settings(max_examples=100, deadline=None)
    @given(corollary_reps())
    @example(NevanlinnaRep(0.0, -1e-310))
    def test_constant_is_f_at_i_within_two_eps(self, rep):
        c = factorize(RepFunction(rep)).constant
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            want = abs(mp_atomic(rep, 1j, True))
            assert abs(c - want) <= 2.0 * EPS * want

    def test_atomic_paths_evaluate_neither_f_nor_k(self, monkeypatch):
        calls = []
        for cls in (NevanlinnaRep, KreinProduct):
            monkeypatch.setattr(cls, "eval", lambda self, *args, _cls=cls, _eval=cls.eval, **kw:
                                calls.append(_cls.__name__) or _eval(self, *args, **kw))
        f = RepFunction(NevanlinnaRep(0.4, -1.2, Measure(atoms=((-3.0, 0.8), (0.5, 1.1),
                                                                 (4.0, 0.6)))))
        res = factorize(f)
        divide_single(f, res.gamma.arcs[1])
        constant_factor_check(f)
        assert res.ok and calls == []

    def test_many_atoms_certify(self):
        # 64 and 128 atoms across (−16, 16), α from 0; 256 and 1024 across
        # (−1, 1); 512 across (−50, 50): none refused, each within its bound
        reps = [spread_rep(np.random.default_rng(seed), n, 16.0)
                for seed in range(40) for n in (64, 128, 128)]
        reps += [spread_rep(np.random.default_rng(n), n, half)
                 for n, half in ((256, 1.0), (1024, 1.0), (512, 50.0))]
        for rep in reps:
            res = factorize(RepFunction(rep))
            assert res.ok and res.constant_residual <= 1e-9

    def test_merged_ends_are_bounded(self):
        # a zero merged with the next pole, atoms within POINT_TOL, a piece
        # that is all of σ: the residual still bounds the deviation
        for rep in (NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0), (1.0, 5e-14)))),
                    NevanlinnaRep(0.5, 0.0, Measure(atoms=((0.0, 1.0), (5e-13, 1.0),
                                                           (9e-13, 2.0), (2.0, 1.0)))),
                    NevanlinnaRep(0.0, 0.3, Measure(atoms=((0.0, 1.0), (5e-13, 1.0))))):
            f = RepFunction(rep)
            ana = analyze(rep)
            c, resid = _constant_certificate(f, ana, KreinProduct(ana.gamma))
            assert max(mp_deviation(rep, ana.gamma, c, z) for z in _CONSTANT_GRID[1:].tolist()) \
                <= resid <= 1e-9

    @pytest.mark.parametrize("beta", [-1e-310, -5e-324])
    def test_subnormal_constant(self, beta):
        # the grid's fv/(c·k) overflowed for a subnormal c: refused with residual inf
        res = factorize(RepFunction(NevanlinnaRep(0.0, beta)))
        assert res.ok and res.gamma.full and res.constant == -beta

    def test_subnormal_composite_constant(self):
        # the grid divides by k, then by c: fv/k keeps about 13 digits at c = 1e-310
        res = factorize(CompositeFunction(1e-310, KreinProduct(ArcSet((Arc(0.0, 1.0),)))))
        assert res.ok and res.constant == pytest.approx(1e-310, rel=1e-12)

    def test_constant_that_is_no_float_is_refused(self):
        # −1/z, but NaN at i: no constant g holds |f(i)|, and it certifies
        # nothing; a certification failure, not the ValueError of the rep
        f = BlackBoxFunction(lambda z: complex(math.nan, math.nan) if z == 1j else -1 / z,
                             SigmaDescriptor(points=(0.0,)))
        with pytest.raises(CertificationError, match=r"the constant \|f\(i\)\| = nan "
                                                     "is not finite"):
            factorize(f)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("f, c", [
        (BlackBoxFunction(lambda z: math.inf if z == 1j else -1 / z,
                          SigmaDescriptor(points=(0.0,))), "inf"),
        (BlackBoxFunction(lambda z: 0j if z == 1j else -1 / z,
                          SigmaDescriptor(points=(0.0,))), "0.0"),
        # e^800 overflows at i, and inf·k(i) is NaN
        (CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 1)])), ExpRep(800.0)), "nan"),
    ], ids=["inf-at-i", "zero-at-i", "exp-past-the-floats"])
    def test_constant_past_the_floats_is_refused_without_a_warning(self, f, c):
        # the grid divided by c (numpy "invalid value" or "divide by zero")
        # or overflowed in e^h, and the warning was raised in the refusal's place
        refusal = rf"the constant \|f\(i\)\| = {c} is not finite and positive"
        with pytest.raises(CertificationError, match=refusal):
            factorize(f)
        with pytest.raises(CertificationError, match=refusal):
            constant_factor_check(f)

    @pytest.mark.parametrize("c", [1e-320, 5e-324])
    def test_composite_constant_with_too_few_bits_is_refused(self, c):
        # the composite's values carry a few bits at most: the grid sees it
        with pytest.raises(CertificationError, match="constant_factor"):
            factorize(CompositeFunction(c, KreinProduct(ArcSet((Arc(0.0, 1.0),)))))


class TestConstantCheck:
    def test_examples(self):
        assert constant_factor_check(
            RepFunction(NevanlinnaRep(2.0, 0.0))) == pytest.approx(2.0)
        assert constant_factor_check(RepFunction(
            NevanlinnaRep(0.0, 0.0, Measure(atoms=((0.0, 1.0),))))
        ) == pytest.approx(1.0)

    def test_measure_zero_required(self):
        rep = NevanlinnaRep(0.0, 0.0, Measure(ac=((0.0, 1.0, 1.0),)))
        with pytest.raises(ValueError):
            constant_factor_check(RepFunction(rep))

    def test_nan_residual_is_refused(self):
        # −1/z, but NaN above the line right of 4: the grid's residual is NaN,
        # which `resid > 1e-9` let through with c = 1
        f = BlackBoxFunction(lambda z: complex(math.nan, math.nan) if z.imag > 0 and z.real > 4
                             else -1 / z, SigmaDescriptor(points=(0.0,)))
        with pytest.raises(CertificationError, match="residual nan"):
            constant_factor_check(f)

    def test_random(self, rng):
        for _ in range(10):
            rep = random_atomic_rep(rng, 8)
            c = constant_factor_check(RepFunction(rep))
            assert c == pytest.approx(abs(rep.eval(1j)))


class TestExpRep:
    def test_trivial(self):
        e = ExpRep(0.0, ())
        assert e.h(1j) == 0 and e(1j) == 1

    def test_half_density_angle(self):
        e = ExpRep(0.0, ((-1.0, 1.0, 0.5),))
        h = e.h(1j)
        assert h.imag == pytest.approx(math.pi / 4, abs=1e-13)

    def test_full_line_saturates_pi(self):
        e = ExpRep(0.0, ((-INF, INF, 1.0),))
        h = e.h(0.3 + 2j)
        assert h.imag == pytest.approx(math.pi, abs=1e-13)
        # e^h = p_J = −1: a composite keeps it as the product's arc
        comp = CompositeFunction(1.0, KreinProduct(EMPTY), e)
        assert comp.product.arcs == normalize([Arc(INF, INF, puncture=True)])
        assert comp.exp.pieces == () and comp(0.3 + 2j) == -1.0

    def test_imag_in_open_interval(self, rng):
        for _ in range(20):
            l, r = sorted(rng.uniform(-5, 5, size=2))
            if r - l < 0.2:
                continue
            psi = float(rng.uniform(0.05, 0.95))
            e = ExpRep(float(rng.uniform(-1, 1)), ((l, r, psi),))
            for z in random_upper_points(rng, 10):
                im = complex(e.h(z)).imag
                assert 0.0 < im < math.pi

    def test_positive_on_real_axis_off_pieces(self):
        e = ExpRep(0.3, ((-1.0, 1.0, 0.5),))
        for x in (-4.0, 2.0, 7.5):
            assert e(x) > 0

    def test_psi_validation(self):
        with pytest.raises(ValueError):
            ExpRep(0.0, ((0.0, 1.0, 1.5),))
        with pytest.raises(ValueError):
            ExpRep(0.0, ((0.0, 1.0, 0.5), (0.5, 2.0, 0.5)))

    @pytest.mark.parametrize("l, r", [(2.0, 1.0), (1.0, 1.0), (INF, 2.0), (3.0, -INF),
                                      (-INF, -INF)])
    def test_piece_that_is_no_interval_is_refused(self, l, r):
        # (2, 1) was read as an arc through ∞ while σ reported [2, 1]: the
        # composite failed omega_g_regular in place of refusing the input
        with pytest.raises(ValueError, match="is no interval l < r"):
            ExpRep(0.0, ((l, r, 0.5),))


@st.composite
def composite_layouts(draw):
    """(O, generator, free, taken): the pairs of neighbours among up to 10
    points a tenth apart or more (the first may be −∞, the last +∞) split
    into arcs of O, at most one finite generator base, and free pairs; taken
    are the pairs of O and of the base."""
    xs = sorted(draw(st.lists(st.integers(-80, 80), min_size=3, max_size=10, unique=True)))
    pts = [x / 10.0 for x in xs]
    if draw(st.booleans()):
        pts.insert(0, -INF)
    if draw(st.booleans()):
        pts.append(INF)
    pairs = list(zip(pts, pts[1:]))
    kinds = draw(st.lists(st.sampled_from(["arc", "free"]), min_size=len(pairs),
                          max_size=len(pairs)))
    finite = [k for k, (l, r) in enumerate(pairs) if -INF < l and r < INF]
    base = draw(st.one_of(st.none(), st.sampled_from(finite)))
    if base is None and "arc" not in kinds:
        kinds[0] = "arc"
    cantor = None if base is None else CantorComplement(pairs[base], 3)
    o = normalize([Arc(l, r) for k, (l, r) in enumerate(pairs) if kinds[k] == "arc" and k != base])
    taken = [pair for k, pair in enumerate(pairs) if kinds[k] == "arc" or k == base]
    free = [pair for k, pair in enumerate(pairs) if kinds[k] == "free" and k != base]
    return o, cantor, free, taken


class TestCompose:
    def test_basic(self, rng):
        comp = compose_in_class(normalize([Arc(0, 1)]),
                                ExpRep(0.0, ((2.0, 3.0, 0.5),)))
        for z in random_upper_points(rng, 30):
            assert comp(z).imag >= -1e-12

    def test_empty_trivial(self):
        comp = compose_in_class(EMPTY, ExpRep(0.0, ()))
        assert comp(1j) == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            compose_in_class(normalize([Arc(0, 1)]),
                             ExpRep(0.0, ((0.5, 0.7, 0.5),)))

    @settings(max_examples=150, deadline=None)
    @given(composite_layouts(), st.sampled_from([0.3, 0.9, 1.0]), st.data())
    def test_overlap_rule(self, layout, psi, data):
        # the composite refuses a ψ > 0 piece that overlaps O or the base of
        # O's generator, where O is dense, and takes pieces that meet them in
        # their ends; a ψ = 0 piece over either is the factor 1
        o, cantor, free, taken = layout
        product = KreinProduct(o, cantor, tol=1e-2)
        pieces = tuple((l, r, psi) for l, r in free)
        f = CompositeFunction(1.0, product, ExpRep(0.0, pieces))
        assert len(f.exp.pieces) == (0 if psi == 1.0 else len(free))
        l, r = data.draw(st.sampled_from(taken))
        u = 0.5 * (l + r) if -INF < l < r < INF else (r - 1.0 if l == -INF else l + 1.0)
        over = (u - 0.01, u + 0.01)
        assert CompositeFunction(1.0, product, ExpRep(0.0, ((*over, 0.0),))).exp.pieces == ()
        with pytest.raises(ValueError, match=re.escape(
                f"exponent piece {Arc(*over)!r} overlaps the product set")):
            CompositeFunction(1.0, product, ExpRep(0.0, ((*over, psi),)))


class TestPsiRecover:
    def test_constant_half(self):
        g = ExpRep(0.0, ((-1.0, 1.0, 0.5),))
        assert psi_recover(g, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_one_is_zero_everywhere_else(self):
        g = ExpRep(0.0, ((0.0, 1.0, 0.25),))
        assert psi_recover(g, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_trivial(self):
        g = ExpRep(0.0, ())
        assert psi_recover(g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_piece_values(self, rng):
        for psi in (0.2, 0.5, 0.8):
            g = ExpRep(0.0, ((-2.0, -0.5, psi), (1.0, 3.0, 0.6),))
            assert psi_recover(g, -1.2) == pytest.approx(psi, abs=1e-4)
            assert psi_recover(g, 2.0) == pytest.approx(0.6, abs=1e-4)


class TestAnalyzeDispatch:
    def test_composite(self):
        comp = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 1)])),
                                 ExpRep(0.0, ((2.0, 3.0, 0.5),)))
        ana = analyze_pick(comp)
        assert ana.gamma.isclose(normalize([Arc(0, 1)]))
        assert ana.sigma.contains(0.0) and ana.sigma.contains(2.5)
        assert not ana.sigma.contains(5.0)

    # σ of f = 1/(0 − z) + 1/(1 − z) as a black box declares it: its poles,
    # and an interval where f is analytic and positive, which leaves Γ alone
    # and gives σ positive measure, so that f factors through a quotient
    QUOTIENT_SIGMA = SigmaDescriptor(points=(0.0, 1.0), intervals=((-3.0, -2.0),))

    def test_refused_sample_points_are_counted(self):
        # f refuses the real points k/25 of (0, 1), which the g > 0 samples
        # of a quotient hit and the Γ sweep does not
        def fn(z):
            if z.imag == 0 and 0 < z.real < 1 and abs(25 * z.real - round(25 * z.real)) < 1e-9:
                raise ValueError("refused")
            return 1 / (0 - z) + 1 / (1 - z)

        res = factorize(BlackBoxFunction(fn, self.QUOTIENT_SIGMA))
        assert res.g.label == "quotient"
        post = next(p for p in res.posts if p.name == "g_positive_on_omega")
        assert post.passed and post.note == "24 of 62 sample points refused"
        assert res.gamma.isclose(normalize([Arc(0.0, 0.5), Arc(1.0, INF)]), 1e-9)

    def test_other_exceptions_propagate(self):
        # a TypeError is a fault of the evaluator, not a refused point: the
        # points of test_refused_sample_points_are_counted raise it here
        def fn(z):
            if z.imag == 0 and 0 < z.real < 1 and abs(25 * z.real - round(25 * z.real)) < 1e-9:
                raise TypeError("a fault")
            return 1 / (0 - z) + 1 / (1 - z)

        with pytest.raises(TypeError, match="a fault"):
            factorize(BlackBoxFunction(fn, self.QUOTIENT_SIGMA))

    def test_blackbox_requires_sigma(self):
        with pytest.raises(ValueError):
            analyze_pick(BlackBoxFunction(lambda z: z))

    def test_blackbox_gamma(self):
        ana = analyze_pick(SQRT_BB)
        assert ana.gamma.isclose(normalize([Arc(INF, -1.0)]), 1e-9)

    def test_blackbox_zero_end_to_the_ulp(self):
        # f = −1/(z − 2) + 0.3z − 0.5 vanishes at 0 and 11/3; the zero end
        # right of 2 is a secant step of the root kernel's tables, not the
        # midpoint of a bisected bracket (about 5,800 ulps off)
        fn = lambda z: -1 / (z - 2) + 0.3 * z - 0.5
        ana = analyze_pick(BlackBoxFunction(fn, SigmaDescriptor(points=(2.0,), has_inf=True)))
        end = next(arc.a for arc in ana.gamma.arcs if arc.b == 2.0)
        assert abs(end - 11 / 3) <= 4 * math.ulp(11 / 3)

    @pytest.mark.parametrize("fn, zero", [(lambda z: z - 1.0, 1.0),
                                          (lambda z: 2.0 * z + 5.0, -2.5),
                                          (lambda z: z + 1e3, -1e3)],
                             ids=["z-1", "2z+5", "z+1e3"])
    def test_blackbox_gamma_sigma_at_infinity(self, fn, zero):
        # σ = {∞}: Ω is the line punctured at ∞, sampled from −∞ to +∞
        ana = analyze_pick(BlackBoxFunction(fn, SigmaDescriptor((), (), True)))
        assert ana.gamma.isclose(normalize([Arc(INF, zero)]), 1e-9)

    @pytest.mark.parametrize("shift, zero", [(0.0, INF), (-1e-9, 1.0 - 1e9),
                                             (1e-9, 1.0 + 1e9), (-1e-13, 1.0 - 1e13),
                                             (1e-13, 1.0 + 1e13)],
                             ids=["0", "-1e-9", "+1e-9", "-1e-13", "+1e-13"])
    def test_blackbox_gamma_across_infinity(self, shift, zero):
        # Ω is the line punctured at 1; the sweep's sign flip falls between
        # its last samples on either side of ∞, and the zero lies at ∞ or
        # beyond them (at ±1e13 so far out that the chart s = −1/(x − c)
        # brackets it together with ∞)
        fn = lambda z: -1.0 / (z - 1.0) + shift
        ana = analyze_pick(BlackBoxFunction(fn, SigmaDescriptor((1.0,), (), False)))
        (arc,) = ana.gamma.arcs
        assert arc.b == 1.0
        if zero == INF:
            assert arc.a == INF
        else:
            assert abs(arc.a - zero) <= 1e-11 * abs(zero)


# f = −1/(z − 2) + 0.3z − 0.5 and −1/z − 1/(z − 1), black boxes whose σ
# holds points only
POINT_BOXES = [BlackBoxFunction(lambda z: -1 / (z - 2) + 0.3 * z - 0.5,
                                SigmaDescriptor(points=(2.0,), has_inf=True)),
               BlackBoxFunction(lambda z: -1 / z - 1 / (z - 1), SigmaDescriptor(points=(0.0, 1.0)))]


class TestPointSigmaBlackBox:
    """A black box whose σ has measure zero is c·k_Γ by the corollary: it
    factors to its certified constant and divides as a composite."""

    @pytest.mark.parametrize("f", POINT_BOXES, ids=["pole-and-infinity", "two-poles"])
    def test_division_is_a_composite(self, f):
        zs = halton_box(30, -6.0, 6.0, 0.05, 4.0)  # off the constant's grid
        for j in analyze_pick(f).gamma.arcs:
            g = divide_single(f, j)
            assert isinstance(g, CompositeFunction)
            want = np.array([f.fn(z) for z in zs.tolist()]) / p_eval(j, zs)
            assert np.max(np.abs(g(zs) - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("f", POINT_BOXES, ids=["pole-and-infinity", "two-poles"])
    def test_factorization_posts_are_structural(self, f):
        res = factorize(f)
        assert res.ok and isinstance(res.g, RepFunction)
        assert res.g.rep.beta == res.constant
        assert all("not structurally checkable" not in p.note for p in res.posts)

    @pytest.mark.parametrize("value, gamma", [(-2.0, FULL), (3.0, EMPTY)])
    def test_empty_sigma(self, value, gamma):
        # Ω is the whole line: the sign of f at one point decides Γ, and f is
        # the constant |f|·k_Γ
        f = BlackBoxFunction(lambda z: value, SigmaDescriptor())
        assert analyze_pick(f).gamma == gamma
        res = factorize(f)
        assert res.ok and res.gamma == gamma and res.constant == abs(value)


@st.composite
def mixed_composites(draw):
    """(c, O, γ, pieces): the arcs of O and ψ pieces between neighbours of up
    to 12 points a tenth apart or more, each pair an arc of O, a piece with
    ψ = 0, ψ = 1 or 0 < ψ < 1, or a gap; so ψ = 1 pieces share ends with arcs
    of O.  The first pair may start at −∞ and the last may end at +∞."""
    xs = sorted(draw(st.lists(st.integers(-80, 80), min_size=2, max_size=12, unique=True)))
    pts = [x / 10.0 for x in xs]
    if draw(st.booleans()):
        pts.insert(0, -INF)
    if draw(st.booleans()):
        pts.append(INF)
    arcs, pieces = [], []
    for l, r in zip(pts, pts[1:]):
        kind = draw(st.sampled_from(["arc", "zero", "one", "between", "gap"]))
        if kind == "arc":
            arcs.append(Arc(l, r))
        elif kind != "gap":
            psi = {"zero": 0.0, "one": 1.0}.get(kind) or draw(st.floats(0.05, 0.95))
            pieces.append((l, r, psi))
    return (draw(st.floats(0.2, 5.0)), normalize(arcs), draw(st.floats(-1.0, 1.0)),
            tuple(pieces))


upper_points = st.lists(st.tuples(st.floats(-9.0, 9.0), st.floats(0.05, 5.0)),
                        min_size=1, max_size=5)


class TestCanonicalComposite:
    """c·k_O·e^h with ψ = 1 pieces read into O and ψ = 0 pieces dropped."""

    def test_saturated_piece_joins_gamma(self):
        # e^{log p_J} = p_J: f < 0 on J = (1.5, 2.5), whose pole end is in σ
        f = CompositeFunction(2.0, KreinProduct(normalize([Arc(0, 1)])),
                              ExpRep(0.1, ((1.5, 2.5, 1.0),)))
        assert f(2 + 1e-12j).real < 0
        res = factorize(f)
        assert res.gamma == normalize([Arc(0, 1), Arc(1.5, 2.5)])
        assert analyze_pick(f).sigma == SigmaDescriptor(points=(0.0, 1.5))
        assert res.constant == pytest.approx(2.0 * math.exp(0.1), rel=1e-15)
        assert res.constant_residual <= 1e-9
        assert all(p.passed and p.note == "" for p in res.posts if p.name != "constant_factor")

    def test_saturated_piece_merges_with_an_arc_at_a_shared_end(self):
        f = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 1)])),
                              ExpRep(0.0, ((1.0, 1.5, 1.0), (3.0, INF, 1.0))))
        ana = analyze_pick(f)
        assert ana.gamma == normalize([Arc(0, 1.5), Arc(3.0, INF)])
        assert ana.sigma == SigmaDescriptor(points=(0.0, 3.0))
        assert f(1.0) < 0  # the shared end is neither pole nor zero
        assert factorize(f).ok

    def test_zero_piece_is_dropped(self):
        f = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 1)])),
                              ExpRep(0.2, ((2.0, 3.0, 0.0),)))
        assert f.exp.pieces == () and f(2.5) > 0
        ana = analyze_pick(f)
        assert ana.gamma == normalize([Arc(0, 1)])
        assert ana.sigma == SigmaDescriptor(points=(0.0,))
        assert factorize(f).constant == pytest.approx(math.exp(0.2), rel=1e-15)

    def test_saturated_piece_overlapping_the_set_is_refused(self):
        with pytest.raises(ValueError, match="overlaps the product set"):
            CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 2)])),
                              ExpRep(0.0, ((1.0, 3.0, 1.0),)))

    @settings(max_examples=100, deadline=None)
    @given(mixed_composites(), upper_points)
    def test_reconstruction(self, case, points):
        # f = k_Γ·g against c·k_O·e^h with the pieces as drawn
        c, o, gamma, pieces = case
        f = CompositeFunction(c, KreinProduct(o), ExpRep(gamma, pieces))
        res = factorize(f)
        assert all(p.passed and "not structurally" not in p.note for p in res.posts)
        for l, r, psi in pieces:
            arc = Arc(l, r, puncture=math.isinf(l) and math.isinf(r))
            assert arcset_contains_arc(res.gamma, arc) == (psi == 1.0)
        assert res.constant is None or res.constant_residual <= 1e-9
        raw = ExpRep(gamma, pieces)
        for x, y in points:
            z = complex(x, y)
            want = c * KreinProduct(o)(z) * raw(z)
            assert abs(res.k(z) * res.g(z) - want) <= 1e-12 * abs(want)

    @settings(max_examples=60, deadline=None)
    @given(mixed_composites())
    def test_argument_bound(self, case):
        # the grid that certified compose_in_class: arg(k_O·e^v) ≤ π, as the
        # angles of disjoint arcs sum to at most π
        _, o, gamma, pieces = case
        comp = compose_in_class(o, ExpRep(gamma, pieces))
        zs = halton_box(1000, -10.0, 10.0, 1e-3, 10.0)
        arcs = comp.product.arcs
        logs = log_factors((Arc(INF, INF, puncture=True),) if arcs.full else arcs.arcs, zs)[0]
        assert np.max(logs.imag.sum(axis=-1) + comp.exp.h(zs).imag) <= math.pi + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(mixed_composites(), st.integers(0, 11), st.booleans())
    def test_quotient_stays_in_the_class(self, case, pick, inner):
        # the grid that certified a composite quotient: Im g ≥ 0
        c, o, gamma, pieces = case
        f = CompositeFunction(c, KreinProduct(o), ExpRep(gamma, pieces))
        arcs = analyze_pick(f).gamma.arcs
        if not arcs:
            return
        j = arcs[pick % len(arcs)]
        if inner and j.bounded:
            j = Arc(j.b + j.length() / 3, j.a - j.length() / 3)
        g = divide_single(f, j)
        zs = halton_box(200, -10.0, 10.0, 1e-3, 10.0)
        assert np.min(g(zs).imag) >= -1e-9
        assert np.max(np.abs(g(zs) * p_eval(j, zs) - f(zs)) / np.abs(f(zs))) <= 1e-12

    @pytest.mark.parametrize("j", [Arc(0, 1), Arc(1, 0), Arc(INF, -2.0), Arc(3.0, INF)])
    def test_quotient_of_the_full_circle(self, j):
        # k_FULL = −1 = p_J·p_J′, J′ the complement of J's closure, so f/p_J
        # is the composite c·p_J′ (c·e^h·p_J′ with an exponent)
        f = CompositeFunction(1.5, KreinProduct(FULL))
        g = divide_single(f, j)
        assert isinstance(g, CompositeFunction) and g.c == 1.5
        assert g.product.arcs == normalize([Arc(j.a, j.b)])
        zs = halton_box(50, -10.0, 10.0, 1e-3, 10.0)
        assert np.max(np.abs(g(zs) * p_eval(j, zs) - f(zs))) <= 1e-12 * 1.5
        assert np.min(g(zs).imag) >= 0.0
        assert factorize(g).ok


class TestCompositePosts:
    """Each structural post fails on a g that breaks it."""

    F = CompositeFunction(2.0, KreinProduct(normalize([Arc(0, 1)])),
                          ExpRep(0.1, ((1.5, 2.5, 0.5),)))

    def posts(self, g, ana=None):
        ana = ana or analyze_pick(self.F)
        return {p.name: p for p in _verify_posts(ana, g, KreinProduct(ana.gamma))}

    def test_cofactor_passes_structurally(self):
        res = factorize(self.F)
        assert isinstance(res.g, CompositeFunction)
        assert all(p.passed and p.residual == 0.0 and p.note == "" for p in res.posts)

    def test_piece_outside_sigma(self):
        g = CompositeFunction(2.0, KreinProduct(EMPTY), ExpRep(0.1, ((1.5, 2.5, 0.5),
                                                                     (5.0, 6.0, 0.5))))
        post = self.posts(g)["sigma_subset"]
        assert not post.passed and post.residual == pytest.approx(6.0 - 2.5)

    def test_half_line_piece_reaching_out_of_sigma(self):
        f = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 1)])),
                              ExpRep(0.0, ((-INF, -3.0, 0.5),)))
        g = CompositeFunction(1.0, KreinProduct(EMPTY), ExpRep(0.0, ((-INF, -2.0, 0.5),)))
        assert not self.posts(g, analyze_pick(f))["sigma_subset"].passed
        assert self.posts(factorize(f).g, analyze_pick(f))["sigma_subset"].passed

    def test_g_with_a_negativity_set(self):
        g = CompositeFunction(2.0, KreinProduct(normalize([Arc(0, 1)])), self.F.exp)
        assert not self.posts(g)["g_positive_on_omega"].passed

    def test_g_with_an_isolated_singular_point(self):
        # the pole at 0 of a product left in g is an isolated point of σ(g)
        g = CompositeFunction(2.0, KreinProduct(normalize([Arc(0, 1)])), self.F.exp)
        assert not self.posts(g)["omega_g_regular"].passed

    def test_gamma_missing_an_arc(self):
        ana = analyze_pick(self.F)
        posts = self.posts(factorize(self.F).g, AnalysisResult(ana.sigma, EMPTY))
        assert not posts["omega_intersection"].passed and posts["sigma_subset"].passed
