import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfplane.extreal import Arc, ArcSet, EMPTY, INF, is_inf, normalize
from halfplane.factor import (BlackBoxFunction,
                              CompositeFunction, ExpRep, RepFunction,
                              _verify_posts, analyze_pick, compose_in_class,
                              constant_factor_check, divide_single,
                              factorize, psi_recover)
from halfplane.krein import KreinProduct, p_eval
from halfplane.nevanlinna import (AnalysisResult, Measure, NevanlinnaRep,
                                  SigmaDescriptor, analyze)

from conftest import random_atomic_rep, random_upper_points
from test_krein import _mp_krein


def sqrt_branch(z):
    # z + sqrt(z^2 - 1), the branch positive to the right of 1
    z = complex(z)
    return z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)


SQRT_BB = BlackBoxFunction(sqrt_branch,
                           SigmaDescriptor(intervals=((-1.0, 1.0),), has_inf=True))


class TestDivideSingle:
    def test_identity_map(self):
        f = RepFunction(NevanlinnaRep(1.0, 0.0))
        g = divide_single(f, Arc(INF, 0.0))
        assert isinstance(g, RepFunction)
        for z in (1j, 2 + 3j):
            assert abs(g(z) - 1.0) < 1e-12

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
        # the last zero, near 2.3e4, moves by 2.7e-9 under the chain: an
        # absolute endpoint tolerance refused the 7th division
        rep = self.far_chain_rep(170)
        g = RepFunction(rep)
        for arc in analyze_pick(g).gamma.arcs:
            g = divide_single(g, arc)
        assert not g.rep.rho.atoms and g.rep.alpha == 0.0
        assert g.rep.beta == pytest.approx(abs(rep.eval(1j)), rel=1e-9)

    def test_chain_zero_next_to_close_atoms(self):
        # the 4th arc ends at a zero where f' ≈ 4e10: the roundoff of that
        # end left a dust atom of weight 3.5e-13, and analysing the quotient
        # then failed inside its root bracketing; the dust is dropped, and
        # the division it perturbed is refused with the arc named
        g = RepFunction(self.far_chain_rep(275))
        arcs = analyze_pick(g).gamma.arcs
        for arc in arcs[:4]:
            g = divide_single(g, arc)
        assert all(abs(t - float(arcs[3].a)) > 1e-6 for t, _ in g.rep.rho.atoms)
        with pytest.raises(ValueError, match=re.escape(repr(arcs[4]))):
            divide_single(g, arcs[4])

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
        comp = CompositeFunction(1.0, KreinProduct(normalize([Arc(0, 2)])),
                                 ExpRep(0.0, ((1.0, 3.0, 0.5),)))
        with pytest.raises(ValueError):
            analyze_pick(comp)

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


def mp_atomic(rep, z):
    """f(z) = αz + β + Σ w(1 + zt)/(t − z) in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        z = mp.mpmathify(z)
        return complex(rep.alpha * z + rep.beta
                       + mp.fsum(w * (1 + z * t) / (t - z) for t, w in rep.rho.atoms))


class TestCorollary:
    """f = |f(i)|·k_Γ when σ(f) has measure zero (atomic f)."""

    @settings(max_examples=60, deadline=None)
    @given(corollary_reps(), st.lists(st.tuples(st.floats(-25.0, 25.0), st.floats(0.5, 5.0)),
                                      min_size=1, max_size=5))
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

    @staticmethod
    def _posts(ana, g):
        return {p.name: p.passed for p in _verify_posts(ana, RepFunction(g))}

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
        assert e.saturated_pieces()

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

    def test_blackbox_requires_sigma(self):
        with pytest.raises(ValueError):
            analyze_pick(BlackBoxFunction(lambda z: z))

    def test_blackbox_gamma(self):
        ana = analyze_pick(SQRT_BB)
        assert ana.gamma.isclose(normalize([Arc(INF, -1.0)]), 1e-9)

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
