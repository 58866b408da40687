"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured residuals; run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines inline).
"""

import cmath
import math
import time

import numpy as np

from halfplane.extreal import (Arc, INF, angle_subtended, arc_ends, normalize,
                               points_equal)
from halfplane.factor import (BlackBoxFunction, ExpRep, RepFunction,
                              analyze_pick, compose_in_class, factorize,
                              psi_recover)
from halfplane.interp import (InterlacingError, InterpProblem, build_function,
                              check_interlacing, construct_O, disk_interpolate)
from halfplane.krein import (KreinProduct, cantor_complement_product,
                             equivariance_transport, log_p, p_eval)
from halfplane.nevanlinna import (Measure, SigmaDescriptor,
                                  boole_superlevel_measure,
                                  letac_pushforward_check, recover_alpha,
                                  recover_atom, recover_beta,
                                  stieltjes_density_limit)
from halfplane.util import halton

from conftest import (k_integral, random_arcset, random_atomic_rep, random_auto,
                      random_bounded_arcset, random_upper_points, sep_points)

RNG = np.random.default_rng(0xACCE97)


def report(num, name, **details):
    txt = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in details.items())
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({txt})")


def test_criterion_01_krein_factor_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_explog, worst_norm = 0.0, 0.0
    neg_samples = 0
    for k in range(1000):
        j = random_arcset(rng, 1).arcs[0]
        z = complex(rng.uniform(-6, 6), rng.uniform(0.05, 6))
        worst_explog = max(worst_explog, abs(cmath.exp(log_p(j, z)) - p_eval(j, z)))
        worst_norm = max(worst_norm, abs(abs(p_eval(j, 1j)) - 1.0))
        if k % 10 == 0:
            # interior samples of J must be negative
            for u in (0.2, 0.7):
                if j.is_wrap:
                    x = float(j.b) + u if u < 0.5 else float(j.a) - u
                elif j.b == INF:
                    x = float(j.a) - 1.0 - u
                elif j.a == INF:
                    x = float(j.b) + 1.0 + u
                else:
                    x = float(j.b) + u * (float(j.a) - float(j.b))
                assert p_eval(j, x) < 0
                neg_samples += 1
    elapsed = time.perf_counter() - t0
    assert worst_explog <= 1e-12
    assert worst_norm <= 1e-12
    assert neg_samples >= 100
    assert elapsed < 1.0
    report(1, "krein factor identities", explog=worst_explog, norm=worst_norm,
           negative_samples=neg_samples, seconds=elapsed)


def test_criterion_02_merging_identity():
    k = KreinProduct(normalize([Arc(1, 2), Arc(2, 3)]))
    worst = 0.0
    for n in range(1, 101):
        z = complex(-8 + 16 * halton(n, 2), 0.05 + 8 * halton(n, 3))
        worst = max(worst, abs(k(z) - p_eval(Arc(1, 3), z)))
    assert worst <= 1e-12
    report(2, "merging identity k_{(1,2)u(2,3)} = p_(1,3)", residual=worst)


def test_criterion_03_cantor_product():
    t0 = time.perf_counter()
    k = cantor_complement_product((0, 1), depth=24, tol=1e-3)
    worst_gap, worst_tail = 0.0, 0.0
    for z in (1j, 2j, 1 + 1j):
        # convergence toward -1 across depths, certified at each step
        errs = []
        for depth in (6, 10, 14):
            val, tail = k.eval_at_depth(z, depth)
            assert abs(val + 1.0) <= tail
            errs.append(abs(val + 1.0))
        assert errs[-1] < errs[0]
        # adaptive evaluation: certificate reaches 1e-3 and still bounds
        val, tail = k.eval(z)
        assert tail <= 1e-3
        assert abs(val + 1.0) <= tail
        worst_gap = max(worst_gap, abs(val + 1.0))
        worst_tail = max(worst_tail, tail)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "cantor complement product -> -1", gap=worst_gap,
           certificate=worst_tail, seconds=elapsed)


def test_criterion_04_angle_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        o = random_arcset(rng)
        z = complex(rng.uniform(-6, 6), rng.uniform(0.05, 5))
        ang = angle_subtended(o, z)
        assert ang <= math.pi + 1e-12
        val = KreinProduct(o)(z)
        phase = cmath.phase(val)
        if phase < -1e-9:
            phase += 2 * math.pi  # arg just past π wraps negative
        worst = max(worst, abs(phase - ang))
    assert worst <= 1e-10
    report(4, "arg k = subtended angle", residual=worst)


def test_criterion_05_integral_vs_product():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        o = random_bounded_arcset(rng, 3)
        z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 4))
        worst = max(worst, abs(k_integral(o, z) - KreinProduct(o)(z)))
    assert worst <= 1e-8
    report(5, "quadrature matches closed-form product", residual=worst)


def test_criterion_06_equivariance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(100):
        o = random_arcset(rng, 3)
        phi = random_auto(rng)
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 4))
        k = KreinProduct(o)
        kp, c = equivariance_transport(k, phi)
        worst = max(worst, abs(kp(z) - c * k(phi(z))))
    assert worst <= 1e-10
    report(6, "moebius equivariance k_{phi^-1 O} = c k_O o phi", residual=worst)


def test_criterion_07_nevanlinna_roundtrip():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        rep = random_atomic_rep(rng, 10)
        f = rep.eval
        worst = max(worst, abs(recover_alpha(f) - rep.alpha))
        worst = max(worst, abs(recover_beta(f) - rep.beta))
        for t, w in rep.rho.atoms:
            worst = max(worst, abs(recover_atom(f, t) - w))
    assert worst <= 1e-6
    shift = lambda z: z + 1j
    worst_density = 0.0
    for t in np.linspace(-4.0, 4.0, 10):
        d = stieltjes_density_limit(shift, float(t))
        worst_density = max(worst_density,
                            abs(d - 1.0 / (math.pi * (1 + t * t))))
    assert worst_density <= 1e-8
    report(7, "alpha/beta/atom round-trip and Cauchy density",
           roundtrip=worst, density=worst_density)


def test_criterion_08_boole_superlevel():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        mu = random_atomic_rep(rng, 8).rho
        for y in (0.5, 1.0, 3.0):
            plus, minus = boole_superlevel_measure(mu, y)
            target = mu.mass() / y
            worst = max(worst, abs(plus - target), abs(minus - target))
    assert worst <= 1e-8
    # closed-form two-atom case: roots 1 ± sqrt(2), total length 2
    mu = Measure(atoms=((-1.0, 1.0), (1.0, 1.0)))
    plus, minus = boole_superlevel_measure(mu, 1.0)
    closed = abs(plus - 2.0)
    assert closed <= 1e-9 and abs(minus - 2.0) <= 1e-9
    report(8, "superlevel measures equal mass/y", random=worst,
           two_atom=closed)


def test_criterion_09_letac_pushforward():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(50):
        rep = random_atomic_rep(rng, 6, alpha=1.0)
        c = float(rng.uniform(-5, 2))
        d = c + float(rng.uniform(0.3, 5))
        worst = max(worst, abs(letac_pushforward_check(rep, (c, d)) - (d - c)))
    assert worst <= 1e-8
    report(9, "pushforward preserves length", residual=worst)


def test_criterion_10_factorization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    worst_const = 0.0
    for _ in range(100):
        rep = random_atomic_rep(rng, 8)
        res = factorize(RepFunction(rep))
        assert res.ok
        assert res.constant_residual <= 1e-9
        worst_const = max(worst_const, res.constant_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, "factorization posts and corollary constant",
           constant_residual=worst_const, seconds=elapsed)


def test_criterion_11_branch_example():
    def f(z):
        z = complex(z)
        return z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)

    bb = BlackBoxFunction(f, SigmaDescriptor(intervals=((-1.0, 1.0),),
                                             has_inf=True))
    ana = analyze_pick(bb)
    assert len(ana.gamma.arcs) == 1
    arc = ana.gamma.arcs[0]
    endpoint_err = abs(float(arc.a) + 1.0)
    assert arc.b == INF and endpoint_err <= 1e-9
    res = factorize(bb)
    xs = list(np.linspace(-80, -1.05, 50)) + list(np.linspace(1.05, 80, 50))
    min_g = min(complex(res.g(complex(x, 0.0))).real for x in xs)
    assert min_g > 0
    report(11, "z + sqrt(z^2-1): gamma and positive cofactor",
           endpoint=endpoint_err, min_g=min_g)


def test_criterion_12_exponential_representation():
    rng = np.random.default_rng(112)
    min_im, max_im = math.pi, 0.0
    for _ in range(40):
        pts = sep_points(rng, 4, -6, 6, 0.5)
        pieces = ((pts[0], pts[1], float(rng.uniform(0.05, 0.95))),
                  (pts[2], pts[3], float(rng.uniform(0.05, 0.95))))
        e = ExpRep(float(rng.uniform(-1, 1)), pieces)
        for z in random_upper_points(rng, 25):
            im = complex(e.h(z)).imag
            min_im, max_im = min(min_im, im), max(max_im, im)
    assert 0.0 < min_im and max_im < math.pi

    worst_psi = 0.0
    for psi in (0.25, 0.5, 0.75):
        g = ExpRep(0.0, ((-1.0, 1.0, psi),))
        worst_psi = max(worst_psi, abs(psi_recover(g, 0.0) - psi))
        worst_psi = max(worst_psi, abs(psi_recover(g, 3.0)))
    assert worst_psi <= 1e-4

    comp = compose_in_class(normalize([Arc(0, 1)]),
                            ExpRep(0.0, ((2.0, 3.0, 0.5), (-4.0, -2.0, 0.3))))
    min_imag = min(comp(z).imag for z in random_upper_points(rng, 200))
    assert min_imag >= -1e-12
    report(12, "exponent bounds, psi recovery, composition",
           psi=worst_psi, min_h=min_im, min_im=min_imag)


def random_interlaced_large(rng):
    """|A|,|B| <= 20, |Y| <= 5; alternation per circle component of Y."""
    n_y = int(rng.integers(0, 6))
    ys = sep_points(rng, n_y, -24.0, 24.0, 3.0)
    pts = sep_points(rng, int(rng.integers(4, 41)), -28.0, 28.0, 0.7)
    pts = [p for p in pts if all(abs(p - y) > 0.5 for y in ys)]
    zeros, poles = [], []

    def alternate(members):
        start = rng.random() < 0.5
        for i, p in enumerate(members):
            (zeros if (i % 2 == 0) == start else poles).append(p)

    if not ys:
        alternate(pts)
    else:
        bounds = [-math.inf] + list(ys) + [math.inf]
        for ci in range(1, len(bounds) - 2):
            alternate([p for p in pts if bounds[ci] < p < bounds[ci + 1]])
        # wrap component: (y_max, +oo) then (-oo, y_min) in circle order
        alternate([p for p in pts if p > ys[-1]] + [p for p in pts if p < ys[0]])
    return InterpProblem(tuple(zeros[:20]), tuple(poles[:20]), tuple(ys))


def test_criterion_13_interpolation():
    rng = np.random.default_rng(113)
    worst_zero = 0.0
    n_poles = 0
    for _ in range(100):
        p = random_interlaced_large(rng)
        assert check_interlacing(p).ok
        b = build_function(p)
        assert b.ok
        for a in p.zeros:
            worst_zero = max(worst_zero, abs(b(a)))
        n_poles += len(p.poles)
    assert worst_zero <= 1e-10

    # equivalence (2) <=> (3) on mixed instances
    agree, total = 0, 100
    for _ in range(total):
        pts = sep_points(rng, int(rng.integers(2, 12)), -9, 9, 0.4)
        zeros, poles = [], []
        for t in pts:
            (zeros if rng.random() < 0.5 else poles).append(t)
        p = InterpProblem(tuple(zeros), tuple(poles), ())
        ok = check_interlacing(p).ok
        try:
            o = construct_O(p)
            built = True
            lefts, rights = arc_ends(o.arcs)
            inc = all(any(points_equal(a, r) for r in rights) for a in p.zeros)
            inc = inc and all(any(points_equal(x, l) for l in lefts)
                              for x in p.poles)
        except InterlacingError:
            built, inc = False, True
        agree += int(ok == built and inc)
    assert agree == total

    # documented loner case: extra pole at the singular point, flagged
    loner = build_function(InterpProblem((1.0,), (), (0.0,)))
    assert loner.extra_poles == (0.0,)
    assert loner.region.isclose(normalize([Arc(0.0, 1.0)]))
    report(13, "prescribed zeros/poles with certified construction",
           zero_residual=worst_zero, poles_certified=n_poles,
           equivalence=f"{agree}/{total}", loner_flagged=True)


def test_criterion_14_disk_corollary():
    theta = disk_interpolate([1.0 + 0j], [-1.0 + 0j], [], -1.0, 1.0, 1j)
    worst_in = 0.0
    for n in range(1, 101):
        r = 0.9 * math.sqrt(halton(n, 2))
        w = r * cmath.exp(2j * math.pi * halton(n, 3))
        worst_in = max(worst_in, abs(theta(w)))
    assert worst_in <= 1.0 - 1e-12

    worst_bnd = 0.0
    for n in range(60):
        w = cmath.exp(2j * math.pi * (n + 0.31) / 60.0)
        if abs(w - (-1.0)) < 5e-2:
            continue
        worst_bnd = max(worst_bnd, abs(abs(theta(w)) - 1.0))
    assert worst_bnd <= 1e-8

    level = max(abs(theta(1.0 + 0j) - (-1.0)), abs(theta(-1.0 + 0j) - 1.0))
    assert level <= 1e-8
    report(14, "disk interpolant: contraction, unimodular boundary, levels",
           interior=worst_in, boundary=worst_bnd, levels=level)
