"""Factorization of self-maps of C⁺ into Kreĭn products times positive parts.

Every nonzero f in the class factors as f = k_Γ · g where Γ is the set of
boundary negativity of f and g is positive on its own regular boundary set.
When the singular set of f has measure zero, g collapses to the positive
constant |f(i)|: every such f, whatever its form, factors as c·k_Γ and is
divided as it, f/p_J being c·k_Γ with J cut out of Γ, once c is certified.
For an atomic representation that certificate evaluates nothing: c is the
closed form |β + i(α + ρ(R))|, and f/(c·k_Γ) − 1 is bounded from the radii
that the analysis certifies around Γ's zero ends.  Composites and black
boxes are evaluated on the 20-point grid.  A composite with exponent pieces
factors as c·e^h.  Only a σ(f) of positive measure leaves a quotient, one
black-box form, f/k one point at a time.

The function forms, which ``cli`` reads from a spec, take a point or an
ndarray of points, with the array contract of ``util``; ``masked(z)``
returns (values, refused) for an array, refused marking the points a scalar
call refuses.  A composite c·k_O·e^h is canonical once built: a ψ = 1 piece
of h is an arc of O and a ψ = 0 piece is gone, so σ, Γ and the posts read
0 < ψ < 1 pieces only.  The posts on a structured g (a representation, or
c·e^h) compare supports, sharing σ(f)'s merged support with the analysis,
and read g's sign off its form.  A black-box g is sampled across Ω(f).
Certification grids are fixed read-only arrays, each evaluated in one call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, POINT_TOL, SigmaDescriptor,
                      arc_contains_arc, arcs_overlap, arcset_contains_arc,
                      boundary_samples, normalize, points_equal,
                      regularize, sweep_points)
from .krein import EvaluationDomainError, KreinProduct, TailNotCertified, log_factors
from .nevanlinna import AnalysisResult, NevanlinnaRep, analyze
from .util import BRACKET, branch_roots, frozen, halton_box, ladder_limit, quotient, shaped


class CertificationError(RuntimeError):
    """A certificate (a post, a residual bound, a sample grid) failed."""

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


@dataclass
class Certification:
    """One named check: its residual against a tolerance, and the verdict."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


# ---------------------------------------------------------------------------
# function forms


@dataclass(frozen=True)
class RepFunction:
    """Pick function given by its Nevanlinna data."""

    rep: NevanlinnaRep

    def __call__(self, z):
        return self.rep.eval(z)

    def masked(self, z):
        """(values, refused) at the points of an ndarray z; the closed form
        refuses no point (a real point inside a density raises)."""
        return self.rep.eval(z), np.zeros(np.shape(z), dtype=bool)


@dataclass(frozen=True)
class ExpRep:
    """h(z) = γ + Σ ψ_j · v_{J_j}(z) with constant ψ_j ∈ [0, 1] per piece.

    v_J = log p_J is the Nevanlinna integral of the arc J = (l, r) (so Im h
    is the ψ-weighted angle sum, between 0 and π).  Pieces may be half-lines;
    the function itself is e^h, positive on the real complement of the
    pieces.  Both take a point or an ndarray of points (see
    :class:`KreinProduct`).
    """

    gamma: float = 0.0
    pieces: tuple = ()  # (l, r, psi); l may be -inf, r may be +inf

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        pieces = []
        for l, r, psi in self.pieces:
            if not 0.0 <= psi <= 1.0:
                raise ValueError(f"psi must lie in [0, 1], got {psi}")
            if not float(l) < float(r):  # a NaN end fails too
                raise ValueError(f"psi piece ({l}, {r}) is no interval l < r")
            pieces.append((float(l), float(r), float(psi)))
        pieces.sort(key=lambda p: (p[0], p[1]))
        for i in range(len(pieces) - 1):
            if pieces[i + 1][0] < pieces[i][1]:
                raise ValueError("psi pieces must not overlap")
        object.__setattr__(self, "pieces", tuple(pieces))

    @functools.cached_property
    def piece_arcs(self) -> tuple:
        # infinite ends become the circle point ∞; the whole line is the
        # circle punctured there
        return tuple(Arc(l, r, puncture=math.isinf(l) and math.isinf(r))
                     for l, r, _ in self.pieces)

    def h(self, z):
        """γ + Σ ψ_j · log p_{J_j}(z): complex above the real line, real at a
        real point off the pieces; EvaluationDomainError on a piece or at its
        end."""
        return shaped(self._h(z, True)[0], z, line=True)

    def __call__(self, z):
        return shaped(_exp(self._h(z, True)[0], z), z, line=True)

    def masked(self, z):
        """(e^h, refused) at the points of an ndarray z; ``refused`` marks
        the points :meth:`h` refuses, whose values are placeholders."""
        total, refused = self._h(z, False)
        return _exp(total, z), refused

    def _h(self, z, strict):
        pts = np.ravel(z)
        if np.any(pts.imag < 0):
            raise ValueError("the exponent is defined on the closed upper "
                             "half-plane")
        logs, refused = log_factors(self.piece_arcs, pts, strict)
        # complex(γ) off the real line, γ on it: the same real part
        total = np.full(pts.shape, self.gamma, dtype=logs.dtype)
        for k, (_, _, psi) in enumerate(self.pieces):
            total = total + psi * logs[:, k]
        return total.reshape(np.shape(z)), refused.reshape(np.shape(z))

    def to_json(self):
        return {"gamma": self.gamma,
                "psi": [{"interval": [l, r], "value": psi}
                        for l, r, psi in self.pieces]}


def _exp(h, z):
    # e^h, by the real exponential on the real line as a scalar call takes it
    if h.dtype.kind != "c":
        return np.exp(h)
    return np.where(np.imag(z) != 0, np.exp(h), np.exp(h.real))


@dataclass(frozen=True)
class CompositeFunction:
    """c · k_O · e^h with c > 0, at a point or at each point of an ndarray;
    the ∞ marker where k_O has it, before e^h is looked at.

    Built canonical: e^{ψ·log p_J} is p_J for ψ = 1 and 1 for ψ = 0, so a
    ψ = 1 piece becomes an arc of O, merged by the product with an arc of O
    that shares an end, and a ψ = 0 piece is dropped.  It is the one place
    that refuses a piece with ψ > 0 overlapping O or the base of O's
    generator, where O is dense: such a piece meets them in its ends only."""

    c: float
    product: KreinProduct
    exp: Optional[ExpRep] = None

    def __post_init__(self):
        if not 0 < self.c < INF:
            raise ValueError(f"composite constant must be positive and finite, got {self.c}")
        if self.exp is None:
            return
        pieces, o, cantor = self.exp.pieces, self.product.arcs, self.product.cantor
        dense = o if cantor is None else o.union(cantor.regularized())
        for arc, (_, _, psi) in zip(self.exp.piece_arcs, pieces):
            if psi > 0.0 and any(arcs_overlap(arc, oa) for oa in
                                 ((Arc(INF, INF, puncture=True),) if dense.full else dense.arcs)):
                raise ValueError(f"exponent piece {arc!r} overlaps the product set {dense!r}")
        if all(0.0 < psi < 1.0 for _, _, psi in pieces):
            return
        saturated = [arc for arc, (_, _, psi) in zip(self.exp.piece_arcs, pieces) if psi == 1.0]
        if saturated:
            object.__setattr__(self, "product", replace(
                self.product, arcs=normalize(list(o.arcs) + saturated)))
        object.__setattr__(self, "exp", ExpRep(
            self.exp.gamma, tuple(p for p in pieces if 0.0 < p[2] < 1.0)))

    def __call__(self, z):
        values, refused = self.masked(np.asarray(z))
        if refused.any():
            # the first refused point, as its own call meets it: k_O, then e^h
            point = np.ravel(z)[np.argmax(refused)].item()
            self.product(point)
            self.exp.h(point)
        return shaped(values, z, line=True)

    def masked(self, z):
        """(values, refused) at the points of an ndarray z: ``refused`` marks
        the points a scalar call refuses (EvaluationDomainError,
        TailNotCertified), whose values are placeholders."""
        pts = np.ravel(z)
        values, tails = self.product.eval(pts, strict=False)
        refused = np.isinf(tails)
        pole = (values == INF) & (pts.imag == 0)
        values[pole] = 1.0  # the ∞ marker goes back in last
        if self.exp is not None:
            e, off_pieces = self.exp.masked(pts)
            refused |= off_pieces & ~pole
            values = values * e
        values = self.c * values
        values[pole] = INF
        return values.reshape(np.shape(z)), refused.reshape(np.shape(z))


@dataclass(frozen=True)
class BlackBoxFunction:
    """Evaluator-only function; factorization requires a user σ descriptor."""

    fn: Callable
    sigma: Optional[SigmaDescriptor] = None
    label: str = "blackbox"

    def __call__(self, z):
        """fn at z; at each point of an ndarray, one call of fn per point."""
        if not isinstance(z, np.ndarray):
            return self.fn(z)
        return np.array([complex(self.fn(p)) for p in z.ravel().tolist()],
                        dtype=complex).reshape(z.shape)

    def masked(self, z):
        """(values, refused) at the points of an ndarray z: a point where fn
        refuses (ArithmeticError, ValueError such as EvaluationDomainError,
        TailNotCertified) is refused; any other exception propagates."""
        values = np.zeros(z.size, dtype=complex)
        refused = np.zeros(z.size, dtype=bool)
        for k, p in enumerate(z.ravel().tolist()):
            try:
                values[k] = complex(self.fn(p))
            except (ArithmeticError, ValueError, TailNotCertified):
                refused[k] = True
        return values.reshape(z.shape), refused.reshape(z.shape)


# ---------------------------------------------------------------------------
# analysis dispatch


def analyze_pick(f) -> AnalysisResult:
    """σ / Ω / Γ for any supported function form."""
    if isinstance(f, RepFunction):
        return analyze(f.rep)
    if isinstance(f, CompositeFunction):
        return _analyze_composite(f)
    if isinstance(f, BlackBoxFunction):
        if f.sigma is None:
            raise ValueError("black-box analysis requires a sigma descriptor")
        return _analyze_blackbox(f.fn, f.sigma)
    raise TypeError(f"unsupported function form {type(f).__name__}")


def _analyze_composite(f: CompositeFunction) -> AnalysisResult:
    """σ and Γ of c·k_O·e^h over explicit arcs: Γ is Γ(k_O), and σ is σ(k_O)
    with the pieces of h, each with 0 < ψ < 1 in a canonical composite."""
    if f.product.cantor is not None:
        raise ValueError("analysis of generator-backed products is out of scope; "
                         "regularize to an explicit set first")
    s = f.product.structure  # as it evaluates: a shared end, ∞ included, is no pole
    intervals = tuple((l, r) for l, r, _ in f.exp.pieces) if f.exp is not None else ()
    return AnalysisResult(replace(s.sigma, intervals=intervals), s.gamma)


def _blackbox_real(fn, x: float) -> float:
    return complex(fn(complex(x, 0.0))).real


def _analyze_blackbox(fn, sig: SigmaDescriptor) -> AnalysisResult:
    omega = sig.omega()
    pieces = []
    comps = [] if omega.full else list(omega.arcs)
    for comp in comps:
        piece = _blackbox_gamma_piece(fn, comp)
        if piece is not None:
            pieces.append(piece)
    if omega.full:
        v = _blackbox_real(fn, 0.0)
        gamma = FULL if v < 0 else EMPTY
    else:
        gamma = regularize(normalize(pieces)) if pieces else EMPTY
    return AnalysisResult(sig, gamma)


def _blackbox_gamma_piece(fn, comp: Arc):
    xs = sweep_points(comp)
    vals = [_blackbox_real(fn, x) for x in xs]
    signs = [v < 0 for v in vals]
    if not any(signs):
        return None
    if all(signs):
        return comp
    # boundary values increase along the component: one flip, negative first
    flip = None
    for i in range(len(signs) - 1):
        if signs[i] and not signs[i + 1]:
            if flip is not None:
                raise CertificationError("non-monotone boundary sign pattern")
            flip = i
        elif not signs[i] and signs[i + 1]:
            raise CertificationError("boundary values not increasing on component")
    lo, hi = xs[flip], xs[flip + 1]
    if vals[flip + 1] == 0.0:
        return Arc(comp.b, hi)
    if lo > hi:
        # the pair straddles ∞: solve in the chart s = −1/(x − c), increasing
        # along the arc with ∞ at 0; c off the pair's middle keeps midpoints off 0
        c = hi + (lo - hi) / 3.0
        s_lo, s_hi = -1.0 / (lo - c), -1.0 / (hi - c)
        s = _blackbox_zero(lambda s: fn(c - 1.0 / s), s_lo, s_hi)
        d, far = BRACKET * max(1.0, abs(s)), 1.0 / np.finfo(float).tiny
        if s + d < 0.0 or s - d > 0.0:  # the bracket lies on one side of ∞: refine in x
            lo, hi = c - 1.0 / max(s - d, s_lo), c - 1.0 / min(s + d, s_hi)
        # the chart's bracket is absolute at s = 0, so the zero is at ∞ only
        # if the sign change survives out to x = c ± far
        elif _blackbox_real(fn, c + far) > 0.0:
            lo, hi = c - 1.0 / min(s - d, -1.0 / far), c + far
        elif _blackbox_real(fn, c - far) < 0.0:
            lo, hi = c - far, c - 1.0 / max(s + d, 1.0 / far)
        else:
            return Arc(comp.b, INF)
    return Arc(comp.b, _blackbox_zero(fn, lo, hi))


def _blackbox_zero(fn, lo: float, hi: float) -> float:
    # the kernel's bisection and sign bracket on fn, negative at lo and positive at hi
    column = lambda x: np.array([[_blackbox_real(fn, v)] for v in x.tolist()])
    return float(branch_roots(column, [0.0], [0.0], [0.5 * (lo + hi)], [lo], [hi])[0])


# ---------------------------------------------------------------------------
# quotients


def _quotient(f, k: KreinProduct, sigma: Optional[SigmaDescriptor]) -> BlackBoxFunction:
    """f/k one point at a time: 0 where only k has a pole, the ∞ marker where
    only f has one or only k vanishes, and EvaluationDomainError where both
    have a pole or both vanish, as a black box cannot read the limit there.
    A real point within REAL_GUARD of a pole of k is refused by k."""

    def g(z):
        kv, fv = k(z), f(z)
        # the ∞ marker is a float: a scalar call returns a complex off the line
        k_pole, f_pole = (not isinstance(v, complex) and v == INF for v in (kv, fv))
        if k_pole and f_pole:
            raise EvaluationDomainError(f"f and its divisor both have a pole at {z}")
        if kv == 0 and fv == 0:
            raise EvaluationDomainError(f"f and its divisor both vanish at {z}")
        if k_pole:
            return 0.0
        if f_pole or kv == 0:
            return INF
        return fv / kv

    return BlackBoxFunction(g, sigma=sigma, label="quotient")


# ---------------------------------------------------------------------------
# public operations


def divide_single(f, j: Arc):
    """g with f = p_J · g, for an arc J inside the negativity set of f.

    A composite drops (or splits) the arc inside its Kreĭn set, which leaves
    a composite in the class by construction.  Any other f whose σ has
    measure zero is first the composite c·k_Γ of the corollary, its constant
    c = |f(i)| certified to 1e−9 by the bound of :func:`_constant_certificate`
    (CertificationError above it).  Only a σ of positive measure leaves a
    quotient evaluator, whose Im ≥ 0 is certified on a grid.
    """
    ana = analyze_pick(f)
    if not arcset_contains_arc(ana.gamma, j):
        raise ValueError(f"{j!r} is not contained in the negativity set")
    if not isinstance(f, CompositeFunction) and ana.sigma.is_measure_zero():
        k = KreinProduct(ana.gamma)
        f = CompositeFunction(_certified_constant(f, ana, k), k)
    if isinstance(f, CompositeFunction):
        return _divide_composite(f, ana.gamma, j)
    sigma = None
    if isinstance(f, BlackBoxFunction):
        # f/p_J has a pole at J's zero end, where f ≠ 0 inside Γ(f)
        sigma = (replace(f.sigma, has_inf=True) if j.a == INF
                 else replace(f.sigma, points=f.sigma.points + (j.a,)))
    g = _quotient(f, KreinProduct(ArcSet((j,))), sigma)
    # how far Im g dips below zero (NaN if a value is NaN)
    resid = -float(np.min(g(halton_box(200, -10.0, 10.0, 1e-3, 10.0)).imag, initial=0.0))
    if not resid <= 1e-9:
        raise CertificationError(
            f"quotient leaves the class: Im dips to -{resid:.2e}")
    return g


def _divide_composite(f: CompositeFunction, gamma: ArcSet, j: Arc) -> CompositeFunction:
    # k_O is k_Γ, Γ = Γ(f) being O's merged arcs: J's host arc of Γ loses J.
    # On the full circle k_O = −1 = p_J·p_(a,b): J's host is the circle
    # punctured at J's zero end a
    host = Arc(j.a, j.a, puncture=True) if gamma.full else next(
        arc for arc in gamma.arcs if arc_contains_arc(arc, j))
    rest = [arc for arc in gamma.arcs if arc is not host]
    if not points_equal(host.b, j.b):
        rest.append(Arc(host.b, j.b))
    if not points_equal(j.a, host.a):
        rest.append(Arc(j.a, host.a))
    new_set = ArcSet(tuple(sorted(rest, key=Arc._sort_key)))
    return CompositeFunction(f.c, KreinProduct(new_set), f.exp)


@dataclass
class FactorizationResult:
    gamma: ArcSet
    k: KreinProduct
    g: object
    posts: list = field(default_factory=list)
    constant: Optional[float] = None
    constant_residual: Optional[float] = None

    @property
    def ok(self) -> bool:
        return all(p.passed for p in self.posts)


def factorize(f) -> FactorizationResult:
    """f = k_Γ(f) · g, with the four posts verified on the result.

    (1) σ(g) ⊆ σ(f); (2) g > 0 on Ω(g); (3) Ω(g) Lebesgue regular;
    (4) Ω(f) = Ω(k) ∩ Ω(g).  When σ(f) has measure zero, g is the positive
    constant c = |f(i)| of the corollary, certified as well: the
    ``constant_factor`` post, 1e−9, on the residual of
    :func:`_constant_certificate`.  Otherwise a composite's g is c·e^h, and
    any other f's is the quotient f/k_Γ.
    """
    ana = analyze_pick(f)
    gamma = ana.gamma
    k = KreinProduct(gamma)
    constant = None
    if ana.sigma.is_measure_zero():
        constant = c, resid = _constant_certificate(f, ana, k)
        g = RepFunction(NevanlinnaRep(0.0, c))
    elif isinstance(f, CompositeFunction):
        # k_O / k_Γ is exactly 1 (the sets differ by measure zero)
        g = CompositeFunction(f.c, KreinProduct(EMPTY), f.exp)
    else:
        g = _quotient(f, k, ana.sigma)

    posts = _verify_posts(ana, g, k)
    res = FactorizationResult(gamma, k, g, posts)
    if constant is not None:
        res.constant, res.constant_residual = constant
        posts.append(Certification("constant_factor", resid, 1e-9, resid <= 1e-9,
                               f"c = {c:.12g}"))
    if not res.ok:
        bad = [p.name for p in posts if not p.passed]
        raise CertificationError(f"factorization posts failed: {bad}", worst=res)
    return res


def _structure(g):
    """(σ(g), the weight of ∞ in it, how far g dips below 0 on Ω(g)) for a
    structured g, else None, read off g's form: nothing is evaluated.
    c·k_O·e^h has c > 0 and e^h > 0 off its pieces, so it is positive on Ω
    exactly when Γ(k_O) is empty.  A constant β dips to max(0, −β); any other
    representation rises from −∞ on the arc of Ω after each piece of σ(g)
    (and from x = −∞ where α > 0), so it dips by the 1.0 of a failed post.
    A representation's σ(g) holds all its atoms (each of positive weight),
    and ∞ where α > 0."""
    if isinstance(g, CompositeFunction) and g.product.cantor is None:
        ana = _analyze_composite(g)
        return ana.sigma, 1.0, 0.0 if ana.gamma.is_empty else 1.0
    if not isinstance(g, RepFunction):
        return None
    rep, rho = g.rep, g.rep.rho
    sig = SigmaDescriptor(tuple(t for t, _ in rho.atoms),
                          tuple((l, r) for l, r, _ in rho.ac), rep.alpha > 0)
    constant = rep.alpha == 0 and not (rho.atoms or rho.ac)
    return sig, rep.alpha, max(0.0, -float(rep.beta)) if constant else 1.0


def _verify_posts(ana: AnalysisResult, g, k: KreinProduct):
    """The four posts on g with f = k·g, k = k_Γ(f); for a structured g
    (:func:`_structure`), statements about the merged supports of σ(f)
    (shared with the analysis), σ(g) and σ(k) ∪ σ(g)."""
    structure = _structure(g)
    if structure is None:
        return _sampled_posts(ana, g)
    sig_g, inf_weight, resid2 = structure
    sig_f = ana.sigma
    (lo_f, hi_f), (lo_g, hi_g) = sig_f.support, sig_g.support
    # (1) how far a piece of σ(g) reaches out of the nearest piece of σ(f),
    # half-lines included
    reach = (min((max(lf - l if l < lf else 0.0, r - rf if r > rf else 0.0)
                  for lf, rf in zip(lo_f, hi_f)), default=INF)
             for l, r in zip(lo_g, hi_g))
    resid1 = max((e for e in reach if e > 0), default=0.0)
    if sig_g.has_inf and not sig_f.has_inf:
        resid1 = max(resid1, inf_weight)
    posts = [Certification("sigma_subset", resid1, 1e-6, resid1 <= 1e-6),
             Certification("g_positive_on_omega", resid2, 1e-9, resid2 <= 1e-9)]

    # (3) Ω(g) is regular unless σ(g) has an isolated point
    reg_ok = all(r - l > POINT_TOL for l, r in zip(lo_g, hi_g))
    posts.append(Certification("omega_g_regular", 0.0 if reg_ok else 1.0, 0.0, reg_ok))

    # (4) σ(f) = X ∪ σ(g), X = σ(k_Γ) with the atoms whose poles a zero of f
    # cancels within POINT_TOL, which the analysis's zeros stand at
    x = k.structure.sigma
    cancelled = tuple(e for e, _ in ana.zeros or () if e in sig_f.points)
    sig_c = SigmaDescriptor(x.points + cancelled + sig_g.points, sig_g.intervals,
                            x.has_inf or sig_g.has_inf)
    lo_c, hi_c = sig_c.support
    ok4 = sig_c.has_inf == sig_f.has_inf and (lo_c, hi_c) == (lo_f, hi_f)
    posts.append(Certification("omega_intersection", 0.0 if ok4 else 1.0, 0.0, ok4))
    return posts


def _sampled_posts(ana: AnalysisResult, g):
    # a quotient form: σ(g) and g's sign are sampled across Ω(f)
    xs = np.array(boundary_samples(ana.omega))
    v = g(xs + 1e-6j)
    # the ∞ marker adds 0
    resid1 = float(np.max(np.abs(v.imag) / (1.0 + np.abs(v)), initial=0.0))
    v, refused = g.masked(xs + 0j)
    v = v.real[~refused]
    v = v[np.isfinite(v)]  # the ∞ marker and NaN are skipped
    resid2 = max(0.0, -float(v.min())) if v.size else 0.0
    n = int(np.count_nonzero(refused))
    note = "not structurally checkable for quotient forms"
    return [Certification("sigma_subset", resid1, 1e-3, resid1 <= 1e-3,
                          "sampled real-extendability across Omega(f)"),
            Certification("g_positive_on_omega", resid2, 1e-9, resid2 <= 1e-9,
                          f"{n} of {refused.size} sample points refused" if n else ""),
            Certification("omega_g_regular", 0.0, 0.0, True, note),
            Certification("omega_intersection", 0.0, 0.0, True, note)]


def _constant_certificate(f, ana: AnalysisResult, k: KreinProduct):
    """(c, residual) of the corollary f = c·k for k = k_Γ(f): c = |f(i)| and
    a residual at least max |f/(c·k) − 1| over a 20-point grid (Im z from
    0.2 to 5).  An atomic representation evaluates neither: c is its closed
    form and the residual a bound from the analysis's zero radii
    (:func:`_zeros_bound`), narrowed where the accepted brackets leave it
    above 1e−9.  Other forms are evaluated on the grid, numpy's warnings off
    (a value past the floats fails the residual).  A c not finite and > 0
    certifies nothing, and no g holds it: CertificationError."""
    rep = f.rep if ana.zeros is not None else None
    if rep is not None:  # the kernel (1 + it)/(t − i) is i: f(i) = β + i(α + ρ(R))
        c = math.hypot(rep.beta, math.fsum([rep.alpha, *(w for _, w in rep.rho.atoms)]))
    else:
        with np.errstate(all="ignore"):
            fv = f(_CONSTANT_GRID)
        c = abs(fv[0].item())
    if not 0 < c < INF:
        raise CertificationError(f"the constant |f(i)| = {c} is not finite and positive")
    if rep is not None:
        resid = _zeros_bound(ana.zeros)
        if not resid <= 1e-9:
            resid = min(resid, _zeros_bound(analyze(rep, narrow=True).zeros))
        return c, resid
    with np.errstate(all="ignore"):
        # |f/k − c|/c: f/k through util.quotient, and c divides only a real, as
        # numpy divides a complex by a reciprocal that a subnormal c overflows
        dev = np.abs(quotient(fv[1:], k(_CONSTANT_GRID[1:]))[0] - c) / c
    return c, float(np.max(dev))


# i, where the constant is read, then the certificate's grid
_CONSTANT_GRID = frozen(np.concatenate(([1j], halton_box(20, -5.0, 5.0, 0.2, 5.0))))
_EPS = float(np.finfo(float).eps)


def _zeros_bound(zeros) -> float:
    """A bound on max |f/(c·k_Γ) − 1| over the grid, for c = |f(i)| within
    2 eps (a correctly rounded sum, and hypot within an ulp) and the (e, r)
    pairs of ``AnalysisResult.zeros``: (1 + 2eps)·∏ (1 + r/(d − r))·(1 +
    r/(|i − e| − r)) − 1 with d ≤ |z − e|, at most e^{2eps + Σ} − 1 over
    the terms Σ.  d = 0.2 first, which holds at every z with Im z ≥ 0.2;
    past 1e-9, or with a zero at ∞, whose term is (|z| + 1)·r, d = |z − e|
    at each point of the grid."""
    far = [r for e, r in zeros if e == INF]
    if not far:
        # r/(d − r) bounds |N_z/N_e − 1| at distance d from e, if d > r
        total = math.fsum(r / (d - r) if d > r else INF
                          for e, r in zeros for d in (0.2, math.hypot(1.0, e)))
        bound = _exp_bound(total, len(zeros))
        if bound <= 1e-9:
            return bound
    e, r = np.array([z for z in zeros if z[0] != INF]).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        d = np.abs(_CONSTANT_GRID[:, None] - e)  # at i, then at the grid's points
        terms = np.where(d > r, r / (d - r), INF).sum(axis=1)
    total = terms[1:] + terms[0] + (np.abs(_CONSTANT_GRID[1:]) + 1.0) * math.fsum(far)
    return _exp_bound(total.max(), len(zeros))


def _exp_bound(total, n: int) -> float:
    # e^{2eps + total} − 1 for n terms summed in floats, rounded up
    return math.expm1(2.0 * _EPS + float(total) * (1.0 + 2.0 * (n + 4) * _EPS)) * (1.0 + 2.0 * _EPS)


def constant_factor_check(f) -> float:
    """The corollary constant: c = |f(i)| with f = c·k_Γ(f) certified to 1e−9
    by :func:`_constant_certificate`.  Requires σ(f) of measure zero."""
    ana = analyze_pick(f)
    if not ana.sigma.is_measure_zero():
        raise ValueError("constant factorization requires a measure-zero singular set")
    return _certified_constant(f, ana, KreinProduct(ana.gamma))


def _certified_constant(f, ana: AnalysisResult, k: KreinProduct) -> float:
    # c of the corollary f = c·k, or CertificationError past the 1e−9 post
    c, resid = _constant_certificate(f, ana, k)
    if not resid <= 1e-9:  # a NaN residual fails too
        raise CertificationError(
            f"constant-factor residual {resid:.3e} exceeds 1e-9", worst=resid)
    return c


def compose_in_class(o: ArcSet, e: ExpRep) -> CompositeFunction:
    """k_O · e^v for ψ pieces that meet O in its ends at most (the composite
    refuses others).  It is in the class: arg(k_O e^v) is the sum of ψ times
    the angle each arc subtends, and disjoint arcs subtend at most π in all."""
    return CompositeFunction(1.0, KreinProduct(o), e)


def psi_recover(g, t: float) -> float:
    """Boundary density of the exponent: ψ(t) = lim arg g(t+iε)/π ∈ [0, 1]."""
    ladder = [1e-1 * 0.5 ** k for k in range(10)]
    val = ladder_limit(lambda s: cmath.phase(complex(g(t + 1j * s))) / math.pi,
                       ladder, ratio=2.0, consistency=1e-4)
    return min(1.0, max(0.0, val))
