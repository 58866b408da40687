"""Factorization of self-maps of C⁺ into Kreĭn products times positive parts.

Every nonzero f in the class factors as f = k_Γ · g where Γ is the set of
boundary negativity of f and g is positive on its own regular boundary set;
when the singular set of f has measure zero, g collapses to the positive
constant |f(i)|, which is how atomic representations are factored.  Dividing
an atomic representation by a single Kreĭn factor p_J leaves a rational Pick
function whose Nevanlinna data have a closed partial-fraction form.

The function forms take a point or an ndarray of points, with the array
contract of ``krein``; ``masked(z)`` returns (values, refused) for an array,
refused marking the points a scalar call refuses.  The certification grids
are fixed read-only arrays, each evaluated in one call.  Ω(f), Γ(f) and the
posts on a structured g share σ(f)'s merged support from the analysis.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, POINT_TOL,
                      arc_contains_arc, arcs_overlap, arcset_contains_arc,
                      boundary_samples, complement_ends, end_samples, is_inf,
                      normalize, points_equal, regularize, sweep_points)
from .krein import (KreinProduct, log_factors, merged_structure, p_eval,
                    scalar_or_array)
from .nevanlinna import (AnalysisResult, Measure, NevanlinnaRep,
                         SigmaDescriptor, analyze, interval_entries)
from .util import (BRACKET, branch_roots, cabs, cdiv, cmul, frozen, halton_box,
                   ladder_limit)


class CertificationError(RuntimeError):
    """A sampled certificate (sign grid, residual bound) failed."""

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

    v_J is the Nevanlinna integral of the arc J = (l, r) (so Im h is the
    ψ-weighted angle sum, between 0 and π).  Pieces may be half-lines; the
    function itself is e^h, positive on the real complement of the pieces.
    Both take a point or an ndarray of points (see :class:`KreinProduct`).
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
            if math.isnan(float(l)) or math.isnan(float(r)):
                raise ValueError(f"psi piece ({l}, {r}) has a NaN end")
            pieces.append((float(l), float(r), float(psi)))
        pieces.sort(key=lambda p: (p[0], p[1]))
        for i in range(len(pieces) - 1):
            if pieces[i + 1][0] < pieces[i][1]:
                raise ValueError("psi pieces must not overlap")
        object.__setattr__(self, "pieces", tuple(pieces))

    def saturated_pieces(self) -> tuple:
        """Pieces with ψ = 1 (flagged: they make the composite vanish-prone)."""
        return tuple(p for p in self.pieces if p[2] == 1.0)

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
        return scalar_or_array(self._h(z, True)[0], z)

    def __call__(self, z):
        return scalar_or_array(_exp(self._h(z, True)[0], z), z)

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

    def sigma_intervals(self) -> tuple:
        return tuple((l, r) for l, r, _ in self.pieces)

    def to_json(self):
        return {"gamma": self.gamma,
                "psi": [{"interval": [l, r], "value": psi}
                        for l, r, psi in self.pieces]}

    @staticmethod
    def from_json(obj) -> "ExpRep":
        if not isinstance(obj, dict):
            raise ValueError(f"exp {obj!r} is not a JSON object")
        return ExpRep(float(obj.get("gamma", 0.0)),
                      interval_entries(obj.get("psi", []), "value", "psi"))


def _exp(h, z):
    # e^h, by the real exponential on the real line as a scalar call takes it
    if h.dtype.kind != "c":
        return np.exp(h)
    return np.where(np.imag(z) != 0, np.exp(h), np.exp(h.real))


@dataclass(frozen=True)
class CompositeFunction:
    """c · k_O · e^h with c > 0, at a point or at each point of an ndarray;
    the ∞ marker where k_O has it, before e^h is looked at."""

    c: float
    product: KreinProduct
    exp: Optional[ExpRep] = None

    def __post_init__(self):
        if not 0 < self.c < INF:
            raise ValueError(f"composite constant must be positive and finite, got {self.c}")

    def __call__(self, z):
        values, refused = self.masked(np.asarray(z))
        if refused.any():
            # the first refused point, as its own call meets it: k_O, then e^h
            point = np.ravel(z)[np.argmax(refused)].item()
            self.product(point)
            self.exp.h(point)
        return scalar_or_array(values, z)

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
            values = cmul(values, e) if values.dtype.kind == "c" else values * e
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
        raises is refused."""
        values = np.zeros(z.size, dtype=complex)
        refused = np.zeros(z.size, dtype=bool)
        for k, p in enumerate(z.ravel().tolist()):
            try:
                values[k] = complex(self.fn(p))
            except Exception:
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
    if f.product.cantor is not None:
        raise ValueError("analysis of generator-backed products is out of scope; "
                         "regularize to an explicit set first")
    o = regularize(f.product.arcs)
    if f.exp is not None and not o.full:
        for pa in f.exp.piece_arcs:
            for oa in o.arcs:
                if arcs_overlap(pa, oa):
                    raise ValueError(f"exponent piece {pa!r} overlaps the "
                                     f"product set {oa!r}; the negativity set "
                                     "is no longer the product set")
    # σ(k_O) and Γ(k_O) as the evaluator reads O: a shared end, ∞ included,
    # is no pole
    s = merged_structure(o)
    intervals = tuple(f.exp.sigma_intervals()) if f.exp is not None else ()
    sig = SigmaDescriptor(points=tuple(p for p in s.poles if not is_inf(p)),
                          intervals=intervals, has_inf=any(map(is_inf, s.poles)))
    return AnalysisResult(sig, s.gamma)


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
# exact division for atomic representations


def _zero_end_weight(terms, factor: float, j: Arc,
                     position_roundoff: float = 0.0) -> float:
    """Weight −f·factor that the zero end of p_J carries in f/p_J, from the
    summands of f there.  Zero when f vanishes to within the roundoff of its
    summands or of the end's position (f'·a few ulps: the arc ends at a
    polished zero of f, and a steep f leaves dust there otherwise); f above
    that roundoff means the arc leaves the negativity set."""
    value = math.fsum(terms)
    if abs(value) <= max(1e-11 * math.fsum(abs(u) for u in terms),
                         position_roundoff):
        return 0.0
    if value > 0:
        raise ValueError(f"f = {value:.3e} > 0 at the zero end of {j!r}: the "
                         "arc is not inside the negativity set")
    return -value * factor


def _divide_rep(rep: NevanlinnaRep, j: Arc) -> NevanlinnaRep:
    """Exact Nevanlinna data of g = f/p_J for atomic f with J ⊆ Γ(f).

    g = f·q with q = 1/p_J is rational, so its data follow from its poles:
    an atom (t, w) of f has residue −w(1+t²) and becomes (t, w·q(t)); an
    atom on the pole b of p_J cancels; the finite zero a of p_J becomes an
    atom of weight −f(a)·Res_a(q)/(1+a²), and a zero at ∞ becomes the linear
    term −f(∞)/|i − b|.  Every kernel (1+it)/(t−i) equals i, so
    β_g = Re g(i).  Positive weights certify that g is in the class.
    """
    b, a = j.b, j.a
    atoms = []
    for t, w in rep.rho.atoms:
        # an atom within relative roundoff of b sits on the pole
        if not is_inf(b) and abs(t - float(b)) <= 1e-11 * max(1.0, abs(float(b))):
            continue
        atoms.append((t, w / p_eval(j, t)))
    if is_inf(a):
        # q(z) = −(z − b)/|i − b| grows at ∞, where f tends to f(∞) when α = 0
        if rep.alpha > 0:
            raise ValueError(f"f grows at ∞, so {j!r} is not inside the "
                             "negativity set")
        terms = [rep.beta] + [-w * t for t, w in rep.rho.atoms]
        alpha = _zero_end_weight(terms, 1.0 / math.hypot(1.0, float(b)), j)
    else:
        alpha = rep.alpha / p_eval(j, INF)
        x = float(a)
        terms = [rep.alpha * x, rep.beta] + [w * (1.0 + x * t) / (t - x)
                                             for t, w in rep.rho.atoms]
        # Res_a(q)/(1 + a²) is |a − b|/(|i − a|·|i − b|), or 1/|i − a| for b = ∞
        res = 1.0 if is_inf(b) else abs(x - float(b)) / math.hypot(1.0, float(b))
        w_a = _zero_end_weight(terms, res / math.hypot(1.0, x), j,
                               4.0 * rep.derivative(x) * math.ulp(x))
        if w_a > 0:
            atoms.append((x, w_a))
    if alpha < 0 or any(w <= 0 for _, w in atoms):
        raise ValueError(f"dividing by {j!r} leaves negative weights: the arc "
                         "is not inside the negativity set")
    beta = (rep.eval(1j) / p_eval(j, 1j)).real
    return NevanlinnaRep(alpha, beta, Measure(atoms=tuple(atoms)))


def _quotient_blackbox(f, j: Arc, sigma: Optional[SigmaDescriptor]):
    def g(z):
        pv = p_eval(j, z)
        fv = f(z)
        if not isinstance(pv, complex) and pv == INF:
            return 0.0
        if not isinstance(fv, complex) and fv == INF:
            return INF
        return fv / pv

    return BlackBoxFunction(g, sigma=sigma, label="quotient")


# ---------------------------------------------------------------------------
# certification grids


def _im_nonneg_residual(fn, pts) -> float:
    # ≥ 0: how far Im dips below zero (NaN if a value is NaN)
    return -float(np.min(fn(pts).imag, initial=0.0))


# ---------------------------------------------------------------------------
# public operations


def divide_single(f, j: Arc):
    """g with f = p_J · g, for an arc J inside the negativity set of f.

    Structured atomic representations are divided exactly; composite forms
    drop (or split) the arc inside their Kreĭn set; anything else returns a
    verified quotient evaluator.
    """
    if isinstance(j, ArcSet):
        if j.full:
            raise ValueError("divide by the full circle via factorize")
        if len(j.arcs) != 1:
            raise ValueError("divide_single expects a single arc")
        j = j.arcs[0]
    ana = analyze_pick(f)
    if not arcset_contains_arc(ana.gamma, j):
        raise ValueError(f"{j!r} is not contained in the negativity set")

    if isinstance(f, RepFunction) and f.rep.rho.is_atomic():
        return RepFunction(_divide_rep(f.rep, j))
    if isinstance(f, CompositeFunction):
        g = _divide_composite(f, j)
    else:
        sigma = f.sigma if isinstance(f, BlackBoxFunction) else None
        g = _quotient_blackbox(f, j, sigma)
    resid = _im_nonneg_residual(g, halton_box(200, -10.0, 10.0, 1e-3, 10.0))
    if not resid <= 1e-9:
        raise CertificationError(
            f"quotient leaves the class: Im dips to -{resid:.2e}")
    return g


def _divide_composite(f: CompositeFunction, j: Arc) -> CompositeFunction:
    if f.product.cantor is not None:
        raise ValueError("cannot divide a generator-backed product exactly")
    host = None
    for arc in f.product.arcs.arcs:
        if arc_contains_arc(arc, j):
            host = arc
            break
    if host is None:
        raise ValueError("arc does not sit inside a single component of the product")
    rest = [arc for arc in f.product.arcs.arcs if arc is not host]
    if not points_equal(host.b, j.b):
        rest.append(Arc(host.b, j.b))
    if not points_equal(j.a, host.a):
        rest.append(Arc(j.a, host.a))
    new_set = ArcSet(tuple(sorted(rest, key=Arc._sort_key)))
    product = KreinProduct(new_set, tol=f.product.tol,
                           max_factors=f.product.max_factors)
    return CompositeFunction(f.c, product, f.exp)


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
    (4) Ω(f) = Ω(k) ∩ Ω(g).  When σ(f) has measure zero the positive
    constant of the corollary is certified as well.
    """
    ana = analyze_pick(f)
    gamma = ana.gamma
    k = KreinProduct(gamma)
    # the corollary's constant |f(i)| and its residual
    constant = _constant_certificate(f, k) if ana.sigma.is_measure_zero() else None

    if gamma.full:
        if isinstance(f, RepFunction):
            g = RepFunction(NevanlinnaRep(0.0, -f.rep.beta))
        else:
            g = BlackBoxFunction(lambda z, _f=f: -_f(z), sigma=ana.sigma)
    elif gamma.is_empty:
        g = f
    else:
        if isinstance(f, RepFunction) and f.rep.rho.is_atomic():
            # the corollary: σ(f) has measure zero, so g is the constant |f(i)|
            g = RepFunction(NevanlinnaRep(0.0, constant[0]))
        elif isinstance(f, CompositeFunction) and f.product.cantor is None:
            # k_O / k_Γ is exactly 1 (the sets differ by measure zero)
            g = CompositeFunction(f.c, KreinProduct(EMPTY), f.exp) \
                if f.exp is not None else RepFunction(NevanlinnaRep(0.0, f.c))
        else:
            sigma = ana.sigma
            g = BlackBoxFunction(lambda z, _f=f, _k=k: _f(z) / _k(z),
                                 sigma=sigma, label="quotient")

    posts = _verify_posts(ana, g)
    res = FactorizationResult(gamma, k, g, posts)
    if constant is not None:
        c, resid = constant
        res.constant, res.constant_residual = c, resid
        posts.append(Certification("constant_factor", resid, 1e-9, resid <= 1e-9,
                               f"c = {c:.12g}"))
    if not res.ok:
        bad = [p.name for p in posts if not p.passed]
        raise CertificationError(f"factorization posts failed: {bad}", worst=res)
    return res


def _verify_posts(ana: AnalysisResult, g):
    """The four posts; for a structured g, statements about the merged
    supports of σ(f) (shared with the analysis), σ(g) and σ(k_Γ) ∪ σ(g)."""
    if not isinstance(g, RepFunction):
        return _sampled_posts(ana, g)
    rho = g.rep.rho  # σ(g) without negligible atoms or linear term
    sig_f, sig_g = ana.sigma, SigmaDescriptor(tuple(t for t, w in rho.atoms if w > 1e-9),
                                              tuple((l, r) for l, r, _ in rho.ac),
                                              g.rep.alpha > 1e-9)
    (lo_f, hi_f), (lo_g, hi_g) = sig_f.support, sig_g.support
    # (1) how far a piece of σ(g) reaches out of the nearest piece of σ(f)
    reach = (min((max(lf - l, r - rf, 0.0) for lf, rf in zip(lo_f, hi_f)), default=INF)
             for l, r in zip(lo_g, hi_g))
    resid1 = max((e for e in reach if e > 1e-6), default=0.0)
    if sig_g.has_inf and not sig_f.has_inf:
        resid1 = max(resid1, g.rep.alpha)
    posts = [Certification("sigma_subset", resid1, 1e-6, resid1 <= 1e-6)]

    v = g.rep.eval(np.array(end_samples(*complement_ends(lo_g, hi_g, sig_g.has_inf))))
    v = v[np.isfinite(v)]  # the ∞ marker and NaN are skipped
    resid2 = max(0.0, -float(v.min())) if v.size else 0.0
    posts.append(Certification("g_positive_on_omega", resid2, 1e-9, resid2 <= 1e-9))

    # (3) Ω(g) is regular unless σ(g) has an isolated point
    reg_ok = all(r - l > POINT_TOL for l, r in zip(lo_g, hi_g))
    posts.append(Certification("omega_g_regular", 0.0 if reg_ok else 1.0, 0.0, reg_ok))

    # (4) σ(f) = X ∪ σ(g), X = σ(k_Γ)
    x_pts = merged_structure(ana.gamma).poles
    sig_c = SigmaDescriptor(tuple(p for p in x_pts if not is_inf(p)) + sig_g.points,
                            sig_g.intervals, any(map(is_inf, x_pts)) or sig_g.has_inf)
    lo_c, hi_c = sig_c.support
    ok4 = (sig_c.has_inf == sig_f.has_inf and len(lo_c) == len(lo_f)
           and (lo_c == lo_f and hi_c == hi_f
                or all(abs(x - y) <= 1e-7 for x, y in zip(lo_c + hi_c, lo_f + hi_f))))
    posts.append(Certification("omega_intersection", 0.0 if ok4 else 1.0, 0.0, ok4))
    return posts


def _sampled_posts(ana: AnalysisResult, g):
    # a quotient form: σ(g) and g's sign are sampled across Ω(f)
    xs = np.array(boundary_samples(ana.omega))
    v = g(xs + 1e-6j)
    # the ∞ marker adds 0
    resid1 = float(np.max(np.abs(v.imag) / (1.0 + cabs(v)), initial=0.0))
    v, refused = g.masked(xs + 0j)
    v = v.real[~refused]
    v = v[np.isfinite(v)]  # the ∞ marker and NaN are skipped
    resid2 = max(0.0, -float(v.min())) if v.size else 0.0
    note = "not structurally checkable for quotient forms"
    return [Certification("sigma_subset", resid1, 1e-3, resid1 <= 1e-3,
                          "sampled real-extendability across Omega(f)"),
            Certification("g_positive_on_omega", resid2, 1e-9, resid2 <= 1e-9),
            Certification("omega_g_regular", 0.0, 0.0, True, note),
            Certification("omega_intersection", 0.0, 0.0, True, note)]


def _constant_certificate(f, k: KreinProduct):
    """(c, residual): c = |f(i)| and max |f/(c·k) − 1| over a 20-point grid."""
    fv = f(_CONSTANT_GRID)
    c = abs(fv[0].item())
    zs = _CONSTANT_GRID[1:]
    dev = cabs(cdiv(fv[1:], c * k(zs)) - 1.0)
    return c, float(np.max(dev))


# i, where the constant is read, then the certificate's grid
_CONSTANT_GRID = frozen(np.concatenate(([1j], halton_box(20, -5.0, 5.0, 0.2, 5.0))))


def constant_factor_check(f) -> float:
    """The corollary constant: c = |f(i)| with f = c·k_Γ(f) certified to 1e−9
    on a 20-point grid.  Requires σ(f) of measure zero."""
    ana = analyze_pick(f)
    if not ana.sigma.is_measure_zero():
        raise ValueError("constant factorization requires a measure-zero singular set")
    k = KreinProduct(ana.gamma)
    c, resid = _constant_certificate(f, k)
    if resid > 1e-9:
        raise CertificationError(
            f"constant-factor residual {resid:.3e} exceeds 1e-9", worst=resid)
    return c


def compose_in_class(o: ArcSet, e: ExpRep) -> CompositeFunction:
    """k_O · e^v for ψ pieces disjoint from O; the argument bound
    arg(k_O e^v) ≤ π is certified on a sample grid."""
    piece_arcs = e.piece_arcs
    o_arcs = [] if (o.full or o.is_empty) else list(o.arcs)
    if o.full and piece_arcs:
        raise ValueError("psi pieces overlap the full-circle set")
    for pa in piece_arcs:
        for oa in o_arcs:
            if arcs_overlap(pa, oa):
                raise ValueError(f"psi piece {pa!r} overlaps the set {oa!r}")
    # arg(k_O e^v) = Σ Im log p_J + Im v: each term is the angle its arc
    # subtends
    zs = halton_box(1000, -10.0, 10.0, 1e-3, 10.0)
    o_logs = log_factors(o.arcs if not o.full else (Arc(INF, INF, puncture=True),), zs)[0]
    total = o_logs.imag.sum(axis=-1) + e.h(zs).imag
    worst = float(np.max(total - math.pi, initial=0.0))
    if not worst <= 1e-12:
        raise CertificationError(f"argument bound exceeded by {worst:.2e}")
    return CompositeFunction(1.0, KreinProduct(o), e)


def psi_recover(g, t: float) -> float:
    """Boundary density of the exponent: ψ(t) = lim arg g(t+iε)/π ∈ [0, 1]."""
    ladder = [1e-1 * 0.5 ** k for k in range(10)]
    val = ladder_limit(lambda s: cmath.phase(complex(g(t + 1j * s))) / math.pi,
                       ladder, ratio=2.0, consistency=1e-4)
    return min(1.0, max(0.0, val))
