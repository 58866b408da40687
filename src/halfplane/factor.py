"""Factorization of self-maps of C⁺ into Kreĭn products times positive parts.

Every nonzero f in the class factors as f = k_Γ · g where Γ is the set of
boundary negativity of f and g is positive on its own regular boundary set;
when the singular set of f has measure zero, g collapses to the positive
constant |f(i)|, which is how atomic representations are factored.  Dividing
an atomic representation by a single Kreĭn factor p_J leaves a rational Pick
function whose Nevanlinna data have a closed partial-fraction form.

The function forms take a point or an ndarray of points, with the array
contract of ``krein``; ``masked(z)`` returns (values, refused) for an array,
refused marking the points a scalar call refuses.  A composite c·k_O·e^h
is canonical once built: a ψ = 1 piece of h is an arc of O and a ψ = 0 piece
is gone, so σ, Γ and the posts read 0 < ψ < 1 pieces only.  The posts on a
structured g (a representation, or c·e^h) compare supports, sharing σ(f)'s
merged support with the analysis; of them only g > 0 for a representation
that is no constant samples g, on Ω(g).  A black-box g is sampled across
Ω(f).  Certification grids are fixed read-only arrays, each evaluated in one
call.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .extreal import (Arc, ArcSet, EMPTY, FULL, INF, POINT_TOL,
                      arc_contains_arc, arcs_overlap, arcset_contains_arc,
                      boundary_samples, complement_ends, end_samples, is_inf,
                      normalize, number_from_json, points_equal, regularize,
                      sweep_points)
from .krein import KreinProduct, log_factors, p_eval, scalar_or_array
from .nevanlinna import (AnalysisResult, Measure, NevanlinnaRep,
                         SigmaDescriptor, analyze, interval_entries)
from .util import BRACKET, branch_roots, frozen, halton_box, ladder_limit


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
        return ExpRep(number_from_json(obj.get("gamma", 0.0), "gamma"),
                      interval_entries(obj.get("psi", []), "value", "psi", half_line=True))


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
    that shares an end, and a ψ = 0 piece is dropped.  A ψ = 1 piece that
    overlaps O is refused."""

    c: float
    product: KreinProduct
    exp: Optional[ExpRep] = None

    def __post_init__(self):
        if not 0 < self.c < INF:
            raise ValueError(f"composite constant must be positive and finite, got {self.c}")
        if self.exp is None or all(0.0 < psi < 1.0 for _, _, psi in self.exp.pieces):
            return
        pieces, o = self.exp.pieces, self.product.arcs
        saturated = [arc for arc, (_, _, psi) in zip(self.exp.piece_arcs, pieces) if psi == 1.0]
        if saturated:
            _refuse_overlap(saturated, o)
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


def _refuse_overlap(pieces, o: ArcSet):
    # ψ pieces may meet the product set in its ends only
    for pa in pieces:
        if any(arcs_overlap(pa, oa) for oa in
               ((Arc(INF, INF, puncture=True),) if o.full else o.arcs)):
            raise ValueError(f"exponent piece {pa!r} overlaps the product set {o!r}")


def _analyze_composite(f: CompositeFunction) -> AnalysisResult:
    """σ and Γ of c·k_O·e^h over explicit arcs: Γ is Γ(k_O), and σ is σ(k_O)
    with the pieces of h, each with 0 < ψ < 1 in a canonical composite."""
    if f.product.cantor is not None:
        raise ValueError("analysis of generator-backed products is out of scope; "
                         "regularize to an explicit set first")
    if f.exp is not None:
        _refuse_overlap(f.exp.piece_arcs, f.product.arcs)
    s = f.product.structure  # as it evaluates: a shared end, ∞ included, is no pole
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
        if not is_inf(b) and abs(t - b) <= 1e-11 * max(1.0, abs(b)):
            continue
        atoms.append((t, w / p_eval(j, t)))
    if is_inf(a):
        # q(z) = −(z − b)/|i − b| grows at ∞, where f tends to f(∞) when α = 0
        if rep.alpha > 0:
            raise ValueError(f"f grows at ∞, so {j!r} is not inside the "
                             "negativity set")
        terms = [rep.beta] + [-w * t for t, w in rep.rho.atoms]
        alpha = _zero_end_weight(terms, 1.0 / math.hypot(1.0, b), j)
    else:
        alpha = rep.alpha / p_eval(j, INF)
        x = a
        terms = [rep.alpha * x, rep.beta] + [w * (1.0 + x * t) / (t - x)
                                             for t, w in rep.rho.atoms]
        # Res_a(q)/(1 + a²) is |a − b|/(|i − a|·|i − b|), or 1/|i − a| for b = ∞
        res = 1.0 if is_inf(b) else abs(x - b) / math.hypot(1.0, b)
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
# public operations


def divide_single(f, j: Arc):
    """g with f = p_J · g, for an arc J inside the negativity set of f.

    Structured atomic representations are divided exactly; composite forms
    drop (or split) the arc inside their Kreĭn set, which leaves a composite
    in the class by construction; anything else returns a quotient evaluator
    whose Im ≥ 0 is certified on a grid.
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
        return _divide_composite(f, ana.gamma, j)
    g = _quotient_blackbox(f, j, f.sigma if isinstance(f, BlackBoxFunction) else None)
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
    (4) Ω(f) = Ω(k) ∩ Ω(g).  When σ(f) has measure zero the positive
    constant of the corollary is certified as well.
    """
    ana = analyze_pick(f)
    gamma = ana.gamma
    k = KreinProduct(gamma)
    # the corollary's constant |f(i)| and its residual
    constant = _constant_certificate(f, k) if ana.sigma.is_measure_zero() else None

    if gamma.is_empty:
        g = f
    elif isinstance(f, CompositeFunction):
        # k_O / k_Γ is exactly 1 (the sets differ by measure zero)
        g = CompositeFunction(f.c, KreinProduct(EMPTY), f.exp) \
            if f.exp is not None else RepFunction(NevanlinnaRep(0.0, f.c))
    elif gamma.full:
        if isinstance(f, RepFunction):
            g = RepFunction(NevanlinnaRep(0.0, -f.rep.beta))
        else:
            g = BlackBoxFunction(lambda z, _f=f: -_f(z), sigma=ana.sigma)
    elif isinstance(f, RepFunction) and f.rep.rho.is_atomic():
        # the corollary: σ(f) has measure zero, so g is the constant |f(i)|
        g = RepFunction(NevanlinnaRep(0.0, constant[0]))
    else:
        g = BlackBoxFunction(lambda z, _f=f, _k=k: _f(z) / _k(z),
                             sigma=ana.sigma, label="quotient")

    posts = _verify_posts(ana, g, k)
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


def _structure(g):
    """(σ(g), the weight of ∞ in it, how far g dips below 0 on Ω(g)) for a
    structured g, else None.  A representation's σ(g) leaves out negligible
    atoms and linear term.  c·k_O·e^h has c > 0 and e^h > 0 off its pieces,
    so it is positive on Ω exactly when Γ(k_O) is empty."""
    if isinstance(g, CompositeFunction) and g.product.cantor is None:
        ana = _analyze_composite(g)
        return ana.sigma, 1.0, 0.0 if ana.gamma.is_empty else 1.0
    if not isinstance(g, RepFunction):
        return None
    rep, rho = g.rep, g.rep.rho
    sig = SigmaDescriptor(tuple(t for t, w in rho.atoms if w > 1e-9),
                          tuple((l, r) for l, r, _ in rho.ac), rep.alpha > 1e-9)
    if rep.alpha == 0 and not (rho.atoms or rho.ac):
        return sig, 0.0, max(0.0, -float(rep.beta))  # the constant β: what sampling it reads
    v = rep.eval(np.array(end_samples(*complement_ends(*sig.support, sig.has_inf))))
    v = v[np.isfinite(v)]  # the ∞ marker and NaN are skipped
    return sig, rep.alpha, max(0.0, -float(v.min())) if v.size else 0.0


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
    resid1 = max((e for e in reach if e > 1e-6), default=0.0)
    if sig_g.has_inf and not sig_f.has_inf:
        resid1 = max(resid1, inf_weight)
    posts = [Certification("sigma_subset", resid1, 1e-6, resid1 <= 1e-6),
             Certification("g_positive_on_omega", resid2, 1e-9, resid2 <= 1e-9)]

    # (3) Ω(g) is regular unless σ(g) has an isolated point
    reg_ok = all(r - l > POINT_TOL for l, r in zip(lo_g, hi_g))
    posts.append(Certification("omega_g_regular", 0.0 if reg_ok else 1.0, 0.0, reg_ok))

    # (4) σ(f) = X ∪ σ(g), X = σ(k_Γ)
    x_pts = k.structure.poles
    sig_c = SigmaDescriptor(tuple(p for p in x_pts if not is_inf(p)) + sig_g.points,
                            sig_g.intervals, any(map(is_inf, x_pts)) or sig_g.has_inf)
    lo_c, hi_c = sig_c.support
    ok4 = (sig_c.has_inf == sig_f.has_inf and len(lo_c) == len(lo_f)
           and all(x == y or abs(x - y) <= 1e-7 for x, y in zip(lo_c + hi_c, lo_f + hi_f)))
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
    dev = np.abs(fv[1:] / (c * k(zs)) - 1.0)
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
    """k_O · e^v for ψ pieces that meet O in its ends at most.  It is in the
    class: arg(k_O e^v) is the sum of ψ times the angle each arc subtends,
    and disjoint arcs subtend at most π in all."""
    _refuse_overlap(e.piece_arcs, o)
    return CompositeFunction(1.0, KreinProduct(o), e)


def psi_recover(g, t: float) -> float:
    """Boundary density of the exponent: ψ(t) = lim arg g(t+iε)/π ∈ [0, 1]."""
    ladder = [1e-1 * 0.5 ** k for k in range(10)]
    val = ladder_limit(lambda s: cmath.phase(complex(g(t + 1j * s))) / math.pi,
                       ladder, ratio=2.0, consistency=1e-4)
    return min(1.0, max(0.0, val))
