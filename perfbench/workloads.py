"""The three benchmark workloads: inputs, the op, and the reference check.

Each workload draws its inputs in blocks from a seeded generator.  A block is
stratified (fixed sizes and a fixed mix of cases, random positions), so that
runs with different seeds do the same kinds of work in the same proportions.
The program receives only the generated inputs.

A workload is built with ``Workload(tmpdir)``, where ``tmpdir`` is a
scratch directory inside the checkout.  For every op it provides

* ``run(op)``: the call into halfplane that is timed;
* ``answer(op, result)``: the result reduced to plain data (not timed);
* ``check(op, answer)``: None when the answer agrees with the reference in
  ``reference.py``, otherwise the reason it is wrong;
* ``perturb(op, answer)``: a deliberately wrong copy of a correct answer,
  which ``check`` must reject (the benchmark's self-test).

The timed inputs stay inside the region the program certifies, so that no
op of a workload fails.  The inputs it refuses or gets wrong (points too
close to the Cantor set for the factor budget, atomic functions with many
atoms, a realizable pair through ∞) are kept in ``hard_inputs(rng)``: a
small fixed batch that the traced run attempts and counts, outside the
workload.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Exceptions halfplane raises when it refuses an input by contract.
REFUSALS = {
    "TailNotCertified": "tail_not_certified",
    "EvaluationDomainError": "evaluation_domain_error",
    "CertificationError": "certification_error",
}
FAILURE_CAUSES = ("tail_not_certified", "evaluation_domain_error",
                  "certification_error", "other_exception", "cli_exit_1",
                  "cli_exit_2", "wrong_answer")


@dataclass
class Op:
    kind: str
    data: dict = field(default_factory=dict)


def separated(rng, n, lo, hi):
    """n sorted points in (lo, hi), one per random slot of 2n equal slots,
    jittered inside the slot, so neighbours stay at least (hi−lo)/(5n) apart."""
    slots = 2 * n
    width = (hi - lo) / slots
    idx = np.sort(rng.choice(slots, size=n, replace=False))
    return [float(lo + width * (i + 0.5 + rng.uniform(-0.3, 0.3))) for i in idx]


def halton(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


class Shifted:
    """Halton points in [0, 1)^d shifted mod 1 by a seeded offset.

    Every prefix of the sequence covers the square evenly, so runs with
    different seeds, cut at different lengths, see the same mix of costs;
    the op cost of the Cantor product changes by orders of magnitude over
    the sampled region, and independent draws leave the run's totals to a
    handful of expensive points.
    """

    def __init__(self, rng, bases):
        self.bases = bases
        self.shift = rng.random(len(bases))
        self.index = 0

    def __call__(self):
        self.index += 1
        return [(halton(self.index, b) + s) % 1.0 for b, s in zip(self.bases, self.shift)]


def latin(rng, n):
    """n points of [0, 1)² with one point in each row and each column."""
    return (rng.permutation(n) + rng.random(n)) / n, (np.arange(n) + rng.random(n)) / n


# ---------------------------------------------------------------------------
# cantor-eval


class CantorEval:
    """Certified evaluation of the Cantor-complement product (limit −1)."""

    name = "cantor-eval"
    trace_blocks = 3
    depth = 26
    # (tolerance, complex points per block, Re z range, Im z range).  The
    # 2M-factor budget refuses tolerance 1e-2 below Im z ≈ 0.2 near 0 and 1e-3
    # below Im z ≈ 0.9.  The ranges also keep the generator at depth 19 (2^19
    # factors) or less, as depth-20 evaluations vary in time far more than the
    # host's speed does; so does keeping the real points to the middle fifth
    # of the level-1 gap.  The tighter tolerance is taken over the base
    # interval only, where its depth-19 evaluations cost about the same: they
    # hold p90, and off the interval the cost changes threefold with Re z
    mix = ((1e-2, 12, (-1.0, 2.0), (0.25, 2.0)), (1e-3, 3, (0.0, 1.0), (1.8, 4.0)))

    def __init__(self, tmpdir):
        from halfplane import krein
        self.products = {tol: krein.cantor_complement_product((0, 1), depth=self.depth,
                                                              tol=tol)
                         for tol, *_ in self.mix}
        self.streams = None

    def block(self, rng):
        if self.streams is None:
            self.streams = {tol: Shifted(rng, (2, 3)) for tol, *_ in self.mix}
        ops = []
        for tol, n, (x0, x1), (y0, y1) in self.mix:
            for _ in range(n):
                u, v = self.streams[tol]()
                z = complex(x0 + (x1 - x0) * u, y0 * (y1 / y0) ** v)
                ops.append(Op("complex", {"tol": tol, "z": z}))
        for _ in range(2):
            ops.append(Op("real_gap", {"tol": 1e-2, "z": gap_point(rng, 1, 0.4)}))
        return [ops[i] for i in rng.permutation(len(ops))]

    def hard_inputs(self, rng):
        """Points the factor budget refuses: the tighter tolerance closer to
        the set, the looser one next to the endpoint 0, deeper real gaps."""
        ops = [Op("complex", {"tol": 1e-3, "z": complex(rng.uniform(-1.0, 2.0),
                                                        rng.uniform(0.1, 0.6))})
               for _ in range(4)]
        ops += [Op("complex", {"tol": 1e-2, "z": complex(rng.uniform(-0.1, 0.1),
                                                         rng.uniform(0.06, 0.12))})
                for _ in range(2)]
        ops += [Op("real_gap", {"tol": 1e-2, "z": gap_point(rng, level, 0.1)})
                for level in (2, 3)]
        return ops

    def run(self, op):
        return self.products[op.data["tol"]].eval(op.data["z"])

    def answer(self, op, result):
        value, tail = result
        return {"value": complex(value), "tail": float(tail),
                "real": not isinstance(value, complex)}

    def check(self, op, ans):
        tol, z = op.data["tol"], op.data["z"]
        if not 0.0 <= ans["tail"] <= tol:
            return f"tail {ans['tail']:.3e} outside [0, {tol}]"
        err = abs(ans["value"] + 1.0)
        if err > ans["tail"] * (1.0 + 1e-12) + 1e-15:
            return f"|value + 1| = {err:.3e} exceeds the certified tail {ans['tail']:.3e}"
        if not isinstance(z, complex) and not ans["real"]:
            return "real point gave a complex value"
        return None

    def perturb(self, op, ans):
        return dict(ans, value=ans["value"] + 3.0 * op.data["tol"])


def gap_point(rng, level, margin):
    """A real point of a removed middle third of level ``level``, at least
    ``margin`` of the gap's width away from its ends."""
    lo, width = 0.0, 1.0
    for _ in range(level - 1):
        width /= 3.0
        if rng.random() < 0.5:
            lo += 2.0 * width
    return lo + width / 3.0 * (1.0 + rng.uniform(margin, 1.0 - margin))


# ---------------------------------------------------------------------------
# atomic-factor


class AtomicFactor:
    """f = k_Γ(f)·g for atomic Nevanlinna functions."""

    name = "atomic-factor"
    trace_blocks = 10
    # atoms -> half-width of the support; the span grows with n
    half_width = {4: 2.0, 8: 4.0, 64: 16.0, 128: 16.0}
    # instances per block; p50 lies inside the n = 4 class and p90 inside
    # n = 8, each well above the class's lower end, which follows the host's
    # fast spells more loosely than the rest.  The division chain fails
    # certification for about one instance in ten at n = 32, nearly all at
    # n ≥ 64, about one in 20 000 at n = 16 and more often when α is close
    # to 0; the hard inputs are n = 64 and 128 with α from 0
    mix = ((4, 7), (8, 3))
    alpha_min = 0.1

    def __init__(self, tmpdir):
        from halfplane import factor, nevanlinna
        self.factor, self.nevanlinna = factor, nevanlinna

    def block(self, rng):
        ops = [self.instance(rng, n) for n, count in self.mix for _ in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def hard_inputs(self, rng):
        """Instances the division chain fails to certify."""
        return [self.instance(rng, n, alpha_min=0.0) for n in (64, 128, 128)]

    def instance(self, rng, n, alpha_min=alpha_min):
        half = self.half_width[n]
        ts = separated(rng, n, -half, half)
        ws = [float(w) for w in rng.uniform(0.2, 2.0, n)]
        alpha = float(rng.uniform(alpha_min, 2.0))
        beta = float(rng.uniform(-3.0, 3.0))
        atoms = tuple(zip(ts, ws))
        nv = self.nevanlinna
        rep = nv.NevanlinnaRep(alpha, beta, nv.Measure(atoms=atoms))
        # held-out points, away from the program's own certification grid
        us, vs = latin(rng, 12)
        held = [complex(-half - 2.0 + (2.0 * half + 4.0) * u, 0.3 * 20.0 ** v)
                for u, v in zip(us, vs)]
        return Op(f"n{n}", {"rep": rep, "alpha": alpha, "beta": beta,
                            "atoms": atoms, "held": held})

    def run(self, op):
        return self.factor.factorize(self.factor.RepFunction(op.data["rep"]))

    def answer(self, op, res):
        full, arcs = ref.arcs_from_json(res.gamma.to_json())
        return {"full": full, "arcs": arcs, "constant": res.constant}

    def check(self, op, ans):
        d = op.data
        f = lambda z: ref.nevanlinna(d["alpha"], d["beta"], d["atoms"], z)
        c = abs(f(1j))
        if ans["constant"] is not None and not ref.close(ans["constant"], c, 1e-9):
            return f"constant {ans['constant']!r} differs from |f(i)| = {c!r}"
        for z in d["held"]:
            fz = f(z)
            kz = ref.krein(ans["arcs"], z, ans["full"])
            if abs(fz - c * kz) > 1e-7 * abs(fz):
                return f"f != |f(i)|·k_Γ at {z}: {fz} vs {c * kz}"
        ts = [t for t, _ in d["atoms"]]
        xs = [ts[0] - 3.0, ts[0] - 0.5, ts[-1] + 0.5, ts[-1] + 3.0]
        for lo, hi in zip(ts, ts[1:]):
            xs.extend(lo + (hi - lo) * s for s in (0.1, 0.3, 0.5, 0.7, 0.9))
        for x in xs:
            fx = f(x)
            if abs(fx) < 1e-6 * (1.0 + abs(x)):
                continue  # too close to a zero of f to read its sign
            negative = ans["full"] or any(ref.arc_contains(b, a, x)
                                          for b, a in ans["arcs"])
            if (fx < 0) != negative:
                return f"sign of f({x}) = {fx:.3e} disagrees with Γ"
        return None

    def perturb(self, op, ans):
        arcs = list(ans["arcs"])
        b, a = arcs[0]
        if a == ref.INF:
            b += 1e-4 * (1.0 + abs(b))
        else:
            a += 1e-4 * (1.0 + abs(a))
        arcs[0] = (b, a)
        return dict(ans, arcs=arcs)


# ---------------------------------------------------------------------------
# spec-mix


def unimodular(theta):
    return complex(math.cos(theta), math.sin(theta))


class SpecMix:
    """One CLI invocation per op, on seeded JSON specs.

    The CLI writes its report to standard output, captured in memory: with
    ``--out``, creating the report file took from 0.14 to 0.25 ms with the
    shared disk's load, a swing the host-speed probe does not see.
    """

    name = "spec-mix"
    trace_blocks = 2

    def __init__(self, tmpdir):
        from halfplane import cli
        self.cli = cli
        self.tmpdir = tmpdir
        self.counter = 0

    def block(self, rng):
        ops = [
            self.interp(rng, 6), self.interp(rng, 20),
            self.disk(rng, 6), self.disk(rng, 20),
            self.realizable(rng), self.realizable(rng),
            self.boole(rng, 8), self.boole(rng, 64),
            self.letac(rng, 8), self.letac(rng, 64),
            self.eval_nevanlinna(rng, "-6:6:25"),
            self.eval_nevanlinna(rng, "box:-4:4:0.2:3:5"),
            self.eval_krein(rng, "-6:6:25"),
            self.eval_krein(rng, "box:-4:4:0.2:3:5"),
            self.factor_product(rng),
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def hard_inputs(self, rng):
        """Valid realizable pairs whose Ω contains ∞, which ``solve`` rejects
        with exit code 2 (``psi pieces must not overlap``)."""
        return [self.realizable(rng, through_inf=True) for _ in range(2)]

    def _op(self, kind, command, spec, **data):
        self.counter += 1
        path = os.path.join(self.tmpdir, f"spec{self.counter}.json")
        with open(path, "w") as fh:
            json.dump({"version": 1, **spec}, fh)
        return Op(kind, {"argv": [command, "--spec", path], "spec": path, **data})

    # -- generators -------------------------------------------------------

    def interp(self, rng, m):
        k = int(rng.integers(0, 3))
        pts = separated(rng, m + k, -8.0, 8.0)
        sing_idx = set(int(i) for i in rng.choice(m + k, size=k, replace=False))
        rest = [p for i, p in enumerate(pts) if i not in sing_idx]
        first_zero = bool(rng.random() < 0.5)
        zeros = [p for i, p in enumerate(rest) if (i % 2 == 0) == first_zero]
        poles = [p for i, p in enumerate(rest) if (i % 2 == 0) != first_zero]
        singular = [pts[i] for i in sorted(sing_idx)]
        return self._op("interp", "solve",
                        {"interp": {"zeros": zeros, "poles": poles,
                                    "singular": singular}},
                        zeros=zeros, poles=poles)

    def disk(self, rng, m):
        angles = separated(rng, m, 0.15, 2.0 * math.pi - 0.15)
        first_zero = bool(rng.random() < 0.5)
        zeros = [unimodular(t) for i, t in enumerate(angles) if (i % 2 == 0) == first_zero]
        poles = [unimodular(t) for i, t in enumerate(angles) if (i % 2 == 0) != first_zero]
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = unimodular(phi)
        beta = unimodular(phi + float(rng.uniform(0.5, 2.0 * math.pi - 0.5)))
        zeta = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        pair = lambda w: [w.real, w.imag]
        spec = {"interp": {"zeros": [pair(w) for w in zeros],
                           "poles": [pair(w) for w in poles], "singular": [],
                           "alpha": pair(alpha), "beta": pair(beta),
                           "zeta": pair(zeta)}}
        return self._op("interp-disk", "solve", spec, zeta=zeta,
                        zeros=[ref.cayley_inverse(zeta, w) for w in zeros],
                        poles=[ref.cayley_inverse(zeta, w) for w in poles])

    def realizable(self, rng, through_inf=False):
        # along the line: an arc (x, y) of O, then a closed interval of the
        # complement of Ω, repeated; Ω also omits the left endpoints x, and
        # contains ∞ or not
        q = 3
        pts = separated(rng, 4 * q, -8.0, 8.0)
        o_arcs, closed = [], []
        for j in range(q):
            x, y, l, r = pts[4 * j: 4 * j + 4]
            o_arcs.append([x, y])
            closed.extend([(x, x), (l, r)])
        omega = [[closed[i][1], closed[i + 1][0]] for i in range(len(closed) - 1)]
        if through_inf:
            omega.append([closed[-1][1], closed[0][0]])
        else:
            omega.append([closed[-1][1], "inf"])
        return self._op("realizable-wrap" if through_inf else "realizable", "solve",
                        {"realizable": {"omega": {"arcs": omega},
                                        "o": {"arcs": o_arcs}}})

    def _atoms(self, rng, n):
        half = max(4.0, n / 4.0)
        ts = separated(rng, n, -half, half)
        return [[t, float(w)] for t, w in zip(ts, rng.uniform(0.2, 2.0, n))]

    def boole(self, rng, n):
        atoms = self._atoms(rng, n)
        ys = sorted(float(0.3 * 10.0 ** u) for u in rng.random(2))
        return self._op(f"boole{n}", "solve", {"boole": {"atoms": atoms, "y": ys}},
                        mass=math.fsum(w for _, w in atoms), ys=ys)

    def letac(self, rng, n):
        atoms = self._atoms(rng, n)
        c = float(rng.uniform(-4.0, 0.0))
        d = c + float(rng.uniform(0.5, 4.0))
        beta = float(rng.uniform(-2.0, 2.0))
        return self._op(f"letac{n}", "solve",
                        {"letac": {"beta": beta, "atoms": atoms, "interval": [c, d]}},
                        length=d - c)

    def eval_nevanlinna(self, rng, grid):
        atoms = self._atoms(rng, 8)
        alpha, beta = float(rng.uniform(0.0, 2.0)), float(rng.uniform(-3.0, 3.0))
        spec = {"nevanlinna": {"alpha": alpha, "beta": beta, "atoms": atoms},
                "options": {"grid": grid}}
        fn = lambda z: ref.nevanlinna(alpha, beta, [tuple(a) for a in atoms], z)
        kind = "eval-nevanlinna-" + ("box" if grid.startswith("box") else "line")
        return self._op(kind, "eval", spec, fn=fn)

    def eval_krein(self, rng, grid):
        n = int(rng.integers(2, 6))
        pts = separated(rng, 2 * n, -6.0, 6.0)
        arcs = [[pts[2 * i], pts[2 * i + 1]] for i in range(n)]
        if rng.random() < 0.5:
            arcs[-1] = [arcs[-1][0], arcs[0][0] - 1.0]  # wrap through ∞
            arcs = arcs[1:] if n > 2 else arcs[-1:]
        plain = [tuple(a) for a in arcs]
        spec = {"krein": {"arcs": arcs}, "options": {"grid": grid}}
        kind = "eval-krein-" + ("box" if grid.startswith("box") else "line")
        return self._op(kind, "eval", spec, fn=lambda z: ref.krein(plain, z),
                        lefts=[b for b, _ in plain])

    def factor_product(self, rng):
        p = int(rng.integers(2, 5))
        pts = separated(rng, 4 * p, -8.0, 8.0)
        arcs = [[pts[4 * j], pts[4 * j + 1]] for j in range(p)]
        psi = [{"interval": [pts[4 * j + 2], pts[4 * j + 3]],
                "value": float(rng.uniform(0.1, 0.9))} for j in range(p)]
        c, gamma = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-1.0, 1.0))
        spec = {"product": {"c": c, "krein": {"arcs": arcs},
                            "exp": {"gamma": gamma, "psi": psi}}}

        def g(z):
            h = gamma + sum(piece["value"] * ref.log_factor(*piece["interval"], z)
                            for piece in psi)
            return c * np.exp(h)

        return self._op("factor-product", "factor", spec, g=g,
                        arcs=[tuple(a) for a in arcs])

    # -- the op -----------------------------------------------------------

    def run(self, op):
        """The report text, or the exit code when it is not 0."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(op.data["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        return out.getvalue() if code == 0 else code

    def answer(self, op, text):
        return {"report": json.loads(text)}

    # -- reference checks -------------------------------------------------

    def check(self, op, ans):
        rep = ans["report"]
        certs = rep.get("certifications", [])
        if not all(c["pass"] for c in certs):
            return "exit 0 with a failed certification"
        kind = op.kind
        if kind in ("interp", "interp-disk"):
            return self._check_interp(op, rep)
        if kind.startswith("realizable"):
            if rep["ok"] is not True or rep["failures"]:
                return f"realizable pair reported as {rep['ok']}"
            return None
        if kind.startswith("boole"):
            for cert, y in zip(certs, op.data["ys"]):
                target = op.data["mass"] / y
                for side in ("plus", "minus"):
                    if not ref.close(cert[side], target, 1e-8):
                        return f"{side} = {cert[side]!r} at y = {y}, μ(R)/y = {target!r}"
            return None if len(certs) == len(op.data["ys"]) else "missing y rows"
        if kind.startswith("letac"):
            length = certs[0]["length"]
            if not ref.close(length, op.data["length"], 1e-8):
                return f"preimage length {length!r} != d − c = {op.data['length']!r}"
            return None
        if kind.startswith("eval"):
            return self._check_rows(op, rep["rows"])
        if kind == "factor-product":
            return self._check_factor(op, rep)
        return f"unknown op kind {kind}"

    def _check_interp(self, op, rep):
        # θ = m∘k∘C⁻¹ with m(0) = α and m(∞) = β, so θ = α on the zeros and
        # β on the poles exactly when their pullbacks are zeros and poles of k
        full, arcs = ref.arcs_from_json(rep["region"])
        if op.kind == "interp-disk":
            pulled = rep["problem"]
            for key in ("zeros", "poles"):
                got = [ref.point(p) for p in pulled[key]]
                want = sorted(op.data[key])
                if len(got) != len(want) or not all(
                        ref.close(g, w, 1e-9) for g, w in zip(got, want)):
                    return f"pulled-back {key} {got} differ from {want}"
        for a in op.data["zeros"]:
            v = ref.krein(arcs, a, full)
            if abs(v) > 1e-9:
                return f"|k({a})| = {abs(v):.3e} at a prescribed zero"
        lefts = [b for b, _ in arcs]
        for b in op.data["poles"]:
            if not any(ref.close(b, x, 1e-9) for x in lefts if x != ref.INF):
                return f"prescribed pole {b} is not a pole of k"
        return None

    def _check_rows(self, op, rows):
        fn = op.data["fn"]
        for x, y, re_f, im_f, flag in rows:
            if flag not in ("interior", "cont"):
                return f"row at {x}+{y}i flagged {flag}"
            z = complex(x, y) if flag == "interior" else float(x)
            want = complex(fn(z))
            if abs(complex(re_f, im_f) - want) > 1e-9 * max(1.0, abs(want)):
                return f"row at {x}+{y}i: {re_f}+{im_f}i, reference {want}"
        return None

    def _check_factor(self, op, rep):
        full, arcs = ref.arcs_from_json(rep["gamma"])
        want = sorted(op.data["arcs"])
        if full or len(arcs) != len(want) or not all(
                ref.close(u, v, 1e-12) for got, w in zip(arcs, want)
                for u, v in zip(got, w)):
            return f"Γ = {arcs} differs from the product set {want}"
        g = op.data["g"]
        for x, y, re_g, im_g in rep["g_samples"]:
            want_g = complex(g(complex(x, y)))
            if abs(complex(re_g, im_g) - want_g) > 1e-9 * max(1.0, abs(want_g)):
                return f"g({x}+{y}i) = {re_g}+{im_g}i, reference {want_g}"
        return None

    def perturb(self, op, ans):
        rep = copy.deepcopy(ans["report"])
        kind = op.kind
        if kind in ("interp", "interp-disk"):
            for arc in rep["region"]["arcs"]:
                if arc[1] != "inf":
                    arc[1] += 1e-6 * (1.0 + abs(arc[1]))
        elif kind.startswith("realizable"):
            rep["ok"] = False
        elif kind.startswith("boole"):
            rep["certifications"][0]["plus"] *= 1.0 + 1e-6
        elif kind.startswith("letac"):
            rep["certifications"][0]["length"] += 1e-6
        elif kind.startswith("eval"):
            row = rep["rows"][0]
            row[2] += 1e-6 * (1.0 + abs(complex(row[2], row[3])))
        elif kind == "factor-product":
            row = rep["g_samples"][0]
            row[2] += 1e-6 * (1.0 + abs(complex(row[2], row[3])))
        return dict(ans, report=rep)


WORKLOADS = {w.name: w for w in (CantorEval, AtomicFactor, SpecMix)}
