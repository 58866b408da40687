"""Command-line front end: evaluate, factorize, interpolate, verify.

Spec files are JSON with exactly one task key among
  nevanlinna | krein | product          (function specs)
  interp | realizable | boole | letac   (problem specs)
plus an optional "options" object with eval's "grid" and "eps", which its
flags override.  This module is the one reader of the format; the types
keep their ``to_json`` writers.  Unknown fields are rejected: at the top
level, in a task body, in "options", in a nested "cantor" or "exp" and in a
realizable pair's "omega" and "o".  A list field takes a JSON list only, a
number a JSON number, a point also "inf", "-inf" or "oo", and a malformed or
missing field is an input error naming its path ("nevanlinna.ac entry 0"), as
is an object's own rule (a positive weight) at the path of the field it read.

Exit codes: 0 all certifications pass, 1 certification failure, 2 input error
(the message begins with a spec path or a flag), 3 internal error (a bug).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import extreal, factor, interp, krein
from .extreal import Arc, FULL, INF, as_point, normalize
from .factor import CompositeFunction, ExpRep, RepFunction, factorize
from .krein import (KreinProduct, TailNotCertified,
                    cantor_complement_product, p_eval)
from .nevanlinna import (Measure, NevanlinnaRep, boole_superlevel_measure,
                         boole_tolerance, letac_pushforward_check, recover_alpha,
                         recover_atom, recover_beta)
from .util import RootBracketError

FUNCTION_TASKS = ("nevanlinna", "krein", "product")
PROBLEM_TASKS = ("interp", "realizable", "boole", "letac")
# the fields each spec object reads: a misspelt field would otherwise be
# ignored without a word
FIELDS = {
    "spec": FUNCTION_TASKS + PROBLEM_TASKS + ("version", "options"),
    "nevanlinna": ("alpha", "beta", "atoms", "ac", "cantor_depth"),
    "krein": ("arcs", "full", "cantor", "tol"),
    "product": ("c", "krein", "exp"),
    "interp": ("zeros", "poles", "singular", "alpha", "beta", "zeta"),
    "realizable": ("omega", "o"),
    "omega": ("arcs", "full"),
    "o": ("arcs", "full"),
    "boole": ("atoms", "y"),
    "letac": ("atoms", "beta", "interval"),
    "options": ("eps", "grid"),
    "cantor": ("interval", "depth"),
    "exp": ("gamma", "psi"),
}
# the largest depth of a spec's ``cantor_depth`` stand-in: 2^16 atoms, which
# a process builds and evaluates in under 100 MB (2^18 took 225 MB)
MAX_CANTOR_DEPTH = 16
# the most points an eval grid may have, n or n² for a box: 10^5 points
# evaluate in under 1 s and 120 MB (10^6 took 7.6 s and 870 MB)
MAX_GRID_POINTS = 100_000


class SpecError(ValueError):
    pass


def load_spec(path, command):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not text, not JSON, too deep
        raise SpecError(f"--spec: cannot read spec: {exc}") from None
    _fields(obj, "spec")
    tasks = [k for k in obj if k in FUNCTION_TASKS or k in PROBLEM_TASKS]
    if len(tasks) != 1:
        raise SpecError(f"spec must contain exactly one task, found {tasks}")
    if obj.get("version", 1) != 1:
        raise SpecError(f"version {obj['version']!r} is unsupported; "
                        "this program reads version 1")
    options = _fields(obj.get("options", {}), "options")
    if "eps" in options:
        _eps(options["eps"], "options.eps")
    if (tasks[0] in PROBLEM_TASKS) != (command == "solve"):
        kind = "problem" if command == "solve" else "function"
        raise SpecError(f"spec: {command} needs a {kind} spec, got '{tasks[0]}'")
    return tasks[0], _fields(obj[tasks[0]], tasks[0]), options


# ---------------------------------------------------------------------------
# the spec reader: each reader takes a JSON value and its field's path, which
# names the field in the message of a malformed value


def _made(path, make, *args):
    # make(*args), an object or a library call, its ValueError (an object's
    # own rule) an input error at the path of the field it read
    try:
        return make(*args)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from None


def _at(body, path, key, *default):
    # (the field's value, its path); a field with no default is required
    if key not in body and not default:
        raise SpecError(f"{path}.{key} is required")
    return body.get(key, *default), f"{path}.{key}"


def _fields(obj, path, what=None):
    # obj, a JSON object (of ``what``) with no field outside FIELDS[path's last name]
    if not isinstance(obj, dict):
        raise SpecError(f"{path}: {what} {obj!r} is not a JSON object" if what
                        else f"{path} must be a JSON object, got {obj!r}")
    name = path.rsplit(".", 1)[-1]
    unknown = set(obj) - set(FIELDS[name])
    if unknown:
        raise SpecError(f"{path}: unknown {name} fields: {sorted(unknown)}")
    return obj


def _list(value, path):
    # the one rule of every list field
    if not isinstance(value, list):
        raise SpecError(f"{path} must be a JSON list, got {value!r}")
    return value


def _number(value, path, half_line=False) -> float:
    # a JSON number (no bool or string) as a float, or with half_line (a ψ
    # piece's ends) "inf" and "-inf"; NaN and ±inf go on to the range checks
    if half_line and value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{path} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{path}: a {len(str(abs(value)))}-digit integer is past "
                        "the float range") from None


def _pair(value, path, form, read=_number) -> tuple:
    # a two-entry list (an interval, an atom, a disk point), each entry read
    if not (isinstance(value, list) and len(value) == 2):
        raise SpecError(f"{path}: {value!r} is not a {form} pair")
    return read(value[0], path), read(value[1], path)


def _point(value, path, what="a point") -> float:
    # a JSON number, or "inf", "-inf" or "oo" for ∞
    return INF if value in ("inf", "-inf", "oo") else _made(path, as_point, value, what)


def _depth(value, path, top=None):
    # a JSON integer >= 0, and <= top where there is one
    if type(value) is not int or not 0 <= value <= (INF if top is None else top):
        bound = ">= 0" if top is None else f"from 0 to {top}"
        raise SpecError(f"{path} must be an integer {bound}, got {value!r}")
    return value


def _eps(value, path):
    # eval's ladder height
    if not 0 <= _number(value, path) < INF:
        raise SpecError(f"{path} must be finite and >= 0 (rows at Im z = eps lie "
                        f"in the upper half-plane), got {value}")
    return value


def _atoms(value, path) -> tuple:
    # (t, w) of a list of [t, w] pairs of numbers
    return tuple(_pair(p, f"{path} entry {k}", "[t, w]") for k, p in enumerate(_list(value, path)))


def _pieces(value, path, key, half_line=False) -> tuple:
    # (l, r, v) of a list of {"interval": [l, r], key: v} entries, as given,
    # for the object they build to convert
    out = []
    for k, p in enumerate(_list(value, path)):
        what = f"{path} entry {k}"
        iv = p.get("interval") if isinstance(p, dict) else None
        if not (isinstance(iv, list) and len(iv) == 2 and key in p):
            raise SpecError(f"{what} {p!r} is not of the form "
                            f'{{"interval": [l, r], "{key}": v}}')
        for x in iv:
            _number(x, what, half_line)
        _number(p[key], what)
        out.append((iv[0], iv[1], p[key]))
    return tuple(out)


def _arc_set(body, path):
    # the arc set of an object's "full" and "arcs" fields
    full, where = _at(body, path, "full", False)
    if not isinstance(full, bool):
        raise SpecError(f"{where} {full!r} is not a JSON boolean")
    if full:
        return FULL
    arcs = []
    for k, item in enumerate(_list(*_at(body, path, "arcs", []))):
        entry = f"{path}.arcs entry {k}"
        if isinstance(item, dict) and "puncture" in item:
            x = _point(item["puncture"], entry, "an arc end")
            arcs.append(_made(entry, Arc, x, x, True))
        elif isinstance(item, list) and len(item) == 2:
            arcs.append(_made(entry, Arc, *(_point(x, entry, "an arc end") for x in item)))
        else:
            raise SpecError(f"{entry} {item!r} is not a [b, a] pair of points")
    return normalize(arcs)


def _krein_product(kspec, path="krein"):
    """The Kreĭn product of a "krein" body: explicit arcs, or the Cantor
    complement at the body's depth (default 26) and tolerance (default 1e-6)."""
    if "cantor" not in kspec:
        if "tol" in kspec:
            raise SpecError(f"{path} tol goes with a cantor generator, not with explicit arcs")
        return KreinProduct(_arc_set(kspec, path))
    if "arcs" in kspec or "full" in kspec:
        raise SpecError(f"{path} takes arcs or a cantor generator, not both")
    cc = _fields(*_at(kspec, path, "cantor"))
    # the base's rule and then tol's, each at its own field
    base, where = _at(cc, f"{path}.cantor", "interval", [0, 1])
    base = _made(where, extreal.finite_interval,
                 _pair(base, where, "[l, r]", functools.partial(_point, what="an arc end")))
    depth = _depth(*_at(cc, f"{path}.cantor", "depth", 26))
    tol, where = _at(kspec, path, "tol", 1e-6)
    return _made(where, cantor_complement_product, base, depth, _number(tol, where))


def build_function_spec(task, body):
    if task == "nevanlinna":
        rho = _made(task, Measure, _atoms(*_at(body, task, "atoms", [])),
                    _pieces(*_at(body, task, "ac", []), "density"))
        if "cantor_depth" in body:
            depth = _depth(*_at(body, task, "cantor_depth"), MAX_CANTOR_DEPTH)
            rho = _made(task, Measure, rho.atoms + Measure.cantor_atoms(depth).atoms, rho.ac)
        return RepFunction(_made(task, NevanlinnaRep, _number(*_at(body, task, "alpha", 0.0)),
                                 _number(*_at(body, task, "beta", 0.0)), rho))
    if task == "krein":
        return CompositeFunction(1.0, _krein_product(body))
    c = _number(*_at(body, task, "c", 1.0))
    prod = _krein_product(_fields(*_at(body, task, "krein", {})), "product.krein")
    exp = None
    if "exp" in body:
        spec = _fields(*_at(body, task, "exp"))
        exp = _made("product.exp", ExpRep, _number(*_at(spec, "product.exp", "gamma", 0.0)),
                    _pieces(*_at(spec, "product.exp", "psi", []), "value", True))
    return _made(task, CompositeFunction, c, prod, exp)


def parse_grid(text, field):
    if not isinstance(text, str):
        raise SpecError(f"{field} must be a string, got {text!r}")
    if text.startswith("box:"):
        parts = text.split(":")[1:]
        if len(parts) != 5:
            raise SpecError(f"{field}: a box grid needs box:re1:re2:im1:im2:n")
        r1, r2, i1, i2, n = _grid_numbers(parts, field)
        if not (i1 > 0 and i2 > 0):
            raise SpecError(f"{field}: the box's Im range [{i1}, {i2}] must be "
                            "strictly positive (the upper half-plane)")
        xs, ys = (_made(field, np.linspace, lo, hi, n) for lo, hi in ((r1, r2), (i1, i2)))
        return [complex(x, y) for y in ys for x in xs]
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"{field}: a grid needs a:b:n or box:re1:re2:im1:im2:n")
    a, b, n = _grid_numbers(parts, field)
    return [float(x) for x in _made(field, np.linspace, a, b, n)]


def _grid_numbers(parts, field):
    # a grid's ends as pairs (lo, hi), each span finite, and so each end, then
    # its point count n, a decimal integer >= 0 whose n per axis stay within
    # MAX_GRID_POINTS; a count with more digits than the cap is past it
    *spans, count = parts
    ends = [_made(field, float, t) for t in spans]
    if not all(math.isfinite(hi - lo) for lo, hi in zip(ends[::2], ends[1::2])):
        raise SpecError(f"{field}: a grid end or span in {':'.join(spans)} is not finite")
    if not count.isdecimal():
        raise SpecError(f"{field}: the point count {count!r} is not an integer >= 0")
    digits = count.lstrip("0") or "0"
    if (len(digits) > len(str(MAX_GRID_POINTS))
            or int(digits) ** (len(spans) // 2) > MAX_GRID_POINTS):
        raise SpecError(f"{field}: the grid has more than {MAX_GRID_POINTS} points "
                        "(n, or n² for a box)")
    return ends + [int(digits)]


def cmd_eval(args):
    task, body, options = load_spec(args.spec, "eval")
    fn = build_function_spec(task, body)
    field = "--grid" if args.grid else "options.grid"
    grid = parse_grid(args.grid or options.get("grid", "-5:5:21"), field)
    # load_spec has read options.eps
    eps = _eps(args.eps, "--eps") if args.eps is not None else options.get("eps")
    # a point off the line, a real point lifted to Im z = eps, or one on it
    points, flags = zip(*[(z, "interior") if isinstance(z, complex) else
                          (complex(z, float(eps)), "eps") if eps else (complex(z, 0.0), "cont")
                          for z in grid]) if grid else ((), ())
    # off the real line only the generator's tail can refuse a point
    # (TailNotCertified); on it, the guard band and the Cantor set too, and
    # a real grid point inside a density is an input error
    values, refused = _made(field, fn.masked, np.array(points, dtype=complex))
    rows = []
    for point, flag, v, no in zip(points, flags, values.tolist(), refused.tolist()):
        if no:
            rows.append((point.real, point.imag, math.inf, 0.0,
                         "near-sigma" if flag == "cont" else "uncertified"))
            continue
        if flag == "cont" and v.imag == 0 and math.isinf(v.real):
            flag = "pole"
        rows.append((point.real, point.imag, v.real, v.imag, flag))
    return {"task": task, "rows": rows}, 0


def rows_to_csv(rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["x_or_re_z", "im_z", "re_f", "im_f", "flag"])
    for r in rows:
        w.writerow([f"{r[0]:.12g}", f"{r[1]:.12g}", f"{r[2]:.12g}",
                    f"{r[3]:.12g}", r[4]])
    return buf.getvalue()


def _cert_entries(certs):
    return [{"name": c.name, "residual": c.residual, "tolerance": c.tolerance,
             "pass": bool(c.passed), "note": c.note}
            for c in certs]


def cmd_factor(args):
    task, body, _ = load_spec(args.spec, "factor")
    # the zero function, a generator-backed product, a measure past the floats
    res = _made(task, factorize, build_function_spec(task, body))
    report = {
        "task": "factor",
        "gamma": res.gamma.to_json(),
        # the negativity set may legitimately contain ∞ (f extends there
        # with a negative value); flagged because the boundary behaviour at
        # ∞ sits outside the finite-point regularization theory
        "gamma_contains_infinity": bool(res.gamma.full or res.gamma.contains(INF)),
        "k": res.k.support_json(),
        "certifications": _cert_entries(res.posts),
    }
    if isinstance(res.g, RepFunction):
        report["g"] = res.g.rep.to_json()
    else:
        zs = np.linspace(-3, 3, 7) + 1j
        report["g_samples"] = [[z.real, z.imag, v.real, v.imag]
                               for z, v in zip(zs.tolist(), res.g(zs).tolist())]
    if res.constant is not None:
        report["constant"] = res.constant
        report["constant_residual"] = res.constant_residual
    code = 0 if all(c["pass"] for c in report["certifications"]) else 1
    return report, code


def cmd_solve(args):
    task, body, _ = load_spec(args.spec, "solve")
    if task == "interp":
        return _solve_interp(body), 0
    if task == "realizable":
        omega, o = (_arc_set(_fields(*_at(body, task, key), "arc set"), f"{task}.{key}")
                    for key in ("omega", "o"))
        ok, failures, fcert = interp.realizable_pair(omega, o)
        return {"task": "realizable", "ok": ok,
                "failures": [list(f) for f in failures]}, (0 if ok else 1)
    if task == "boole":
        mu = _made("boole.atoms", Measure, _atoms(*_at(body, task, "atoms")))
        ys = body.get("y", [1.0])
        ys = ys if isinstance(ys, list) else [ys]
        if not ys:
            raise SpecError("boole.y is an empty list: it names no level to check")
        certs = []
        for y in ys:
            value = _number(y, "boole.y")
            plus, minus = _made("boole.y", boole_superlevel_measure, mu, value)
            target = mu.mass() / value
            resid = max(abs(plus - target), abs(minus - target))
            tol = boole_tolerance(mu, target, plus, minus)
            certs.append({"name": f"boole_y={y}", "residual": resid,
                          "tolerance": tol, "pass": resid <= tol,
                          "plus": plus, "minus": minus, "target": target})
        ok = all(c["pass"] for c in certs)
        return {"task": "boole", "certifications": certs}, (0 if ok else 1)
    rep = _made("letac.beta", NevanlinnaRep, 1.0, _number(*_at(body, task, "beta", 0.0)),
                _made("letac.atoms", Measure, _atoms(*_at(body, task, "atoms"))))
    # the interval's rule at its field, then the roots at the task; the
    # interval as given: an int interval's target d − c stays an int
    interval, where = _at(body, task, "interval")
    _made(where, extreal.finite_interval, _pair(interval, where, "[c, d]"))
    length = _made(task, letac_pushforward_check, rep, interval)
    c, d = interval
    resid = abs(length - (d - c))
    cert = {"name": "letac_preimage_length", "residual": resid,
            "tolerance": 1e-8, "pass": resid <= 1e-8,
            "length": length, "target": d - c}
    return {"task": "letac", "certifications": [cert]}, (0 if cert["pass"] else 1)


def _solve_interp(body):
    lists = [_at(body, "interp", key, []) for key in ("zeros", "poles", "singular")]
    if "alpha" in body or "beta" in body or "zeta" in body:
        # a point of the disk problem is a [re, im] pair of numbers
        points = [[complex(*_pair(p, path, "[re, im]")) for p in _list(value, path)]
                  for value, path in lists]
        alpha, beta, zeta = (complex(*_pair(*_at(body, "interp", key), "[re, im]"))
                             for key in ("alpha", "beta", "zeta"))
        theta = _made("interp", interp.disk_interpolate, *points, alpha, beta, zeta)
        return {"task": "interp-disk",
                "region": theta.region.to_json(),
                "problem": theta.problem.to_json(),
                "certifications": _cert_entries(theta.certifications)}
    problem = _made("interp", interp.InterpProblem,
                    *(tuple(_point(x, path) for x in _list(value, path)) for value, path in lists))
    build = interp.build_function(problem)
    return {"task": "interp",
            "region": build.region.to_json(),
            "function": {"krein": build.region.to_json()},
            "extra_poles": [extreal.point_to_json(p) for p in build.extra_poles],
            "extra_zeros": [extreal.point_to_json(p) for p in build.extra_zeros],
            "certifications": _cert_entries(build.certifications)}


# ---------------------------------------------------------------------------
# verification suites


def _random_arcset(rng):
    kind = rng.integers(0, 4)
    pts = np.sort(rng.uniform(-8, 8, size=2 * int(rng.integers(1, 4))))
    while np.min(np.diff(pts)) < 0.05:
        pts = np.sort(rng.uniform(-8, 8, size=len(pts)))
    arcs = [Arc(pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2)]
    if kind == 1:
        arcs[-1] = Arc(pts[-2], INF)
    elif kind == 2:
        arcs[0] = Arc(INF, pts[1])
    elif kind == 3:
        arcs = arcs[:-1] + [Arc(pts[-1], pts[0] - 0.5)]
    return normalize(arcs)


def _random_rep(rng, n_max=8, draw_alpha=True):
    n = int(rng.integers(1, n_max + 1))
    ts = np.sort(rng.uniform(-5, 5, size=n))
    while n > 1 and np.min(np.diff(ts)) < 0.3:
        ts = np.sort(rng.uniform(-5, 5, size=n))
    ws = rng.uniform(0.2, 2.0, size=n)
    alpha = 0.0
    if draw_alpha and rng.random() < 0.7:
        alpha = float(rng.uniform(0, 2))
    beta = float(rng.uniform(-3, 3))
    return NevanlinnaRep(alpha, beta, Measure(
        atoms=tuple((float(t), float(w)) for t, w in zip(ts, ws))))


def suite_krein_props(rng, report):
    worst_norm, worst_angle, worst_explog = 0.0, 0.0, 0.0
    for _ in range(100):
        o = _random_arcset(rng)
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        k = KreinProduct(o)
        val = k(z)
        worst_norm = max(worst_norm, abs(abs(k(1j)) - 1.0))
        ang = extreal.angle_subtended(o, z)
        worst_angle = max(worst_angle, abs(cmath.phase(val) - ang)
                          if ang <= math.pi - 1e-9 else 0.0)
        for arc in o.arcs:
            worst_explog = max(worst_explog,
                               abs(cmath.exp(krein.log_p(arc, z)) - p_eval(arc, z)))
    report.append(("norm_at_i", worst_norm, 1e-12))
    report.append(("angle_identity", worst_angle, 1e-10))
    report.append(("exp_log_identity", worst_explog, 1e-12))
    merged = KreinProduct(normalize([Arc(1, 2), Arc(2, 3)]))
    x = np.linspace(0.1, 0.9, 10)
    zs = (-2 + 6 * x) + 1j * (0.3 + 2 * x)
    worst = float(np.max(np.abs(merged(zs) - p_eval(Arc(1, 3), zs))))
    report.append(("merge_identity", worst, 1e-12))


def suite_nevanlinna_roundtrip(rng, report):
    worst = 0.0
    for _ in range(25):
        rep = _random_rep(rng, 6)
        f = rep.eval
        worst = max(worst, abs(recover_alpha(f) - rep.alpha),
                    abs(recover_beta(f) - rep.beta))
        for t, w in rep.rho.atoms:
            worst = max(worst, abs(recover_atom(f, t) - w))
    report.append(("roundtrip", worst, 1e-6))


def suite_boole(rng, report):
    worst = 0.0
    for _ in range(25):
        rep = _random_rep(rng, 6)
        mu = rep.rho
        for y in (0.5, 1.0, 3.0):
            plus, minus = boole_superlevel_measure(mu, y)
            target = mu.mass() / y
            worst = max(worst, abs(plus - target), abs(minus - target))
    report.append(("superlevel_identity", worst, 1e-8))


def suite_letac(rng, report):
    worst = 0.0
    for _ in range(20):
        rep = _random_rep(rng, 5, draw_alpha=False)
        rep = NevanlinnaRep(1.0, rep.beta, rep.rho)
        c = float(rng.uniform(-4, 0))
        d = c + float(rng.uniform(0.5, 4))
        worst = max(worst, abs(letac_pushforward_check(rep, (c, d)) - (d - c)))
    report.append(("pushforward_length", worst, 1e-8))


def suite_factor_posts(rng, report):
    worst_resid, all_pass = 0.0, True
    for _ in range(20):
        rep = _random_rep(rng, 6)
        res = factorize(RepFunction(rep))
        all_pass = all_pass and res.ok
        if res.constant_residual is not None:
            worst_resid = max(worst_resid, res.constant_residual)
    report.append(("posts_pass", 0.0 if all_pass else 1.0, 0.0))
    report.append(("constant_residual", worst_resid, 1e-9))


def suite_interp_equivalence(rng, report):
    agree = 0
    total = 100
    for _ in range(total):
        problem = _random_interp_problem(rng)
        ok = interp.check_interlacing(problem).ok
        try:
            o = interp.construct_O(problem)
            built = True
            s = krein.KreinProduct(o).structure
            inc = all(any(extreal.points_equal(a, r) for r in s.zeros)
                      for a in problem.zeros)
            inc = inc and all(any(extreal.points_equal(b, l) for l in s.poles)
                              for b in problem.poles)
        except interp.InterlacingError:
            built, inc = False, False
        if ok == built and (not ok or inc):
            agree += 1
    report.append(("equivalence_agreement", total - agree, 0.0))


def _random_interp_problem(rng):
    n_y = int(rng.integers(0, 3))
    ys = sorted(rng.uniform(-8, 8, size=n_y)) if n_y else []
    pts = np.sort(rng.uniform(-7.5, 7.5, size=int(rng.integers(1, 8))))
    pts = [float(t) for t in pts
           if all(abs(t - y) > 0.3 for y in ys)]
    pts = [t for i, t in enumerate(pts) if i == 0 or t - pts[i - 1] > 0.2]
    zeros, poles = [], []
    for t in pts:
        (zeros if rng.random() < 0.5 else poles).append(t)
    try:
        return interp.InterpProblem(tuple(zeros), tuple(poles), tuple(ys))
    except ValueError:
        return interp.InterpProblem((0.0,), (1.0,), ())


SUITES = {"krein-props": suite_krein_props, "nevanlinna-roundtrip": suite_nevanlinna_roundtrip,
          "boole": suite_boole, "letac": suite_letac, "factor-posts": suite_factor_posts,
          "interp-equivalence": suite_interp_equivalence}


def cmd_check(args):
    if args.suite not in SUITES:
        raise SpecError(f"unknown suite '{args.suite}'; choose from {tuple(SUITES)}")
    rng = np.random.default_rng(args.seed)
    entries = []
    SUITES[args.suite](rng, entries)
    certs = [{"name": n, "residual": r, "tolerance": t, "pass": r <= t}
             for n, r, t in entries]
    ok = all(c["pass"] for c in certs)
    return {"task": "check", "suite": args.suite, "seed": args.seed,
            "certifications": certs}, (0 if ok else 1)


# ---------------------------------------------------------------------------


def write_output(report, code, args, t0):
    if args.timing:
        report["timing_s"] = round(time.perf_counter() - t0, 6)
    # only eval reports rows, and only eval takes --format
    if "rows" in report and args.format == "csv":
        text = rows_to_csv(report["rows"])
    else:
        if "rows" in report:
            report["rows"] = [list(r) for r in report["rows"]]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)
    return code


@functools.cache
def _parser():
    """The argparse tree, built on first use and shared by every later
    ``main`` call in the process (parse_args keeps no state in it)."""
    parser = argparse.ArgumentParser(
        prog="halfplane",
        description="numerics for analytic self-maps of the upper half-plane")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="JSON spec file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")

    p_eval_cmd = sub.add_parser("eval", help="evaluate a function spec on a grid")
    common(p_eval_cmd)
    p_eval_cmd.add_argument("--grid", help="a:b:n or box:re1:re2:im1:im2:n")
    p_eval_cmd.add_argument("--eps", type=float, default=None,
                            help="boundary ladder height for real-axis rows")
    p_eval_cmd.add_argument("--format", choices=("json", "csv"), default="json")

    p_factor = sub.add_parser("factor", help="factorize a function spec")
    common(p_factor)

    p_solve = sub.add_parser("solve", help="run a problem spec "
                                           "(interp | realizable | boole | letac)")
    common(p_solve)

    p_check = sub.add_parser("check", help="run a verification suite")
    common(p_check, spec=False)
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    run = {"eval": cmd_eval, "factor": cmd_factor, "solve": cmd_solve, "check": cmd_check}
    try:
        report, code = run[args.command](args)
        return write_output(report, code, args, t0)
    except SpecError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except (factor.CertificationError, interp.InterlacingError,
            RootBracketError, TailNotCertified) as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return 1
    except Exception as exc:  # every input error is a SpecError: this is a fault
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
