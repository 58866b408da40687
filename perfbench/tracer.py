"""Per-layer tracing of halfplane from outside the package.

The tracer wraps public entry points of each module in spans and counters
while it is installed.  A function that other modules imported by name
(``from .krein import p_eval``) is replaced in every ``halfplane`` module
that holds it, and a method is replaced on its class, so every call is
caught.  Nothing under ``src/`` is edited.

Spans nest on a stack (the program is single-threaded).  A span's self time
is its duration minus the time its child spans cover.  Spans are aggregated
per name as they close (call count and summed self time) instead of being
kept one by one: the Nevanlinna evaluator alone runs hundreds of thousands
of times per pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._patches = []
        self.missing = []  # targets the program no longer has

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn in a span; ``name`` may be a function of the call's
        arguments returning the span name."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        namer = name if callable(name) else (lambda *a, **k: name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                key = namer(*args, **kwargs)
                calls[key] += 1
                self_s[key] += dur - frame[0]

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def patch_function(self, module, attr, make):
        """Replace module.attr, and every other halfplane module's binding
        of the same function object, by make(original)."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "halfplane"
                                   or modname.startswith("halfplane.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def patch_method(self, cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _krein_eval_name(k, z, *args, **kwargs):
    if k.cantor is not None:
        return "krein.generator_eval"
    if isinstance(z, complex) and z.imag != 0:
        return "krein.explicit_eval"
    return "krein.explicit_eval_real"


def install(tracer: Tracer):
    from halfplane import cli, extreal, factor, interp, krein, moebius
    from halfplane import nevanlinna, util

    span, counter = tracer.span, tracer.counter
    fn = tracer.patch_function

    def named(name):
        return lambda f: span(name, f)

    tracer.patch_method(krein.KreinProduct, "eval", named(_krein_eval_name))
    fn(krein, "p_eval", lambda f: counter("krein.p_eval", f))
    fn(krein, "log_p", lambda f: counter("krein.log_p", f))

    tracer.patch_method(nevanlinna.NevanlinnaRep, "eval",
                        named("nevanlinna.rep_eval"))
    fn(nevanlinna, "analyze", named("nevanlinna.analyze"))
    fn(nevanlinna, "boole_superlevel_measure", named("nevanlinna.boole"))
    fn(nevanlinna, "letac_pushforward_check", named("nevanlinna.letac"))
    fn(nevanlinna, "cauchy_transform",
       lambda f: counter("nevanlinna.cauchy_transform", f))

    def bisect(f):
        counts = tracer.counts

        def counted_bisect(g, lo, hi, *args, **kwargs):
            counts["util.bisect"] += 1

            def counted_eval(x):
                counts["util.bisect.evals"] += 1
                return g(x)

            return f(counted_eval, lo, hi, *args, **kwargs)

        return counted_bisect

    fn(util, "bisect_increasing", bisect)

    def factorize(f):
        traced = span("factor.factorize", f)
        counts = tracer.counts

        def classify(g, f_in):
            if isinstance(g, factor.RepFunction):
                counts["factor.exact"] += 1
            elif (isinstance(g, factor.BlackBoxFunction) and g.label == "quotient"
                  and isinstance(f_in, factor.RepFunction)):
                counts["factor.quotient_fallbacks"] += 1

        def inspected(f_in, *args, **kwargs):
            try:
                res = traced(f_in, *args, **kwargs)
            except factor.CertificationError as exc:
                if isinstance(exc.worst, factor.FactorizationResult):
                    classify(exc.worst.g, f_in)
                raise
            classify(res.g, f_in)
            return res

        return inspected

    fn(factor, "factorize", factorize)
    fn(factor, "divide_single", lambda f: counter("factor.divide_single", f))

    fn(interp, "build_function", named("interp.build_function"))
    fn(interp, "disk_interpolate", named("interp.disk_interpolate"))
    fn(interp, "realizable_pair", named("interp.realizable_pair"))
    fn(interp, "construct_O", lambda f: counter("interp.construct_O", f))

    tracer.patch_method(moebius.DiskMap, "__call__", named("moebius.disk_map"))
    tracer.patch_method(moebius.DiskMap, "inverse_apply",
                        named("moebius.disk_map"))
    fn(moebius, "cayley", lambda f: counter("moebius.cayley", f))

    fn(extreal, "normalize", named("extreal.normalize"))
    fn(extreal, "regularize", named("extreal.regularize"))

    fn(cli, "main", named("cli.main"))
    fn(cli, "load_spec", named("cli.load_spec"))
    fn(cli, "write_output", named("cli.write_output"))
