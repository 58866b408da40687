"""halfplane benchmark: three seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload cantor-eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload with a single client and no extra
threads: the next op starts when the previous one has returned and its
answer has been checked against the reference (check time is not op time).

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median wall
time of fresh interpreters importing ``halfplane`` and ``halfplane.cli``),
then ops for ``--seconds`` of op time.

These timings are scaled to a reference host speed.  On a shared 2-core VM
the host alternates, for seconds to minutes at a time, between full speed
and about 1.6x slower, for halfplane and any other code alike, which moves
unscaled run medians by up to a quarter.  A fixed probe that runs no
halfplane code is timed between ops, every 0.1 s of op time, and each op's
wall time is multiplied by ``PROBE_REF_S`` over the median of the 21 probes
around it, about two seconds of op time (for ``setup_s``: of the probes
taken between the children).  One probe varies by a fifth from the next, so
fewer probes add noise; a median over the whole run misses swings inside
it.  The ``# summary`` line gives the unscaled wall figures and the probe
median.

``--trace 1`` reports per-layer metrics, unscaled: it times one untraced
pass over a fixed batch (the first blocks of the same seeded stream), then
one traced pass, so every ``*.calls`` count repeats exactly for a seed; plus
the import breakdown, a sweep of the Cantor kernel over depth, and
``hard_inputs.refused``: how many of the workload's hard inputs, the ones
the program is known to refuse, it still refuses.  Hard inputs are not ops
of the workload and do not count in ``attempted`` or ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails when it raised, was
refused, exited non-zero or gave a wrong answer; the workloads are drawn so
that none does.  ``correct`` is false, and the exit code 1, when an answer,
one to a hard input included, disagrees with the reference or the checker
accepts a deliberately perturbed answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_STMT = "import halfplane, halfplane.cli"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
MIN_OPS = 100  # at least ten samples beyond p90
MAX_LOOP_FACTOR = 3.0  # op-time cap, as a multiple of --seconds, to reach MIN_OPS
SWEEP = ((14, 5), (18, 3), (22, 3))  # (depth, repeats) at z = 0.5 + 0.5i
BYTES_PER_FACTOR = 40  # two float64 endpoints, one float64 scale, one complex128 log
PROBE_REF_S = 1.6e-3  # probe time on the reference host (2-core VM) at full speed
PROBE_EVERY_S = 0.1  # op time between two probes
PROBE_HALF_WINDOW = 10  # probes on each side of an op in its speed estimate

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


PROBE_DOC = [{"x": i * 0.5, "name": f"item{i}", "vals": list(range(i % 7))}
             for i in range(100)]
PROBE_ARRAY = np.linspace(0.1, 1.0, 1 << 12) + 0.5j


def probe():
    """Time of a fixed piece of work that runs no halfplane code: arithmetic,
    a dict, JSON and a numpy kernel.  Over two-second windows the mix follows
    the host's slow spells on all three workloads more closely than any one
    of its parts does."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += math.sqrt(i) * 1.0001
    {i: (i, str(i)) for i in range(3000)}
    json.loads(json.dumps(PROBE_DOC))
    np.sum(np.log(PROBE_ARRAY * 1.0001)) + np.sum(np.exp(PROBE_ARRAY))
    return time.perf_counter() - t0


def speed_scale(probes):
    """The factor that turns wall seconds measured next to ``probes`` into
    seconds at the reference host speed."""
    return PROBE_REF_S / statistics.median(probes)


def measure_setup():
    """Median wall time, at the reference speed, of a fresh interpreter
    importing the package and CLI."""
    cmd = [sys.executable, "-c", IMPORT_STMT]
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes += [probe() for _ in range(5)]
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    probes += [probe() for _ in range(5)]
    return statistics.median(times) * speed_scale(probes)


def import_breakdown():
    """import.* metrics: medians over children run with -X importtime."""
    totals, kreins, scipys = [], [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_STMT],
                              cwd=ROOT, env=child_env(), check=True,
                              capture_output=True, text=True)
        total, cumulative = 0, {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cum_us, name = line[len("import time:"):].split("|")
            total += int(self_us)
            cumulative[name.strip()] = int(cum_us)
        totals.append(total * 1e-6)
        kreins.append(cumulative.get("halfplane.krein", 0) * 1e-6)
        scipys.append(cumulative.get("scipy.integrate", 0) * 1e-6)
    return {"import.total_s": statistics.median(totals),
            "import.krein_s": statistics.median(kreins),
            "import.scipy_integrate_s": statistics.median(scipys)}


class Tally:
    """Outcomes of the ops of one pass or loop."""

    def __init__(self):
        self.latencies = []  # wall seconds
        self.op_time = 0.0
        self.certified = 0
        self.causes = Counter()
        self.kind_latencies = {}
        self.wrong = []
        self.accepted = {}  # kind -> (op, answer) of the first certified op

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.attempted - self.certified


def attempt(w, op, tally):
    """Run one op, time it, check its answer against the reference."""
    t0 = time.perf_counter()
    try:
        result, error = w.run(op), None
    except Exception as exc:  # every failure is classified and counted
        result, error = None, exc
    dt = time.perf_counter() - t0
    tally.latencies.append(dt)
    tally.op_time += dt
    tally.kind_latencies.setdefault(op.kind, []).append(dt)
    if error is not None:
        tally.causes[wl.REFUSALS.get(type(error).__name__, "other_exception")] += 1
        if type(error).__name__ not in wl.REFUSALS:
            print(f"# {op.kind}: {type(error).__name__}: {error}", file=sys.stderr)
    elif isinstance(result, int) and not isinstance(result, bool) and result != 0:
        tally.causes[f"cli_exit_{result}" if result in (1, 2) else "other_exception"] += 1
    else:
        try:
            ans = w.answer(op, result)
            reason = w.check(op, ans)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed answer: {type(exc).__name__}: {exc}"
        if reason is None:
            tally.certified += 1
            tally.accepted.setdefault(op.kind, (op, ans))
        else:
            tally.causes["wrong_answer"] += 1
            tally.wrong.append(f"{op.kind}: {reason}")


def self_test(w, tally):
    """The checker must reject a perturbed copy of each accepted answer kind."""
    broken = []
    for kind, (op, ans) in sorted(tally.accepted.items()):
        if w.check(op, w.perturb(op, ans)) is None:
            broken.append(kind)
    return broken


def timed_loop(w, rng, seconds):
    """Ops for ``seconds`` of op time; ``tally.scaled`` holds each op's time
    at the reference speed, from the median of the probes around it."""
    tally, probes, marks = Tally(), [probe()], []
    cap = seconds * MAX_LOOP_FACTOR
    probed = 0.0
    while tally.op_time < seconds or (tally.attempted < MIN_OPS and tally.op_time < cap):
        for op in w.block(rng):
            marks.append(len(probes) - 1)
            attempt(w, op, tally)
            if tally.op_time - probed >= PROBE_EVERY_S:
                probes.append(probe())
                probed = tally.op_time
    h = PROBE_HALF_WINDOW
    scales = [speed_scale(probes[max(0, i - h): i + h + 1]) for i in range(len(probes))]
    tally.scaled = [dt * scales[m] for dt, m in zip(tally.latencies, marks)]
    tally.probes = probes
    return tally


def run_pass(w, ops):
    tally = Tally()
    t0 = time.perf_counter()
    for op in ops:
        attempt(w, op, tally)
    return tally, time.perf_counter() - t0


def kernel_sweep():
    from halfplane.krein import cantor_complement_product

    kp = cantor_complement_product((0, 1), depth=26, tol=1e-2)
    z = 0.5 + 0.5j
    out = {}
    for depth, repeats in SWEEP:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kp.eval_at_depth(z, depth)
            times.append(time.perf_counter() - t0)
        out[depth] = statistics.median(times)
    factors = 2 ** 22 - 1
    return {"krein.eval_at_depth.d14_ms": out[14] * 1e3,
            "krein.eval_at_depth.d18_ms": out[18] * 1e3,
            "krein.eval_at_depth.d22_ms": out[22] * 1e3,
            "krein.eval_at_depth.nominal_factors_per_s": factors / out[22],
            "krein.eval_at_depth.computed_bytes": factors * BYTES_PER_FACTOR}


def layer_metrics(tr: Tracer, tally):
    spans = ("krein.generator_eval", "krein.explicit_eval", "krein.explicit_eval_real",
             "nevanlinna.rep_eval", "nevanlinna.analyze", "factor.factorize",
             "moebius.disk_map", "extreal.normalize", "extreal.regularize")
    self_only = ("nevanlinna.boole", "nevanlinna.letac", "interp.build_function",
                 "interp.disk_interpolate", "interp.realizable_pair", "cli.main",
                 "cli.load_spec", "cli.write_output")
    counts = ("krein.p_eval", "krein.log_p", "nevanlinna.cauchy_transform",
              "factor.divide_single", "interp.construct_O", "moebius.cayley")
    m = {}
    for name in spans:
        m[f"{name}.calls"] = tr.calls[name]
        m[f"{name}.self_s"] = tr.self_s[name]
    for name in self_only:
        m[f"{name}.self_s"] = tr.self_s[name]
    for name in counts:
        m[f"{name}.calls"] = tr.counts[name]
    bisects = tr.counts["util.bisect"]
    m["util.bisect.calls"] = bisects
    m["util.bisect.evals_per_call"] = tr.counts["util.bisect.evals"] / bisects if bisects else 0.0
    attempts = tr.calls["factor.factorize"]
    m["factor.exact_ratio"] = tr.counts["factor.exact"] / attempts if attempts else 0.0
    m["factor.quotient_fallbacks"] = tr.counts["factor.quotient_fallbacks"]
    m["ops.per_pass"] = tally.attempted
    return m


def metadata(args, tally):
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    try:
        sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except FileNotFoundError:  # no git on this machine
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else None,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "src_lines": src_lines, "ops": {k: len(v) for k, v in sorted(tally.kind_latencies.items())},
            "samples": tally.attempted, "untraced": args.untraced}


def summary(tally, hard_tally):
    """Run figures in wall time, unscaled, next to the reported metrics."""
    lat = np.array(tally.latencies) * 1e3
    causes = {c: tally.causes[c] for c in wl.FAILURE_CAUSES}
    probes = getattr(tally, "probes", None)
    out = {"samples": tally.attempted, "certified": tally.certified,
           "fail_ratio": tally.failed / tally.attempted, "failures": causes,
           "wall_certified_per_s": tally.certified / tally.op_time,
           "wall_p50_ms": float(np.percentile(lat, 50)),
           "wall_p90_ms": float(np.percentile(lat, 90)),
           "beyond_p90": int(np.sum(lat > np.percentile(lat, 90))),
           "probe_median_ms": statistics.median(probes) * 1e3 if probes else None,
           "p50_ms_by_kind": {k: round(statistics.median(v) * 1e3, 3)
                              for k, v in sorted(tally.kind_latencies.items())}}
    if hard_tally is not None:
        out["hard_inputs"] = {"attempted": hard_tally.attempted,
                              "refused": dict(sorted(hard_tally.causes.items()))}
    return out


def emit(args, tally, hard_tally, metrics, units, broken):
    wrong = tally.wrong + (hard_tally.wrong if hard_tally else [])
    for kind in broken:
        print(f"# checker accepted a perturbed {kind} answer", file=sys.stderr)
    for reason in wrong[:20]:
        print(f"# wrong answer: {reason}", file=sys.stderr)
    print("# meta " + json.dumps(metadata(args, tally), sort_keys=True))
    print("# summary " + json.dumps(summary(tally, hard_tally), sort_keys=True))
    correct = not wrong and not broken
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def bench(args, tmpdir):
    w = wl.WORKLOADS[args.workload](tmpdir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    rng = np.random.default_rng(args.seed)
    hard_tally = None  # hard inputs, attempted in the traced run only
    if not args.trace:
        tally = timed_loop(w, rng, args.seconds)
        metrics = {
            "certified_per_s": tally.certified / sum(tally.scaled),
            "latency_p50_ms": float(np.percentile(tally.scaled, 50)) * 1e3,
            "latency_p90_ms": float(np.percentile(tally.scaled, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": args.setup_s,
        }
    else:
        ops = [op for _ in range(w.trace_blocks) for op in w.block(rng)]
        run_pass(w, ops)  # warm-up
        _, untraced = run_pass(w, ops)
        with Tracer() as tr:
            tally, traced = run_pass(w, ops)
        args.untraced = tr.missing
        metrics = layer_metrics(tr, tally)
        metrics["trace.overhead_ratio"] = traced / untraced
        hard_tally, _ = run_pass(w, w.hard_inputs(np.random.default_rng([args.seed, 1])))
        metrics["hard_inputs.refused"] = hard_tally.failed
        metrics.update(kernel_sweep())
        metrics.update(args.imports)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return emit(args, tally, hard_tally, {k: metrics[k] for k in units}, units,
                self_test(w, tally))


def run_self_test(tmpdir):
    """Run one block of each workload; each accepted answer kind must be
    rejected by its checker once perturbed."""
    failures = 0
    for name, workload in wl.WORKLOADS.items():
        w = workload(tmpdir)
        tally, _ = run_pass(w, w.block(np.random.default_rng(0)))
        broken = self_test(w, tally)
        status = "ok" if tally.accepted and not broken and not tally.wrong else "FAIL"
        failures += status != "ok"
        print(f"{name}: {len(tally.accepted)} answer kinds checked, "
              f"perturbations rejected: {sorted(set(tally.accepted) - set(broken))}, "
              f"accepted: {broken}, wrong answers: {tally.wrong} -> {status}")
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    args.untraced = []
    if not (SRC / "halfplane" / "__init__.py").is_file():
        print(f"no halfplane sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    sys.path.insert(0, str(SRC))
    if not args.self_test:
        # set-up and import metrics come from children, before this process
        # imports anything of the package; the first child writes bytecode
        subprocess.run([sys.executable, "-c", IMPORT_STMT], cwd=ROOT,
                       env=child_env(), check=True)
        args.setup_s = None if args.trace else measure_setup()
        args.imports = import_breakdown() if args.trace else None
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp")
    try:
        if args.self_test:
            return run_self_test(tmpdir)
        return bench(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
